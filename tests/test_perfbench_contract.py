"""What perfbench/ needs from the package, checked without running it.

The benchmark harness traces a pass by rebinding package names
(``perfbench/tracing.py``) and probes the mask thread pool through
``bulk.mask_stream(workers=)`` (``perfbench/workloads.py``).  A change to
``src/`` that drops or moves one of those names breaks ``--trace 1``
without failing any other test, so the contract is pinned here.  The
harness is imported from its own directory, unedited.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from time import perf_counter

import pytest

from strictcolor import bulk, lambdacolor, listcolor, streams
from strictcolor.graphs import complete_multipartite
from strictcolor.partitions import IntegerPartition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def harness():
    # Imported by name: these are perfbench modules, not dependencies.
    sys.path.insert(0, str(PERFBENCH))
    try:
        return (importlib.import_module("tracing"),
                importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_binds_and_restores_every_name(harness):
    tracing, _ = harness
    tracer = tracing.Tracer()
    names = [(mod, name) for mod, name, _ in tracer._bindings()]
    before = [getattr(mod, name) for mod, name in names]
    with tracer.installed():
        for (mod, name), original in zip(names, before):
            assert getattr(mod, name) is not original, name
        # The skeleton reaches the mask and the solver through rebound
        # names, so a traced decision counts them.
        g = complete_multipartite((2, 4))
        assert not listcolor.k_choosable(g, 2).choosable
    assert [getattr(mod, name) for mod, name in names] == before
    counts = tracer.report()
    assert counts["listcolor.k_choosable_calls"] == 1
    assert counts["bulk.mask_rows"] > 0
    assert counts["listcolor.l_color_calls"] >= 1


def test_traced_capped_stream_reaches_the_owner_maps(harness, monkeypatch):
    # The prospect rung masks capped rows with the host's parts, so the
    # tracer's wrapper must pass colorable_mask's keywords through.
    tracing, _ = harness
    swept = []
    sweep = bulk._sweep_maps

    def spy(lists, parts, colors):
        swept.append(colors)
        return sweep(lists, parts, colors)

    monkeypatch.setattr(bulk, "_sweep_maps", spy)
    tracer = tracing.Tracer()
    with tracer.installed():
        verdict = lambdacolor.lambda_choosable(
            complete_multipartite((3, 3, 5)), IntegerPartition((1, 2)))
    assert verdict.choosable is False
    counts = tracer.report()
    assert counts["bulk.mask_rows"] > 0
    assert counts["bulk.mask_s"] > 0
    assert swept


def test_pool_probe_runs_at_one_and_two_workers(harness):
    _, workloads = harness
    rows = list(streams.enumerate_k_lists(3, 2))
    case = workloads.PoolCase((1, 1, 1), rows, 6, 4)
    for workers in (1, 2):
        assert workloads.time_pool(case, workers) >= 0


def test_pool_probes_stay_small(harness):
    # A traced run builds every workload's pool, reading enumerate_grouped
    # and bulk.CHUNK_ROWS: a change to the chunking must neither stall a
    # traced run nor make it hold more rows.
    _, workloads = harness
    start = perf_counter()
    for name, workload in workloads.WORKLOADS.items():
        case = workload.pool()
        assert 0 < len(case.rows) <= 4 * bulk.CHUNK_ROWS, name
        assert {len(row) for row in case.rows} == {case.width}, name
    assert perf_counter() - start < 2

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

import pytest

from strictcolor import listcolor, streams
from strictcolor.graphs import complete_multipartite

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


def test_pool_probe_runs_at_one_and_two_workers(harness):
    _, workloads = harness
    rows = list(streams.enumerate_k_lists(3, 2))
    case = workloads.PoolCase((1, 1, 1), rows, 6, 4)
    for workers in (1, 2):
        assert workloads.time_pool(case, workers) >= 0

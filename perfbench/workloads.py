"""The four benchmark workloads and their independent correctness checks.

Each workload is a closed loop: one client issues one decision at a time
and waits for its verdict.  A pass issues every decision of the workload
once; ``wall_s`` is the time of one pass.  Every workload runs one of the
package's four stream -> mask -> confirm loops.  None of them has random
input, so the seed only permutes the order of the instances.

Decisions reach the package through public functions looked up on the
``strictcolor`` module at call time, which is what lets a traced pass
rebind them.  Verdicts are checked after the timed passes, against
references that do not run the loop being measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Callable

import strictcolor as sc
from strictcolor import bulk, streams


@dataclass(frozen=True)
class PoolCase:
    """Fixed rows for timing the mask_stream thread pool."""

    sizes: tuple[int, ...]
    rows: list[tuple[int, ...]]
    width: int
    chunk_rows: int


@dataclass(frozen=True)
class Workload:
    name: str
    instances: Callable[[], list]
    decide: Callable[[object], object]
    reference: Callable[[object], object]
    # Problem with (instance, result, reference), or None when it checks.
    check: Callable[[object, object, object], str | None]
    pool: Callable[[], PoolCase]

    def build(self, seed: int) -> list:
        order = self.instances()
        random.Random(seed).shuffle(order)
        return order


LAM12 = sc.near_unit_partition(3)  # {1, 2}: one 2-group and one 1-group


def _stream_pool(sizes: tuple[int, ...], rows) -> PoolCase:
    picked = list(islice(rows, 4 * bulk.CHUNK_ROWS))
    return PoolCase(sizes, picked, len(picked[0]), bulk.CHUNK_ROWS)


# -- sweep-k222: lambda_choosable exhaustive tail -----------------------

def _sweep_check(_inst, verdict, expected: bool) -> str | None:
    if (verdict.choosable is not expected
            or verdict.provenance != "exhaustive"):
        return (f"expected choosable by exhaustive sweep, got "
                f"{verdict.choosable} ({verdict.provenance})")
    return None


def _sweep_pool() -> PoolCase:
    g = sc.complete_multipartite((2, 2, 2))
    return _stream_pool((2, 2, 2),
                        streams.enumerate_grouped(6, (2, 1), parts=g.parts))


SWEEP = Workload(
    name="sweep-k222",
    instances=lambda: [(2, 2, 2)],
    decide=lambda sizes: sc.lambda_choosable(
        sc.complete_multipartite(sizes), LAM12, method="exhaustive"),
    reference=lambda _sizes: True,
    check=_sweep_check,
    pool=_sweep_pool,
)


# -- choice-k24: k_choosable via choice_number --------------------------

def _degeneracy(g: sc.Graph) -> int:
    alive = set(range(g.n))
    worst = 0
    while alive:
        v = min(alive, key=lambda u: sum(w in alive for w in g.neighbors(u)))
        worst = max(worst, sum(w in alive for w in g.neighbors(v)))
        alive.remove(v)
    return worst


def _choice_reference(sizes: tuple[int, ...]) -> int:
    """ch = 3 from two bounds that never enumerate list assignments.

    Greedy coloring along a degeneracy order gives ch <= degeneracy + 1,
    and the Erdos-Rubin-Taylor structure test gives ch > 2.
    """
    g = sc.complete_multipartite(sizes)
    upper = _degeneracy(g) + 1
    lower = 2 if sc.two_choosable_fast(g) else 3
    if lower != upper:
        raise RuntimeError(f"bounds {lower}..{upper} do not pin ch{sizes}")
    return upper


def _choice_pool() -> PoolCase:
    g = sc.complete_multipartite((2, 4))
    return _stream_pool((2, 4),
                        streams.enumerate_k_lists(6, 3, parts=g.parts))


CHOICE = Workload(
    name="choice-k24",
    instances=lambda: [(2, 4)],
    decide=lambda sizes: sc.choice_number(sc.complete_multipartite(sizes)),
    reference=_choice_reference,
    check=lambda _s, got, ref: (None if got == ref
                                else f"choice number {got}, expected {ref}"),
    pool=_choice_pool,
)


# -- refusals-hj: hoffman_johnson_enumerate ------------------------------

# Refusing 2-assignment classes of K(m, n) up to relabeling.
HJ_CLASSES = {(2, 5): 4, (3, 4): 24, (2, 6): 23}


def _hj_check(sizes, classes, expected) -> str | None:
    if len(classes) != expected:
        return f"K{sizes}: {len(classes)} classes, expected {expected}"
    if len(set(classes)) != len(classes):
        return f"K{sizes}: a class is listed twice"
    for lists in classes:
        if sc.l_color_multipartite(sizes, lists).colorable:
            return f"K{sizes}: class {lists} is colorable"
    return None


def _hj_pool() -> PoolCase:
    g = sc.complete_multipartite((2, 6))
    return _stream_pool((2, 6),
                        streams.enumerate_k_lists(8, 2, parts=g.parts))


REFUSALS = Workload(
    name="refusals-hj",
    instances=lambda: list(HJ_CLASSES),
    decide=lambda mn: sc.hoffman_johnson_enumerate(*mn),
    reference=HJ_CLASSES.__getitem__,
    check=_hj_check,
    pool=_hj_pool,
)


# -- search-strict: _prospect_bad_row via decide_strict_search -----------

# Case-2 shapes (2,4,a<=5) are settled by an uncertified shortcut on both
# routes, so their agreement would prove nothing; they are left out.
CASE2 = {(2, 4, 4), (2, 4, 5)}


def _profiles(max_vertices: int) -> list[tuple[int, int, int]]:
    return [(a, b, c)
            for a in range(1, max_vertices + 1)
            for b in range(a, max_vertices + 1)
            for c in range(b, max_vertices + 1)
            if a + b + c <= max_vertices and (a, b, c) not in CASE2]


def _search_check(sizes, decision, ref_strict) -> str | None:
    if decision.strict != ref_strict:
        return (f"K{sizes}: search says {decision.strict} "
                f"({decision.reason}), cmp says {ref_strict}")
    g = sc.complete_multipartite(sizes)
    cert = decision.certificate
    if isinstance(cert, sc.BadAssignmentWitness):
        ok = decision.strict and sc.check_bad_witness(g, cert)
    elif isinstance(cert, sc.PartitionabilityWitness):
        ok = (not decision.strict
              and sc.check_partitionability_witness(g, LAM12, cert))
    else:
        ok = False
    return None if ok else f"K{sizes}: certificate does not re-validate"


def _search_pool() -> PoolCase:
    # The color-starved rows _prospect_bad_row masks on K(3,3,5): 3^11
    # choice vectors per row, with a few refusing rows that see them all.
    g = sc.complete_multipartite((3, 3, 5))
    rows = list(islice(streams.enumerate_grouped(11, (2, 1), parts=g.parts,
                                                 caps=(3, 1)), 1024))
    return PoolCase((3, 3, 5), rows, 33, 256)


SEARCH = Workload(
    name="search-strict",
    instances=lambda: _profiles(11),
    decide=lambda sizes: sc.decide_strict_search(
        sc.complete_multipartite(sizes), 3),
    reference=lambda sizes: sc.decide_strict_cmp(sizes).strict,
    check=_search_check,
    pool=_search_pool,
)


WORKLOADS = {w.name: w for w in (SWEEP, CHOICE, REFUSALS, SEARCH)}


def time_pool(case: PoolCase, workers: int) -> float:
    """Seconds for mask_stream to settle the case's rows."""
    g = sc.complete_multipartite(case.sizes)
    t0 = perf_counter()
    for _ in bulk.mask_stream(case.rows, g.n, g.edges, case.width,
                              chunk_rows=case.chunk_rows, workers=workers):
        pass
    return perf_counter() - t0

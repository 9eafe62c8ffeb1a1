"""Grouped list assignments: validation, enumeration, and choosability.

For an integer partition lam = {k_1, ..., k_t} of k, a lam-assignment is a
k-assignment whose color universe splits into disjoint groups C_1..C_t
with |L(v) ∩ C_i| = k_i for every vertex v (Zhu 2020).  The graph is
lam-choosable when every such assignment admits a proper coloring.

Alignment convention used throughout this module: IntegerPartition stores
its parts in non-decreasing order, but group indices follow the parts in
NON-increasing order, so groups[0] always pairs with the largest part.
The largest group constrains enumeration the most, which is why the
canonical stream is built in that order, and certificates read naturally
("the size-2 group first").

Choosability is decided on a ladder.  The constructive fast paths come
first (the Case-2 colorer for its exact part shapes, then a
lambda-partition, which colors each block from its own group), then a
hunt for a refusal among color-starved rows, and only then full
enumeration of the canonical assignment stream.  When every rung is out
of bounds the verdict is an explicit "undecided"; the module never
reports choosability it did not prove, and each positive verdict records
which rung proved it in ``provenance``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from . import limits
from .errors import BoundExceeded, Undetermined
from .graphs import Graph
from .listcolor import find_refusals, k_choosable, l_color, two_choosable_fast
from .partitions import (
    GroupingWitness,
    IntegerPartition,
    check_refinement_witness,
    near_unit_partition,
)
from .streams import enumerate_grouped, group_offsets, grouped_chunks, row_lists


def descending_parts(lam: IntegerPartition) -> tuple[int, ...]:
    """lam's parts in the group alignment order (non-increasing)."""
    return tuple(reversed(lam.parts))


@dataclass(frozen=True)
class LambdaAssignment:
    """Per-vertex color lists together with their group structure.

    ``groups[i]`` is C_{i+1}, aligned with the i-th part of ``lam`` in
    non-increasing order.  ``sizes`` is optional metadata naming the part
    sizes of the complete multipartite graph the assignment lives on;
    generic-graph assignments leave it None and carry their graph
    separately.
    """

    lam: IntegerPartition
    lists: tuple[tuple[int, ...], ...]
    groups: tuple[frozenset[int], ...]
    sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lists",
                           tuple(tuple(sorted(l)) for l in self.lists))
        object.__setattr__(self, "groups",
                           tuple(frozenset(c) for c in self.groups))
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(sorted(self.sizes)))

    @property
    def n(self) -> int:
        return len(self.lists)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_lambda(a: LambdaAssignment) -> ValidationReport:
    """Check every defining constraint; violations are data, not errors.

    The report lists each failed condition, including one line per
    (vertex, group) pair whose intersection count is off, so a broken
    certificate says where it broke.
    """
    violations: list[str] = []
    desc = descending_parts(a.lam)
    if len(a.groups) != len(desc):
        violations.append(f"{len(a.groups)} groups for {len(desc)} parts")
    for i, c in enumerate(a.groups):
        if not c:
            violations.append(f"group {i} is empty")
    for i, c in enumerate(a.groups):
        for j in range(i + 1, len(a.groups)):
            common = c & a.groups[j]
            if common:
                violations.append(f"groups {i} and {j} share {sorted(common)}")
    covered = frozenset().union(*a.groups) if a.groups else frozenset()
    stray = sorted({c for lst in a.lists for c in lst} - covered)
    if stray:
        violations.append(f"colors {stray} appear in lists but in no group")
    if a.sizes is not None and sum(a.sizes) != len(a.lists):
        violations.append(f"sizes {a.sizes} sum to {sum(a.sizes)}, "
                          f"but there are {len(a.lists)} lists")
    for v, lst in enumerate(a.lists):
        if len(set(lst)) != len(lst):
            violations.append(f"vertex {v} list repeats a color")
        if len(lst) != a.lam.weight:
            violations.append(f"vertex {v} list has {len(lst)} colors, "
                              f"need {a.lam.weight}")
        for i, (k_i, c) in enumerate(zip(desc, a.groups)):
            got = len(set(lst) & c)
            if got != k_i:
                violations.append(f"vertex {v} group {i}: |L ∩ C| = {got}, "
                                  f"need {k_i}")
    return ValidationReport(not violations, tuple(violations))


def coarsen_grouping(a: LambdaAssignment, coarse: IntegerPartition,
                     witness: GroupingWitness) -> LambdaAssignment:
    """Merge groups along a refinement witness.

    Every lam-assignment is also an assignment for anything lam refines:
    merging the groups that the witness sends to a common coarse part
    preserves disjointness, and the intersection counts add up to the
    coarse parts.  The witness speaks in ascending part indices (the
    IntegerPartition order) and is translated to group alignment here.
    """
    if not check_refinement_witness(a.lam, coarse, witness):
        raise ValueError(f"witness does not prove {a.lam} refines {coarse}")
    t = a.lam.part_count
    s = coarse.part_count
    merged: list[set[int]] = [set() for _ in range(s)]
    for asc_i, slot in enumerate(witness.assignment):
        merged[slot] |= a.groups[t - 1 - asc_i]
    groups = tuple(frozenset(merged[s - 1 - j]) for j in range(s))
    out = LambdaAssignment(coarse, a.lists, groups, sizes=a.sizes)
    report = validate_lambda(out)
    if not report.ok:
        raise ValueError("coarsened assignment fails validation: "
                         + "; ".join(report.violations[:3]))
    return out


def _stream_assignment(g: Graph, lam: IntegerPartition,
                       lists: Sequence[Sequence[int]]) -> LambdaAssignment:
    """A lam-assignment from 0-based stream lists, colors shifted to 1-based.

    Each color's group is the stream window it falls in.
    """
    offs = group_offsets(g.n, descending_parts(lam))
    used: list[set[int]] = [set() for _ in offs]
    for lst in lists:
        for c in lst:
            used[bisect_right(offs, c) - 1].add(c + 1)
    sizes = tuple(len(p) for p in g.parts) if g.parts is not None else None
    return LambdaAssignment(lam, tuple(tuple(c + 1 for c in lst)
                                       for lst in lists),
                            tuple(used), sizes=sizes)


def enumerate_lambda_assignments(g: Graph, lam: IntegerPartition
                                 ) -> Iterator[LambdaAssignment]:
    """Canonical lam-assignment stream for g.

    Group i draws its colors from a private window of n*k_i integers;
    groups are disjoint by definition, so fixing disjoint windows loses no
    generality.  The stream contains at least one representative of every
    class under color bijections preserving group membership, swaps of
    equal-size groups, and part-preserving vertex permutations, in a
    deterministic order.  Colors are 1-based.
    """
    for row in enumerate_grouped(g.n, descending_parts(lam), parts=g.parts):
        yield _stream_assignment(g, lam, row_lists(row, g.n))


@dataclass(frozen=True)
class BadAssignmentWitness:
    """An assignment no proper coloring satisfies; the strictness currency."""

    assignment: LambdaAssignment
    nodes_searched: int


def check_bad_witness(g: Graph, w: BadAssignmentWitness) -> bool:
    """Re-validate independently: structure holds and the solver refuses."""
    if len(w.assignment.lists) != g.n:
        return False
    if not validate_lambda(w.assignment).ok:
        return False
    return not l_color(g, w.assignment.lists).colorable


@dataclass(frozen=True)
class BlockEvidence:
    """One block of a lambda-partition with its choosability certificate."""

    vertices: tuple[int, ...]
    level: int
    method: str  # "edgeless" | "ert-core" | "exhaustive"
    classes_checked: int = 0


@dataclass(frozen=True)
class PartitionabilityWitness:
    """Vertex blocks, aligned like groups, each k_i-choosable on its own.

    Coloring block i from group C_i colors the whole graph because the
    groups are disjoint, so this witness certifies lam-choosability
    without enumerating assignments.
    """

    lam: IntegerPartition
    blocks: tuple[BlockEvidence, ...]


def _certify_block(g: Graph, vertices: tuple[int, ...],
                   level: int) -> BlockEvidence | None:
    """Choosability certificate for one induced block, or None.

    Levels 1 and 2 are exact and cheap (edgeless check, structural
    2-choosability); level 3 and up falls back to exhaustive streaming and
    may raise BoundExceeded.
    """
    h = g.induced(vertices)
    if not h.edges:
        return BlockEvidence(vertices, level, "edgeless")
    if level == 1:
        return None
    if two_choosable_fast(h):
        # Choosability is monotone in the list size, so 2-choosable
        # settles every level from 2 up.
        return BlockEvidence(vertices, level, "ert-core")
    if level == 2:
        return None
    verdict = k_choosable(h, level)
    if verdict.choosable:
        return BlockEvidence(vertices, level, "exhaustive",
                             verdict.classes_checked)
    return None


def _induced_key(g: Graph, vertices: tuple[int, ...]
                 ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex count and edges of ``g.induced(vertices)``, without the Graph.

    The edges come relabeled and sorted exactly as Graph.induced leaves
    them, so two blocks share a key exactly when their induced subgraphs
    are equal; the key never reads ``g.parts``.
    """
    keep = sorted(vertices)
    adj = g.adj
    return len(keep), tuple((i, j) for i, u in enumerate(keep)
                            for j in range(i + 1, len(keep))
                            if adj[u] >> keep[j] & 1)


def lambda_partitionable(g: Graph, lam: IntegerPartition
                         ) -> PartitionabilityWitness | None | Undetermined:
    """Search for a lambda-partition of g.

    Part-aligned block candidates (whole parts mapped to blocks) are tried
    first when the graph carries parts, matching how such partitions
    actually arise for complete multipartite graphs; vertex-level
    candidates follow while the t^n space stays within
    PARTITION_GENERIC_BOUND.  Candidates share few distinct blocks, so
    each distinct (level, induced subgraph) is certified once per call and
    later candidates read its outcome, a stopping BoundExceeded included.
    None means the whole candidate space was searched and no partition
    exists; Undetermined means some candidate could not be settled, and
    its reason names the limits that stopped it.
    """
    desc = descending_parts(lam)
    t = len(desc)
    stops: list[str] = []
    outcomes: dict[tuple, tuple[str, int] | BoundExceeded | None] = {}

    def try_blocks(blocks: Iterable[tuple[int, ...]]
                   ) -> PartitionabilityWitness | None:
        evidence = []
        for verts, level in zip(blocks, desc):
            key = (level, *_induced_key(g, verts))
            if key in outcomes:
                outcome = outcomes[key]
            else:
                try:
                    ev = _certify_block(g, verts, level)
                    outcome = (None if ev is None
                               else (ev.method, ev.classes_checked))
                except BoundExceeded as exc:
                    outcome = exc
                outcomes[key] = outcome
            if isinstance(outcome, BoundExceeded):
                if not stops:
                    stops.append(str(outcome))
                return None
            if outcome is None:
                return None
            evidence.append(BlockEvidence(verts, level, *outcome))
        return PartitionabilityWitness(lam, tuple(evidence))

    if g.parts is not None:
        for f in product(range(t), repeat=len(g.parts)):
            w = try_blocks(tuple(v for pi, part in enumerate(g.parts)
                                 if f[pi] == j for v in part)
                           for j in range(t))
            if w is not None:
                return w
    try:
        limits.enforce("PARTITION_GENERIC_BOUND", t ** g.n,
                       "the vertex-level block candidate count")
    except BoundExceeded as exc:
        stops.append(str(exc))
    else:
        for f in product(range(t), repeat=g.n):
            w = try_blocks(tuple(v for v in range(g.n) if f[v] == j)
                           for j in range(t))
            if w is not None:
                return w
    if stops:
        return Undetermined("; ".join(stops))
    return None


def check_partitionability_witness(g: Graph, lam: IntegerPartition,
                                   w: PartitionabilityWitness) -> bool:
    """Re-validate a partition witness from scratch."""
    if w.lam != lam:
        return False
    desc = descending_parts(lam)
    if len(w.blocks) != len(desc):
        return False
    flat = sorted(v for b in w.blocks for v in b.vertices)
    if flat != list(range(g.n)):
        return False
    for ev, level in zip(w.blocks, desc):
        if ev.level != level:
            return False
        h = g.induced(ev.vertices)
        if ev.method == "edgeless":
            if h.edges:
                return False
        elif ev.method == "ert-core":
            if level < 2 or not two_choosable_fast(h):
                return False
        elif ev.method == "exhaustive":
            if not k_choosable(h, level).choosable:
                return False
        else:
            return False
    return True


def color_via_partition(g: Graph, a: LambdaAssignment,
                        w: PartitionabilityWitness) -> tuple[int, ...]:
    """Proper coloring of a lam-assignment built block by block.

    Each block is colored from its own group: the restricted lists have
    exactly k_i colors and the block is k_i-choosable, so the sub-solve
    cannot fail; a failure indicates a corrupt witness and raises.
    """
    coloring = [-1] * g.n
    for ev, group in zip(w.blocks, a.groups):
        verts = tuple(sorted(ev.vertices))
        h = g.induced(verts)
        sub = [tuple(sorted(set(a.lists[v]) & group)) for v in verts]
        out = l_color(h, sub)
        if not out.colorable:
            raise RuntimeError(f"block {verts} refused its group colors; "
                               "the partition witness is not valid")
        for i, v in enumerate(verts):
            coloring[v] = out.coloring[i]
    return tuple(coloring)


def _caps_chain(n: int, desc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Growing per-group color caps, smallest palettes first."""
    caps = list(desc)
    limit = [n * s for s in desc]
    yield tuple(caps)
    while True:
        bumped = False
        for g in range(len(desc)):
            if caps[g] < limit[g]:
                caps[g] += 1
                bumped = True
                yield tuple(caps)
        if not bumped:
            return


def _stream_refusal(g: Graph, lam: IntegerPartition, chunks,
                    before: int = 0) -> tuple["LambdaVerdict | None", int]:
    """The first confirmed refusal in a lam-assignment prefix stream.

    Returns the exhaustive-provenance negative verdict (or None) and the
    running row count, which starts from ``before`` rows already examined.
    """
    refusals, examined = find_refusals(g, chunks)
    checked = before + examined
    if not refusals:
        return None, checked
    _, lists, nodes = refusals[0]
    witness = BadAssignmentWitness(_stream_assignment(g, lam, lists), nodes)
    return LambdaVerdict(False, "exhaustive", classes_checked=checked,
                         witness=witness), checked


def _head_rows(chunks, limit: int) -> Iterator:
    """The prefix chunks of a stream's first ``limit`` leaf rows.

    The chunk that reaches the limit is cut to stand for only the leaves
    before it.
    """
    for chunk in chunks:
        last = chunk.leaves >= limit
        held = [chunk.cut(limit) if last else chunk]
        limit -= chunk.leaves
        # Hold no reference while suspended, so the caller can free the
        # chunk's prefix rows before the mask sweeps its candidates.
        del chunk
        yield held.pop()
        if last:
            return


def _prospect_bad_row(g: Graph, lam: IntegerPartition
                      ) -> "LambdaVerdict | str | None":
    """Hunt for an uncolorable assignment among small-palette rows.

    The full stream visits rows in lexicographic order, which buries
    color-starved assignments arbitrarily deep; walking the same stream
    under growing palette caps surfaces them within PROSPECT_ROWS rows.
    Any hit is re-confirmed by the solver and returned as a witness;
    coming back empty-handed proves nothing, and the hunt returns the
    limit that stopped it (None if none did) for the ladder's reason.
    """
    if g.n == 0:
        return None
    n, desc = g.n, descending_parts(lam)
    budget = limits.PROSPECT_ROWS
    examined = 0
    try:
        for caps in _caps_chain(n, desc):
            if examined >= budget:
                return f"PROSPECT_ROWS: {budget} capped rows held no refusal"
            stream = grouped_chunks(n, desc, parts=g.parts, caps=caps)
            found, examined = _stream_refusal(
                g, lam, _head_rows(stream, budget - examined), examined)
            if found is not None:
                return found
    except BoundExceeded as exc:
        return str(exc)
    return None


@dataclass(frozen=True)
class LambdaVerdict:
    choosable: bool | None
    provenance: str  # "exhaustive"|"partitionable"|"case2"|"undecided"
    classes_checked: int = 0
    witness: BadAssignmentWitness | None = None
    partition: PartitionabilityWitness | None = None
    reason: str | None = None


def lambda_choosable(g: Graph, lam: IntegerPartition, method: str = "auto"
                     ) -> LambdaVerdict:
    """Decide whether every lam-assignment of g is colorable.

    method "auto" walks the ladder described in the module docstring;
    "exhaustive" skips every fast path and streams the full canonical
    enumeration, which keeps the two routes independently checkable.
    A bad assignment found in the stream is re-solved with l_color before
    being reported, so the bulk filter never vouches for itself.  An
    undecided reason lists the limit that stopped each rung, in order.
    """
    if method not in ("auto", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    desc = descending_parts(lam)
    stops: list[str] = []
    if method == "auto":
        if g.parts is not None:
            sizes = tuple(sorted(len(p) for p in g.parts))
            k = len(sizes)
            if (k >= 3 and lam == near_unit_partition(k) and sizes[0] == 2
                    and sizes[1] == 4 and sizes[2] <= 5):
                from .strict import case2_color
                demo = random_lambda_assignment(g.n, lam, seed=0, sizes=sizes)
                case2_color(sizes, demo)
                return LambdaVerdict(True, "case2")
        part = lambda_partitionable(g, lam)
        if isinstance(part, PartitionabilityWitness):
            return LambdaVerdict(True, "partitionable", partition=part)
        if isinstance(part, Undetermined):
            stops.append(part.reason)
        found = _prospect_bad_row(g, lam)
        if isinstance(found, LambdaVerdict):
            return found
        if found is not None:
            stops.append(found)
    stream = grouped_chunks(g.n, desc, parts=g.parts)
    try:
        found, checked = _stream_refusal(g, lam, stream)
    except BoundExceeded as exc:
        return LambdaVerdict(None, "undecided",
                             reason="; ".join(stops + [str(exc)]))
    if found is not None:
        return found
    return LambdaVerdict(True, "exhaustive", classes_checked=checked)


def random_lambda_assignment(n: int, lam: IntegerPartition, seed: int,
                             sizes: Sequence[int] | None = None
                             ) -> LambdaAssignment:
    """Uniform-ish valid lam-assignment for property trials.

    Each vertex samples k_i colors from group i's window independently;
    the same windows as enumeration, so random and enumerated assignments
    share one universe.  Deterministic in (n, lam, seed).
    """
    if sizes is not None and sum(sizes) != n:
        raise ValueError(f"sizes {tuple(sizes)} do not sum to {n}")
    rng = random.Random(seed)
    desc = descending_parts(lam)
    offs = group_offsets(n, desc)
    used: list[set[int]] = [set() for _ in desc]
    lists = []
    for _ in range(n):
        acc: list[int] = []
        for gi, s in enumerate(desc):
            window = range(offs[gi] + 1, offs[gi] + n * s + 1)
            picks = rng.sample(window, s)
            acc.extend(picks)
            used[gi].update(picks)
        lists.append(tuple(sorted(acc)))
    return LambdaAssignment(lam, tuple(lists),
                            tuple(frozenset(u) for u in used),
                            sizes=tuple(sizes) if sizes is not None else None)

"""Strictly k-colorable complete multipartite graphs.

A graph is strictly k-colorable when its chromatic number is exactly k and
it is not choosable for the near-unit partition {1*(k-2), 2}.  Under the
refinement order on grouped list assignments that partition is the easiest
grouped regime above plain k-coloring, so failing it means every grouped
regime short of full k-choosability fails too.

For complete k-partite graphs with k >= 3 the strict ones are exactly the
hosts of one of three fixed subgraphs, each carried here as an explicit
uncolorable assignment: K_{3*k}, K_{2,4,6*(k-2)}, and K_{2,5*(k-1)}.
Non-strict part profiles split into a shape whose two smallest parts are
2-choosable (a partition witness settles those) and the narrow profile
a_1 = 2, a_2 = 4, a_3 <= 5, which `case2_color` colors constructively by
shuffling which parts lean on which color group.

The pair `decide_strict_cmp` / `decide_strict_search` keeps two fully
independent routes to the same verdicts: one reads only part sizes and the
subgraph characterization, the other runs the generic choosability
machinery on the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import (
    Graph,
    chromatic_number,
    complete_multipartite,
    contains_parts,
    find_coloring,
    is_proper,
)
from .lambdacolor import (
    BadAssignmentWitness,
    BlockEvidence,
    LambdaAssignment,
    PartitionabilityWitness,
    descending_parts,
    lambda_choosable,
    random_lambda_assignment,
    validate_lambda,
)
from .listcolor import find_refusals, l_color
from .partitions import IntegerPartition, near_unit_partition, unit_partition
from .streams import canonical_class, grouped_chunks, row_lists
from .streams import enumerate_k_lists  # noqa: F401  perfbench rebinds it

__all__ = [
    "Case2Transcript",
    "StrictDecision",
    "case1_partition",
    "case2_color",
    "decide_strict_cmp",
    "decide_strict_search",
    "extend_witness",
    "hoffman_johnson_enumerate",
    "witness_k3k",
    "witness_k246",
    "witness_k255",
]


def _near_unit_groups(first: frozenset[int], k: int,
                      start: int) -> tuple[frozenset[int], ...]:
    """The doubly-met group followed by k-2 singleton groups from start."""
    units = tuple(frozenset({c}) for c in range(start, start + k - 2))
    return (first,) + units


def witness_k3k(k: int) -> LambdaAssignment:
    """The uncolorable near-unit assignment of K_{3*k}, k >= 3.

    Every part carries the three pair lists {0,1}, {0,2}, {1,2} inside the
    doubly-met group {0,1,2}, padded with the shared singleton colors
    3..k.  No group can finish two parts at once, and there is one group
    fewer than there are parts.
    """
    if k < 3:
        raise ValueError("the witness needs at least three parts")
    tail = tuple(range(3, k + 1))
    core = ((0, 1), (0, 2), (1, 2))
    lists = tuple(tuple(sorted(pair + tail))
                  for _ in range(k) for pair in core)
    groups = _near_unit_groups(frozenset({0, 1, 2}), k, 3)
    return LambdaAssignment(near_unit_partition(k), lists, groups,
                            sizes=(3,) * k)


def witness_k246(k: int) -> LambdaAssignment:
    """The uncolorable near-unit assignment of K_{2,4,6*(k-2)}, k >= 3.

    The doubly-met group is {1,2,3,4}.  The 2-part holds the disjoint
    pairs {1,2}, {3,4}; the 4-part holds their four crossing pairs, which
    is Hoffman and Johnson's unique refusing 2-assignment of K_{2,4}; the
    6-parts hold all six pairs, so every pair of parts embeds the refusal.
    """
    if k < 3:
        raise ValueError("the witness needs at least three parts")
    tail = tuple(range(5, k + 3))
    part_rows = (
        ((1, 2), (3, 4)),
        ((1, 3), (1, 4), (2, 3), (2, 4)),
    ) + (((1, 3), (1, 4), (2, 3), (2, 4), (1, 2), (3, 4)),) * (k - 2)
    lists = tuple(tuple(sorted(pair + tail))
                  for rows in part_rows for pair in rows)
    groups = _near_unit_groups(frozenset({1, 2, 3, 4}), k, 5)
    return LambdaAssignment(near_unit_partition(k), lists, groups,
                            sizes=(2, 4) + (6,) * (k - 2))


def witness_k255(k: int) -> LambdaAssignment:
    """The uncolorable near-unit assignment of K_{2,5*(k-1)}, k >= 3.

    Like the K_{2,4,6*(k-2)} table, but every big part carries the four
    crossing pairs plus {1,2}: enough to refuse against the 2-part and
    against each other without ever needing a sixth list.
    """
    if k < 3:
        raise ValueError("the witness needs at least three parts")
    tail = tuple(range(5, k + 3))
    part_rows = (((1, 2), (3, 4)),) + \
        (((1, 3), (1, 4), (2, 3), (2, 4), (1, 2)),) * (k - 1)
    lists = tuple(tuple(sorted(pair + tail))
                  for rows in part_rows for pair in rows)
    groups = _near_unit_groups(frozenset({1, 2, 3, 4}), k, 5)
    return LambdaAssignment(near_unit_partition(k), lists, groups,
                            sizes=(2,) + (5,) * (k - 1))


def extend_witness(base: LambdaAssignment,
                   host_sizes: Sequence[int]) -> LambdaAssignment:
    """Stretch an uncolorable assignment onto a larger host profile.

    The host must have the same number of parts, each at least as large as
    the matched base part.  New vertices repeat the first list of their
    part, so any proper coloring of the host would restrict to a proper
    coloring of the embedded base, which has none.
    """
    if base.sizes is None:
        raise ValueError("the base assignment carries no part sizes")
    host = tuple(sorted(int(s) for s in host_sizes))
    if len(host) != len(base.sizes):
        raise ValueError("host and base must have the same number of parts")
    if not contains_parts(host, base.sizes):
        raise ValueError(f"host profile {host} does not contain {base.sizes}")
    lists: list[tuple[int, ...]] = []
    pos = 0
    for have, need in zip(host, base.sizes):
        part = base.lists[pos:pos + need]
        lists.extend(part)
        lists.extend(part[:1] * (have - need))
        pos += need
    return LambdaAssignment(base.lam, tuple(lists), base.groups, sizes=host)


def case1_partition(sizes: Sequence[int]) -> PartitionabilityWitness:
    """Near-unit partition witness for profiles with a 2-choosable head.

    Applies when a_1 = 1 or (a_1 = 2 and a_2 <= 3): the union of the two
    smallest parts is then a star, a C_4, or a theta graph, all
    2-choosable, and every remaining part sits alone at a singleton level.
    """
    sz = tuple(sorted(int(s) for s in sizes))
    k = len(sz)
    if k < 3:
        raise ValueError("the case split needs at least three parts")
    if not (sz[0] == 1 or (sz[0] == 2 and sz[1] <= 3)):
        raise ValueError(f"profile {sz} is not a case-1 shape")
    head = tuple(range(sz[0] + sz[1]))
    blocks = [BlockEvidence(head, 2, "ert-core")]
    pos = len(head)
    for size in sz[2:]:
        blocks.append(BlockEvidence(tuple(range(pos, pos + size)), 1,
                                    "edgeless"))
        pos += size
    return PartitionabilityWitness(near_unit_partition(k), tuple(blocks))


@dataclass(frozen=True)
class Case2Transcript:
    """A verified coloring run for a case-2 profile, stage by stage."""

    assignment: LambdaAssignment
    rounds: tuple[str, ...]
    final: tuple[int, ...]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RuntimeError(f"case-2 invariant broke: {msg}")


def case2_color(sizes: Sequence[int], a: LambdaAssignment) -> Case2Transcript:
    """Properly color any near-unit assignment of a case-2 profile.

    The profile must sort to (2, 4, a_3 <= 5, ...).  Three stages: first
    every part from V_3 up takes its singleton-group colors and the solver
    tries V_1 and V_2 inside the doubly-met group; on refusal that
    restriction is forced to be Hoffman and Johnson's unique bad
    2-assignment of K_{2,4}, so V_2 moves to V_3's singleton group and the
    solver tries V_1 with V_3; on a second refusal V_3 must repeat the
    same four crossing pairs plus at most one extra, and a final explicit
    split of the doubly-met pairs between V_2 and V_3 always lands.

    The returned coloring is re-checked against the graph and the lists
    before it is handed back; a structural surprise raises RuntimeError
    rather than returning anything.
    """
    sz = tuple(sorted(int(s) for s in sizes))
    k = len(sz)
    if k < 3 or sz[0] != 2 or sz[1] != 4 or sz[2] > 5:
        raise ValueError(f"profile {sz} is not a case-2 shape")
    if a.lam != near_unit_partition(k):
        raise ValueError("assignment partition must be the near-unit one")
    if len(a.lists) != sum(sz):
        raise ValueError("assignment size does not match the profile")
    if a.sizes is not None and a.sizes != sz:
        raise ValueError("assignment part sizes disagree with the profile")
    report = validate_lambda(a)
    if not report.ok:
        raise ValueError("assignment fails validation: "
                         + "; ".join(report.violations))

    g = complete_multipartite(sz)
    parts = g.parts
    assert parts is not None
    doubly = a.groups[0]

    def unit_color(v: int, gi: int) -> int:
        (c,) = set(a.lists[v]) & a.groups[gi]
        return c

    def pair(v: int) -> tuple[int, int]:
        got = tuple(sorted(set(a.lists[v]) & doubly))
        _require(len(got) == 2, f"vertex {v} should meet the doubly-met "
                                f"group twice")
        return got

    coloring: list[int | None] = [None] * g.n
    rounds: list[str] = []
    for i in range(2, k):
        for v in parts[i]:
            coloring[v] = unit_color(v, i - 1)
    rounds.append(f"parts 3..{k} took their singleton-group colors; "
                  "trying the doubly-met group on parts 1 and 2")

    def attempt(left: int, right: int):
        verts = parts[left] + parts[right]
        return l_color(g.induced(verts), [pair(v) for v in verts]), verts

    def finish(verts: tuple[int, ...], got) -> Case2Transcript:
        for v, c in zip(verts, got.coloring):
            coloring[v] = c
        return _sealed()

    def _sealed() -> Case2Transcript:
        final = tuple(coloring)  # type: ignore[arg-type]
        _require(all(c is not None for c in final), "coloring is partial")
        _require(is_proper(g, final), "coloring is improper")
        _require(all(final[v] in a.lists[v] for v in range(g.n)),
                 "coloring leaves the lists")
        return Case2Transcript(a, tuple(rounds), final)

    got, verts = attempt(0, 1)
    if got.colorable:
        rounds.append("parts 1 and 2 colored from the doubly-met group")
        return finish(verts, got)

    p0, p1 = pair(parts[0][0]), pair(parts[0][1])
    crossing = {tuple(sorted((x, y))) for x in p0 for y in p1}
    _require(not set(p0) & set(p1),
             "a refusal forces disjoint pairs on part 1")
    _require({pair(v) for v in parts[1]} == crossing,
             "a refusal forces the four crossing pairs on part 2")
    rounds.append(f"refused: part 1 holds disjoint pairs {p0} and {p1} and "
                  "part 2 holds their four crossing pairs, the "
                  "Hoffman-Johnson obstruction; part 2 moves to part 3's "
                  "singleton group")

    for v in parts[2]:
        coloring[v] = None
    for v in parts[1]:
        coloring[v] = unit_color(v, 1)
    got, verts = attempt(0, 2)
    if got.colorable:
        rounds.append("parts 1 and 3 colored from the doubly-met group")
        return finish(verts, got)

    v3_pairs = [pair(v) for v in parts[2]]
    _require(crossing <= set(v3_pairs),
             "a second refusal forces the same crossing pairs on part 3")
    extras = [p for p in v3_pairs if p not in crossing]
    _require(len(extras) <= sz[2] - 4, "too many stray pairs on part 3")
    rounds.append(f"refused: part 3 repeats the crossing pairs of {p0} and "
                  f"{p1} with extras {extras}; part 1 moves to its "
                  "singleton group")

    for v in parts[1]:
        coloring[v] = None
    for v in parts[0]:
        coloring[v] = unit_color(v, 1)
    low = set(p0)
    if all(set(p) & low for p in extras):
        for v in parts[1]:
            coloring[v] = min(set(pair(v)) - low)
        for v in parts[2]:
            coloring[v] = min(set(pair(v)) & low)
        rounds.append(f"split: part 2 took the {p1} side, part 3 the "
                      f"{p0} side")
    else:
        for v in parts[1]:
            coloring[v] = min(set(pair(v)) & low)
        for v in parts[2]:
            coloring[v] = min(set(pair(v)) - low)
        rounds.append(f"split: part 2 took the {p0} side, part 3 the "
                      f"rest of its pairs away from {p0}")
    return _sealed()


@dataclass(frozen=True)
class StrictDecision:
    """Verdict on strict k-colorability with a checkable certificate.

    The certificate depends on the reason: contains-* verdicts carry the
    extended uncolorable LambdaAssignment, case1 a PartitionabilityWitness,
    case2 a Case2Transcript, and search verdicts whichever object the
    generic machinery produced (a chromatic certificate when the chromatic
    number is off, otherwise the choosability witness).  None means the
    verdict stands on an exhaustive sweep or, for k = 1, on the chromatic
    number alone.
    """

    sizes: tuple[int, ...] | None
    k: int
    strict: bool | None
    reason: str
    certificate: object = None


_PATTERNS = (
    ("contains-K3k", witness_k3k, lambda k: (3,) * k),
    ("contains-K255", witness_k255, lambda k: (2,) + (5,) * (k - 1)),
    ("contains-K246", witness_k246, lambda k: (2, 4) + (6,) * (k - 2)),
)


def decide_strict_cmp(sizes: Sequence[int]) -> StrictDecision:
    """Decide strictness of a complete k-partite profile by comparison.

    Only part sizes are read.  Strict profiles contain one of the three
    fixed patterns and carry that pattern's assignment stretched onto the
    profile; the rest split into case 1 (2-choosable head) and case 2
    (the constructive recoloring), and the split is exhaustive.
    """
    sz = tuple(sorted(int(s) for s in sizes))
    k = len(sz)
    if k < 3:
        raise ValueError("the characterization needs at least three parts; "
                         "use the search route for smaller k")
    if sz and sz[0] < 1:
        raise ValueError("part sizes must be positive")
    for reason, make, pattern in _PATTERNS:
        if contains_parts(sz, pattern(k)):
            return StrictDecision(sz, k, True, reason,
                                  extend_witness(make(k), sz))
    if sz[0] == 1 or (sz[0] == 2 and sz[1] <= 3):
        return StrictDecision(sz, k, False, "case1", case1_partition(sz))
    demo = random_lambda_assignment(sum(sz), near_unit_partition(k),
                                    seed=0, sizes=sz)
    return StrictDecision(sz, k, False, "case2", case2_color(sz, demo))


def decide_strict_search(g: Graph, k: int) -> StrictDecision:
    """Decide strict k-colorability of an arbitrary graph by search.

    Independent of the comparison route: the chromatic number is computed
    first, and when it equals k the near-unit choosability question goes
    to the generic ladder without any seeded witnesses.  A chromatic
    mismatch is certified directly: a (k-1)-coloring becomes a partition
    witness, and a graph needing more than k colors yields the refusing
    unit assignment whose every list is 1..k.  The strict field is None
    when the ladder runs out of room, and the reason then ends with the
    ladder's own, which names the limit that stopped it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    sizes = (tuple(sorted(len(p) for p in g.parts))
             if g.parts is not None else None)
    chi = chromatic_number(g)
    if k == 1:
        return StrictDecision(sizes, k, chi == 1, "chromatic", None)
    lam = near_unit_partition(k)
    if chi < k:
        colors = find_coloring(g, k - 1)
        assert colors is not None
        classes: list[list[int]] = [[] for _ in range(k - 1)]
        for v, c in enumerate(colors):
            classes[c].append(v)
        blocks = tuple(
            BlockEvidence(tuple(cls), level, "edgeless")
            for cls, level in zip(classes, descending_parts(lam)))
        return StrictDecision(sizes, k, False, "chromatic",
                              PartitionabilityWitness(lam, blocks))
    if chi > k:
        lists = tuple(tuple(range(1, k + 1)) for _ in range(g.n))
        groups = tuple(frozenset({c}) for c in range(1, k + 1))
        refusal = LambdaAssignment(unit_partition(k), lists, groups,
                                   sizes=sizes)
        out = l_color(g, lists)
        if out.colorable:
            raise RuntimeError("chromatic number disagrees with the solver")
        return StrictDecision(sizes, k, False, "chromatic",
                              BadAssignmentWitness(refusal,
                                                   out.nodes_searched))
    verdict = lambda_choosable(g, lam)
    if verdict.choosable is None:
        return StrictDecision(sizes, k, None,
                              f"search-undecided: {verdict.reason}", None)
    if verdict.choosable:
        return StrictDecision(sizes, k, False, "search", verdict.partition)
    return StrictDecision(sizes, k, True, "search", verdict.witness)


def hoffman_johnson_enumerate(m: int, n: int) -> tuple[tuple[tuple[int, ...],
                                                             ...], ...]:
    """All refusing 2-assignments of K_{m,n} up to relabeling.

    Streams the canonical 2-assignment classes of the complete bipartite
    graph, keeps the uncolorable ones (each re-confirmed by the solver),
    and returns one representative per relabeling class with colors
    renumbered from 1.  Hoffman and Johnson's count for K_{2,4} is one.
    """
    g = complete_multipartite([m, n])
    assert g.parts is not None
    stream = grouped_chunks(g.n, (2,), parts=g.parts)
    refusals, _ = find_refusals(g, stream.prefixes, first_only=False)
    classes = {canonical_class(lists, g.parts) for _, lists, _ in refusals}
    return tuple(
        tuple(tuple(c + 1 for c in lst) for lst in row_lists(row, g.n))
        for row in sorted(classes))

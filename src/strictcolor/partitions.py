"""Integer partitions, refinement, and the cross-weight comparison order.

A partition of k is kept canonically as a non-decreasing tuple of positive
parts.  Text syntax uses the same multiplicity shorthand as complete
multipartite graph sizes: ``"1*4,2"`` parses to {1,1,1,1,2}.

Two relations are provided.  ``is_refinement`` is the equal-weight relation
(the finer partition's parts can be grouped so each group sums to one part
of the coarser).  ``leq`` is the comparison order used throughout this
package: lo <= hi iff hi refines some partition obtained from lo by
increasing parts, equivalently hi's parts split into part_count(lo)
non-empty groups whose i-th group sums to at least lo's i-th part.  A
choosability-monotonicity fact rides on this order (a graph choosable for
lo is choosable for every hi above it), which is why the comparison is
worth certifying with an explicit grouping witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits


class PartitionParseError(ValueError):
    """Malformed partition text; the message names the offending term."""


@dataclass(frozen=True, order=True)
class IntegerPartition:
    """Canonical multiset of positive integers, stored non-decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("a partition needs at least one part")
        if any(not isinstance(p, int) or p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive integers: {self.parts!r}")
        if any(a > b for a, b in zip(self.parts, self.parts[1:])):
            object.__setattr__(self, "parts", tuple(sorted(self.parts)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return format_partition(self)


def unit_partition(k: int) -> IntegerPartition:
    """{1*k}, the top of the comparison order among partitions of k."""
    return IntegerPartition((1,) * k)


def single_part(k: int) -> IntegerPartition:
    """{k}, the bottom of the comparison order among partitions of k."""
    return IntegerPartition((k,))


def near_unit_partition(k: int) -> IntegerPartition:
    """{1*(k-2), 2}: the partition just below {1*k}.

    Being choosable for it is exactly what a strictly k-colorable graph
    fails, so this is the partition all the strictness machinery tests.
    Needs k >= 2.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return IntegerPartition((1,) * (k - 2) + (2,))


def parse_partition(text: str) -> IntegerPartition:
    """Parse comma-separated terms ``n`` or ``n*m`` (value n, m times)."""
    if not text.strip():
        raise PartitionParseError("empty partition text")
    parts: list[int] = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            raise PartitionParseError(f"empty term in {text!r}")
        base, star, mult = term.partition("*")
        try:
            value = int(base)
            count = int(mult) if star else 1
        except ValueError:
            raise PartitionParseError(f"malformed term {term!r}") from None
        if value < 1:
            raise PartitionParseError(f"part must be >= 1 in term {term!r}")
        if count < 1:
            raise PartitionParseError(f"multiplicity must be >= 1 in term {term!r}")
        parts.extend([value] * count)
    return IntegerPartition(tuple(parts))


def format_partition(p: IntegerPartition) -> str:
    """Canonical text: runs collapse to ``n*m``, so {1,1,1,1,2} -> "1*4,2"."""
    terms = []
    i = 0
    parts = p.parts
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        count = j - i
        terms.append(f"{parts[i]}*{count}" if count > 1 else str(parts[i]))
        i = j
    return ",".join(terms)


def enumerate_partitions(k: int):
    """Yield all partitions of k in lexicographic order of the canonical tuple.

    For k=4: {1,1,1,1}, {1,1,2}, {1,3}, {2,2}, {4}.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    limits.enforce("ENUMERATION_BOUND", k,
                   "the weight of a partition enumeration")

    def rec(prefix: tuple[int, ...], smallest: int, remaining: int):
        if remaining == 0:
            yield IntegerPartition(prefix)
            return
        for part in range(smallest, remaining + 1):
            yield from rec(prefix + (part,), part, remaining - part)

    yield from rec((), 1, k)


@dataclass(frozen=True)
class GroupingWitness:
    """Certificate for the two partition relations.

    ``assignment[i]`` is the index of the coarser part (or order slot) that
    the i-th part of the finer partition lands in.  For ``leq`` the slot
    sums form the intermediate partition, recorded in ``intermediate``.
    """

    assignment: tuple[int, ...]
    intermediate: IntegerPartition | None = None


def is_refinement(fine: IntegerPartition, coarse: IntegerPartition) -> GroupingWitness | None:
    """Witness that fine's parts group into sums equal to coarse's parts.

    Returns the first valid grouping when groupings are ordered by their
    assignment vector, or None.  {1,1,3} refines {2,3}; weights must agree.
    """
    if fine.weight != coarse.weight:
        return None
    t = coarse.part_count
    caps = list(coarse.parts)
    assign = [0] * fine.part_count
    dead: set[tuple[int, tuple[int, ...]]] = set()

    def search(i: int) -> bool:
        if i == fine.part_count:
            return True  # weights agree, so all caps are zero here
        key = (i, tuple(caps))
        if key in dead:
            return False
        part = fine.parts[i]
        for j in range(t):
            if caps[j] >= part:
                caps[j] -= part
                assign[i] = j
                if search(i + 1):
                    return True
                caps[j] += part
        dead.add(key)
        return False

    if search(0):
        return GroupingWitness(assignment=tuple(assign))
    return None


def _intermediate_candidates(lower: tuple[int, ...], total: int):
    # Non-decreasing tuples s with s[i] >= lower[i] and sum(s) == total,
    # in lexicographic order.  These are the possible "increase parts"
    # stages between lo and hi.
    t = len(lower)

    def rec(i: int, floor: int, remaining: int, acc: tuple[int, ...]):
        if i == t - 1:
            if remaining >= max(floor, lower[i]):
                yield acc + (remaining,)
            return
        for s in range(max(floor, lower[i]), remaining // (t - i) + 1):
            yield from rec(i + 1, s, remaining - s, acc + (s,))

    yield from rec(0, 1, total, ())


def leq(lo: IntegerPartition, hi: IntegerPartition) -> GroupingWitness | None:
    """Compare in the partition order; returns a grouping witness or None.

    The witness maps each part of hi to a slot aligned with lo's parts;
    slot sums give the intermediate partition.  Among valid groupings the
    one with the smallest intermediate (then smallest assignment vector)
    is returned, so {3,3} <= {1,1,2,4} comes back via intermediate {3,5}.
    """
    if lo.weight > hi.weight:
        return None
    for inter in _intermediate_candidates(lo.parts, hi.weight):
        w = is_refinement(hi, IntegerPartition(inter))
        if w is not None:
            return GroupingWitness(assignment=w.assignment, intermediate=IntegerPartition(inter))
    return None


def check_refinement_witness(fine: IntegerPartition, coarse: IntegerPartition,
                             witness: GroupingWitness) -> bool:
    """Re-validate a witness produced by is_refinement."""
    a = witness.assignment
    if len(a) != fine.part_count:
        return False
    if any(not 0 <= j < coarse.part_count for j in a):
        return False
    sums = [0] * coarse.part_count
    for part, j in zip(fine.parts, a):
        sums[j] += part
    return tuple(sums) == coarse.parts


def check_order_witness(lo: IntegerPartition, hi: IntegerPartition,
                        witness: GroupingWitness) -> bool:
    """Re-validate a witness produced by leq."""
    a = witness.assignment
    if len(a) != hi.part_count:
        return False
    if any(not 0 <= j < lo.part_count for j in a):
        return False
    sums = [0] * lo.part_count
    for part, j in zip(hi.parts, a):
        sums[j] += part
    if any(s < need for s, need in zip(sums, lo.parts)):
        return False  # also rejects empty slots, since parts are >= 1
    if witness.intermediate is not None:
        if tuple(sorted(sums)) != witness.intermediate.parts:
            return False
    return True


def refinement_hasse(k: int):
    """Covering edges (coarse, fine) of the refinement order on partitions of k."""
    limits.enforce("HASSE_BOUND", k, "the weight of a Hasse diagram")
    nodes = list(enumerate_partitions(k))
    idx = {p: i for i, p in enumerate(nodes)}
    refines = [[False] * len(nodes) for _ in nodes]
    for f in nodes:
        for c in nodes:
            if f != c and is_refinement(f, c) is not None:
                refines[idx[c]][idx[f]] = True  # edge coarse -> fine
    edges = []
    for ci, c in enumerate(nodes):
        for fi, f in enumerate(nodes):
            if not refines[ci][fi]:
                continue
            if any(refines[ci][mi] and refines[mi][fi] for mi in range(len(nodes))):
                continue  # not a covering edge
            edges.append((c, f))
    return edges


def refinement_hasse_dot(k: int) -> str:
    """Hasse diagram as Graphviz DOT; node labels are canonical text in braces."""
    nodes = list(enumerate_partitions(k))
    edges = refinement_hasse(k)
    lines = ["digraph refinement {"]
    for p in nodes:
        lines.append(f'  "{{{format_partition(p)}}}";')
    for c, f in edges:
        lines.append(f'  "{{{format_partition(c)}}}" -> "{{{format_partition(f)}}}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

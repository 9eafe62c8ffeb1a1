"""Brute-force graph oracles used only by the tests.

They answer questions the package answers another way (part lookup,
subgraph embedding) by the slow direct route, so agreement between the
two is testable.
"""

from __future__ import annotations

from typing import Sequence

from strictcolor.errors import BoundExceeded
from strictcolor.graphs import CHROMATIC_BOUND, Graph, complete_multipartite


def part_of(g: Graph, v: int) -> int:
    """Index of the part containing v (requires parts metadata)."""
    if g.parts is None:
        raise ValueError("graph has no part structure")
    for i, part in enumerate(g.parts):
        if v in part:
            return i
    raise ValueError(f"vertex {v} not in any part")


def find_subgraph(host: Graph, pattern: Graph,
                  bound: int = CHROMATIC_BOUND) -> dict[int, int] | None:
    """Injective map of pattern vertices into host preserving pattern edges.

    Plain subgraph embedding (non-edges of the pattern may land on host
    edges).  Backtracking over pattern vertices in descending degree order
    with degree pruning; intended for oracle-scale inputs only.
    """
    if host.n > bound or pattern.n > host.n:
        if pattern.n > host.n:
            return None
        raise BoundExceeded(f"subgraph search is bounded at {bound} host vertices")
    order = sorted(range(pattern.n), key=lambda v: -pattern.degree(v))
    pos = {v: i for i, v in enumerate(order)}
    image = [-1] * pattern.n
    used = 0

    def rec(i: int) -> bool:
        nonlocal used
        if i == pattern.n:
            return True
        v = order[i]
        need = pattern.degree(v)
        for h in range(host.n):
            if used >> h & 1 or host.degree(h) < need:
                continue
            ok = True
            for u in pattern.neighbors(v):
                if pos[u] < i and not host.has_edge(image[u], h):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = h
            used |= 1 << h
            if rec(i + 1):
                return True
            used ^= 1 << h
            image[v] = -1
        return False

    if rec(0):
        return {v: image[v] for v in range(pattern.n)}
    return None


EMBED_PATTERN_BOUND = 12


def embedding_oracle(host_sizes: Sequence[int],
                     pattern_sizes: Sequence[int]) -> bool:
    """Subgraph-embedding route to the part containment question.

    Builds both complete multipartite graphs and runs the plain embedding
    search, ignoring part structure entirely.  This is the slow guard for
    contains_parts: for complete multipartite pattern and host with equal
    part counts the two notions coincide, and keeping the check routed
    through actual edge sets makes that agreement testable.
    """
    if sum(pattern_sizes) > EMBED_PATTERN_BOUND:
        raise BoundExceeded(f"embedding patterns are bounded at "
                            f"{EMBED_PATTERN_BOUND} vertices, "
                            f"got {sum(pattern_sizes)}")
    if sum(host_sizes) > CHROMATIC_BOUND:
        raise BoundExceeded(f"embedding hosts are bounded at "
                            f"{CHROMATIC_BOUND} vertices, got {sum(host_sizes)}")
    host = complete_multipartite(host_sizes)
    pattern = complete_multipartite(pattern_sizes)
    return find_subgraph(host, pattern) is not None

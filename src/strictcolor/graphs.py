"""Small simple graphs with bitmask adjacency, plus complete multipartite helpers.

Vertices are 0..n-1 and n stays small (``limits`` caps the coloring search
and multipartite construction) so adjacency fits in machine-sized
bitmasks.  Complete multipartite graphs carry their part structure so part
counts and part lookups never have to be reverse-engineered from edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import limits


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph.  Edges are normalized to sorted (u, v) pairs.

    ``parts`` is optional structure metadata set by complete_multipartite:
    a tuple of non-empty vertex tuples, one per part, covering every vertex
    exactly once.  Parts are only accepted when they are the graph's
    complete multipartite structure, that is when the edges are exactly
    the pairs of vertices in different parts: the chromatic number, the
    coloring shortcut and the canonical stream's vertex symmetries all
    read it as such.  ValueError otherwise.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    parts: tuple[tuple[int, ...], ...] | None = None
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v or not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"bad edge {e!r} for n={self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.parts is not None:
            flat = [v for part in self.parts for v in part]
            if sorted(flat) != list(range(self.n)):
                raise ValueError("parts must cover each vertex exactly once")
            object.__setattr__(self, "parts", tuple(tuple(p) for p in self.parts))
            if any(not p for p in self.parts):
                raise ValueError("parts must not be empty")
            side = [0] * self.n
            for i, part in enumerate(self.parts):
                for v in part:
                    side[v] = i
            cross = (self.n ** 2 - sum(len(p) ** 2 for p in self.parts)) // 2
            if (len(self.edges) != cross
                    or any(side[u] == side[v] for u, v in self.edges)):
                raise ValueError("parts must be the complete multipartite "
                                 "structure of the edges: every pair in "
                                 "different parts, and no other, an edge")
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u in range(self.n) if self.adj[v] >> u & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertices, relabeled in sorted order."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = tuple((index[u], index[v]) for u, v in self.edges
                      if u in index and v in index)
        return Graph(len(keep), edges)


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """K_{a_1,...,a_k} with parts in ascending size order as vertex ranges."""
    if not sizes:
        raise ValueError("need at least one part")
    if any(not isinstance(a, int) or a < 1 for a in sizes):
        raise ValueError(f"part sizes must be positive integers, got {tuple(sizes)}")
    ordered = sorted(sizes)
    n = sum(ordered)
    limits.enforce("MULTIPARTITE_BOUND", n,
                   "the vertex count of a complete multipartite graph")
    parts = []
    start = 0
    for a in ordered:
        parts.append(tuple(range(start, start + a)))
        start += a
    edges = []
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            for u in p:
                for v in q:
                    edges.append((u, v))
    return Graph(n, tuple(edges), parts=tuple(parts))


def is_proper(g: Graph, coloring: Mapping[int, int] | Sequence[int]) -> bool:
    """True when the total coloring assigns distinct colors across every edge.

    Raises ValueError on partial colorings; a missing vertex is an input
    error, not an improper coloring.
    """
    colors = {}
    for v in range(g.n):
        try:
            c = coloring[v]
        except (KeyError, IndexError):
            raise ValueError(f"coloring misses vertex {v}") from None
        if not isinstance(c, int):
            raise ValueError(f"color of vertex {v} is not an integer: {c!r}")
        colors[v] = c
    return all(colors[u] != colors[v] for u, v in g.edges)


def contains_parts(host_sizes: Sequence[int], pattern_sizes: Sequence[int]) -> bool:
    """Can the pattern's parts be fitted into distinct parts of the host?

    Both arguments are part-size multisets of complete multipartite graphs.
    Fitting the i-th largest pattern part into the i-th largest host part is
    optimal, so this reduces to a sorted domination check.
    """
    host = sorted(host_sizes)
    pattern = sorted(pattern_sizes)
    if len(pattern) > len(host):
        return False
    shift = len(host) - len(pattern)
    return all(p <= host[shift + i] for i, p in enumerate(pattern))


def find_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """A proper coloring with colors drawn from 0..k-1, or None.

    Complete multipartite graphs color each part with its own index; any
    other graph goes through branch and bound seeded with a greedy clique,
    which caps the size at ``limits.CHROMATIC_BOUND`` vertices.
    """
    if k < 0:
        raise ValueError(f"color budget must be >= 0, got {k}")
    if g.n == 0:
        return ()
    if g.parts is not None:
        if len(g.parts) > k:
            return None
        out = [0] * g.n
        for i, part in enumerate(g.parts):
            for v in part:
                out[v] = i
        return tuple(out)
    limits.enforce("CHROMATIC_BOUND", g.n,
                   "the vertex count of a coloring search")
    by_degree = sorted(range(g.n), key=lambda v: -g.degree(v))
    clique: list[int] = []
    for v in by_degree:
        if all(g.has_edge(v, u) for u in clique):
            clique.append(v)
    if k < len(clique):
        return None
    order = clique + [v for v in by_degree if v not in clique]
    color = [-1] * g.n

    def rec(i: int, used: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        taken = {color[u] for u in g.neighbors(v) if color[u] != -1}
        for c in range(min(used + 1, k)):
            if c in taken:
                continue
            color[v] = c
            if rec(i + 1, max(used, c + 1)):
                return True
        color[v] = -1
        return False

    for i, v in enumerate(clique):
        color[v] = i
    if rec(len(clique), len(clique)):
        return tuple(color)
    return None


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number, the least color budget find_coloring accepts."""
    if g.n == 0:
        return 0
    if g.parts is not None:
        return len(g.parts)
    k = 0
    while find_coloring(g, k) is None:
        k += 1
    return k

"""List coloring solvers and k-choosability decisions.

Two solver routes are kept deliberately separate.  ``l_color`` is a general
backtracking solver over bitmask color domains; ``l_color_multipartite``
exploits that a proper coloring of a complete multipartite graph is the
same thing as an assignment of each used color to a single owning part.
Agreement between the two is part of the test surface, so neither should
be rewritten in terms of the other.

Choosability goes through the canonical assignment stream: a graph is
k-choosable when every canonical k-assignment row is colorable, and the
stream covers every assignment class, so the bulk verdict decides the
property exactly.

Every negative verdict drawn from an assignment stream rests on
``find_refusals``, the one prefix -> filter -> mask -> confirm skeleton,
a plain loop over the stream's prefix chunks.  A prefix row (vertices
0..n-2) stands for its leaves.  The prefix filter finds, per prefix, G:
the colors that every proper filter vector puts on the last vertex's
neighbors.  A leaf whose last list L is not inside G is colorable,
because a proper coloring of the prefix leaves a color of L free for the
last vertex; only the leaves with L inside G go on.  The bulk mask
refuses some of them, and each is decoded and refused again by
``l_color`` before it is reported.  The disagreement guard lives there
and nowhere else; callers only build the stream and decode the refusals
into their own certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from . import bulk, limits
from .errors import BoundExceeded, Undetermined
from .graphs import Graph, complete_multipartite
from .streams import grouped_chunks, row_lists
from .streams import enumerate_k_lists  # noqa: F401  perfbench rebinds it


@dataclass(frozen=True)
class ColoringOutcome:
    colorable: bool
    coloring: tuple[int, ...] | None
    nodes_searched: int


def _palette_masks(lists):
    palette = sorted({c for lst in lists for c in lst})
    pos = {c: i for i, c in enumerate(palette)}
    masks = [0] * len(lists)
    for v, lst in enumerate(lists):
        for c in lst:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"colors must be integers, got {c!r}")
            masks[v] |= 1 << pos[c]
    return palette, masks


def l_color(g: Graph, lists) -> ColoringOutcome:
    """Proper coloring from per-vertex color lists, or a refusal.

    Backtracking with minimum-remaining-values vertex choice, forward
    checking along edges, and value symmetry merging: colors that occur in
    exactly the same still-uncolored lists are interchangeable, so only
    one per incidence signature is branched on.  nodes_searched counts
    color assignment attempts.
    """
    n = g.n
    if len(lists) != n:
        raise ValueError(f"expected {n} lists, got {len(lists)}")
    lists = [tuple(lst) for lst in lists]
    palette, masks0 = _palette_masks(lists)
    assign = [-1] * n
    nodes = 0

    def solve(masks: list[int], remaining: int) -> bool:
        nonlocal nodes
        if remaining == 0:
            return True
        v, fewest = -1, 1 << 60
        r = remaining
        while r:
            low = r & -r
            u = low.bit_length() - 1
            r ^= low
            count = masks[u].bit_count()
            if count < fewest:
                v, fewest = u, count
        if fewest == 0:
            return False
        others = remaining & ~(1 << v)
        reps: dict[int, int] = {}
        m = masks[v]
        while m:
            low = m & -m
            ci = low.bit_length() - 1
            m ^= low
            sig = 0
            rr = others
            while rr:
                lo2 = rr & -rr
                u = lo2.bit_length() - 1
                rr ^= lo2
                if masks[u] >> ci & 1:
                    sig |= 1 << u
            reps.setdefault(sig, ci)
        for ci in reps.values():
            nodes += 1
            pruned = list(masks)
            dead = False
            for u in g.neighbors(v):
                if others >> u & 1:
                    pruned[u] &= ~(1 << ci)
                    if pruned[u] == 0:
                        dead = True
                        break
            if dead:
                continue
            assign[v] = palette[ci]
            if solve(pruned, others):
                return True
            assign[v] = -1
        return False

    ok = solve(masks0, (1 << n) - 1)
    return ColoringOutcome(ok, tuple(assign) if ok else None, nodes)


def l_color_multipartite(sizes, lists) -> ColoringOutcome:
    """Same decision as l_color, by searching color ownership per part.

    Takes part sizes rather than a graph: the vertices are the consecutive
    ranges of the ascending-sorted sizes, matching complete_multipartite.
    A proper coloring of a complete multipartite graph is the same thing
    as an assignment of each used color to at most one owning part, so the
    search claims owners instead of propagating along edges.
    """
    g = complete_multipartite(sizes)
    n = g.n
    if len(lists) != n:
        raise ValueError(f"expected {n} lists, got {len(lists)}")
    lists = [tuple(lst) for lst in lists]
    palette, masks0 = _palette_masks(lists)
    part_id = [0] * n
    for i, part in enumerate(g.parts):
        for v in part:
            part_id[v] = i
    owner = [-1] * len(palette)
    assign = [-1] * n
    nodes = 0

    def available(v: int) -> list[int]:
        return [ci for ci in _bits(masks0[v])
                if owner[ci] in (-1, part_id[v])]

    def solve(remaining: int) -> bool:
        nonlocal nodes
        if remaining == 0:
            return True
        v, cands = -1, None
        r = remaining
        while r:
            low = r & -r
            u = low.bit_length() - 1
            r ^= low
            av = available(u)
            if cands is None or len(av) < len(cands):
                v, cands = u, av
        if not cands:
            return False
        for ci in cands:
            nodes += 1
            claimed = owner[ci] == -1
            if claimed:
                owner[ci] = part_id[v]
            assign[v] = palette[ci]
            if solve(remaining & ~(1 << v)):
                return True
            assign[v] = -1
            if claimed:
                owner[ci] = -1
        return False

    ok = solve((1 << n) - 1)
    return ColoringOutcome(ok, tuple(assign) if ok else None, nodes)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def find_refusals(g: Graph, chunks, first_only: bool = True):
    """Rows of a canonical stream that no proper coloring satisfies.

    ``chunks`` is the stream's PrefixChunks (``grouped_chunks(...)``).
    Per chunk, the prefix filter (``bulk.leaf_candidates``) clears every
    leaf whose last list is not inside its prefix's G, the colors that
    every proper filter vector puts on the last vertex's neighbors; a
    proper vector leaves such a leaf's last vertex a free color.  The
    bulk mask sweeps the rest, once per chunk even on no rows, so its
    CHOICE_CAP stops a decision whatever the filter does.  Each row it
    refuses is decoded with row_lists and re-solved with l_color, so
    neither the filter nor the mask vouches for itself, and a row the
    solver colors raises RuntimeError.  Returns ``(refusals,
    rows_examined)``: refusals are ``(index, lists, nodes_searched)`` with
    the stream's own 0-based colors and leaf indices, only the first one
    when first_only, and rows_examined is index + 1 after that early
    stop, the stream's leaf count otherwise.
    """
    refusals = []
    offset = 0
    for chunk in chunks:
        positions = bulk.leaf_candidates(chunk, g.n, g.edges)
        leaves = chunk.leaves
        rows = chunk.leaf_rows(positions)
        del chunk  # the prefix rows are not needed while the mask runs
        mask = bulk.colorable_mask(rows, g.n, g.edges)
        for i in np.flatnonzero(~mask):
            lists = tuple(row_lists(tuple(int(x) for x in rows[i]), g.n))
            confirm = l_color(g, lists)
            if confirm.colorable:
                raise RuntimeError("bulk filter and solver disagree on a row; "
                                   "refusing to report either verdict")
            index = offset + int(positions[i])
            refusals.append((index, lists, confirm.nodes_searched))
            if first_only:
                return refusals, index + 1
        offset += leaves
    return refusals, offset


@dataclass(frozen=True)
class ChoosabilityVerdict:
    choosable: bool
    bad_lists: tuple[tuple[int, ...], ...] | None
    classes_checked: int
    solver_nodes: int


def k_choosable(g: Graph, k: int) -> ChoosabilityVerdict:
    """Decide k-choosability by exhausting the canonical assignment stream.

    On failure the earliest uncolorable row, shifted to colors 1..n*k,
    becomes bad_lists, with the node count of its confirming l_color
    solve.  Raises BoundExceeded past ``limits.KLISTS_BOUND`` total colors.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    limits.enforce("KLISTS_BOUND", g.n * k,
                   "the total colors per row of a k-choosability check")
    stream = grouped_chunks(g.n, (k,), parts=g.parts)
    refusals, checked = find_refusals(g, stream)
    if not refusals:
        return ChoosabilityVerdict(True, None, checked, 0)
    _, lists, nodes = refusals[0]
    return ChoosabilityVerdict(False,
                               tuple(tuple(c + 1 for c in lst)
                                     for lst in lists),
                               checked, nodes)


def choice_number(g: Graph) -> int | Undetermined:
    """Least k for which the graph is k-choosable.

    Choosability is monotone in k (restrict any larger list), so the first
    success is the answer.  When a limit cuts the scan off first, the
    result is Undetermined with the established lower bound.
    """
    if g.n == 0:
        return 0
    for k in count(1):
        try:
            verdict = k_choosable(g, k)
        except BoundExceeded as exc:
            return Undetermined(f"{exc}; not ({k - 1})-choosable",
                                lower_bound=k)
        if verdict.choosable:
            return k


def _core_vertices(g: Graph) -> set[int]:
    """Vertices surviving repeated deletion of degree <= 1 vertices."""
    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in alive}
    queue = [v for v in alive if deg[v] <= 1]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.remove(v)
        for u in g.neighbors(v):
            if u in alive:
                deg[u] -= 1
                if deg[u] <= 1:
                    queue.append(u)
    return alive


def two_choosable_fast(g: Graph) -> bool:
    """Structural 2-choosability test.

    A graph is 2-choosable exactly when the core of every component
    (after shaving degree <= 1 vertices) is empty, an even cycle, or two
    vertices joined by three paths of lengths 2, 2 and even (Erdos,
    Rubin, Taylor 1979).  No list enumeration happens here, which is the
    point: the exhaustive route exists separately for cross-checking.
    """
    for comp in g.components():
        h = g.induced(comp)
        core = _core_vertices(h)
        if not core:
            continue
        hh = h.induced(core)
        degs = [hh.degree(v) for v in range(hh.n)]
        if all(d == 2 for d in degs):
            # A connected 2-regular core is a single cycle.
            if hh.n % 2:
                return False
            continue
        if sorted(degs)[-1] != 3 or degs.count(3) != 2 or degs.count(2) != hh.n - 2:
            return False
        a, b = (v for v in range(hh.n) if degs[v] == 3)
        lengths = []
        for start in hh.neighbors(a):
            prev, cur, steps = a, start, 1
            while cur != b and hh.degree(cur) == 2:
                nxt = next(w for w in hh.neighbors(cur) if w != prev)
                prev, cur = cur, nxt
                steps += 1
            if cur != b:
                return False
            lengths.append(steps)
        lengths.sort()
        if lengths[:2] != [2, 2] or lengths[2] % 2:
            return False
    return True

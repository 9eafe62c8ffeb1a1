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
property exactly.  ``choice_number`` first tries ``alon_tarsi`` at each
k, an algebraic certificate that can prove k-choosability but never
refute it.

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
from itertools import accumulate, count, islice
from math import comb, factorial, prod

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

    def branch(masks: list[int], remaining: int):
        """The vertex with the fewest colors left, the masks, the vertices
        after it and an iterator over its colors, one per incidence
        signature; None when some vertex has no color left."""
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
            return None
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
        return v, masks, others, iter(reps.values())

    # Depth-first over an explicit stack of branch points, one per colored
    # vertex: a path of 1,024 vertices would pass the recursion limit.
    ok = n == 0
    stack = [] if ok else [branch(masks0, (1 << n) - 1)]
    while stack and not ok:
        top = stack[-1]
        if top is None:
            stack.pop()
            continue
        v, masks, others, colors = top
        for ci in colors:
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
            if others:
                stack.append(branch(pruned, others))
            else:
                ok = True
            break
        else:
            stack.pop()
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


def find_refusals(g: Graph, chunks, first_only: bool = True,
                  limit: int | None = None):
    """Rows of a canonical stream that no proper coloring satisfies.

    ``chunks`` is the stream's PrefixChunks (``grouped_chunks(...)``).
    Per chunk, the prefix filter (``bulk.leaf_candidates``) clears every
    leaf whose last list is not inside its prefix's G, the colors that
    every proper filter vector puts on the last vertex's neighbors; a
    proper vector leaves such a leaf's last vertex a free color.  The
    bulk mask settles the rest, with the host's parts and the stream's
    palette (``chunk.palette``), bulk.CHUNK_ROWS kept leaf rows at
    a time: a mask call per slice, and one per chunk even on no rows, so
    its space and CHOICE_CAP stop a decision whatever the filter does.
    Each row it refuses is decoded with row_lists and re-solved with
    l_color, so neither the filter nor the mask vouches for itself, and a
    row the solver colors raises RuntimeError.  Returns ``(refusals,
    rows_examined)``: refusals are ``(index, lists, nodes_searched)`` with
    the stream's own 0-based colors and leaf indices, only the first one
    when first_only.  Given a limit, only the stream's first ``limit``
    leaves are read, and no chunk past them is pulled.  rows_examined is
    index + 1 after a first_only stop, ``limit`` when the limit stopped
    the read, the stream's leaf count otherwise.
    """
    refusals = []
    offset = 0
    for chunk in chunks:
        positions = bulk.leaf_candidates(chunk, g.n, g.edges)
        if limit is not None:
            positions = positions[positions < limit - offset]
        for lo in range(0, max(positions.size, 1), bulk.CHUNK_ROWS):
            at = positions[lo:lo + bulk.CHUNK_ROWS]
            rows = chunk.leaf_rows(at)
            mask = bulk.colorable_mask(rows, g.n, g.edges, parts=g.parts,
                                       palette=chunk.palette)
            for i in np.flatnonzero(~mask):
                lists = tuple(row_lists(tuple(int(x) for x in rows[i]), g.n))
                confirm = l_color(g, lists)
                if confirm.colorable:
                    raise RuntimeError("bulk filter and solver disagree on a "
                                       "row; refusing to report either "
                                       "verdict")
                index = offset + int(at[i])
                refusals.append((index, lists, confirm.nodes_searched))
                if first_only:
                    return refusals, index + 1
        offset += chunk.leaves
        del chunk, rows  # let go of them before the walk builds the next
        if limit is not None and offset >= limit:
            return refusals, limit
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
    solve.  The stream is uncapped, so it raises BoundExceeded past
    ``limits.GROUPED_BOUND`` total colors n*k (streams.grouped_chunks).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    stream = grouped_chunks(g.n, (k,), parts=g.parts)
    refusals, checked = find_refusals(g, stream)
    if not refusals:
        return ChoosabilityVerdict(True, None, checked, 0)
    _, lists, nodes = refusals[0]
    return ChoosabilityVerdict(False,
                               tuple(tuple(c + 1 for c in lst)
                                     for lst in lists),
                               checked, nodes)


@dataclass(frozen=True)
class AlonTarsiWitness:
    """A monomial prod x_i^t_i with a non-zero coefficient in the graph
    polynomial prod_{uv in E, u<v} (x_u - x_v): exponents is t."""

    exponents: tuple[int, ...]
    coefficient: int


def _graph_coefficient(g: Graph, t) -> int:
    """The exact coefficient of prod x_i^t_i in g's graph polynomial.

    For sum(t) = |E| the grid formula over the points s of prod [0..t_i]
    reads coef * prod t_i! = sum_s f(s) * prod_i (-1)^(t_i-s_i) C(t_i, s_i),
    f the graph polynomial.  f(s) is 0 unless s colors g properly, so a
    depth-first walk over the vertices visits the proper points only,
    carrying the product so far in Python ints.  CHOICE_CAP bounds the
    grid's point count before the walk starts.
    """
    n = g.n
    limits.enforce("CHOICE_CAP", prod(ti + 1 for ti in t),
                   "the points of an Alon-Tarsi coefficient grid")
    earlier = [[u for u in g.neighbors(v) if u < v] for v in range(n)]
    weights = [[(-1) ** (ti - si) * comb(ti, si) for si in range(ti + 1)]
               for ti in t]
    point = [0] * n
    acc = [1] * (n + 1)  # acc[v]: the product over vertices before v
    nxt = [0] * n  # the value vertex v tries next
    total, v = 0, 0
    while v >= 0:
        if v == n:
            total += acc[n]
            v -= 1
            continue
        sv = nxt[v]
        if sv > t[v]:
            nxt[v] = 0
            v -= 1
            continue
        nxt[v] = sv + 1
        term = acc[v] * weights[v][sv]
        for u in earlier[v]:
            term *= point[u] - sv
            if not term:
                break
        if term:
            point[v] = sv
            acc[v + 1] = term
            v += 1
    coefficient, rest = divmod(total, prod(factorial(ti) for ti in t))
    if rest:
        raise RuntimeError("the grid sum is not a multiple of prod t_i!")
    return coefficient


def _exponent_vectors(g: Graph, k: int):
    """The exponent vectors alon_tarsi tries, and how many there are.

    Expanding the graph polynomial picks a tail for each edge, so a
    monomial's coefficient sums over orientations whose out-degrees are
    its exponents, and is 0 unless some orientation has them.  The
    vertices go in smallest-last order (repeatedly the vertex with the
    fewest neighbors left, the least on ties).  The vectors kept have
    sum(t) = |E|, each t_i <= min(k-1, deg i), and every prefix of that
    order holding at least the tails of the edges inside it and at most
    those of the edges touching it; they go lexicographically largest
    first in that order.  The first one is then the out-degree vector of
    an acyclic orientation, whose coefficient is +-1, whenever k-1 is at
    least g's degeneracy.  ``ways`` counts the completions per (prefix
    length, prefix sum), so vector r of the order is read off it.
    """
    n, m = g.n, len(g.edges)
    order, left = [], {v: g.degree(v) for v in range(n)}
    while left:
        v = min(left, key=left.__getitem__)
        del left[v]
        order.append(v)
        for u in g.neighbors(v):
            if u in left:
                left[u] -= 1
    at = {v: j for j, v in enumerate(order)}
    cap = [min(k - 1, g.degree(v)) for v in order]
    inside = [0] * n
    touching = [0] * n
    for u, v in g.edges:
        inside[max(at[u], at[v])] += 1
        touching[min(at[u], at[v])] += 1
    inside, touching = list(accumulate(inside)), list(accumulate(touching))
    ways = [[0] * (m + 1) for _ in range(n + 1)]
    ways[n][m] = 1
    for j in reversed(range(n)):
        lo, hi = (inside[j - 1], touching[j - 1]) if j else (0, 0)
        for s in range(lo, hi + 1):
            ways[j][s] = sum(ways[j + 1][s:s + cap[j] + 1])

    def vector(r: int) -> tuple[int, ...]:
        t, s = [0] * n, 0
        for j, v in enumerate(order):
            x = min(cap[j], m - s)
            while r >= ways[j + 1][s + x]:
                r -= ways[j + 1][s + x]
                x -= 1
            t[v] = x
            s += x
        return tuple(t)

    return ways[0][0], map(vector, count())


def alon_tarsi(g: Graph, k: int) -> AlonTarsiWitness | None:
    """An Alon-Tarsi certificate that g is k-choosable, or None.

    A non-zero coefficient on prod x_i^t_i, with sum(t) = |E| and every
    t_i <= k-1, in the graph polynomial prod_{uv in E, u<v} (x_u - x_v)
    makes g k-choosable (Alon and Tarsi 1992, by Alon's Combinatorial
    Nullstellensatz).  The vectors go in the fixed order of
    ``_exponent_vectors``, which skips only vectors whose coefficient is
    0, and certifies every graph whose degeneracy is below k on the
    first vector.  None means no vector has a non-zero coefficient;
    it proves nothing, since the rung proves upper bounds on the choice
    number only.  Raises BoundExceeded past ``limits.AT_VECTORS`` vectors
    tried, or when a grid passes ``limits.CHOICE_CAP`` points.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total, vectors = _exponent_vectors(g, k)
    for t in islice(vectors, min(total, limits.AT_VECTORS)):
        coefficient = _graph_coefficient(g, t)
        if coefficient:
            return AlonTarsiWitness(t, coefficient)
    limits.enforce("AT_VECTORS", total,
                   "the exponent vectors of an Alon-Tarsi search")
    return None


def check_alon_tarsi_witness(g: Graph, k: int, w: AlonTarsiWitness) -> bool:
    """Re-validate independently: the exponents fit g and k, and the
    coefficient, recomputed from scratch, is the witness's and non-zero."""
    t = w.exponents
    if (len(t) != g.n or sum(t) != len(g.edges)
            or any(type(ti) is not int or not 0 <= ti < k for ti in t)
            or type(w.coefficient) is not int or not w.coefficient):
        return False
    return _graph_coefficient(g, t) == w.coefficient


def choice_number(g: Graph) -> int | Undetermined:
    """Least k for which the graph is k-choosable.

    Choosability is monotone in k (restrict any larger list), so the first
    success is the answer.  An edgeless graph is 1-choosable, and a graph
    with an edge is not (give both ends one list {1}), so the scan starts
    at 1 or 2.  Each k runs two rungs.  ``alon_tarsi`` proves upper
    bounds only: a certificate returns k, and no certificate proves
    nothing.  Otherwise ``k_choosable`` decides k from the stream.  When
    both rungs stop at a limit, the result is Undetermined with the
    established lower bound, and its reason names each stop in order.
    """
    if g.n == 0:
        return 0
    for k in count(2 if g.edges else 1):
        stops = []
        try:
            if alon_tarsi(g, k) is not None:
                return k
        except BoundExceeded as exc:
            stops.append(str(exc))
        try:
            verdict = k_choosable(g, k)
        except BoundExceeded as exc:
            stops.append(str(exc))
            return Undetermined(f"{'; '.join(stops)}; not ({k - 1})-"
                                f"choosable", lower_bound=k)
        if verdict.choosable:
            return k


def two_choosable_fast(g: Graph) -> bool:
    """Structural 2-choosability test.

    A graph is 2-choosable exactly when the core of every component
    (after shaving degree <= 1 vertices) is empty, an even cycle, or two
    vertices joined by three paths of lengths 2, 2 and even (Erdos,
    Rubin, Taylor 1979).  Shaving keeps a component connected, so the
    cores are the components of what it leaves; all is read from the
    adjacency bitmasks.  No list enumeration happens here, which is the
    point: the exhaustive route exists separately for cross-checking.
    """
    adj = g.adj
    alive = (1 << g.n) - 1
    shave = [v for v in range(g.n) if adj[v].bit_count() <= 1]
    while shave:
        v = shave.pop()
        if alive >> v & 1:
            alive ^= 1 << v
            u = (adj[v] & alive).bit_length() - 1  # v's one neighbour left, or -1
            if u >= 0 and (adj[u] & alive).bit_count() <= 1:
                shave.append(u)
    while alive:
        root = (alive & -alive).bit_length() - 1
        comp, core = 1 << root, [root]
        for v in core:
            new = adj[v] & alive & ~comp
            comp |= new
            while new:
                low = new & -new
                core.append(low.bit_length() - 1)
                new ^= low
        alive ^= comp
        degs = [(adj[v] & comp).bit_count() for v in core]
        hubs = [v for v, d in zip(core, degs) if d != 2]
        if not hubs:
            # A connected 2-regular core is a single cycle.
            if len(core) % 2:
                return False
            continue
        if len(hubs) != 2 or degs.count(3) != 2:
            return False
        a, b = hubs
        lengths = []
        for start in (w for w in g.neighbors(a) if comp >> w & 1):
            prev, cur, steps = a, start, 1
            while cur != a and cur != b:
                prev, cur = cur, (adj[cur] & comp & ~(1 << prev)).bit_length() - 1
                steps += 1
            if cur != b:
                return False
            lengths.append(steps)
        lengths.sort()
        if lengths[:2] != [2, 2] or lengths[2] % 2:
            return False
    return True

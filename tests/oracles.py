"""Brute-force oracles used only by the tests.

They answer questions the package answers another way (part lookup,
subgraph embedding, the canonical assignment stream, the lambda-partition
search, the refusals of a stream, the prefix filter's colors, the
coefficients of the graph polynomial) by the slow direct route, so
agreement between the two is testable.
``enumerate_lambda_assignments`` is the lam-assignment stream as objects,
which only the tests read, ``leaf_slices`` reads a prefix chunk's leaf
rows in bounded slices, ``chunk_from_rows`` builds a prefix chunk from
full prefix rows, finding its runs by comparing columns (``run_heads``),
``color_via_partition`` colors an assignment
block by block from a partitionability witness, and ``l_color_oracle``
is the list coloring search written recursively.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from strictcolor import bulk, limits
from strictcolor.bulk import _filter_vectors, mask_chunks
from strictcolor.errors import BoundExceeded, Undetermined
from strictcolor.graphs import Graph, complete_multipartite
from strictcolor.lambdacolor import (
    LambdaAssignment,
    PartitionabilityWitness,
    _certify_block,
    _stream_assignment,
    descending_parts,
)
from strictcolor.listcolor import ColoringOutcome, _palette_masks, l_color
from strictcolor.partitions import IntegerPartition
from strictcolor.streams import (
    PrefixChunk,
    enumerate_grouped,
    group_offsets,
    row_lists,
)


def l_color_oracle(g: Graph, lists) -> ColoringOutcome:
    """Reference l_color: the same search, recursing once per vertex.

    ``listcolor.l_color`` runs it over an explicit stack; both must return
    the same coloring and node count.

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


def part_of(g: Graph, v: int) -> int:
    """Index of the part containing v (requires parts metadata)."""
    if g.parts is None:
        raise ValueError("graph has no part structure")
    for i, part in enumerate(g.parts):
        if v in part:
            return i
    raise ValueError(f"vertex {v} not in any part")


def find_subgraph(host: Graph, pattern: Graph) -> dict[int, int] | None:
    """Injective map of pattern vertices into host preserving pattern edges.

    Plain subgraph embedding (non-edges of the pattern may land on host
    edges).  Backtracking over pattern vertices in descending degree order
    with degree pruning; intended for oracle-scale inputs only.
    """
    if host.n > limits.CHROMATIC_BOUND or pattern.n > host.n:
        if pattern.n > host.n:
            return None
        raise BoundExceeded(f"subgraph search is bounded at "
                            f"{limits.CHROMATIC_BOUND} host vertices")
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
    if sum(host_sizes) > limits.CHROMATIC_BOUND:
        raise BoundExceeded(f"embedding hosts are bounded at "
                            f"{limits.CHROMATIC_BOUND} vertices, "
                            f"got {sum(host_sizes)}")
    host = complete_multipartite(host_sizes)
    pattern = complete_multipartite(pattern_sizes)
    return find_subgraph(host, pattern) is not None


def grouped_rows_oracle(n: int, group_sizes: Sequence[int],
                        parts: Sequence[Sequence[int]] | None = None,
                        caps: Sequence[int] | None = None
                        ) -> Iterator[tuple[int, ...]]:
    """Reference canonical stream: one tuple per row, lexicographic order.

    The row-at-a-time walk that ``streams.grouped_chunks`` replaces, kept
    as its oracle: the chunked stream must hold exactly these rows, in
    this order, and raise the same errors.

    ``parts`` marks sets of interchangeable vertices, covering each vertex
    exactly once; constraint 2 orders vertices v-1 and v when they share
    a part.  Without it every vertex is its own part and only constraints
    1 and 3 apply.

    ``caps`` filters the stream to rows whose group-i colors stay within
    the first caps[i] values of that group's window.  Assignments hostile
    to coloring reuse few colors, so small caps concentrate them; the
    filtered stream makes no completeness promise of its own and is exempt
    from ``limits.GROUPED_BOUND``, since the caller is expected to
    truncate it.
    """
    sizes = tuple(group_sizes)
    if any(not isinstance(s, int) or s < 1 for s in sizes) or not sizes:
        raise ValueError(f"group sizes must be positive integers, got {sizes}")
    if list(sizes) != sorted(sizes, reverse=True):
        raise ValueError(f"group sizes must be non-increasing, got {sizes}")
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    if caps is None:
        total = n * sum(sizes)
        if total > limits.GROUPED_BOUND:
            raise BoundExceeded(f"GROUPED_BOUND: the total colors per row of "
                                f"an assignment enumeration is bounded at "
                                f"{limits.GROUPED_BOUND}, got {total}")
    else:
        caps = tuple(int(c) for c in caps)
        if len(caps) != len(sizes):
            raise ValueError("caps must give one limit per group")
        if any(c < s for c, s in zip(caps, sizes)):
            raise ValueError(f"caps {caps} leave some vertex short of its "
                             f"group size {sizes}")
        caps = tuple(min(c, n * s) for c, s in zip(caps, sizes))
    if n == 0:
        yield ()
        return

    samepart = [False] * n
    if parts is not None:
        if sorted(v for part in parts for v in part) != list(range(n)):
            raise ValueError("parts must cover each vertex exactly once")
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        samepart = [v > 0 and part_of[v - 1] == part_of[v] for v in range(n)]

    t = len(sizes)
    offs = group_offsets(n, sizes)
    eqpair = tuple(g > 0 and sizes[g] == sizes[g - 1] for g in range(t))

    @lru_cache(maxsize=None)
    def options(g: int, seen: int):
        """All canonical choices for one vertex in group g, sorted."""
        size, off = sizes[g], offs[g]
        room = size if caps is None else min(size, caps[g] - seen)
        out = []
        for fresh in range(max(room, -1) + 1):
            for old in combinations(range(seen), size - fresh):
                rel = old + tuple(range(seen, seen + fresh))
                out.append((rel, tuple(c + off for c in rel), seen + fresh))
        out.sort(key=lambda o: o[0])
        return tuple(out)

    def vertex_rows(seen: tuple[int, ...], r3eq: tuple[bool, ...],
                    lower: tuple[tuple[int, ...], ...] | None):
        """All admissible rows for one vertex given the running state."""
        results: list[tuple] = []

        def grec(g, tight, abs_acc, rel_acc, seen_acc, r3_acc):
            if g == t:
                results.append((abs_acc, rel_acc, seen_acc, r3_acc))
                return
            floor_r2 = lower[g] if (lower is not None and tight) else None
            floor_r3 = rel_acc[g - 1] if (eqpair[g] and r3eq[g]) else None
            for rel, abs_, nseen in options(g, seen[g]):
                if floor_r2 is not None and rel < floor_r2:
                    continue
                if floor_r3 is not None and rel < floor_r3:
                    continue
                grec(g + 1,
                     tight and floor_r2 is not None and rel == floor_r2,
                     abs_acc + abs_,
                     rel_acc + (rel,),
                     seen_acc + (nseen,),
                     r3_acc + (r3eq[g] and rel == floor_r3,))

        grec(0, lower is not None, (), (), (), ())
        return results

    def vrec(v: int, seen, r3eq, prev_rel, prefix) -> Iterator[tuple[int, ...]]:
        lower = prev_rel if samepart[v] else None
        if v == n - 1:
            for abs_row, _rels, _nseen, _nr3 in vertex_rows(seen, r3eq, lower):
                yield prefix + abs_row
        else:
            for abs_row, rels, nseen, nr3 in vertex_rows(seen, r3eq, lower):
                yield from vrec(v + 1, nseen, nr3, rels, prefix + abs_row)

    yield from vrec(0, (0,) * t, eqpair, None, ())


def partitionable_oracle(g: Graph, lam: IntegerPartition
                         ) -> PartitionabilityWitness | None | Undetermined:
    """Reference lambda-partition search: every block certified afresh.

    The candidate loop that ``lambdacolor.lambda_partitionable`` memoises,
    kept without the memo: the same candidates in the same order, each
    block rebuilt and certified by ``_certify_block``, so the memoised
    search must return exactly this result.
    """
    desc = descending_parts(lam)
    t = len(desc)
    stops: list[str] = []

    def try_blocks(blocks: list[tuple[int, ...]]
                   ) -> PartitionabilityWitness | None:
        evidence = []
        for verts, level in zip(blocks, desc):
            try:
                ev = _certify_block(g, verts, level)
            except BoundExceeded as exc:
                if not stops:
                    stops.append(str(exc))
                return None
            if ev is None:
                return None
            evidence.append(ev)
        return PartitionabilityWitness(lam, tuple(evidence))

    if g.parts is not None:
        for f in product(range(t), repeat=len(g.parts)):
            blocks = [tuple(v for pi, part in enumerate(g.parts)
                            if f[pi] == j for v in part) for j in range(t)]
            w = try_blocks(blocks)
            if w is not None:
                return w
    try:
        limits.enforce("PARTITION_GENERIC_BOUND", t ** g.n,
                       "the vertex-level block candidate count")
    except BoundExceeded as exc:
        stops.append(str(exc))
    else:
        for f in product(range(t), repeat=g.n):
            blocks = [tuple(v for v in range(g.n) if f[v] == j)
                      for j in range(t)]
            w = try_blocks(blocks)
            if w is not None:
                return w
    if stops:
        return Undetermined("; ".join(stops))
    return None


def leaf_slices(chunk, leaves: int | None = None) -> Iterator[np.ndarray]:
    """A prefix chunk's first ``leaves`` leaf rows (all by default),
    bulk.CHUNK_ROWS at a time: a chunk may stand for more leaves than a
    test should hold at once."""
    leaves = chunk.leaves if leaves is None else leaves
    for lo in range(0, leaves, bulk.CHUNK_ROWS):
        yield chunk.leaf_rows(np.arange(lo, min(lo + bulk.CHUNK_ROWS, leaves)))


def run_heads(rows: np.ndarray, width: int) -> np.ndarray:
    """Where each run of rows agreeing on their first ``width`` columns
    begins: the runs of prefix rows found by comparing columns."""
    m = rows.shape[0]
    same = np.ones(max(m - 1, 0), dtype=bool)
    for j in range(width):
        same &= rows[1:, j] == rows[:-1, j]
    return np.flatnonzero(np.concatenate(([m > 0], ~same)))


def chunk_from_rows(rows: np.ndarray, start, count,
                    lists: np.ndarray) -> PrefixChunk:
    """A prefix chunk of full prefix rows, vertices 0..n-2 of n >= 2: its
    runs are the stretches that agree on vertices 0..n-3, its palette the
    colors of ``lists`` and its leaves ``count``'s sum."""
    split = rows.shape[1] - lists.shape[1]
    heads = run_heads(rows, split)
    return PrefixChunk(rows[heads, :split], heads, rows[:, split:], start,
                       count, lists, np.unique(lists), int(np.sum(count)))


def leaf_refusals_oracle(g: Graph, chunks, first_only: bool = True):
    """find_refusals the leaf way: mask every leaf row, confirm refusals.

    The bulk mask sweeps every leaf chunk of the stream, with no prefix
    filter, and each refused row is re-solved with l_color.  Returns the
    same ``(refusals, rows_examined)`` as find_refusals.
    """
    refusals = []
    examined = 0
    for offset, chunk, mask in mask_chunks(chunks, g.n, g.edges):
        for i in np.flatnonzero(~mask):
            lists = tuple(row_lists(tuple(int(x) for x in chunk[i]), g.n))
            confirm = l_color(g, lists)
            if confirm.colorable:
                raise RuntimeError("bulk filter and solver disagree on a row")
            refusals.append((offset + int(i), lists, confirm.nodes_searched))
            if first_only:
                return refusals, offset + int(i) + 1
        examined = offset + mask.shape[0]
    return refusals, examined


def prefix_colors_oracle(chunk, n: int, edges) -> np.ndarray:
    """Per prefix of a chunk, G as a bitmask over the chunk's palette.

    G is read off its definition, vector by vector: the palette colors
    that every filter vector proper on the prefix's edges puts on a
    neighbor of the last vertex (every color when none is proper).  The
    prefixes go 256 at a time, so the (prefix, vertex, vector) color
    array stays small.
    """
    rows, k = chunk.rows, chunk.lists.shape[1]
    m = rows.shape[0]
    palette = chunk.palette
    picks = _filter_vectors(k, n)
    inner = [(u, v) for u, v in edges if v < n - 1]
    around = [u for u, v in edges if v == n - 1]
    inside = np.zeros(m, dtype=np.uint64)
    for at in range(0, m, 256):
        part = rows[at:at + 256].reshape(-1, n - 1, k)
        # colors[p, v, b]: the color vector b puts on vertex v of prefix p.
        colors = np.take_along_axis(part, picks[None, :n - 1, :], axis=2)
        proper = np.ones((part.shape[0], picks.shape[1]), dtype=bool)
        for u, v in inner:
            proper &= colors[:, u] != colors[:, v]
        for c, color in enumerate(palette.tolist()):
            on = np.zeros_like(proper)
            for u in around:
                on |= colors[:, u] == color
            fits = np.all(on | ~proper, axis=1).astype(np.uint64)
            inside[at:at + part.shape[0]] |= fits << np.uint64(c)
    return inside


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


def graph_polynomial_oracle(g: Graph) -> dict[tuple[int, ...], int]:
    """The graph polynomial prod_{uv in E, u<v} (x_u - x_v), expanded.

    Each of the 2^|E| terms picks x_u or -x_v from every factor; the
    signs are summed per exponent vector, zero coefficients dropped.
    For |E| <= 12 only.
    """
    if len(g.edges) > 12:
        raise ValueError("the brute expansion takes |E| <= 12")
    poly: dict[tuple[int, ...], int] = {}
    for heads in product((0, 1), repeat=len(g.edges)):
        t = [0] * g.n
        sign = 1
        for (u, v), head in zip(g.edges, heads):
            t[v if head else u] += 1
            sign = -sign if head else sign
        poly[tuple(t)] = poly.get(tuple(t), 0) + sign
    return {t: c for t, c in poly.items() if c}


def eulerian_difference_oracle(g: Graph, t: Sequence[int]) -> int:
    """Alon-Tarsi's |EE - EO| for an orientation with out-degrees t.

    Finds the first orientation of g (by brute force over 2^|E|) whose
    out-degrees are t, and counts its Eulerian spanning subgraphs (every
    vertex with in-degree equal to out-degree) of even and of odd size.
    Alon and Tarsi show the difference is the coefficient of prod
    x_i^t_i in the graph polynomial, up to sign; with no such
    orientation that coefficient is 0, and so is the answer.
    """
    if len(g.edges) > 12:
        raise ValueError("the brute count takes |E| <= 12")
    for tails in product((0, 1), repeat=len(g.edges)):
        arcs = [(u, v) if tail else (v, u)
                for (u, v), tail in zip(g.edges, tails)]
        out = [0] * g.n
        for a, _ in arcs:
            out[a] += 1
        if out == list(t):
            break
    else:
        return 0
    difference = 0
    for keep in product((0, 1), repeat=len(arcs)):
        balance = [0] * g.n
        for (a, b), kept in zip(arcs, keep):
            if kept:
                balance[a] += 1
                balance[b] -= 1
        if not any(balance):
            difference += -1 if sum(keep) % 2 else 1
    return abs(difference)


def two_choosable_oracle(g: Graph) -> bool:
    """Reference two_choosable_fast: one induced Graph per component and core.

    Each component (found by a depth-first walk) is shaved of degree <= 1
    vertices with a degree table, and its core, rebuilt as a Graph, is
    classified as empty, an even cycle, or a theta(2, 2, 2m) by walking
    the paths out of one degree-3 hub.
    """
    seen: set[int] = set()
    for root in range(g.n):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        h = g.induced(comp)
        alive = set(range(h.n))
        deg = {v: h.degree(v) for v in alive}
        queue = [v for v in alive if deg[v] <= 1]
        while queue:
            v = queue.pop()
            if v not in alive:
                continue
            alive.remove(v)
            for u in h.neighbors(v):
                if u in alive:
                    deg[u] -= 1
                    if deg[u] <= 1:
                        queue.append(u)
        if not alive:
            continue
        hh = h.induced(alive)
        degs = [hh.degree(v) for v in range(hh.n)]
        if all(d == 2 for d in degs):
            if hh.n % 2:
                return False
            continue
        if (sorted(degs)[-1] != 3 or degs.count(3) != 2
                or degs.count(2) != hh.n - 2):
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

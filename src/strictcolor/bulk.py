"""Vectorized colorability verdicts over assignment streams.

An assignment row fixes one sorted color list per vertex, and a choice
vector picks one list slot per vertex.  A row is colorable iff some choice
vector picks different colors at the two ends of every edge.  Packing many
rows into an integer matrix lets one search over the k^n choice vectors
settle every row at once.

The search is bit-sliced, one bit per row.  For each edge e and slot pair
(i, j), a conflict plane is a bitset over the rows, in little-endian
uint64 words: bit r says row r's i-th color at one end of e equals its
j-th color at the other.  A choice vector is improper on row r iff bit r
is set in one of the planes its slots select.  The search walks the
choice tree depth first, vertex by vertex, and drops a partial vector as
soon as it is improper on every open row; a row that some leaf reaches
is colored and leaves the open set, so a row is settled without reading
all k^n vectors.

A host with parts has a second space.  A proper coloring of a complete
multipartite graph gives each color at most one owning part, so a row is
colorable iff some map f from its P colors to the t parts gives every
vertex a color of its list owned by its own part.  The mask sweeps these
t^P owner maps instead when there are fewer of them than k^n choice
vectors, as on the capped streams of the refusal hunt (K(2,5,5) at caps
(4, 1): 3^5 maps against 3^12 vectors), over member planes: bit r of
plane (c, v) says color c is in row r's list of vertex v.  P counts the
colors of the stream's palette, which holds every color of its rows and
is fixed before any filtering, so the space depends on the stream alone,
not on where its chunks end or on what the filter keeps.
``limits.CHOICE_CAP`` bounds the space the mask uses: k^n, the leaf
count of the choice tree, or t^P, the width of the maps' shuffled
matrix.

Memory is bounded: the search holds the conflict planes, edges × k² bits
per row, and at most n blocks of ``FIRST_BLOCK`` · k children, each with
one bit per row.  The map sweep holds the member planes, P × n bits per
row, and blocks of maps sized so that their working set (picks, the
accumulators and one gathered plane per vertex) stays under
``SWEEP_BYTES``; its blocks start at ``FIRST_BLOCK`` and double.  The
prefix filter steps over a chunk in stretches sized by their prefixes
and runs (below) to stay under ``SWEEP_BYTES``, ending between runs
unless one run alone does not fit, and reads the leaves of the prefixes
it selects ``CHUNK_ROWS`` at a time; on a chunk of ``CHUNK_ROWS``
prefixes it peaks under ``SWEEP_BYTES``, the positions it returns
included.  Everything is exact integer comparison; numpy only supplies
the bulk loops.

Streams come as prefix chunks (``streams.PrefixChunk``), and most leaves
never reach the mask: ``leaf_candidates`` settles them per prefix, from
``FIRST_BLOCK`` fixed choice vectors, and the decision skeleton
(``listcolor.find_refusals``) masks only the leaves it keeps.  A chunk
comes in runs, one per state of vertex n-2 the walk reached: the
prefixes of a run agree on vertices 0..n-3, which the chunk holds once
per run, and differ on vertex n-2, which it holds per prefix (53.1
prefixes per run on K(2,2,2) with λ = {1,2}: 138,922 prefixes in 2,614
runs).  The filter computes once per run, from the run's columns, one
64-bit word per quantity with one bit per vector, which vectors are
improper on those vertices and which put each color on a neighbor of
vertex n-2 or of the last vertex; per prefix it only gathers vertex
n-2's k colors, from the chunk's vertex-(n-2) rows.  A chunk with fewer
than three leaves per prefix, as on the color-starved capped streams of
the refusal hunt (about 2 on K(2,5,5) at caps (4, 1)), skips the filter:
it would clear few of them, and its leaves all go to the mask.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import limits

# The most rows of any block the stream -> filter -> mask -> confirm
# skeleton builds: the prefixes of one chunk, or one slice of leaf rows.
CHUNK_ROWS = 8192
SWEEP_BYTES = 8 << 20
FIRST_BLOCK = 64
WORD = np.dtype("<u8")


def row_chunks(rows: Iterable[tuple[int, ...]], width: int,
               chunk_rows: int = CHUNK_ROWS) -> Iterator[np.ndarray]:
    """Batch flat rows into (m, width) int32 arrays, preserving order."""
    if width == 0:
        # Rows carry no entries; count them so callers still see the chunk.
        count = sum(1 for _ in rows)
        if count:
            yield np.zeros((count, 0), dtype=np.int32)
        return
    buf = array("i")
    pending = 0
    for row in rows:
        buf.extend(row)
        pending += 1
        if pending == chunk_rows:
            yield np.frombuffer(buf, dtype=np.int32).reshape(pending, width)
            buf = array("i")
            pending = 0
    if pending:
        yield np.frombuffer(buf, dtype=np.int32).reshape(pending, width)


@lru_cache(maxsize=8)
def _choice_matrix(k: int, n: int) -> np.ndarray:
    """All k^n vectors over range(k) as the columns of an (n, k^n) matrix.

    The owner maps of _sweep_maps, k parts for n colors.  Column j holds
    the base-k digits of the j-th entry of a fixed shuffle of range(k^n).
    Lexicographic order is pathological here: consecutive maps share long
    constant prefixes, which color almost no row, so the sweep would keep
    the whole chunk undecided for ages.  The shuffle spreads coloring maps
    evenly through the sweep.  The matrix is shared between calls, hence
    read-only.
    """
    count = k ** n
    order = np.random.default_rng(0).permutation(count)
    digits = np.empty((n, count), dtype=np.int8)
    for v in range(n):
        np.remainder(order // k ** (n - 1 - v), k, out=digits[v],
                     casting="unsafe")
    digits.flags.writeable = False
    return digits


def _conflict_planes(lists: np.ndarray,
                     edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """(edges, k*k, words) bitsets over the rows of an (m, n, k) array.

    Bit r of plane [e, i*k + j] is set when row r's i-th color at the
    first end of edge e equals its j-th color at the second end.  Bits
    past m, in the last word, stay clear.
    """
    m, _, k = lists.shape
    by_slot = np.ascontiguousarray(lists.transpose(1, 2, 0))
    planes = np.zeros((len(edges), k * k, -(-m // 64) * 8), dtype=np.uint8)
    equal = np.empty((k, k, m), dtype=bool)
    for e, (u, v) in enumerate(edges):
        np.equal(by_slot[u][:, None, :], by_slot[v][None, :, :], out=equal)
        planes[e, :, :-(-m // 8)] = np.packbits(
            equal.reshape(k * k, m), axis=1, bitorder="little")
    return planes.view(WORD)


def _search_choice_tree(lists: np.ndarray,
                        edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Per row of an (m, n, k) array: does some choice vector color it?

    A depth-first search over the choice tree, bit-sliced over the rows
    as in the module docstring.  A node is a choice vector for vertices
    0..d-1 with the bitset of open rows on which it is proper; expanding
    vertex d clears the rows where a slot of d conflicts with an earlier
    vertex, and a node with no row left is dropped.  A leaf's rows are
    colorable, and leave the open set, so every pending node loses them
    too.  A vector proper on row r is proper on r at every prefix, so its
    path is never pruned while r is open: the rows still open at the end
    are exactly the refused ones.  Nodes are expanded FIRST_BLOCK at a time,
    depth first, so at most n blocks of children are pending.
    """
    m, n, k = lists.shape
    planes = _conflict_planes(lists, edges)
    words = planes.shape[2]
    # Per vertex d, its edges to earlier vertices w: w, and the edge's
    # planes indexed [slot of w, slot of d].
    back: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        pair = planes[e].reshape(k, k, words)
        back[max(u, v)].append((u, pair) if u < v
                               else (v, pair.transpose(1, 0, 2)))
    open_rows = np.packbits(np.arange(words * 64) < m,
                            bitorder="little").view(WORD)
    colors = np.arange(k)
    stack = [(np.zeros((1, 0), dtype=np.intp), open_rows[None].copy())]
    while stack and open_rows.any():
        picks, bits = stack.pop()
        if picks.shape[0] > FIRST_BLOCK:
            stack.append((picks[:-FIRST_BLOCK], bits[:-FIRST_BLOCK]))
            picks, bits = picks[-FIRST_BLOCK:], bits[-FIRST_BLOCK:]
        d = picks.shape[1]
        improper = np.zeros((picks.shape[0], k, words), dtype=WORD)
        for w, pair in back[d]:
            improper |= pair[picks[:, w]]
        proper = ((bits & open_rows)[:, None, :] & ~improper).reshape(
            -1, words)
        if d + 1 == n:
            open_rows &= ~np.bitwise_or.reduce(proper, axis=0)
            continue
        children = np.empty((picks.shape[0], k, d + 1), dtype=np.intp)
        children[:, :, :d] = picks[:, None, :]
        children[:, :, d] = colors
        alive = proper.any(axis=1)
        stack.append((children.reshape(-1, d + 1)[alive], proper[alive]))
    return ~np.unpackbits(open_rows.view(np.uint8), count=m,
                          bitorder="little").view(bool)


def _sweep_maps(lists: np.ndarray, parts: Sequence[Sequence[int]],
                colors: int) -> np.ndarray:
    """Per row of an (m, n, k) array of color slots 0..colors-1: does some
    owner map color it?

    Sweeps the shuffled maps of _choice_matrix(t, colors), map f giving
    color c to part f[c], over member planes: bit r of plane [c, v] says
    slot color c is in row r's list of vertex v.  Under f, vertex v's
    planes of the colors its part owns, OR-ed, hold the rows where v gets
    a color, and the AND of those over the vertices holds the rows f
    colors.  Blocks of maps start at FIRST_BLOCK and double under the
    SWEEP_BYTES budget; each time half of the rows the planes cover are
    colored, the planes are rebuilt over the rows left and the sweep
    resumes after the maps already read, which color none of them.  The
    rows still open after all t^colors maps are the refused ones.
    """
    m, n, k = lists.shape
    own = np.zeros((len(parts), n), dtype=WORD)
    for p, part in enumerate(parts):
        own[p, list(part)] = ~np.uint64(0)
    maps = _choice_matrix(len(parts), colors)
    colorable = np.zeros(m, dtype=bool)
    todo = np.arange(m)
    at = 0
    while todo.size and at < maps.shape[1]:
        rows = todo.size
        words = -(-rows // 64)
        by_slot = np.ascontiguousarray(lists[todo].transpose(1, 2, 0))
        planes = np.zeros((colors, n, words * 8), dtype=np.uint8)
        for c in range(colors):
            member = by_slot[:, 0] == c
            for j in range(1, k):
                member |= by_slot[:, j] == c
            planes[c, :, :-(-rows // 8)] = np.packbits(member, axis=1,
                                                       bitorder="little")
        planes = planes.view(WORD)
        still = np.packbits(np.arange(words * 64) < rows,
                            bitorder="little").view(WORD)
        # Per map, a block holds its picks, the per-vertex accumulator and
        # one masked plane per vertex.
        block_cap = max(1, SWEEP_BYTES // (8 * (colors + 2 * n * words)))
        block = min(FIRST_BLOCK, block_cap)
        while at < maps.shape[1]:
            picks = maps[:, at:at + block]
            at += picks.shape[1]
            got = np.zeros((picks.shape[1], n, words), dtype=WORD)
            for c in range(colors):
                got |= planes[c] & own[picks[c]][:, :, None]
            still &= ~np.bitwise_or.reduce(
                np.bitwise_and.reduce(got, axis=1), axis=0)
            block = min(2 * block, block_cap)
            if 2 * int(np.bitwise_count(still).sum()) <= rows:
                break
        left = np.unpackbits(still.view(np.uint8), count=rows,
                             bitorder="little").view(bool)
        colorable[todo[~left]] = True
        todo = todo[left]
    return colorable


def _colors(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-negative int array, sorted.

    np.unique would do, but its first call imports numpy.ma, about 1 MB
    of peak memory in a process that needs nothing else from it.
    """
    present = np.zeros(int(values.max(initial=0)) + 1, dtype=bool)
    present[values] = True
    return np.flatnonzero(present)


def colorable_mask(chunk: np.ndarray, n: int,
                   edges: Sequence[tuple[int, int]],
                   parts: Sequence[Sequence[int]] | None = None,
                   palette: np.ndarray | None = None) -> np.ndarray:
    """Per-row verdict: does the row's assignment admit a proper coloring?

    Over choice vectors, every row goes to one pruned depth-first search
    of the choice tree (_search_choice_tree), which colors or refuses
    each of them exactly.

    ``parts`` says that ``edges`` are those of the complete multipartite
    graph on these parts, as a Graph with parts guarantees.  The rows are
    then settled over the t^P owner maps (_sweep_maps) when t^P < k^n,
    and over choice vectors otherwise.  P is the size of ``palette``, the
    sorted colors the rows were drawn from, fixed before any filtering
    (a prefix chunk's palette); by default the rows' own colors.

    The result depends only on the rows, not on the space, the block
    sizes or the order of the search or the sweep.  Raises BoundExceeded
    instead of starting a hopeless run when the space used, k^n choice
    vectors or t^P owner maps, is over ``limits.CHOICE_CAP``.
    """
    rows = chunk.shape[0]
    if n == 0 or not edges:
        return np.ones(rows, dtype=bool)
    k = chunk.shape[1] // n
    if chunk.shape[1] != n * k:
        raise ValueError(f"chunk width {chunk.shape[1]} does not split over "
                         f"{n} vertices")
    if parts is not None:
        if palette is None:
            palette = _colors(chunk)
        t, size = len(parts), palette.size
        if t ** size < k ** n:
            limits.enforce("CHOICE_CAP", t ** size,
                           f"the owner map count {t}^{size} of a mask sweep")
            colors = _colors(chunk)
            if colors.size > size:
                raise ValueError("the rows hold more colors than the palette")
            if not rows:
                return np.zeros(0, dtype=bool)
            slot = np.zeros(int(colors[-1]) + 1,
                            dtype=np.min_scalar_type(colors.size))
            slot[colors] = np.arange(colors.size)
            return _sweep_maps(slot[chunk].reshape(rows, n, k), parts,
                               colors.size)
    limits.enforce("CHOICE_CAP", k ** n,
                   f"the choice vector count {k}^{n} of a mask sweep")
    if not rows:
        return np.zeros(0, dtype=bool)
    if chunk.size and chunk.dtype.kind in "iu":
        # Colors compare equal in the narrowest type holding them, and
        # the plane build is memory-bound.
        chunk = chunk.astype(np.promote_types(
            np.min_scalar_type(int(chunk.min())),
            np.min_scalar_type(int(chunk.max()))))
    return _search_choice_tree(chunk.reshape(rows, n, k), edges)


@lru_cache(maxsize=8)
def _filter_vectors(k: int, n: int) -> np.ndarray:
    """FIRST_BLOCK fixed pseudo-random choice vectors, as a read-only (n, B).

    The prefix filter's vectors, drawn on their own: a matrix of all k^n
    vectors would cost what CHOICE_CAP bounds, for 64 of them.
    """
    picks = np.random.default_rng(0).integers(0, k, size=(n, FIRST_BLOCK))
    picks.flags.writeable = False
    return picks


class _FilterPlan(NamedTuple):
    """The shared filter's fixed data for one shape, one bit per vector."""

    words: np.ndarray  # [v, i]: the vectors picking slot i at vertex v
    upper: np.ndarray  # the edges among vertices 0..n-3
    both: np.ndarray   # [e, i, j]: the vectors picking i and j at upper[e]
    near: np.ndarray   # the neighbors of vertex n-2 among 0..n-3
    far: np.ndarray    # the neighbors of the last vertex among 0..n-3
    beside: bool       # vertex n-2 sees the last vertex


@lru_cache(maxsize=8)
def _filter_plan(k: int, n: int,
                 edges: tuple[tuple[int, int], ...]) -> _FilterPlan:
    """The _FilterPlan of k-slot lists on n vertices, built on first use."""
    picks = _filter_vectors(k, n)
    flags = np.left_shift(np.uint64(1), np.arange(FIRST_BLOCK, dtype=WORD))
    words = np.bitwise_or.reduce(np.where(
        picks[:, None, :] == np.arange(k)[:, None], flags, np.uint64(0)),
        axis=2)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    upper = ends[ends[:, 1] < n - 2]
    around = ends[ends[:, 1] == n - 1, 0]
    both = words[upper[:, 0], :, None] & words[upper[:, 1], None, :]
    return _FilterPlan(words, upper, both, ends[ends[:, 1] == n - 2, 0],
                       around[around < n - 2], bool(np.any(around == n - 2)))


def _run_words(reps: np.ndarray, vertices: np.ndarray, index: np.ndarray,
               width: int, words: np.ndarray) -> np.ndarray:
    """Flat (runs, width) words: bit b of [r, index[c]] says vector b puts
    color c on one of the vertices in run r's representative prefix."""
    runs = reps.shape[0]
    table = np.zeros(runs * width, dtype=WORD)
    at = np.arange(runs)[:, None, None] * width + index[reps[:, vertices]]
    np.bitwise_or.at(table, at.ravel(),
                     np.broadcast_to(words[vertices], at.shape).ravel())
    return table


def _shared_colors(reps: np.ndarray, heads: np.ndarray, x: np.ndarray,
                   slot: np.ndarray, size: int, plan: _FilterPlan
                   ) -> np.ndarray:
    """G per prefix of a stretch of whole runs, one word each.

    ``reps`` holds each run's vertices 0..n-3, (runs, n-2, k), ``heads``
    each run's first prefix in the stretch and ``x`` each prefix's vertex
    n-2, (m, k).  Per run, once: the vectors improper on vertices 0..n-3,
    and per color the vectors putting it on a neighbor of vertex n-2
    (``near``) and of the last vertex (``far``).  Per prefix: vertex
    n-2's k colors gather the vectors it makes improper, and a color is
    in G when its word covers every proper vector; it is tested only in
    runs where it covers the vectors proper on all their prefixes, and
    vertex n-2's own colors are tested too when it sees the last vertex.
    """
    words, upper, both, near, far, beside = plan
    m, t = x.shape[0], reps.shape[1]
    runs = heads.size
    run_of = np.repeat(np.arange(runs), np.diff(heads, append=m))
    improper = np.bitwise_or.reduce(np.where(
        reps[:, upper[:, 0], :, None] == reps[:, upper[:, 1], None, :],
        both, np.uint64(0)).reshape(runs, -1), axis=1)
    # Colors by slot: the palette's, then one slot for any other color.
    width = size + 1
    at = run_of[:, None] * width + slot[x]
    bad = improper[run_of]
    table = _run_words(reps, near, slot, width, words)
    for i in range(x.shape[1]):
        bad |= table[at[:, i]] & words[t, i]
    if not np.array_equal(near, far):
        table = _run_words(reps, far, slot, width, words)
    table = table.reshape(runs, width)
    inside = np.zeros(m, dtype=WORD)
    full = ~np.uint64(0)
    # A color may be in G on a run's prefix only if its word covers the
    # vectors proper on every prefix of the run: test those runs'
    # prefixes on the colors some run may hold.
    maybe = (table[:, :size] | np.bitwise_or.reduceat(bad, heads)[:, None]
             ) == full
    sel = np.flatnonzero(maybe.any(axis=1)[run_of])
    of, gone = run_of[sel], bad[sel]
    got = np.zeros(sel.size, dtype=WORD)
    for c in np.flatnonzero(maybe.any(axis=0)).tolist():
        got |= ((table[:, c][of] | gone) == full).astype(WORD) << np.uint64(c)
    inside[sel] = got
    if beside:
        own = np.bitwise_or.reduce(np.where(
            x[:, :, None] == x[:, None, :], words[t], np.uint64(0)), axis=2)
        hit = (bad[:, None] | table.ravel()[at] | own) == full
        hit &= slot[x] < size
        inside |= np.bitwise_or.reduce(np.where(hit, np.left_shift(
            np.uint64(1), np.minimum(slot[x], 63).astype(WORD)),
            np.uint64(0)), axis=1)
    return inside


def _prefix_colors(chunk, n: int, edges: Sequence[tuple[int, int]]
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """Per prefix G as a color bitmask, and the bit of every color value.

    The bits belong to a compact palette of the colors the last-vertex
    lists use, since G matters only inside them; other colors have no
    bit.  None when the lists use more than 64 colors.  ``edges`` are
    sorted pairs (u, v), u < v, as a Graph holds them, and n >= 2.

    Everything that depends on vertices 0..n-3 alone is computed once per
    run of the chunk (_shared_colors), read from the run's columns, and
    per prefix only vertex n-2's columns are read.  The chunk goes in
    stretches whose working set, counted per prefix and per run, stays
    under about SWEEP_BYTES, ending between runs unless a run alone does
    not fit and is cut.
    """
    m, k = chunk.lower.shape[0], chunk.lists.shape[1]
    palette = chunk.palette
    if palette.size > 64:
        return None
    size = palette.size
    top = max(int(palette[-1]), int(chunk.upper.max(initial=0)),
              int(chunk.lower.max(initial=0)))
    slot = np.full(top + 1, size, dtype=np.intp)
    slot[palette] = np.arange(size)
    bit = np.zeros(top + 1, dtype=WORD)
    bit[palette] = np.left_shift(np.uint64(1),
                                 np.arange(size, dtype=np.uint64))
    inside = np.empty(m, dtype=WORD)
    heads = chunk.heads
    reps = chunk.upper.reshape(heads.size, n - 2, k)
    plan = _filter_plan(k, n, tuple(edges))
    # Per run: the improper test's bytes, its words and their reduction,
    # two color tables and their indices; per prefix: the indices, words
    # and temporaries of the gathers and tests.
    per_run = (len(plan.upper) * k * k * 17
               + 16 * (size + 2 * plan.near.size * k + 1))
    per_row = 8 * (8 + 3 * k + 2 * k * k)
    at = 0
    while at < m:
        # Runs r-1.. hold the stretch from prefix at.  It ends where a
        # later run starts, or with the chunk, at the last such end whose
        # working set fits, and inside run r-1 when none does.
        r = int(np.searchsorted(heads, at, "right"))
        ends = np.append(heads[r:], m)
        used = per_row * (ends - at) + per_run * np.arange(1, ends.size + 1)
        runs = int(np.searchsorted(used, SWEEP_BYTES, "right"))
        stop = int(ends[runs - 1]) if runs else min(int(ends[0]), at + max(
            64, (SWEEP_BYTES - per_run) // per_row))
        runs = max(runs, 1)
        inside[at:stop] = _shared_colors(
            reps[r - 1:r - 1 + runs],
            np.concatenate(([0], heads[r:r - 1 + runs] - at)),
            chunk.lower[at:stop], slot, size, plan)
        at = stop
    return inside, bit


def leaf_candidates(chunk, n: int, edges: Sequence[tuple[int, int]]
                    ) -> np.ndarray:
    """Positions, within a prefix chunk, of leaves the prefix filter keeps.

    The filter reads FIRST_BLOCK fixed choice vectors on each prefix's
    vertices 0..n-2 (_prefix_colors, once per run of prefixes sharing
    vertices 0..n-3), and keeps G, the AND over the vectors proper on the
    prefix of the colors they put on the last vertex's neighbors; with
    no proper vector, G is every color.  A leaf whose last list L is not
    inside G is colorable: a proper vector leaves a color of L free for
    the last vertex.  Only the leaves with L inside G are kept, in stream
    order; a prefix whose G has fewer than k colors keeps none, and its
    leaves are not looked at.  A chunk with fewer than three leaves per
    prefix keeps every leaf.
    """
    if n == 0 or not edges:
        return np.zeros(0, dtype=np.intp)
    if chunk.leaves < 3 * len(chunk.count):
        # Few leaves per prefix, as on the color-starved capped streams of
        # the refusal hunt: the filter would clear few of them, at about
        # what the mask costs over them all.
        return np.arange(chunk.leaves)
    found = _prefix_colors(chunk, n, edges)
    if found is None:
        return np.arange(chunk.leaves)
    inside, bit = found
    k = chunk.lists.shape[1]
    sel = np.flatnonzero(np.bitwise_count(inside) >= k)
    kept = []
    for which, where, table in chunk.leaves_of(sel):
        last = chunk.lists[table]
        outside = ~inside[sel[which]]
        keep = np.ones(where.size, dtype=bool)
        for c in range(k):
            keep &= (bit[last[:, c]] & outside) == 0
        kept.append(where[keep])
    return np.concatenate(kept)


def mask_chunks(chunks: Iterable[np.ndarray], n: int,
                edges: Sequence[tuple[int, int]], workers: int = 1
                ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (row_offset, chunk, colorable_mask) per chunk, in stream order.

    With workers > 1 the chunks are solved by a thread pool; results are
    merged back in order, so the output is identical for any worker count.
    No decision uses the pool; it is kept only for perfbench's pool probe
    (ROADMAP item 6).
    """
    if workers <= 1:
        offset = 0
        for chunk in chunks:
            yield offset, chunk, colorable_mask(chunk, n, edges)
            offset += chunk.shape[0]
        return

    # Submit a bounded window of chunks so the stream is never fully
    # materialized, and yield results strictly in submission order.
    from concurrent.futures import Future, ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        inflight: deque[tuple[np.ndarray, Future]] = deque()
        offset = 0
        for chunk in chunks:
            inflight.append((chunk,
                             pool.submit(colorable_mask, chunk, n, edges)))
            if len(inflight) >= workers + 2:
                done, fut = inflight.popleft()
                yield offset, done, fut.result()
                offset += done.shape[0]
        while inflight:
            done, fut = inflight.popleft()
            yield offset, done, fut.result()
            offset += done.shape[0]


def mask_stream(rows: Iterable[tuple[int, ...]], n: int,
                edges: Sequence[tuple[int, int]], width: int,
                chunk_rows: int = CHUNK_ROWS, workers: int = 1
                ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """mask_chunks over tuple rows packed by row_chunks."""
    return mask_chunks(row_chunks(rows, width, chunk_rows=chunk_rows), n,
                       edges, workers=workers)

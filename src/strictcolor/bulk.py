"""Vectorized colorability verdicts over assignment streams.

An assignment row fixes one sorted color list per vertex, and a choice
vector picks one list slot per vertex.  A row is colorable iff some choice
vector picks different colors at the two ends of every edge.  Packing many
rows into an integer matrix lets one sweep over all k^n choice vectors
settle every row at once.

The sweep is bit-sliced, one bit per row.  For each edge e and slot pair
(i, j), a conflict plane is a bitset over the still-undecided rows, in
little-endian uint64 words: bit r says row r's i-th color at one end of e
equals its j-th color at the other.  A choice vector is improper on row r
iff bit r is set in one of the planes its slots select, so OR-ing those
planes over the edges and AND-ing the result over a block of vectors
leaves exactly the rows that no vector of the block colors.  A row whose
bit survives all k^n vectors is refused.

Memory is bounded: the planes take edges × k² bits per row, and a block
of vectors is sized so that its working set (picks, plane indices, the
OR accumulator and one gathered plane per vector) stays under
``SWEEP_BYTES``, so nothing grows with rows × vectors × n.  Blocks
start at ``FIRST_BLOCK`` vectors and double, and the planes are rebuilt
from the surviving rows whenever the undecided set halves, so the rare
hard rows face the long tail of the sweep in a few words.  Everything is
exact integer comparison; numpy only supplies the bulk loops.

Streams come as prefix chunks (``streams.PrefixChunk``), and most leaves
never reach the sweep: ``leaf_candidates`` settles them per prefix, by a
short bit-sliced sweep over the prefix alone, and the decision skeleton
(``listcolor.find_refusals``) masks only the leaves it keeps.
"""

from __future__ import annotations

from array import array
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import limits

CHUNK_ROWS = 65536
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
    """All k^n choice vectors as the columns of a read-only (n, k^n) matrix.

    Column j holds the base-k digits of the j-th entry of a fixed shuffle
    of range(k^n).  Lexicographic order is pathological here: consecutive
    vectors share long constant prefixes, which are improper on nearly
    every row, so a filtering sweep would keep the whole chunk undecided
    for ages.  The shuffle spreads proper vectors evenly through the sweep.
    The matrix is shared between calls, hence read-only.
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


def colorable_mask(chunk: np.ndarray, n: int,
                   edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Per-row verdict: does the row's assignment admit a proper coloring?

    Runs the bit-sliced sweep of the module docstring over the k^n
    shuffled choice vectors, in blocks of FIRST_BLOCK vectors that double
    up to the SWEEP_BYTES budget.  After each block the rows it colored
    are settled; once half of the rows the planes cover are settled, the
    planes are rebuilt over the rest.  Rows still undecided after the
    last vector are refused.  The result depends only on the rows, not
    on the block sizes or the vector order.  Raises BoundExceeded instead
    of starting a hopeless sweep when k^n is over ``limits.CHOICE_CAP``.
    """
    rows = chunk.shape[0]
    if n == 0 or not edges:
        return np.ones(rows, dtype=bool)
    k = chunk.shape[1] // n
    if chunk.shape[1] != n * k:
        raise ValueError(f"chunk width {chunk.shape[1]} does not split over "
                         f"{n} vertices")
    limits.enforce("CHOICE_CAP", k ** n,
                   f"the choice vector count {k}^{n} of a mask sweep")
    choices = _choice_matrix(k, n)
    if chunk.size and chunk.dtype.kind in "iu":
        # Colors compare equal in the narrowest type holding them, and
        # the plane build is memory-bound.
        chunk = chunk.astype(np.promote_types(
            np.min_scalar_type(int(chunk.min())),
            np.min_scalar_type(int(chunk.max()))))
    lists = chunk.reshape(rows, n, k)
    colorable = np.zeros(rows, dtype=bool)
    undecided = np.arange(rows)
    at, block = 0, FIRST_BLOCK
    while undecided.size and at < choices.shape[1]:
        planes = _conflict_planes(lists[undecided], edges)
        live, words = undecided.size, planes.shape[2]
        still = np.full(words, ~np.uint64(0), dtype=WORD)
        # Per vector, a block holds its picks, two plane indices, the OR
        # accumulator and one gathered plane.
        block_cap = max(1, SWEEP_BYTES // (8 * (n + 2 + 2 * words)))
        block = min(block, block_cap)
        while at < choices.shape[1]:
            picks = choices[:, at:at + block].astype(np.intp)
            at += picks.shape[1]
            improper = np.zeros((picks.shape[1], words), dtype=WORD)
            for e, (u, v) in enumerate(edges):
                improper |= planes[e][picks[u] * k + picks[v]]
            still &= np.bitwise_and.reduce(improper, axis=0)
            block = min(2 * block, block_cap)
            refused = np.unpackbits(still.view(np.uint8), count=live,
                                    bitorder="little").view(bool)
            if 2 * np.count_nonzero(refused) <= live:
                break
        colorable[undecided[~refused]] = True
        undecided = undecided[refused]
    return colorable


@lru_cache(maxsize=8)
def _filter_vectors(k: int, n: int) -> np.ndarray:
    """FIRST_BLOCK fixed pseudo-random choice vectors, as a read-only (n, B).

    They are drawn on their own rather than taken from _choice_matrix,
    which builds all k^n vectors before colorable_mask can refuse a sweep
    over CHOICE_CAP.
    """
    picks = np.random.default_rng(0).integers(0, k, size=(n, FIRST_BLOCK))
    picks.flags.writeable = False
    return picks


def _prefix_colors(chunk, n: int, edges: Sequence[tuple[int, int]]
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """Per prefix G as a color bitmask, and the bit of every color value.

    The bits belong to a compact palette of the colors the last-vertex
    lists use, since G matters only inside them; other colors have no
    bit.  None when the lists use more than 64 colors.
    """
    m, k = chunk.rows.shape[0], chunk.lists.shape[1]
    palette = chunk.palette
    if palette.size > 64:
        return None
    prefixes = chunk.rows.reshape(m, n - 1, k)
    top = max(int(palette[-1]), int(prefixes.max()) if prefixes.size else 0)
    slot = np.full(top + 1, palette.size, dtype=np.intp)
    slot[palette] = np.arange(palette.size)
    bit = np.zeros(top + 1, dtype=WORD)
    bit[palette] = np.left_shift(np.uint64(1),
                                 np.arange(palette.size, dtype=np.uint64))

    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    inner = ends[ends[:, 1] < n - 1]
    around = ends[ends[:, 1] == n - 1, 0]
    picks = _filter_vectors(k, n)
    # Per prefix: the conflict planes, the neighbor color bytes and their
    # planes, and a few copies of every vector's gathered color planes.
    per_row = (around.size * k * (palette.size + 1)
               + (len(inner) * (k * k + FIRST_BLOCK)
                  + (around.size + 2) * FIRST_BLOCK * palette.size) / 8
               + k * k + palette.size)
    step = max(64, int(SWEEP_BYTES // per_row) // 64 * 64)
    inside = np.empty(m, dtype=WORD)
    tags = np.arange(palette.size)[None, None, :, None]
    shifts = np.arange(palette.size, dtype=WORD)[:, None]
    for at in range(0, m, step):
        part = prefixes[at:at + step]
        rows, words = part.shape[0], -(-part.shape[0] // 64)
        # covered[b, c]: the prefixes where vector b is improper or puts
        # color c on a neighbor of the last vertex.  G is their AND over b.
        covered = np.zeros((FIRST_BLOCK, palette.size, words), dtype=WORD)
        if around.size:
            # seen[w, i, c]: the prefixes whose neighbor w has color c in
            # slot i, padded to whole words with a color off the palette.
            colors = np.full((around.size, k, words * 64), palette.size,
                             dtype=np.intp)
            colors[:, :, :rows] = slot[part[:, around, :]].transpose(1, 2, 0)
            seen = np.packbits((colors[:, :, None, :] == tags).reshape(
                -1, words * 64), axis=1, bitorder="little").view(
                WORD).reshape(around.size, k, palette.size, words)
            covered |= np.bitwise_or.reduce(
                seen[np.arange(around.size)[:, None], picks[around]], axis=0)
        if len(inner):
            planes = _conflict_planes(part, inner)
            covered |= np.bitwise_or.reduce(planes[
                np.arange(len(inner))[:, None],
                picks[inner[:, 0]] * k + picks[inner[:, 1]]], axis=0)[:, None]
        fits = np.unpackbits(np.bitwise_and.reduce(covered, axis=0).view(
            np.uint8), axis=1, count=rows, bitorder="little")
        inside[at:at + rows] = np.bitwise_or.reduce(fits.astype(WORD) << shifts,
                                                  axis=0)
    return inside, bit


def leaf_candidates(chunk, n: int, edges: Sequence[tuple[int, int]]
                    ) -> np.ndarray:
    """Positions, within a prefix chunk, of leaves the prefix filter keeps.

    The filter sweeps FIRST_BLOCK fixed choice vectors over the edges
    among each prefix's vertices 0..n-2, bit-sliced like colorable_mask,
    and keeps G, the AND over the proper vectors of the colors they put
    on the last vertex's neighbors; with no proper vector, G is every
    color.  A leaf whose last list L is not inside G is colorable: a
    proper vector leaves a color of L free for the last vertex.  Only the
    leaves with L inside G are kept, in stream order; a prefix whose G
    has fewer than k colors keeps none, and its leaves are not looked at.
    A chunk with no more leaves than prefixes keeps every leaf.
    """
    if n == 0 or not edges:
        return np.zeros(0, dtype=np.intp)
    if chunk.leaves <= chunk.rows.shape[0]:
        # One leaf per prefix: the sweep over the prefixes would cost what
        # the mask's sweep over the leaves costs.
        return np.arange(chunk.leaves)
    found = _prefix_colors(chunk, n, edges)
    if found is None:
        return np.arange(chunk.leaves)
    inside, bit = found
    k = chunk.lists.shape[1]
    sel = np.flatnonzero(np.bitwise_count(inside) >= k)
    where, table = chunk.leaves_of(sel)
    last = chunk.lists[table]
    outside = ~np.repeat(inside[sel], chunk.count[sel])
    keep = np.ones(where.size, dtype=bool)
    for c in range(k):
        keep &= (bit[last[:, c]] & outside) == 0
    return where[keep]


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

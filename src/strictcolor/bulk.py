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


def mask_chunks(chunks: Iterable[np.ndarray], n: int,
                edges: Sequence[tuple[int, int]], workers: int = 1
                ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (row_offset, chunk, colorable_mask) per chunk, in stream order.

    With workers > 1 the chunks are solved by a thread pool; results are
    merged back in order, so the output is identical for any worker count.
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

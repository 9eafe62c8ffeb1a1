"""Vectorized colorability verdicts over assignment streams.

An assignment row fixes one sorted color list per vertex.  Packing many
rows into an integer matrix lets one pass over all choice vectors (one
color index per vertex) settle every row at once: each choice vector
resolves the rows where it induces a proper coloring, and rows surviving
every choice vector have no proper coloring at all.  Everything is exact
integer comparison; numpy only supplies the bulk loops.
"""

from __future__ import annotations

from array import array
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BoundExceeded

CHUNK_ROWS = 65536
CHOICE_CAP = 2_000_000


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


def _choice_matrix(k: int, n: int) -> np.ndarray:
    """All k^n choice vectors, deterministically shuffled.

    Lexicographic order is pathological here: consecutive vectors share
    long constant prefixes, which are improper on nearly every row, so a
    filtering sweep would keep the whole chunk undecided for ages.  A
    fixed shuffle spreads proper vectors evenly through the sweep.
    """
    count = k ** n
    vals = np.arange(count, dtype=np.int64)
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = ((vals[:, None] // powers[None, :]) % k).astype(np.int8)
    return np.random.default_rng(0).permutation(digits)


def colorable_mask(chunk: np.ndarray, n: int,
                   edges: Sequence[tuple[int, int]],
                   choice_cap: int = CHOICE_CAP) -> np.ndarray:
    """Per-row verdict: does the row's assignment admit a proper coloring?

    Sweeps every k^n choice vector, filtering down to still-undecided rows:
    a first pass of single shuffled vectors settles typical rows in a few
    steps, and the rare stragglers face the remaining vectors in vectorized
    blocks.  Raises BoundExceeded instead of starting a hopeless sweep when
    k^n is over choice_cap.
    """
    rows = chunk.shape[0]
    if n == 0 or not edges:
        return np.ones(rows, dtype=bool)
    k = chunk.shape[1] // n
    if chunk.shape[1] != n * k:
        raise ValueError(f"chunk width {chunk.shape[1]} does not split over "
                         f"{n} vertices")
    if k ** n > choice_cap:
        raise BoundExceeded(f"{k}^{n} choice vectors exceed the cap of "
                            f"{choice_cap}")
    choices = _choice_matrix(k, n)
    lists = chunk.reshape(rows, n, k)
    colorable = np.zeros(rows, dtype=bool)
    undecided = np.arange(rows)
    vidx = np.arange(n)
    eu = np.array([u for u, _ in edges])
    ev = np.array([v for _, v in edges])
    head = min(len(choices), 2048)
    for choice in choices[:head]:
        picked = lists[undecided[:, None], vidx[None, :], choice[None, :]]
        proper = (picked[:, eu] != picked[:, ev]).all(axis=1)
        colorable[undecided[proper]] = True
        undecided = undecided[~proper]
        if undecided.size == 0:
            return colorable
    uidx = np.arange(undecided.size)
    for at in range(head, len(choices), 1024):
        block = choices[at:at + 1024]
        picked = lists[undecided[uidx, None, None],
                       vidx[None, None, :], block[None, :, :]]
        proper = (picked[:, :, eu] != picked[:, :, ev]).all(axis=2)
        hit = proper.any(axis=1)
        colorable[undecided[hit]] = True
        undecided = undecided[~hit]
        uidx = np.arange(undecided.size)
        if undecided.size == 0:
            break
    return colorable


def mask_stream(rows: Iterable[tuple[int, ...]], n: int,
                edges: Sequence[tuple[int, int]], width: int,
                chunk_rows: int = CHUNK_ROWS, workers: int = 1,
                choice_cap: int = CHOICE_CAP
                ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (row_offset, chunk, colorable_mask) per chunk, in stream order.

    With workers > 1 the chunks are solved by a thread pool; results are
    merged back in order, so the output is identical for any worker count.
    """
    chunks = row_chunks(rows, width, chunk_rows=chunk_rows)
    if workers <= 1:
        offset = 0
        for chunk in chunks:
            yield offset, chunk, colorable_mask(chunk, n, edges,
                                                choice_cap=choice_cap)
            offset += chunk.shape[0]
        return

    # Submit a bounded window of chunks so the stream is never fully
    # materialized, and yield results strictly in submission order.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        inflight: deque[tuple[np.ndarray, Future]] = deque()
        offset = 0
        for chunk in chunks:
            inflight.append((chunk,
                             pool.submit(colorable_mask, chunk, n, edges,
                                         choice_cap)))
            if len(inflight) >= workers + 2:
                done, fut = inflight.popleft()
                yield offset, done, fut.result()
                offset += done.shape[0]
        while inflight:
            done, fut = inflight.popleft()
            yield offset, done, fut.result()
            offset += done.shape[0]


"""Canonical enumeration of list assignments up to symmetry.

List assignments are enumerated as flat rows of integers.  A row lays out,
vertex by vertex, the sorted color choice of every color group: with group
sizes (k_1 >= k_2 >= ... >= k_t), vertex v occupies positions
v*k .. (v+1)*k - 1 where k = k_1 + ... + k_t, group 1 first.  Group i draws
from its own disjoint color window of size n * k_i, so groups can never
collide and n fresh colors per vertex are always available.

Enumerating every assignment over the windows would be hopeless and mostly
redundant: the properties we care about (does some proper coloring exist)
are invariant under renaming colors within a group, permuting vertices
inside a part of a complete multipartite graph, and swapping whole groups
of equal size.  The stream therefore imposes three canonical constraints:

1. Within each group, colors appear in first-use order.  Scanning vertices
   in index order, when a vertex introduces f colors not seen before in the
   group's window, those colors are exactly the next f unused window
   values.
2. Within each graph part, the combined per-vertex rows are lexicographically
   non-decreasing from one vertex to the next.
3. For adjacent groups of equal size, the vertex-major sequence of
   window-relative choices of the earlier group is lexicographically no
   larger than that of the later group.

Every orbit of assignments under the symmetries above contains a
lexicographically least member, and that member satisfies all three
constraints: violating (1) lets a color transposition produce a smaller
row, violating (2) lets a vertex swap inside a part do the same, and
violating (3) a swap of the two groups.  The stream therefore covers every
orbit at least once.  It may cover an orbit more than once (the constraints
are necessary for minimality, not sufficient), which is harmless for
exhaustive verification and is counted rather than hidden.

Ordinary k-assignments are the single-group case: group_sizes = (k,).

The stream comes out as int32 chunks (``grouped_chunks``).  The rows below
a vertex depend only on its state: the vertex index, the colors each group
has used so far, which equal-size groups are still tied under (3), and
the previous vertex's choice when both share a part (2).  Each state's
vertex rows and row count are computed once.  A subtree that fits in a
chunk is emitted whole: it is assembled from its children's blocks, which
are built once and kept read-only in the narrowest integer type, and
copied into the chunk with the prefix columns broadcast.  The emitted
block itself is not kept, so the memo holds only the small sub-blocks.
Subtrees too big for a chunk are walked one vertex row at a time.
``enumerate_grouped``, the tuple stream, is the chunk stream flattened.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from . import limits
from .bulk import CHUNK_ROWS


def group_offsets(n: int, group_sizes: Sequence[int]) -> tuple[int, ...]:
    """Start of each group's color window for an n-vertex enumeration."""
    offs = []
    base = 0
    for size in group_sizes:
        offs.append(base)
        base += n * size
    return tuple(offs)


def grouped_chunks(n: int, group_sizes: Sequence[int],
                   parts: Sequence[Sequence[int]] | None = None,
                   caps: Sequence[int] | None = None,
                   chunk_rows: int = CHUNK_ROWS) -> Iterator[np.ndarray]:
    """Yield the canonical rows, in lexicographic order, as int32 chunks.

    Every chunk is a fresh, writable (m, n*k) array with m == chunk_rows
    except in the last one.  ``parts`` marks runs of interchangeable
    vertices (consecutive vertex ranges, as produced by complete
    multipartite construction); constraint 2 applies inside each part.
    Without it every vertex is its own part and only constraints 1 and 3
    apply.

    ``caps`` filters the stream to rows whose group-i colors stay within
    the first caps[i] values of that group's window.  Assignments hostile
    to coloring reuse few colors, so small caps concentrate them; the
    filtered stream makes no completeness promise of its own and is exempt
    from GROUPED_BOUND, since the caller is expected to truncate it.

    Arguments are checked, and errors raised, at the first ``next()``.
    """
    sizes = tuple(group_sizes)
    if any(not isinstance(s, int) or s < 1 for s in sizes) or not sizes:
        raise ValueError(f"group sizes must be positive integers, got {sizes}")
    if list(sizes) != sorted(sizes, reverse=True):
        raise ValueError(f"group sizes must be non-increasing, got {sizes}")
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if caps is None:
        limits.enforce("GROUPED_BOUND", n * sum(sizes), "the total colors "
                       "per row of an assignment enumeration")
    else:
        caps = tuple(int(c) for c in caps)
        if len(caps) != len(sizes):
            raise ValueError("caps must give one limit per group")
        if any(c < s for c, s in zip(caps, sizes)):
            raise ValueError(f"caps {caps} leave some vertex short of its "
                             f"group size {sizes}")
        caps = tuple(min(c, n * s) for c, s in zip(caps, sizes))
    if n == 0:
        yield np.zeros((1, 0), dtype=np.int32)
        return

    if parts is None:
        samepart = [False] * n
    else:
        flat = [v for part in parts for v in part]
        if flat != list(range(n)):
            raise ValueError("parts must be consecutive ranges covering 0..n-1")
        samepart = [False] * n
        for part in parts:
            for v in list(part)[1:]:
                samepart[v] = True

    t = len(sizes)
    k = sum(sizes)
    offs = group_offsets(n, sizes)
    eqpair = tuple(g > 0 and sizes[g] == sizes[g - 1] for g in range(t))
    narrow = np.min_scalar_type(n * k - 1)

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
        del grec  # it refers to itself: free it, and its rows, right away
        return results

    # A vertex state is (v, seen, r3eq, previous vertex's choice if v
    # shares its part, else None): everything the rows of vertices v..
    # depend on.  Past the last vertex there is one state, with one empty
    # row.
    end = (n,)
    kids_of: dict[tuple, tuple[np.ndarray, list[tuple]]] = {}
    states: dict[tuple, tuple] = {end: end}

    def children(state) -> tuple[np.ndarray, list[tuple]]:
        """The state's vertex rows (narrow, in order) and their next states."""
        got = kids_of.get(state)
        if got is None:
            v, seen, r3eq, lower = state
            last = v + 1 == n
            same = not last and samepart[v + 1]
            heads, nexts = [], []
            for abs_row, rels, nseen, nr3 in vertex_rows(seen, r3eq, lower):
                heads.append(abs_row)
                nxt = end if last else (v + 1, nseen, nr3,
                                        rels if same else None)
                # One shared tuple per distinct state keeps the memo small.
                nexts.append(states.setdefault(nxt, nxt))
            got = (np.array(heads, dtype=narrow).reshape(len(heads), k),
                   nexts)
            kids_of[state] = got
        return got

    # Subtree row counts, capped at chunk_rows + 1 ("too big for a block").
    counts: dict[tuple, int] = {end: 1}

    def count(state) -> int:
        got = counts.get(state)
        if got is None:
            got = 0
            for child in children(state)[1]:
                got += count(child)
                if got > chunk_rows:
                    got = chunk_rows + 1
                    break
            counts[state] = got
        return got

    # Read-only rows of the subtrees that emitted blocks are built from.
    blocks: dict[tuple, np.ndarray] = {end: np.zeros((1, 0), dtype=narrow)}

    def block(state, keep: bool = True) -> np.ndarray:
        """The subtree's rows over vertices v.., as a narrow-dtype array."""
        got = blocks.get(state)
        if got is not None:
            return got
        heads, nexts = children(state)
        if state[0] == n - 1:
            got = heads
        else:
            subs = [block(child) for child in nexts]
            lens = [sub.shape[0] for sub in subs]
            got = np.empty((sum(lens), (n - state[0]) * k), dtype=narrow)
            got[:, :k] = np.repeat(heads, lens, axis=0)
            np.concatenate(subs, out=got[:, k:])
        if keep:
            got.flags.writeable = False
            blocks[state] = got
        return got

    root = (0, (0,) * t, eqpair, None)
    width = n * k
    buf = np.empty((min(chunk_rows, count(root)), width), dtype=np.int32)
    pos = 0

    def walk(state, prefix: list[int]) -> Iterator[np.ndarray]:
        """Emit the subtree below prefix: whole if it fits a chunk."""
        nonlocal buf, pos
        if count(state) > chunk_rows:
            heads, nexts = children(state)
            for head, child in zip(heads.tolist(), nexts):
                yield from walk(child, prefix + head)
            return
        rows = block(state, keep=False)
        done, split = 0, len(prefix)
        while done < rows.shape[0]:
            take = min(rows.shape[0] - done, chunk_rows - pos)
            out = buf[pos:pos + take]
            out[:, :split] = prefix
            out[:, split:] = rows[done:done + take]
            pos += take
            done += take
            if pos == chunk_rows:
                yield buf
                buf = np.empty((chunk_rows, width), dtype=np.int32)
                pos = 0

    try:
        yield from walk(root, [])
        if pos:
            yield buf[:pos]
    finally:
        # walk, count and block call themselves, so only the cycle
        # collector would free them and what they hold: let go of it now.
        buf = None
        options.cache_clear()
        for memo in (kids_of, counts, blocks, states):
            memo.clear()


def enumerate_grouped(n: int, group_sizes: Sequence[int],
                      parts: Sequence[Sequence[int]] | None = None,
                      caps: Sequence[int] | None = None
                      ) -> Iterator[tuple[int, ...]]:
    """The rows of grouped_chunks one at a time, as tuples of ints."""
    for chunk in grouped_chunks(n, group_sizes, parts=parts, caps=caps):
        yield from map(tuple, chunk.tolist())


def enumerate_k_lists(n: int, k: int,
                      parts: Sequence[Sequence[int]] | None = None
                      ) -> Iterator[tuple[int, ...]]:
    """Canonical k-assignment rows: the single-group stream."""
    return enumerate_grouped(n, (k,), parts=parts)


def row_lists(row: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Split a flat row back into per-vertex sorted color lists."""
    if n == 0:
        return []
    k, rem = divmod(len(row), n)
    if rem:
        raise ValueError(f"row of length {len(row)} does not split into {n} lists")
    return [tuple(sorted(row[v * k:(v + 1) * k])) for v in range(n)]


def canonical_class(lists: Sequence[Sequence[int]],
                    parts: Sequence[Sequence[int]] | None = None
                    ) -> tuple[int, ...]:
    """Canonical representative of an assignment's symmetry class.

    Two single-group assignments get the same value exactly when one maps
    to the other by renaming colors, permuting vertices inside a part, and
    swapping whole parts of equal size.  With parts None every vertex is
    fixed and only color renaming is quotiented out.

    The value is the least flat row over every allowed vertex order and
    every color renaming onto 0, 1, ..., found by one least-prefix search
    (the pruning behind McKay's canonical forms).  A state is the vertices
    left in the current part, the parts not yet begun, and the named
    colors as a sequence of cells, each holding the next len(cell) ids in
    an order still free.  A step extends every state by every vertex that
    may come next (one left in the current part or, where a part begins,
    one of an unbegun part of that size) and keeps the extensions whose
    renamed row ties for the least.  That row gives the vertex's colors
    the lowest ids of each cell and its fresh colors the ids past every
    cell; any other choice gives a larger row, so splitting each cell into
    used and unused colors, and appending the fresh ones as a new cell,
    keeps exactly the renamings that tie.  The lists share one length and
    what follows a step depends only on the state, so the least row at
    every step is the least row overall.
    """
    n = len(lists)
    if len({len(l) for l in lists}) > 1:
        raise ValueError("all lists must have the same length")
    sets = [frozenset(l) for l in lists]
    if parts is None:
        blocks = [(v,) for v in range(n)]
        kind = list(range(n))  # no two vertices trade places
    elif sorted(v for part in parts for v in part) != list(range(n)):
        raise ValueError("parts must cover each vertex exactly once")
    else:
        blocks = [tuple(p) for p in parts if p]
        kind = [len(b) for b in blocks]  # equal-size parts trade places

    states = [((), tuple(range(len(blocks))), ())]
    out: list[int] = []
    for _ in range(n):
        scored = []
        for left, unbegun, cells in states:
            if left:
                moves = [(left, unbegun)]
            else:
                want = kind[len(blocks) - len(unbegun)]
                moves = [(blocks[b], tuple(x for x in unbegun if x != b))
                         for b in unbegun if kind[b] == want]
            for pool, rest in moves:
                for i, v in enumerate(pool):
                    colors = sets[v]
                    row: list[int] = []
                    split = []
                    base = 0
                    for cell in cells:
                        used = cell & colors
                        row.extend(range(base, base + len(used)))
                        split += [c for c in (used, cell - used) if c]
                        base += len(cell)
                    fresh = colors.difference(*cells)
                    row.extend(range(base, base + len(fresh)))
                    if fresh:
                        split.append(fresh)
                    scored.append((tuple(row), (pool[:i] + pool[i + 1:],
                                                rest, tuple(split))))
        best = min(row for row, _ in scored)
        out.extend(best)
        states = list(dict.fromkeys(state for row, state in scored
                                    if row == best))
    return tuple(out)

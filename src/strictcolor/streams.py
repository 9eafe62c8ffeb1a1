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

``grouped_chunks`` walks the stream once, over its prefixes: the columns
of vertices 0..n-2.  The rows below a vertex depend only on its state:
the vertex index, the colors each group has used so far, which equal-size
groups are still tied under (3), and the previous vertex's choice when
both share a part (2).  Each state's vertex rows and leaf count are
computed once.  A state of the last vertex is a prefix state: its vertex
rows are the last columns of the leaves below every prefix in it, so the
walk appends them once to a table of lists and emits each prefix row with
the span of its state's lists there instead of its leaves.  A prefix's
leaves are its row followed by each list of its span, in order, so a
leaf's index in the stream is the leaves before its prefix plus its
position in the span.  The table only grows, and each chunk holds a
read-only view of it, so the spans of one chunk stay valid after the walk
moves on.  A subtree whose leaves fit in a chunk is emitted whole: its
prefix rows are assembled from its children's blocks, built once and
kept read-only in the narrowest integer type, and copied into the chunk
with the prefix columns above them broadcast.  Subtrees too big for a
chunk are walked one vertex row at a time.

The decision skeleton reads these prefix chunks: the prefix filter of
``bulk`` clears, per prefix, every leaf whose last list holds a color that
one of its proper colorings of the prefix leaves free for the last
vertex, and only the rest are masked and confirmed.  ``enumerate_grouped``,
the tuple stream, is each chunk's ``leaf_rows()`` flattened.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

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


class PrefixChunk(NamedTuple):
    """Prefix rows of the canonical stream, standing for their leaf rows.

    ``rows`` holds the columns of vertices 0..n-2 (int32, one prefix per
    row).  Prefix i's leaves are its row followed by each of
    ``lists[start[i]:start[i] + count[i]]``, in order, and the chunk's
    ``leaves`` are those of all its prefixes, ``count.sum()`` of them.
    ``lists`` is a read-only int32 table of last-vertex lists that later
    chunks may extend but never change, and ``palette`` the colors it
    uses, sorted.
    """

    rows: np.ndarray
    start: np.ndarray
    count: np.ndarray
    lists: np.ndarray
    palette: np.ndarray
    leaves: int

    def leaves_of(self, prefixes: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Positions in the chunk, and rows in lists, of the leaves of the
        given prefixes: prefix by prefix, each in stream order."""
        lens = self.count[prefixes]
        within = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens,
                                                        lens)
        first = np.cumsum(self.count) - self.count
        return (np.repeat(first[prefixes], lens) + within,
                np.repeat(self.start[prefixes], lens) + within)

    def leaf_rows(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Fresh int32 leaf rows, of every leaf or of those at positions."""
        if positions is None:
            prefix = np.repeat(np.arange(len(self.count)), self.count)
            table = self.leaves_of(np.arange(len(self.count)))[1]
        else:
            ends = np.cumsum(self.count)
            prefix = np.searchsorted(ends, positions, side="right")
            table = (self.start - ends + self.count)[prefix] + positions
        split = self.rows.shape[1]
        out = np.empty((len(prefix), split + self.lists.shape[1]),
                       dtype=np.int32)
        out[:, :split] = self.rows[prefix]
        out[:, split:] = self.lists[table]
        return out

    def cut(self, leaves: int) -> "PrefixChunk":
        """The chunk of only its first ``leaves`` leaves (at most all)."""
        ends = np.cumsum(self.count)
        keep = int(np.searchsorted(ends, leaves)) + 1
        count = self.count[:keep].copy()
        count[-1] -= ends[keep - 1] - leaves
        return self._replace(rows=self.rows[:keep], start=self.start[:keep],
                             count=count, leaves=leaves)


def grouped_chunks(n: int, group_sizes: Sequence[int],
                   parts: Sequence[Sequence[int]] | None = None,
                   caps: Sequence[int] | None = None,
                   chunk_rows: int = CHUNK_ROWS) -> Iterator[PrefixChunk]:
    """The canonical rows, in lexicographic order, as PrefixChunks.

    Each chunk stands for at most chunk_rows leaves unless it holds a
    single prefix.

    ``parts`` marks runs of interchangeable vertices (consecutive vertex
    ranges, as produced by complete multipartite construction);
    constraint 2 applies inside each part.  Without it every vertex is
    its own part and only constraints 1 and 3 apply.

    ``caps`` filters the stream to rows whose group-i colors stay within
    the first caps[i] values of that group's window.  Assignments hostile
    to coloring reuse few colors, so small caps concentrate them; the
    filtered stream makes no completeness promise of its own and is exempt
    from GROUPED_BOUND, since the caller is expected to truncate it.

    Arguments are checked, and errors raised, at the first ``next()``.
    """
    sizes = tuple(group_sizes)
    if any(not isinstance(s, int) or s < 1 for s in sizes) or not sizes:
        raise ValueError(f"group sizes must be positive integers, "
                         f"got {sizes}")
    if list(sizes) != sorted(sizes, reverse=True):
        raise ValueError(f"group sizes must be non-increasing, "
                         f"got {sizes}")
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if caps is None:
        bounded = None
        limits.enforce("GROUPED_BOUND", n * sum(sizes), "the total "
                       "colors per row of an assignment enumeration")
    else:
        bounded = tuple(int(c) for c in caps)
        if len(bounded) != len(sizes):
            raise ValueError("caps must give one limit per group")
        if any(c < s for c, s in zip(bounded, sizes)):
            raise ValueError(f"caps {bounded} leave some vertex short "
                             f"of its group size {sizes}")
        bounded = tuple(min(c, n * s) for c, s in zip(bounded, sizes))
    if n == 0:
        # No last vertex: the one empty row is one empty prefix with one
        # empty leaf.
        lists = np.zeros((1, 0), dtype=np.int32)
        lists.flags.writeable = False
        yield PrefixChunk(np.zeros((1, 0), dtype=np.int32),
                          np.zeros(1, dtype=np.int32),
                          np.ones(1, dtype=np.int32), lists,
                          np.zeros(0, dtype=np.intp), 1)
        return
    yield from _walk(n, sizes, parts, bounded, chunk_rows)


def _walk(n: int, sizes: tuple[int, ...],
          parts: Sequence[Sequence[int]] | None,
          caps: tuple[int, ...] | None, chunk_rows: int
          ) -> Iterator[PrefixChunk]:
    """The memoised walk of grouped_chunks, over checked arguments, n >= 1."""
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
    # row.  A state of the last vertex is a prefix state: its vertex rows
    # are the last columns of the leaves below every prefix in it.
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

    # Subtree leaf counts, capped at chunk_rows + 1 ("too big for a block").
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

    # The last-vertex lists of every prefix state the walk has met, in
    # order, table[:used]; each state's start there; the colors they use.
    # Rows are only appended, so a view of table[:used] never changes.
    table = np.empty((0, k), dtype=np.int32)
    used = 0
    starts: dict[tuple, int] = {}
    present = np.zeros(n * k, dtype=bool)

    def last_start(state) -> int:
        nonlocal table, used
        got = starts.get(state)
        if got is None:
            lists = children(state)[0]
            if used + len(lists) > len(table):
                grown = np.empty((2 * (used + len(lists)), k), dtype=np.int32)
                grown[:used] = table[:used]
                table = grown
            got = starts[state] = used
            used += len(lists)
            table[got:used] = lists
            present[lists] = True
        return got

    # Read-only blocks of the subtrees that emitted blocks: the prefix
    # rows over vertices v..n-2, each prefix's start in table and leaf
    # count.
    blocks: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def block(state, keep: bool = True):
        got = blocks.get(state)
        if got is not None:
            return got
        heads, nexts = children(state)
        if state[0] == n - 1:
            got = (np.zeros((1, 0), dtype=narrow),
                   np.array([last_start(state)], dtype=np.intp),
                   np.array([heads.shape[0]], dtype=np.intp))
        elif state[0] == n - 2:
            got = (heads,
                   np.array([last_start(c) for c in nexts], dtype=np.intp),
                   np.array([children(c)[0].shape[0] for c in nexts],
                            dtype=np.intp))
        else:
            subs = [block(child) for child in nexts]
            lens = [sub[1].shape[0] for sub in subs]
            rows = np.empty((sum(lens), (n - 1 - state[0]) * k), dtype=narrow)
            rows[:, :k] = np.repeat(heads, lens, axis=0)
            np.concatenate([sub[0] for sub in subs], out=rows[:, k:])
            got = (rows, np.concatenate([sub[1] for sub in subs]),
                   np.concatenate([sub[2] for sub in subs]))
        if keep:
            for part in got:
                part.flags.writeable = False
            blocks[state] = got
        return got

    root = (0, (0,) * t, eqpair, None)
    width = (n - 1) * k
    cap = min(chunk_rows, count(root))
    buf = first = per = None
    pos = held = 0

    def flush() -> PrefixChunk:
        nonlocal buf, first, per, pos, held
        lists = table[:used]
        lists.flags.writeable = False
        out = PrefixChunk(buf[:pos], first[:pos], per[:pos], lists,
                          np.flatnonzero(present), held)
        buf = first = per = None
        pos = held = 0
        return out

    def walk(state, prefix: list[int]) -> Iterator[PrefixChunk]:
        """Emit the prefixes below prefix: whole if they fit a chunk."""
        nonlocal buf, first, per, pos, held
        if state[0] < n - 1 and count(state) > chunk_rows:
            heads, nexts = children(state)
            for head, child in zip(heads.tolist(), nexts):
                yield from walk(child, prefix + head)
            return
        rows, sub_first, sub_per = block(state, keep=False)
        ends = np.cumsum(sub_per)
        done = base = 0
        split = len(prefix)
        while done < rows.shape[0]:
            # As many whole prefixes as the chunk has leaves left for; a
            # prefix with more leaves than a chunk goes alone.
            take = int(np.searchsorted(ends, base + chunk_rows - held,
                                       side="right")) - done
            if take <= 0:
                if pos:
                    yield flush()
                    continue
                take = 1
            if buf is None:
                # int32 spans: a table of 2^31 lists would not fit in memory.
                buf = np.empty((cap, width), dtype=np.int32)
                first = np.empty(cap, dtype=np.int32)
                per = np.empty(cap, dtype=np.int32)
            buf[pos:pos + take, :split] = prefix
            buf[pos:pos + take, split:] = rows[done:done + take]
            first[pos:pos + take] = sub_first[done:done + take]
            per[pos:pos + take] = sub_per[done:done + take]
            pos += take
            done += take
            held += int(ends[done - 1]) - base
            base = int(ends[done - 1])
            if held >= chunk_rows:
                yield flush()

    try:
        yield from walk(root, [])
        if pos:
            yield flush()
    finally:
        # walk, count and block call themselves, so only the cycle
        # collector would free them and what they hold: let go of it now.
        buf = first = per = table = None
        options.cache_clear()
        for memo in (kids_of, counts, blocks, states, starts):
            memo.clear()


def enumerate_grouped(n: int, group_sizes: Sequence[int],
                      parts: Sequence[Sequence[int]] | None = None,
                      caps: Sequence[int] | None = None
                      ) -> Iterator[tuple[int, ...]]:
    """The leaf rows of grouped_chunks one at a time, as tuples of ints."""
    for chunk in grouped_chunks(n, group_sizes, parts=parts, caps=caps):
        yield from map(tuple, chunk.leaf_rows().tolist())


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

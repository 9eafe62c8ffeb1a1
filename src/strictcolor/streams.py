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
both share a part (2).  That choice is only a floor: a state's rows are
those rows of its base, the state without the choice, whose relative
choices are at least the previous vertex's.  A base's rows come in that
order, so they are a suffix of them, found by bisection, and the walk
holds a state as a base and an offset.  The vertex rows and next states
of every vertex, and the leaf counts and blocks of vertex n-2, are built
once per base and read by each state from its offset on; the counts and
blocks above vertex n-2 are kept per state.  A state of the last vertex
is a prefix state: its vertex rows are the last columns of the leaves
below every prefix in it.  The walk appends the rows of each last-vertex
base once to a table of lists, and emits each prefix row with the span
of its state's lists there, the base's start plus the state's offset,
instead of its leaves.  A prefix's leaves are its row followed by each
list of its span, in order, so a leaf's index in the stream is the
leaves before its prefix plus its position in the span.  The table only
grows, and each chunk holds a read-only view of it, so the spans of one
chunk stay valid after the walk moves on.  A chunk's palette is the
colors of the lists of the states the walk has reached, not of their
whole bases.  A subtree whose leaves fit in a chunk is emitted whole:
its prefix rows are assembled from its children's blocks, kept read-only
in the narrowest integer type, and copied into the chunk with the prefix
columns above them broadcast.  Subtrees too big for a chunk are walked
one vertex row at a time.

The decision skeleton reads these prefix chunks: the prefix filter of
``bulk`` clears, per prefix, every leaf whose last list holds a color that
one of its proper colorings of the prefix leaves free for the last
vertex, and only the rest are masked and confirmed.  ``enumerate_grouped``,
the tuple stream, is each chunk's ``leaf_rows()`` flattened.
"""

from __future__ import annotations

from bisect import bisect_left
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


class _Base:
    """The rows of one vertex given (v, seen, r3eq), with no floor from the
    vertex before it.  A walk state is a base and an offset: its rows are
    the base's rows from the offset on."""

    __slots__ = ("v", "heads", "rels", "seens", "ties", "kids", "start",
                 "marked", "cum", "summed", "per", "first", "placed")

    def __init__(self, v: int, n: int, heads: np.ndarray, rels: tuple,
                 seens: tuple, ties: tuple):
        m = heads.shape[0]
        self.v = v
        self.heads = heads  # the vertex rows, narrow
        self.rels = rels  # each row's per-group window-relative choices
        self.seens = seens  # each row's colors used per group, after it
        self.ties = ties  # each row's equal-size groups still tied, after it
        # Each row's next state, once met.
        self.kids: list | None = [None] * m if v < n - 1 else None
        # Last vertex: the base's start in the lists table once appended,
        # and the first row whose colors are in the palette.
        self.start: int | None = None
        self.marked = m
        # Vertex n-2: minus the leaves below rows i.. as cum[i], from row
        # ``summed`` on, and each row's leaf count and the start of its
        # lists in the table, from row ``placed`` on.
        self.cum = [0] * (m + 1) if v == n - 2 else None
        self.summed = self.placed = m
        self.per = self.first = None


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

    choices: dict[tuple[int, int], tuple] = {}

    def options(g: int, seen: int):
        """All canonical choices for one vertex in group g, sorted."""
        got = choices.get((g, seen))
        if got is None:
            size, off = sizes[g], offs[g]
            room = size if caps is None else min(size, caps[g] - seen)
            out = []
            for fresh in range(max(room, -1) + 1):
                for old in combinations(range(seen), size - fresh):
                    rel = old + tuple(range(seen, seen + fresh))
                    out.append((rel, tuple(c + off for c in rel),
                                seen + fresh))
            out.sort(key=lambda o: o[0])
            got = choices[g, seen] = tuple(out)
        return got

    def vertex_rows(seen: tuple[int, ...], r3eq: tuple[bool, ...]):
        """All admissible rows for one vertex given the colors each group
        has used and the equal-size groups still tied, in lexicographic
        order of their per-group relative choices."""
        rows = [((), (), (), ())]
        for g in range(t):
            opts = options(g, seen[g])
            tied = eqpair[g] and r3eq[g]
            grown = []
            for abs_acc, rel_acc, seen_acc, r3_acc in rows:
                floor = rel_acc[g - 1] if tied else None
                for rel, abs_, nseen in opts:
                    if tied and rel < floor:
                        continue
                    grown.append((abs_acc + abs_, rel_acc + (rel,),
                                  seen_acc + (nseen,),
                                  r3_acc + (tied and rel == floor,)))
            rows = grown
        return rows

    # A vertex state is (v, seen, r3eq, previous vertex's choice if v
    # shares its part, else None): everything the rows of vertices v..
    # depend on.  Its rows are those of the base (v, seen, r3eq) whose
    # relative choices are at least the previous vertex's, and the base's
    # rows come out of vertex_rows in that order, so they are a suffix of
    # the base's: a state is held as (base, offset).  A base is built the
    # first time a state meets it, and a row's next state the first time
    # the walk or a count reaches that row.
    bases: dict[tuple, _Base] = {}

    def base_at(v: int, seen: tuple[int, ...],
                r3eq: tuple[bool, ...]) -> _Base:
        key = (v, seen, r3eq)
        got = bases.get(key)
        if got is None:
            heads, rels, seens, ties = zip(*vertex_rows(seen, r3eq))
            heads = np.array(heads, dtype=narrow).reshape(len(rels), k)
            got = bases[key] = _Base(v, n, heads, rels, seens, ties)
        return got

    def kid(b: _Base, i: int) -> tuple[_Base, int]:
        """The next state of row i of the base, v < n - 1."""
        got = b.kids[i]
        if got is None:
            nb = base_at(b.v + 1, b.seens[i], b.ties[i])
            got = b.kids[i] = (nb, bisect_left(nb.rels, b.rels[i])
                               if samepart[b.v + 1] else 0)
        return got

    def summed(b: _Base, off: int) -> bool:
        """Sum a vertex-(n-2) base's rows from off on, unless they hold more
        than chunk_rows leaves (then False)."""
        leaves = 0
        for i in range(off, b.summed):
            c, o = kid(b, i)
            leaves += c.heads.shape[0] - o
            if leaves > chunk_rows:
                return False
        cum = b.cum
        for i in range(b.summed - 1, off - 1, -1):
            c, o = b.kids[i]
            cum[i] = cum[i + 1] - c.heads.shape[0] + o
        b.summed = off
        return True

    # Subtree leaf counts, capped at chunk_rows + 1 ("too big for a block").
    # From vertex n-2 on they are read from the base; above it they are
    # memoised per state.
    counts: dict[tuple, int] = {}

    def count(state) -> int:
        b, off = state
        if b.v == n - 1:
            return min(b.heads.shape[0] - off, chunk_rows + 1)
        if b.v == n - 2:
            if off < b.summed and not summed(b, off):
                return chunk_rows + 1
            return min(-b.cum[off], chunk_rows + 1)
        got = counts.get(state)
        if got is None:
            got = 0
            for i in range(off, b.heads.shape[0]):
                got += count(kid(b, i))
                if got > chunk_rows:
                    got = chunk_rows + 1
                    break
            counts[state] = got
        return got

    # The rows of every last-vertex base the walk has placed, table[:used],
    # each appended once: a state's lists start at its base's start plus
    # its offset.  present marks the colors of the lists of the states
    # placed so far, not of their whole bases.  Rows are only appended,
    # so a view of table[:used] never changes.
    table = np.empty((0, k), dtype=np.int32)
    used = 0
    present = np.zeros(n * k, dtype=bool)

    def table_start(b: _Base) -> int:
        nonlocal table, used
        if b.start is None:
            m = b.heads.shape[0]
            if used + m > len(table):
                grown = np.empty((2 * (used + m), k), dtype=np.int32)
                grown[:used] = table[:used]
                table = grown
            b.start = used
            used += m
            table[b.start:used] = b.heads
        return b.start

    def mark(b: _Base, off: int) -> int:
        """Mark the colors of last-vertex state (b, off); its lists' start."""
        if off < b.marked:
            present[b.heads[off:b.marked]] = True
            b.marked = off
        return table_start(b) + off

    def place(b: _Base, off: int) -> None:
        """Mark and place the lists of vertex-(n-2) state (b, off), whose
        rows are summed."""
        if b.per is None:
            b.per = np.empty(b.heads.shape[0], dtype=np.intp)
            b.first = np.empty(b.heads.shape[0], dtype=np.intp)
        for i in range(off, b.placed):
            c, o = b.kids[i]
            b.per[i] = c.heads.shape[0] - o
            b.first[i] = mark(c, o)
        b.placed = min(b.placed, off)

    # Blocks of the subtrees that emitted blocks: the prefix rows over
    # vertices v..n-2, each prefix's start in table and leaf count.  A
    # vertex-(n-2) state's block is read from its base's; those above are
    # built per state, from their children's, and kept read-only.
    blocks: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def block(state, keep: bool = True):
        b, off = state
        if b.v == n - 1:
            return (np.zeros((1, 0), dtype=narrow),
                    np.array([mark(b, off)], dtype=np.intp),
                    np.array([b.heads.shape[0] - off], dtype=np.intp))
        if b.v == n - 2:
            place(b, off)
            return b.heads[off:], b.first[off:], b.per[off:]
        got = blocks.get(state)
        if got is not None:
            return got
        subs = [block(kid(b, i)) for i in range(off, b.heads.shape[0])]
        lens = [sub[1].shape[0] for sub in subs]
        rows = np.empty((sum(lens), (n - 1 - b.v) * k), dtype=narrow)
        rows[:, :k] = np.repeat(b.heads[off:], lens, axis=0)
        np.concatenate([sub[0] for sub in subs], out=rows[:, k:])
        got = (rows, np.concatenate([sub[1] for sub in subs]),
               np.concatenate([sub[2] for sub in subs]))
        if keep:
            for part in got:
                part.flags.writeable = False
            blocks[state] = got
        return got

    root = (base_at(0, (0,) * t, eqpair), 0)
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
        b, off = state
        if b.v < n - 1 and count(state) > chunk_rows:
            for i, head in enumerate(b.heads[off:].tolist(), off):
                yield from walk(kid(b, i), prefix + head)
            return
        rows, sub_first, sub_per = block(state, keep=False)
        # The leaves still to emit; the running sums only once a chunk
        # ends inside the block.
        left = count(state) if b.v < n - 1 else int(sub_per[0])
        cum = None
        done, stop = 0, rows.shape[0]
        split = len(prefix)
        while done < stop:
            if left <= chunk_rows - held:
                take, got = stop - done, left  # the rest fits
            else:
                if cum is None:
                    cum = np.zeros(stop + 1, dtype=np.intp)
                    np.cumsum(sub_per, out=cum[1:])
                # As many whole prefixes as the chunk has leaves left for;
                # a prefix with more leaves than a chunk goes alone.
                take = int(cum.searchsorted(cum[done] + chunk_rows - held,
                                            "right")) - 1 - done
                if take <= 0:
                    if pos:
                        yield flush()
                        continue
                    take = 1
                got = int(cum[done + take] - cum[done])
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
            held += got
            left -= got
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
        for memo in (choices, bases, counts, blocks):
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

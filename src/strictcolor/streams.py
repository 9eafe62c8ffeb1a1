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
2. When vertices v-1 and v share a graph part, the combined per-vertex row
   of v is lexicographically no smaller than that of v-1.
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
holds a state as a base and an offset.  Before its first chunk the walk
builds every base the stream reaches, each once, with its vertex rows,
their next states (none for the last vertex) and, above the last vertex,
the leaves below each suffix of its rows: a state's leaf count is its
base's at its offset.  A state of the last vertex is a prefix state: its
vertex rows are the last columns of the leaves below every prefix in it.
The bases of the last two vertices each take their start in a table as
they are built: last-vertex bases in the table of lists, vertex-(n-2)
bases in the table of vertex-(n-2) rows, which holds with each row the
span of its next state's lists, the base's start plus the state's
offset.  Once the root is built the walk joins the rows of every
last-vertex base into the one read-only lists table and takes its
colors, sorted, as the palette; every chunk of the stream carries both.
A prefix's leaves are its row followed by each list of its span, in
order, so a leaf's index in the stream is the leaves before its prefix
plus its position in the span.  A last vertex may reuse every
color seen before it, so the palette holds every color of every row, and
it does not depend on where chunks end.

The walk emits the prefixes in runs: a state of vertex n-2 is one run,
whose prefixes share the columns of vertices 0..n-3 and are a span of
the vertex-(n-2) table.  A chunk holds each run's columns once, with the
position of its first prefix, and gathers per prefix only the vertex-(n-2)
row, its lists' span and its leaf count from the table.  A chunk closes at
chunk_rows prefixes, whatever leaves they stand for, so each base above
vertex n-2 also counts the prefixes below each suffix of its rows; a run
cut by a chunk end goes on at position 0 of the next chunk.  A subtree
whose prefixes fit in a chunk is emitted whole: its runs are assembled
from its children's blocks, kept read-only in the narrowest integer type
(a vertex-(n-3) state's runs are its base's rows and spans from its
offset on), and copied into the chunks with the prefix columns above them
broadcast, as many runs at a time as the chunk has room for.  Subtrees
with more prefixes than a chunk are walked one vertex row at a time, down
to vertex n-3.  The walk builds, assembles and descends over explicit
stacks, so its call depth does not grow with n.

The decision skeleton reads these prefix chunks: the prefix filter of
``bulk`` clears, per prefix, every leaf whose last list holds a color that
one of its proper colorings of the prefix leaves free for the last
vertex, and only the rest are masked and confirmed, ``bulk.CHUNK_ROWS``
leaf rows at a time.  ``enumerate_grouped``, the tuple stream, is each
chunk's ``leaf_rows`` flattened in slices of that size.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, combinations, product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import bulk, limits


def group_offsets(n: int, group_sizes: Sequence[int]) -> tuple[int, ...]:
    """Start of each group's color window for an n-vertex enumeration."""
    offs = []
    base = 0
    for size in group_sizes:
        offs.append(base)
        base += n * size
    return tuple(offs)


class PrefixChunk(NamedTuple):
    """Prefix rows of the canonical stream, in runs, standing for their
    leaf rows.

    A prefix is the columns of vertices 0..n-2.  The prefixes come in
    runs, one per state of vertex n-2 that the walk reached, and a run's
    prefixes share the columns of vertices 0..n-3: ``upper`` holds them
    once per run, and ``heads`` the position of each run's first prefix,
    ascending from 0.  ``lower`` holds, per prefix, the columns of vertex
    n-2 alone, so prefix i is ``upper[r]`` followed by ``lower[i]`` for
    the run r holding it.  Both are in the walk's narrowest integer type.
    Consecutive runs differ on vertices 0..n-3, except that a run cut by
    a chunk end starts again at position 0 in the next chunk.  With
    n < 2 a prefix has no columns and the chunk is one run.

    Prefix i's leaves are its row followed by each of
    ``lists[start[i]:start[i] + count[i]]``, in order, and the chunk's
    ``leaves`` are those of all its prefixes, ``count.sum()`` of them.
    ``lists`` is the stream's read-only int32 table of last-vertex lists
    and ``palette`` the colors it uses, sorted, which are every color of
    the stream; every chunk of a stream holds the same two.  Nothing
    bounds the leaves a chunk stands for, so they are read in slices of
    at most ``bulk.CHUNK_ROWS``: ``leaves_of`` and ``leaf_rows`` of a
    slice of positions.  ``rows`` assembles the full int32 prefix rows,
    for tests and oracles; no decision reads it.
    """

    upper: np.ndarray
    heads: np.ndarray
    lower: np.ndarray
    start: np.ndarray
    count: np.ndarray
    lists: np.ndarray
    palette: np.ndarray
    leaves: int

    @property
    def rows(self) -> np.ndarray:
        """Fresh int32 prefix rows, one per prefix: the columns of
        vertices 0..n-2."""
        lens = np.diff(self.heads, append=self.lower.shape[0])
        return np.concatenate([np.repeat(self.upper, lens, axis=0),
                               self.lower], axis=1, dtype=np.int32)

    def leaves_of(self, prefixes: np.ndarray
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The leaves of the given prefixes, prefix by prefix, each in
        stream order, in slices of at most bulk.CHUNK_ROWS (one empty
        slice when there are none): per slice, each leaf's index in
        prefixes, its position in the chunk and its row in lists."""
        lens = self.count[prefixes]
        ends = np.cumsum(lens)
        # Leaf j of the selection, below prefixes[p], sits at
        # at_chunk[p] + j in the chunk and at_table[p] + j in lists.
        before = ends - lens
        at_chunk = (np.cumsum(self.count) - self.count)[prefixes] - before
        at_table = self.start[prefixes] - before
        total = int(ends[-1]) if ends.size else 0
        for lo in range(0, max(total, 1), bulk.CHUNK_ROWS):
            hi = min(lo + bulk.CHUNK_ROWS, total)
            # Prefixes a..b-1 hold the slice's leaves.
            a = int(np.searchsorted(ends, lo, side="right"))
            b = int(np.searchsorted(before, hi))
            which = np.repeat(np.arange(a, b), np.minimum(ends[a:b], hi)
                              - np.maximum(before[a:b], lo))
            j = np.arange(lo, hi)
            yield which, at_chunk[which] + j, at_table[which] + j

    def leaf_rows(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Fresh int32 leaf rows, of every leaf or of those at positions."""
        if positions is None:
            positions = np.arange(self.leaves)
        ends = np.cumsum(self.count)
        prefix = np.searchsorted(ends, positions, side="right")
        table = (self.start - ends + self.count)[prefix] + positions
        run = np.searchsorted(self.heads, prefix, side="right") - 1
        split = self.upper.shape[1]
        mid = split + self.lower.shape[1]
        out = np.empty((len(prefix), mid + self.lists.shape[1]),
                       dtype=np.int32)
        out[:, :split] = self.upper.take(run, axis=0)
        out[:, split:mid] = self.lower.take(prefix, axis=0)
        out[:, mid:] = self.lists.take(table, axis=0)
        return out


def grouped_chunks(n: int, group_sizes: Sequence[int],
                   parts: Sequence[Sequence[int]] | None = None,
                   caps: Sequence[int] | None = None,
                   chunk_rows: int = bulk.CHUNK_ROWS) -> Iterator[PrefixChunk]:
    """The canonical rows, in lexicographic order, as PrefixChunks.

    Each chunk holds at most chunk_rows prefixes, and every chunk but the
    last exactly that many; the leaves a chunk stands for are unbounded.

    ``parts`` marks sets of interchangeable vertices, covering each
    vertex exactly once; constraint 2 orders vertices v-1 and v when they
    share a part.  Without it every vertex is its own part and only
    constraints 1 and 3 apply.

    An uncapped stream stops at GROUPED_BOUND colors n*sum(group_sizes)
    per row, the one bound on every exhaustive decision, k-lists included.

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
                          np.zeros(1, dtype=np.intp),
                          np.zeros((1, 0), dtype=np.int32),
                          np.zeros(1, dtype=np.int32),
                          np.ones(1, dtype=np.int32), lists,
                          np.zeros(0, dtype=np.intp), 1)
        return
    yield from _walk(n, sizes, parts, bounded, chunk_rows)


class _Base:
    """The rows of one vertex given (v, seen, r3eq), with no floor from the
    vertex before it.  A walk state is a base and an offset: its rows are
    the base's rows from the offset on."""

    __slots__ = ("v", "heads", "rels", "kids", "per", "cum", "pcum",
                 "start", "first")

    def __init__(self, v: int, heads: np.ndarray, rels: tuple):
        self.v = v
        self.heads = heads  # the vertex rows, narrow
        self.rels = rels  # each row's per-group window-relative choices
        # Above the last vertex: each row's next state, and the leaves
        # below rows i.. as cum[i], in Python ints: a long stream's count
        # passes 2^63.  Above vertex n-2: the prefixes below rows i.. as
        # pcum[i].
        self.kids: list | None = None
        self.cum: list | None = None
        self.pcum: list | None = None
        # Vertex n-1 or n-2: the base's start in its vertex's table, the
        # lists or the vertex-(n-2) rows.
        self.start: int | None = None
        # Vertex n-2 or n-3: per row, the span of its next state's rows in
        # the table below it: their start, and their count.
        self.first: np.ndarray | None = None
        self.per: np.ndarray | None = None


def _walk(n: int, sizes: tuple[int, ...],
          parts: Sequence[Sequence[int]] | None,
          caps: tuple[int, ...] | None, chunk_rows: int
          ) -> Iterator[PrefixChunk]:
    """The memoised walk of grouped_chunks, over checked arguments, n >= 1."""
    # samepart[v]: vertices v-1 and v share a part, so constraint 2
    # orders their rows.
    samepart = [False] * n
    if parts is not None:
        if sorted(v for part in parts for v in part) != list(range(n)):
            raise ValueError("parts must cover each vertex exactly once")
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        samepart = [v > 0 and part_of[v - 1] == part_of[v] for v in range(n)]

    t = len(sizes)
    k = sum(sizes)
    offs = group_offsets(n, sizes)
    eqpair = tuple(g > 0 and sizes[g] == sizes[g - 1] for g in range(t))
    narrow = np.min_scalar_type(n * k - 1)

    choices: dict[tuple[int, int], tuple] = {}

    def options(g: int, seen: int):
        """All canonical choices for one vertex in group g, sorted, as
        three columns: relative choices, colors and next colors used."""
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
            got = choices[g, seen] = tuple(zip(*out))
        return got

    def vertex_rows(seen: tuple[int, ...], r3eq: tuple[bool, ...],
                    last: bool):
        """All admissible rows for one vertex given the colors each group
        has used and the equal-size groups still tied, in lexicographic
        order of their per-group relative choices: their colors, as a
        narrow array, their relative choices and, unless the vertex is the
        last, their next colors used and groups tied."""
        opts = [options(g, seen[g]) for g in range(t)]
        if not any(eqpair[g] and r3eq[g] for g in range(t)):
            # No group is tied: the rows are every combination of the
            # groups' choices, and no group stays tied below.
            rels = tuple(product(*[opt[0] for opt in opts]))
            heads = np.fromiter(chain.from_iterable(chain.from_iterable(
                product(*[opt[1] for opt in opts]))), dtype=narrow,
                count=len(rels) * k).reshape(-1, k)
            if last:
                return heads, rels, ()
            return heads, rels, (tuple(product(*[opt[2] for opt in opts])),
                                 ((False,) * t,) * len(rels))
        rows = [((), (), (), ())]
        for g in range(t):
            tied = eqpair[g] and r3eq[g]
            rows = [(abs_acc + abs_, rel_acc + (rel,), seen_acc + (nseen,),
                     r3_acc + (tied and rel == rel_acc[g - 1],))
                    for abs_acc, rel_acc, seen_acc, r3_acc in rows
                    for rel, abs_, nseen in zip(*opts[g])
                    if not tied or rel >= rel_acc[g - 1]]
        heads, rels, seens, ties = zip(*rows)
        return (np.array(heads, dtype=narrow).reshape(-1, k), rels,
                () if last else (seens, ties))

    # A vertex state is (v, seen, r3eq, previous vertex's choice if v
    # shares its part, else None): everything the rows of vertices v..
    # depend on.  Its rows are those of the base (v, seen, r3eq) whose
    # relative choices are at least the previous vertex's, and the base's
    # rows come out of vertex_rows in that order, so they are a suffix of
    # the base's: a state is held as (base, offset).  A base is built the
    # first time a state meets it, and the bases below it right after,
    # depth first.  A last-vertex base keeps only its rows and relative
    # choices.  The bases of the last two vertices take the next rows of
    # their vertex's table, in the order built: last-vertex bases the
    # lists table, vertex-(n-2) bases the table of vertex-(n-2) rows.
    bases: dict[tuple, _Base] = {}
    tables: dict[int, list[_Base]] = {n - 1: [], n - 2: []}

    def base_at(v: int, seen: tuple[int, ...], r3eq: tuple[bool, ...]):
        """The base of (v, seen, r3eq) and, when this call built it above
        the last vertex, each row's relative choices and next (seen,
        r3eq), still to be read."""
        key = (v, seen, r3eq)
        got = bases.get(key)
        if got is not None:
            return got, None
        last = v == n - 1
        heads, rels, nexts = vertex_rows(seen, r3eq, last)
        got = bases[key] = _Base(v, heads, rels)
        tabled = tables.get(v)
        if tabled is not None:
            got.start = (tabled[-1].start + tabled[-1].heads.shape[0]
                         if tabled else 0)
            tabled.append(got)
        if last:
            return got, None
        got.kids = []
        return got, zip(rels, *nexts)

    def count(state) -> int:
        """The leaves below a state."""
        b, off = state
        return b.heads.shape[0] - off if b.v == n - 1 else b.cum[off]

    def prefixes(state) -> int:
        """The prefixes below a state: one for a last-vertex state."""
        b, off = state
        if b.v >= n - 2:
            return 1 if b.v == n - 1 else b.heads.shape[0] - off
        return b.pcum[off]

    # Build every base depth first, over an explicit stack of the bases
    # whose rows are still being read: a base's counts are taken once
    # every base below it is built.
    root, todo = base_at(0, (0,) * t, eqpair)
    stack = [(root, todo)] if todo is not None else []
    while stack:
        b, todo = stack[-1]
        for rel, nseen, tie in todo:
            nb, below = base_at(b.v + 1, nseen, tie)
            b.kids.append((nb, bisect_left(nb.rels, rel)
                           if samepart[b.v + 1] else 0))
            if below is not None:
                stack.append((nb, below))
                break
        else:
            stack.pop()
            b.cum = list(accumulate(map(count, reversed(b.kids)),
                                    initial=0))[::-1]
            if b.v < n - 2:
                b.pcum = list(accumulate(
                    map(prefixes, reversed(b.kids)), initial=0))[::-1]
            if b.v >= n - 3:
                b.first = np.array([c.start + o for c, o in b.kids],
                                   dtype=np.int32)
                b.per = (-np.diff(b.cum if b.v == n - 2 else b.pcum)
                         ).astype(np.int32)

    # Every base is built: the lists table and its colors, read-only and
    # shared by every chunk.
    lists = np.concatenate([b.heads for b in tables[n - 1]], dtype=np.int32)
    lists.flags.writeable = False
    palette = bulk._colors(lists)
    bare = np.zeros((1, 0), dtype=narrow)
    if n == 1:
        # The one prefix is empty, and its leaves are the root's rows.
        yield PrefixChunk(bare, np.zeros(1, dtype=np.intp), bare,
                          np.zeros(1, dtype=np.int32),
                          np.array([len(lists)], dtype=np.int32), lists,
                          palette, len(lists))
        return
    # The table of vertex-(n-2) rows: each row's columns, the start of its
    # lists and its leaf count.  A chunk gathers its prefixes' from it.
    lower_table, start_table, count_table = (
        np.concatenate([getattr(b, name) for b in tables[n - 2]])
        for name in ("heads", "first", "per"))

    # Blocks of the subtrees that emitted blocks, in run form: per run, its
    # columns of vertices v..n-3, and the span of its prefixes in the
    # vertex-(n-2) table: their start, and their count.  A vertex-(n-2)
    # state is one run, and a vertex-(n-3) state's block is its base's from
    # its offset on; those above are built per state, from their
    # children's, and those below the emitted state kept read-only.
    blocks: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def low(state):
        """The block of a state of vertex n-3, or of the root when it is
        vertex n-2."""
        b, off = state
        if b.v == n - 2:
            return (bare, np.array([b.start + off]),
                    np.array([b.heads.shape[0] - off]))
        return b.heads[off:], b.first[off:], b.per[off:]

    def block(state):
        if state[0].v >= n - 3:
            return low(state)
        got = blocks.get(state)
        if got is not None:
            return got
        # The blocks below it first, over an explicit stack of states.
        todo = [state]
        while todo:
            b, off = here = todo[-1]
            if here in blocks:
                todo.pop()
                continue
            wait = [c for c in b.kids[off:]
                    if c[0].v < n - 3 and c not in blocks]
            if wait:
                todo.extend(wait)
                continue
            todo.pop()
            subs = [low(c) if c[0].v == n - 3 else blocks[c]
                    for c in b.kids[off:]]
            runs = [sub[1].shape[0] for sub in subs]
            upper = np.empty((sum(runs), (n - 2 - b.v) * k), dtype=narrow)
            upper[:, :k] = np.repeat(b.heads[off:], runs, axis=0)
            np.concatenate([sub[0] for sub in subs], out=upper[:, k:])
            got = (upper, np.concatenate([sub[1] for sub in subs]),
                   np.concatenate([sub[2] for sub in subs]))
            if todo:
                for part in got:
                    part.flags.writeable = False
                blocks[here] = got
        return got

    cap = min(chunk_rows, prefixes((root, 0)))
    upper = first = size = None
    pos = held = 0

    def flush() -> PrefixChunk:
        """The chunk of the runs held: its prefixes gathered from the
        vertex-(n-2) table."""
        nonlocal upper, first, size, pos, held
        heads = np.cumsum(size[:held]) - size[:held]
        at = np.repeat(first[:held] - heads, size[:held]) + np.arange(pos)
        count = count_table[at]
        out = PrefixChunk(upper[:held], heads, lower_table.take(at, axis=0),
                          start_table[at], count, lists, palette,
                          int(count.sum()))
        upper = first = size = None
        pos = held = 0
        return out

    # Emit the prefixes in order, over an explicit stack of the rows still
    # to descend: a subtree whose prefixes fit in a chunk whole, a larger
    # one a vertex row at a time, down to vertex n-3, whose states are
    # emitted whole, however many prefixes they hold.  A chunk holds the
    # runs it was given, cut to its prefixes, and at most one per prefix.
    stack = [iter([((root, 0), [])])]
    while stack:
        for state, prefix in stack[-1]:
            b, off = state
            if b.v < n - 3 and prefixes(state) > chunk_rows:
                stack.append(zip(b.kids[off:], map(
                    prefix.__add__, b.heads[off:].tolist())))
                break
            sub_upper, sub_first, sub_size = block(state)
            ends = np.cumsum(sub_size)
            done, stop = 0, int(ends[-1])
            split = len(prefix)
            while done < stop:
                if upper is None:
                    upper = np.empty((cap, (n - 2) * k), dtype=narrow)
                    first = np.empty(cap, dtype=np.intp)
                    size = np.empty(cap, dtype=np.intp)
                take = min(stop - done, cap - pos)
                # Runs a..z-1 hold prefixes done..done+take-1: the first
                # is cut to begin at prefix done, the last to end with
                # prefix done+take-1.
                a = int(np.searchsorted(ends, done, side="right"))
                z = int(np.searchsorted(ends, done + take)) + 1
                to = held + z - a
                upper[held:to, :split] = prefix
                upper[held:to, split:] = sub_upper[a:z]
                first[held:to] = sub_first[a:z]
                size[held:to] = sub_size[a:z]
                skip = done - int(ends[a] - sub_size[a])
                first[held] += skip
                size[held] -= skip
                size[to - 1] -= int(ends[z - 1]) - done - take
                held = to
                pos += take
                done += take
                if pos == cap:
                    yield flush()
        else:
            stack.pop()
    if pos:
        yield flush()


def enumerate_grouped(n: int, group_sizes: Sequence[int],
                      parts: Sequence[Sequence[int]] | None = None,
                      caps: Sequence[int] | None = None
                      ) -> Iterator[tuple[int, ...]]:
    """The leaf rows of grouped_chunks one at a time, as tuples of ints."""
    for chunk in grouped_chunks(n, group_sizes, parts=parts, caps=caps):
        for lo in range(0, chunk.leaves, bulk.CHUNK_ROWS):
            yield from map(tuple, chunk.leaf_rows(np.arange(
                lo, min(lo + bulk.CHUNK_ROWS, chunk.leaves))).tolist())


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
    (the pruning behind McKay's canonical forms).  The colors that appear
    are mapped to bits once, so each list is an int mask.  A state is the
    masks left in the current part, as a sorted multiset (its vertices
    trade places freely, so their ids do not matter), the parts not yet
    begun, each as its size and mask multiset, and the named colors as a
    sequence of cells, each a mask of colors holding the next popcount ids
    in an order still free.  A step extends every state by each distinct
    mask that may come next: one left in the current part or, where a part
    begins, one of an unbegun part of that size, where unbegun parts with
    equal multisets are tried once.  It keeps the extensions whose renamed
    row ties for the least.  That row gives the vertex's colors the lowest
    ids of each cell and its fresh colors the ids past every cell; any
    other choice gives a larger row, so splitting each cell into used and
    unused colors, and appending the fresh ones as a new cell, keeps
    exactly the renamings that tie.  Tied states share their cell sizes,
    so a row is fixed by its count of used colors per cell (more, earlier,
    is less), and only the extensions that tie get split cells.  The lists
    share one length and what follows a step depends only on the state,
    so the least row at every step is the least row overall.
    """
    n = len(lists)
    if len({len(l) for l in lists}) > 1:
        raise ValueError("all lists must have the same length")
    bit = {c: 1 << i for i, c in enumerate({c for l in lists for c in l})}
    masks = []
    for l in lists:
        mask = 0
        for c in l:
            mask |= bit[c]
        if mask.bit_count() != len(l):
            raise ValueError("a list repeats a color")
        masks.append(mask)
    if parts is None:
        blocks = [(v,) for v in range(n)]
        kind = list(range(n))  # no two vertices trade places
    elif sorted(v for part in parts for v in part) != list(range(n)):
        raise ValueError("parts must cover each vertex exactly once")
    else:
        blocks = [tuple(p) for p in parts if p]
        kind = [len(b) for b in blocks]  # equal-size parts trade places
    k = len(lists[0]) if lists else 0

    unbegun = tuple(sorted((kind[b], tuple(sorted(masks[v] for v in block)))
                           for b, block in enumerate(blocks)))
    states = {((), unbegun, ()): None}
    out: list[int] = []
    for _ in range(n):
        best = None
        ties = []
        for left, unbegun, cells in states:
            if left:
                pools = [(left, unbegun)]
            else:
                want = kind[len(blocks) - len(unbegun)]
                pools = [(pool, unbegun[:i] + unbegun[i + 1:])
                         for i, (size, pool) in enumerate(unbegun)
                         if size == want
                         and (not i or unbegun[i - 1] != unbegun[i])]
            for pool, rest in pools:
                for i, mask in enumerate(pool):
                    if i and pool[i - 1] == mask:
                        continue
                    counts = tuple([(cell & mask).bit_count()
                                    for cell in cells])
                    if best is None or counts > best:
                        best = counts
                        ties = []
                    elif counts < best:
                        continue
                    ties.append((mask, pool[:i] + pool[i + 1:], rest, cells))
        base = 0
        for count, cell in zip(best, ties[0][3]):
            out.extend(range(base, base + count))
            base += cell.bit_count()
        out.extend(range(base, base + k - sum(best)))
        states = {}
        for mask, left, rest, cells in ties:
            split = []
            fresh = mask
            for cell in cells:
                hit = cell & mask
                if hit:
                    split.append(hit)
                    fresh ^= hit
                if hit != cell:
                    split.append(cell ^ hit)
            if fresh:
                split.append(fresh)
            states[left, rest, tuple(split)] = None
    return tuple(out)

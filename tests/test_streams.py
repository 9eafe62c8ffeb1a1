"""Canonical stream tests.

The load-bearing check is orbit coverage: enumerate every assignment over
the full color windows by brute force, reduce both that set and the stream
to a canonical orbit invariant, and require the two invariant sets to be
equal.  The invariant is the per-group multiset of color incidence masks,
minimized over the symmetries the stream is allowed to quotient by.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from itertools import combinations, islice, permutations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import grouped_rows_oracle, leaf_slices, run_heads
from strictcolor import bulk, limits
from strictcolor.bulk import mask_chunks
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import complete_multipartite
from strictcolor.streams import (
    canonical_class,
    enumerate_grouped,
    enumerate_k_lists,
    group_offsets,
    grouped_chunks,
    row_lists,
)


# ---------------------------------------------------------------- helpers

def split_row(row, n, sizes):
    """Per-vertex, per-group color sets from a flat row."""
    k = sum(sizes)
    out = []
    for v in range(n):
        chunk = row[v * k:(v + 1) * k]
        vertex = []
        at = 0
        for s in sizes:
            vertex.append(frozenset(chunk[at:at + s]))
            at += s
        out.append(vertex)
    return out


def naive_assignments(n, sizes):
    """Every assignment over the full windows, without any canonicity."""
    offs = group_offsets(n, sizes)
    per_vertex = []
    for g, s in enumerate(sizes):
        window = range(offs[g], offs[g] + n * s)
        per_vertex.append([frozenset(c) for c in combinations(window, s)])
    for combo in product(product(*per_vertex), repeat=n):
        yield [list(vertex) for vertex in combo]


def part_perms(parts, n):
    """All vertex permutations fixing each part setwise (as lookup tuples)."""
    if parts is None:
        yield tuple(range(n))
        return
    blocks = [list(p) for p in parts]
    for pieces in product(*[permutations(b) for b in blocks]):
        perm = [0] * n
        for block, image in zip(blocks, pieces):
            for src, dst in zip(block, image):
                perm[src] = dst
        yield tuple(perm)


def group_perms(sizes):
    """All group permutations preserving the size profile."""
    for perm in permutations(range(len(sizes))):
        if all(sizes[perm[i]] == sizes[i] for i in range(len(sizes))):
            yield perm


def orbit_invariant(assignment, n, sizes, parts):
    """Canonical form of an assignment under renaming, part, group symmetry."""
    best = None
    for gp in group_perms(sizes):
        for vp in part_perms(parts, n):
            inv = []
            for gi in range(len(sizes)):
                masks: dict[int, int] = {}
                for v in range(n):
                    for c in assignment[v][gp[gi]]:
                        masks[c] = masks.get(c, 0) | 1 << vp[v]
                inv.append(tuple(sorted(masks.values())))
            inv = tuple(inv)
            if best is None or inv < best:
                best = inv
    return best


def stream_invariants(n, sizes, parts):
    return {orbit_invariant(split_row(row, n, sizes), n, sizes, parts)
            for row in enumerate_grouped(n, sizes, parts=parts)}


def naive_invariants(n, sizes, parts):
    return {orbit_invariant(a, n, sizes, parts)
            for a in naive_assignments(n, sizes)}


# ---------------------------------------------------------------- coverage

COVERAGE_CASES = [
    (3, (1,), None),
    (4, (1,), None),
    (2, (2,), None),
    (3, (2,), None),
    (2, (1, 1), None),
    (3, (1, 1), None),
    (2, (2, 1), None),
    (2, (2, 2), None),
    (3, (2, 1), None),
    (3, (1,), ((0, 1, 2),)),
    (3, (2,), ((0, 1, 2),)),
    (4, (1,), ((0, 1), (2, 3))),
    (3, (1, 1), ((0, 1), (2,))),
    (2, (1, 1, 1), None),
    # parts that are not vertex ranges
    (3, (1,), ((1,), (0, 2))),
    (3, (2,), ((0, 2), (1,))),
    (3, (1, 1), ((0, 2), (1,))),
    (4, (1,), ((0, 2), (1, 3))),
    (4, (1,), ((0, 2, 3), (1,))),
    (4, (1, 1), ((0, 2), (1,), (3,))),
]


@pytest.mark.parametrize("n,sizes,parts", COVERAGE_CASES)
def test_stream_covers_every_orbit_exactly(n, sizes, parts):
    assert stream_invariants(n, sizes, parts) == naive_invariants(n, sizes, parts)


# ---------------------------------------------------------------- constraints

def first_use_ok(rows, n, sizes):
    offs = group_offsets(n, sizes)
    for row in rows:
        split = split_row(row, n, sizes)
        for g, s in enumerate(sizes):
            seen: set[int] = set()
            for v in range(n):
                fresh = sorted(split[v][g] - seen)
                expect = [offs[g] + len(seen) + i for i in range(len(fresh))]
                if fresh != expect:
                    return False
                seen |= split[v][g]
    return True


def test_first_use_constraint_holds():
    for n, sizes, parts in COVERAGE_CASES:
        assert first_use_ok(list(enumerate_grouped(n, sizes, parts=parts)), n, sizes)


def test_rows_non_decreasing_within_parts():
    parts = ((0, 1, 2), (3, 4))
    k = 2
    for row in enumerate_k_lists(5, k, parts=parts):
        for part in parts:
            for a, b in zip(part, part[1:]):
                assert row[a * k:(a + 1) * k] <= row[b * k:(b + 1) * k]


def test_equal_group_sequences_ordered():
    n, sizes = 3, (1, 1)
    offs = group_offsets(n, sizes)
    for row in enumerate_grouped(n, sizes):
        split = split_row(row, n, sizes)
        seqs = []
        for g in range(2):
            seqs.append(tuple(tuple(sorted(c - offs[g] for c in split[v][g]))
                              for v in range(n)))
        assert seqs[0] <= seqs[1]


# ---------------------------------------------------------------- shape

def test_known_tiny_streams():
    assert list(enumerate_k_lists(2, 1)) == [(0, 0), (0, 1)]
    assert list(enumerate_grouped(2, (1, 1))) == [(0, 2, 0, 2), (0, 2, 0, 3),
                                                  (0, 2, 1, 3)]


def test_single_color_stream_counts_are_bell_numbers():
    # First-use order on one color per vertex is exactly a restricted
    # growth string, so the stream counts set partitions.
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n in range(7):
        assert sum(1 for _ in enumerate_k_lists(n, 1)) == bell[n]


def test_one_part_single_color_counts_compositions():
    # Non-decreasing restricted growth strings are compositions of n.
    for n in range(1, 7):
        count = sum(1 for _ in enumerate_k_lists(n, 1, parts=((*range(n),),)))
        assert count == 2 ** (n - 1)


def test_stream_is_lexicographically_sorted_and_deterministic():
    for n, sizes, parts in [(3, (2,), None), (3, (1, 1), ((0, 1), (2,))),
                            (4, (1,), ((0, 1, 2, 3),))]:
        rows = list(enumerate_grouped(n, sizes, parts=parts))
        assert rows == sorted(rows)
        assert rows == list(enumerate_grouped(n, sizes, parts=parts))
        assert len(set(rows)) == len(rows)


def test_empty_and_errors():
    assert list(enumerate_grouped(0, (1,))) == [()]
    with pytest.raises(ValueError):
        list(enumerate_grouped(2, ()))
    with pytest.raises(ValueError):
        list(enumerate_grouped(2, (1, 2)))  # must be non-increasing
    with pytest.raises(ValueError):
        list(enumerate_grouped(2, (0,)))
    with pytest.raises(ValueError):
        list(enumerate_grouped(3, (1,), parts=((0, 2), (1, 2))))
    with pytest.raises(BoundExceeded):
        list(enumerate_grouped(16, (2,)))


def test_row_lists_roundtrip():
    for row in enumerate_k_lists(3, 2):
        lists = row_lists(row, 3)
        assert len(lists) == 3
        assert all(len(l) == 2 for l in lists)
    assert row_lists((), 0) == []
    with pytest.raises(ValueError):
        row_lists((1, 2, 3), 2)


# ---------------------------------------------------------------- chunks

ORACLE_ROWS = 3000


def chunk_rows_of(chunks):
    """Every leaf row of a prefix chunk stream, as tuples."""
    return [tuple(r) for c in chunks for r in c.leaf_rows().tolist()]


def first_error(stream):
    """(type, message) of the error the stream's first next() raises."""
    with pytest.raises(ValueError) as info:
        next(stream)
    return type(info.value), str(info.value)


def at_head_bound(test):
    """Run test with GROUPED_BOUND at 30 colors per row.

    The tests so marked read only a few chunks of each stream, which stay
    cheap past GROUPED_BOUND, so they keep checking streams of up to 30
    colors per row.
    """
    @functools.wraps(test)
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "GROUPED_BOUND", 30)
            return test(*args, **kwargs)
    return run


@st.composite
def stream_cases(draw):
    """(n, sizes, parts, caps, chunk_rows) over small streams."""
    n = draw(st.integers(0, 7))
    sizes = tuple(sorted(draw(st.lists(st.integers(1, 3), min_size=1,
                                       max_size=3)), reverse=True))
    parts = None
    if n and draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
                      if n > 1 else set())
        ends = [0] + cuts + [n]
        parts = tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
    caps = None
    if draw(st.booleans()):
        caps = tuple(draw(st.integers(s, s + 3)) for s in sizes)
    chunk_rows = draw(st.sampled_from((1, 3, 64, 65536)))
    return n, sizes, parts, caps, chunk_rows


class TestGroupedChunks:
    @settings(max_examples=80, deadline=None)
    @given(stream_cases())
    @example((3, (1, 1), ((0, 1), (2,)), None, 1))
    @example((4, (1, 1), None, (1, 2), 3))  # unequal caps on equal groups
    @example((6, (2, 1), ((0, 1), (2, 3), (4, 5)), None, 64))
    # A part of three or more, tied equal groups and caps: the walk reads
    # states at non-zero offsets into their bases' rows.
    @example((7, (1, 1), ((0, 1), (2, 3, 4, 5, 6)), (3, 3), 1))
    @example((7, (2, 1, 1), ((0,), (1, 2, 3, 4, 5, 6)), (3, 2, 2), 3))
    @example((7, (1, 1, 1), ((0, 1, 2), (3, 4, 5, 6)), (2, 2, 2), 64))
    @at_head_bound
    def test_matches_reference_rows(self, case):
        n, sizes, parts, caps, chunk_rows = case
        try:
            want = list(islice(grouped_rows_oracle(n, sizes, parts=parts,
                                                   caps=caps),
                               ORACLE_ROWS + 1))
        except BoundExceeded as exc:
            assert first_error(grouped_chunks(
                n, sizes, parts=parts, caps=caps,
                chunk_rows=chunk_rows)) == (BoundExceeded, str(exc))
            return
        got, held = [], None
        for chunk in grouped_chunks(n, sizes, parts=parts, caps=caps,
                                    chunk_rows=chunk_rows):
            # At most chunk_rows prefixes, each with a leaf at least; the
            # leaves are read only as far as the oracle goes.
            assert 0 < chunk.rows.shape[0] <= chunk_rows
            assert (chunk.count > 0).all()
            assert chunk.count.sum() == chunk.leaves
            rows = chunk.leaf_rows(np.arange(
                min(chunk.leaves, ORACLE_ROWS + 1 - len(got))))
            assert rows.dtype == np.int32
            assert rows.shape[1] == n * sum(sizes)
            # The mask refuses a palette that misses a last-list color, and
            # the palette is the colors of the whole lists table.
            assert np.isin(rows[:, chunk.rows.shape[1]:], chunk.palette).all()
            assert np.array_equal(chunk.palette, np.unique(chunk.lists))
            # Every chunk but the last holds exactly chunk_rows prefixes.
            if held is not None:
                assert held == chunk_rows
            held = chunk.rows.shape[0]
            got.extend(map(tuple, rows.tolist()))
            if len(got) > ORACLE_ROWS:
                break
        assert got == want

    def test_empty_graph_is_one_empty_row(self):
        [chunk] = list(grouped_chunks(0, (2,)))
        rows = chunk.leaf_rows()
        assert chunk.leaves == 1
        assert rows.shape == (1, 0) and rows.dtype == np.int32

    @pytest.mark.parametrize("sizes,n,lam,count", [
        ((2, 2, 2), 6, (2, 1), 5_618_352),  # K(2,2,2), lambda = {1,2}
        ((2, 6), 8, (2,), 239_467),         # K(2,6), 2-lists
    ])
    def test_pinned_counts(self, sizes, n, lam, count):
        g = complete_multipartite(sizes)
        k = sum(lam)
        leaves = 0
        for chunk in grouped_chunks(n, lam, parts=g.parts):
            assert chunk.rows.shape[0] <= bulk.CHUNK_ROWS
            assert chunk.rows.shape[1] == (n - 1) * k
            assert chunk.lists.shape[1] == k
            assert chunk.count.sum() == chunk.leaves
            leaves += chunk.leaves
        assert leaves == count

    def test_tuple_stream_is_the_flattened_chunks(self):
        g = complete_multipartite((1, 2, 2))
        rows = list(enumerate_grouped(5, (2, 1), parts=g.parts))
        assert rows == chunk_rows_of(grouped_chunks(5, (2, 1), parts=g.parts,
                                                    chunk_rows=7))
        # Slices of 999 leaf rows cut inside chunks and inside prefixes.
        with mock.patch.object(bulk, "CHUNK_ROWS", 999):
            assert list(enumerate_grouped(5, (2, 1), parts=g.parts)) == rows
        assert all(type(x) is int for x in rows[-1])


class TestSpans:
    """Each prefix's leaves are its row and a span of the lists table."""

    @settings(max_examples=80, deadline=None)
    @given(stream_cases(), st.integers(1, ORACLE_ROWS), st.integers(0, 2**32))
    @example((0, (2,), None, None, 1), 1, 0)
    @example((4, (1, 1), None, (2, 2), 3), 5, 1)  # cut inside a prefix
    @example((6, (2, 1), ((0, 1), (2, 3), (4, 5)), None, 64), 1000, 2)
    def test_spans_index_the_leaves(self, case, budget, seed):
        n, sizes, parts, caps, chunk_rows = case
        rng = np.random.default_rng(seed)
        stream = grouped_chunks(n, sizes, parts=parts, caps=caps,
                                chunk_rows=chunk_rows)
        try:
            want = list(islice(grouped_rows_oracle(n, sizes, parts=parts,
                                                   caps=caps), budget))
        except BoundExceeded:
            return
        held, got = [], []
        for chunk in stream:
            assert chunk.count.sum() == chunk.leaves
            assert (chunk.start >= 0).all()
            assert (chunk.start + chunk.count <= len(chunk.lists)).all()
            assert not chunk.lists.flags.writeable
            assert np.array_equal(chunk.palette, np.unique(chunk.lists))
            # A chunk may stand for millions of leaves: read the stream's
            # first budget, and slice the prefixes they hold whole.
            head = min(chunk.leaves, budget - len(got))
            rows = chunk.leaf_rows(np.arange(head))
            got.extend(map(tuple, rows.tolist()))
            at = rng.integers(0, head, size=rng.integers(0, 9))
            assert np.array_equal(chunk.leaf_rows(at), rows[at])
            whole = np.searchsorted(np.cumsum(chunk.count), head, "right")
            sel = np.flatnonzero(rng.random(whole) < 0.5)
            with mock.patch.object(bulk, "CHUNK_ROWS", 5):
                slices = list(chunk.leaves_of(sel))
            assert slices and all(w.size <= 5 for _, w, _ in slices)
            which, where, table = map(np.concatenate, zip(*slices))
            assert np.array_equal(which, np.repeat(np.arange(sel.size),
                                                   chunk.count[sel]))
            split = chunk.rows.shape[1]
            assert np.array_equal(rows[where, :split], np.repeat(
                chunk.rows[sel], chunk.count[sel], axis=0))
            assert np.array_equal(rows[where, split:], chunk.lists[table])
            held.append((chunk, chunk.lists.copy()))
            if len(got) == budget:
                break
        assert got == want
        for chunk, lists in held:  # the walk went on past every chunk
            assert np.array_equal(chunk.lists, lists)


class TestRuns:
    """A chunk holds its prefixes in the runs the walk emits: they are the
    stretches that agree on vertices 0..n-3, as comparing the columns of
    the chunk's assembled rows finds them, and a run cut by a chunk end
    starts again at position 0 of the next chunk.  leaf_rows builds full
    rows only at the positions asked for."""

    @settings(max_examples=80, deadline=None)
    @given(stream_cases(), st.integers(0, 2**32))
    @example((0, (2,), None, None, 1), 0)
    @example((4, (1, 1), None, (2, 2), 3), 1)  # cut inside a prefix
    @example((6, (2, 1), ((0, 1), (2, 3), (4, 5)), None, 64), 2)
    @at_head_bound
    def test_runs_are_the_column_runs(self, case, seed):
        n, sizes, parts, caps, chunk_rows = case
        rng = np.random.default_rng(seed)
        stream = grouped_chunks(n, sizes, parts=parts, caps=caps,
                                chunk_rows=chunk_rows)
        try:
            chunks = list(islice(stream, 4))
        except BoundExceeded:
            return
        split = max(n - 2, 0) * sum(sizes)
        tail = None  # the previous chunk's last prefix on vertices 0..n-3
        for chunk in chunks:
            rows = chunk.rows
            assert rows.dtype == np.int32
            assert chunk.upper.shape == (chunk.heads.size, split)
            assert chunk.lower.shape == (chunk.count.size,
                                         rows.shape[1] - split)
            assert np.array_equal(chunk.heads, run_heads(rows, split))
            if tail is not None and np.array_equal(rows[0, :split], tail):
                # A run cut by the chunk end before goes on here.
                assert np.array_equal(chunk.upper[0], tail)
            tail = rows[-1, :split]
            # leaf_rows against the assembly of whole prefix rows.
            at = rng.integers(0, chunk.leaves, size=rng.integers(0, 9))
            ends = np.cumsum(chunk.count)
            prefix = np.searchsorted(ends, at, side="right")
            table = (chunk.start - ends + chunk.count)[prefix] + at
            want = np.concatenate([rows[prefix], chunk.lists[table]], axis=1)
            got = chunk.leaf_rows(at)
            assert got.dtype == np.int32
            assert np.array_equal(got, want)

    def test_cut_runs_go_on_in_the_next_chunk(self):
        # K(2,2,2)'s {1,2} stream in chunks of 64 prefixes: its runs are
        # about 53 prefixes long, so chunk ends cut many of them, and the
        # runs of the whole stream are those of its chunks, each cut run
        # joined again.
        g = complete_multipartite((2, 2, 2))
        chunks = list(islice(grouped_chunks(6, (2, 1), parts=g.parts,
                                            chunk_rows=64), 200))
        rows = np.concatenate([chunk.rows for chunk in chunks])
        heads, cuts, at = [], 0, 0
        for before, chunk in zip([None] + chunks, chunks):
            cut = before is not None and np.array_equal(
                before.upper[-1], chunk.upper[0])
            cuts += cut
            heads.extend((chunk.heads + at)[1 if cut else 0:].tolist())
            at += chunk.count.size
        assert cuts > 20
        assert heads == run_heads(rows, 12).tolist()


PINS = Path(__file__).with_name("stream_pins.json")
OTHER_ROWS = 4099  # a chunk_rows no pin uses, prime so cuts fall anywhere


def pin_stream(pin, chunk_rows):
    g = complete_multipartite(tuple(pin["sizes"]))
    return grouped_chunks(g.n, tuple(pin["groups"]), parts=g.parts,
                          caps=pin["caps"] and tuple(pin["caps"]),
                          chunk_rows=chunk_rows)


def chunk_records(pin, chunk_rows):
    """Per pinned chunk of a host's stream: leaves, prefixes, palette and
    row digest."""
    records = []
    for c in islice(pin_stream(pin, chunk_rows), pin["chunks"]):
        sha = hashlib.sha256()
        for rows in leaf_slices(c):
            sha.update(rows.astype("<i4").tobytes())
        records.append([c.leaves, len(c.count), c.palette.tolist(),
                        sha.hexdigest()[:16]])
    return records


def stream_digest(pin, chunk_rows):
    """What a pin's first ``digest["prefixes"]`` prefixes stand for, read
    in chunks of chunk_rows: their prefixes and leaves, the colors of
    their leaves' last lists, and a sha256 of their leaf rows in stream
    order.  None of it depends on where the chunks end."""
    want = pin["digest"]["prefixes"]
    sha = hashlib.sha256()
    prefixes = leaves = 0
    colors = None
    stream = pin_stream(pin, chunk_rows)
    for chunk in stream:
        split = chunk.rows.shape[1]
        if colors is None:  # a stream's colors are below its row width
            colors = np.zeros(split + chunk.lists.shape[1], dtype=bool)
        take = min(len(chunk.count), want - prefixes)
        covered = int(chunk.count[:take].sum())
        for rows in leaf_slices(chunk, covered):
            sha.update(rows.astype("<i4").tobytes())
            colors[rows[:, split:]] = True
        prefixes += take
        leaves += covered
        if prefixes == want:
            if take == len(chunk.count) and pin["chunks"] is None:
                # A whole stream: nothing follows the pinned prefixes.
                assert next(stream, None) is None
            break
    return {"prefixes": prefixes, "leaves": leaves,
            "palette": np.flatnonzero(colors).tolist(),
            "sha256": sha.hexdigest()}


class TestPinnedStreams:
    """The chunks of eight streams, closed at chunk_rows prefixes: five
    streams from before the walk's base memo, and three that cut blocks
    at every level, read tied equal groups at non-zero offsets, and read
    the head of the K(2,2,3) {1,2} stream.  The palette picks the mask's
    owner-map space, so it is pinned along with the rows.  Each pin's
    digest covers the prefixes its chunks held when chunks closed at
    chunk_rows leaves, and holds at any chunking."""

    @pytest.mark.parametrize("pin", json.loads(PINS.read_text()),
                             ids=lambda pin: pin["name"])
    def test_chunks_are_pinned(self, pin):
        got = chunk_records(pin, pin["chunk_rows"])
        assert len(got) == len(pin["records"])
        for i, (have, want) in enumerate(zip(got, pin["records"])):
            assert have == want, f"chunk {i}"

    @pytest.mark.parametrize("other", [False, True],
                             ids=["pinned-rows", "other-rows"])
    @pytest.mark.parametrize("pin", json.loads(PINS.read_text()),
                             ids=lambda pin: pin["name"])
    def test_digest_does_not_depend_on_chunking(self, pin, other):
        # The leaves a stream stands for, read at the pinned chunk_rows and
        # at another: a change to where chunks end moves the records
        # above, never this.
        chunk_rows = OTHER_ROWS if other else pin["chunk_rows"]
        assert stream_digest(pin, chunk_rows) == pin["digest"]


class TestChunkOwnership:
    """Leaf rows are fresh arrays; memoised subtree blocks never leak out."""

    N, SIZES = 4, (2, 1)
    PARTS = ((0, 1), (2,), (3,))  # K(2,1,1), 4,815 rows

    def stream(self, chunk_rows=50):
        return grouped_chunks(self.N, self.SIZES, parts=self.PARTS,
                              chunk_rows=chunk_rows)

    @pytest.fixture(scope="class")
    def want(self):
        return list(grouped_rows_oracle(self.N, self.SIZES, parts=self.PARTS))

    def test_held_chunks_keep_their_rows(self, want):
        chunks = list(self.stream())
        assert len(chunks) > 2
        assert chunk_rows_of(chunks) == want
        rows = [c.leaf_rows() for c in chunks]
        for i, a in enumerate(rows):
            for b in rows[i + 1:] + [chunks[i].leaf_rows()]:
                assert not np.shares_memory(a, b)

    def test_zeroing_a_chunk_changes_nothing_else(self, want):
        seen = []
        for chunk in self.stream():
            rows = chunk.leaf_rows()
            assert rows.flags.writeable
            seen.extend(map(tuple, rows.tolist()))
            rows[...] = 0
            assert chunk_rows_of([chunk]) == seen[-chunk.leaves:]
        assert seen == want
        # A second stream of the same shape is built from fresh memos.
        assert chunk_rows_of(self.stream()) == want

    def test_pool_sees_the_stream(self, want):
        g = complete_multipartite((2, 1, 1))

        def run(workers):
            return [(off, c.tolist(), m.tolist())
                    for off, c, m in mask_chunks(
                        (chunk.leaf_rows()
                         for chunk in self.stream(chunk_rows=64)),
                        g.n, g.edges, workers=workers)]

        pooled = run(2)
        assert [tuple(r) for _, c, _ in pooled for r in c] == want
        assert pooled == run(1)


class TestChunkErrors:
    """grouped_chunks raises what the reference stream raises, lazily."""

    @pytest.mark.parametrize("args,kwargs", [
        ((16, (2,)), {}),
        ((2, ()), {}),
        ((2, (1, 2)), {}),
        ((2, (0,)), {}),
        ((3, (1,)), {"parts": ((0, 2), (1, 2))}),
        ((3, (2, 1)), {"caps": (1, 1)}),
        ((3, (2, 1)), {"caps": (2,)}),
        ((-1, (1,)), {}),
    ])
    def test_same_errors_at_first_next(self, args, kwargs):
        want = first_error(grouped_rows_oracle(*args, **kwargs))
        chunks = grouped_chunks(*args, **kwargs)  # nothing raised yet
        rows = enumerate_grouped(*args, **kwargs)
        assert first_error(chunks) == want
        assert first_error(rows) == want

    def test_chunk_rows_must_be_positive(self):
        with pytest.raises(ValueError):
            next(grouped_chunks(2, (1,), chunk_rows=0))


# ---------------------------------------------------------------- canonical_class

def brute_class(lists, parts):
    """Reference canonical form: minimize the flat row over every allowed
    vertex order and every bijection of the used colors onto 0..m-1."""
    lists = [tuple(sorted(l)) for l in lists]
    n = len(lists)
    used = sorted({c for l in lists for c in l})
    if parts is None:
        orders = [tuple(range(n))]
    else:
        blocks = [tuple(p) for p in parts]
        orders = []
        for bo in permutations(range(len(blocks))):
            if [len(blocks[i]) for i in bo] != [len(b) for b in blocks]:
                continue
            for pieces in product(*[permutations(blocks[i]) for i in bo]):
                orders.append(tuple(v for piece in pieces for v in piece))
    best = None
    for order in orders:
        for target in permutations(range(len(used))):
            ren = dict(zip(used, target))
            flat = tuple(c for v in order
                         for c in sorted(ren[x] for x in lists[v]))
            if best is None or flat < best:
                best = flat
    return best


@st.composite
def class_inputs(draw, max_n=5, max_palette=5):
    """(lists, parts) for canonical_class: n vertices with lists of 1-3
    distinct colors from a palette that need not start at 0, and parts
    None, singletons, or a shuffled split into non-consecutive parts."""
    n = draw(st.integers(1, max_n))
    palette = draw(st.integers(1, max_palette))
    k = draw(st.integers(1, min(3, palette)))
    low = draw(st.integers(0, 9))
    colors = range(low, low + palette)
    lists = [tuple(draw(st.permutations(colors))[:k]) for _ in range(n)]
    shape = draw(st.sampled_from(["none", "singletons", "shuffled"]))
    order = draw(st.permutations(range(n)))
    if shape == "none":
        parts = None
    elif shape == "singletons":
        parts = tuple((v,) for v in order)
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        parts = tuple(tuple(order[a:b])
                      for a, b in zip([0] + cuts, cuts + [n]))
    return lists, parts


def allowed_move(parts, n, rng, swap_equal=False):
    """A vertex permutation (as a lookup tuple) that maps each part onto a
    part of the same size, shuffling inside parts.  With swap_equal the
    parts of each size are cycled, so equal-size parts always trade."""
    if parts is None:
        return tuple(range(n))
    perm = [0] * n
    for size in {len(p) for p in parts}:
        same = [p for p in parts if len(p) == size]
        if swap_equal:
            images = same[1:] + same[:1]
        else:
            images = rng.sample(same, len(same))
        for src, dst in zip(same, images):
            for v, w in zip(src, rng.sample(dst, len(dst))):
                perm[v] = w
    return tuple(perm)


class TestCanonicalClass:
    @settings(max_examples=150, deadline=None)
    @given(class_inputs())
    @example(([(4, 2), (5, 2), (5, 4)], None))
    @example(([(1, 5), (5, 4), (1, 3), (0, 1)], ((0, 1), (2, 3))))
    @example(([(4, 5), (2, 5), (3, 2)], ((0, 1), (2,))))
    # parts that are not consecutive ranges
    @example(([(0, 3), (4, 1), (0, 3), (0, 2)], ((0, 2), (1, 3))))
    @example(([(2, 0), (0, 1), (3, 0), (3, 0), (1, 0)], ((3, 0), (4, 1, 2))))
    # three parts of equal size
    @example(([(3, 2), (0, 2), (1, 0), (1, 2), (2, 4), (4, 0)],
              ((0, 1), (2, 3), (4, 5))))
    @example(([(3, 1), (0, 2), (2, 0), (2, 3), (1, 4), (2, 3)],
              ((4, 1), (0, 5), (3, 2))))
    # 3-lists
    @example(([(0, 4, 3), (4, 5, 1), (0, 3, 1)], None))
    @example(([(3, 2, 4), (0, 4, 1), (2, 4, 1), (0, 3, 1)], ((0, 1), (2, 3))))
    @example(([(0, 3, 1), (1, 2, 4), (2, 1, 3), (3, 0, 1)], ((1,), (0, 2, 3))))
    # singleton parts may be reordered, parts=None may not
    @example(([(1, 0), (2, 5), (1, 4)], ((0,), (1,), (2,))))
    @example(([(0, 1), (2, 3), (0, 2)], ((0,), (1,), (2,))))
    @example(([(0, 1), (2, 3), (0, 2)], None))
    # a part holding several vertices with equal lists
    @example(([(3, 4), (4, 5), (3, 4), (3, 4), (5, 6)], ((0, 2, 3, 1), (4,))))
    @example(([(7, 8), (7, 8), (8, 9), (8, 9)], ((0, 1, 2, 3),)))
    # two parts of equal size with equal list multisets
    @example(([(0, 1), (1, 2), (1, 2), (0, 1), (0, 2)],
              ((0, 1), (2, 3), (4,))))
    @example(([(2, 3), (2, 3), (2, 3), (2, 3)], ((0, 1), (2, 3))))
    # equal multisets only up to renaming
    @example(([(0, 1), (0, 2), (3, 4), (3, 5)], ((0, 1), (2, 3))))
    # parts of equal size with different multisets
    @example(([(0, 1), (0, 1), (0, 2), (1, 2)], ((0, 1), (2, 3))))
    @example(([(1, 2), (3, 4), (1, 3), (1, 3), (2, 4), (2, 4)],
              ((0, 1), (2, 3), (4, 5))))
    def test_matches_brute_minimum(self, case):
        lists, parts = case
        assert canonical_class(lists, parts) == brute_class(lists, parts)

    @settings(max_examples=100, deadline=None)
    @given(class_inputs(max_n=7, max_palette=8),
           st.randoms(use_true_random=False))
    @example(([(0, 1), (2, 3), (4, 5), (0, 2)], ((0, 1), (2, 3))),
             random.Random(6))
    @example(([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 6)],
              ((0, 1), (2,), (3, 4), (5,))), random.Random(7))
    def test_invariant_under_allowed_moves(self, case, rng):
        lists, parts = case
        n = len(lists)
        base = canonical_class(lists, parts)
        used = sorted({c for l in lists for c in l})
        relabel = dict(zip(used, rng.sample(range(30), len(used))))
        for swap_equal in (False, True):
            perm = allowed_move(parts, n, rng, swap_equal)
            moved = [None] * n
            for v in range(n):
                moved[perm[v]] = tuple(rng.sample(
                    [relabel[c] for c in lists[v]], len(lists[v])))
            assert canonical_class(moved, parts) == base

    def test_separates_classes(self):
        assert canonical_class([(0,), (0,)], None) != \
            canonical_class([(0,), (1,)], None)
        assert canonical_class([(5,), (9,)], None) == (0, 1)
        lists = [(0, 1), (2, 3), (0, 2)]
        assert canonical_class(lists, ((0,), (1,), (2,))) == (0, 1, 0, 2, 1, 3)
        assert canonical_class(lists, None) == (0, 1, 2, 3, 0, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            canonical_class([(1, 2), (1,)], None)
        with pytest.raises(ValueError):
            canonical_class([(1,), (2,)], ((0,),))
        # a repeated color would give a 3-entry row for two 2-lists
        with pytest.raises(ValueError):
            canonical_class([(1, 1), (2, 3)], None)
        with pytest.raises(ValueError):
            canonical_class([(0, 2), (4, 4)], ((0, 1),))

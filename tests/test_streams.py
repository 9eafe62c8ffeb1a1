"""Canonical stream tests.

The load-bearing check is orbit coverage: enumerate every assignment over
the full color windows by brute force, reduce both that set and the stream
to a canonical orbit invariant, and require the two invariant sets to be
equal.  The invariant is the per-group multiset of color incidence masks,
minimized over the symmetries the stream is allowed to quotient by.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, islice, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import grouped_rows_oracle
from strictcolor.bulk import mask_chunks
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import complete_multipartite
from strictcolor.lambdacolor import _head_rows
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
        list(enumerate_grouped(3, (1,), parts=((0, 2), (1,))))
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
        chunks, taken = [], 0
        for chunk in grouped_chunks(n, sizes, parts=parts, caps=caps,
                                    chunk_rows=chunk_rows):
            rows = chunk.leaf_rows()
            assert rows.dtype == np.int32
            assert rows.shape == (chunk.leaves, n * sum(sizes))
            # At most chunk_rows leaves, unless the chunk is one prefix.
            assert chunk.leaves > 0
            assert chunk.leaves <= chunk_rows or chunk.rows.shape[0] == 1
            # The mask refuses a palette that misses a last-list color.
            assert np.isin(rows[:, chunk.rows.shape[1]:], chunk.palette).all()
            chunks.append(chunk)
            taken += chunk.leaves
            if taken > ORACLE_ROWS:
                break
        got = chunk_rows_of(chunks)
        if len(want) <= ORACLE_ROWS:
            assert got == want
        else:
            assert got[:len(want)] == want

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
            assert chunk.leaves <= 65536 or chunk.rows.shape[0] == 1
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
        for chunk in _head_rows(stream, budget):
            rows = chunk.leaf_rows()
            got.extend(map(tuple, rows.tolist()))
            assert chunk.count.sum() == chunk.leaves == len(rows)
            assert (chunk.start >= 0).all()
            assert (chunk.start + chunk.count <= len(chunk.lists)).all()
            assert not chunk.lists.flags.writeable
            assert np.array_equal(chunk.palette, np.unique(chunk.lists))
            at = rng.integers(0, chunk.leaves, size=rng.integers(0, 9))
            assert np.array_equal(chunk.leaf_rows(at), rows[at])
            sel = np.flatnonzero(rng.random(len(chunk.count)) < 0.5)
            where, table = chunk.leaves_of(sel)
            split = chunk.rows.shape[1]
            assert np.array_equal(rows[where, :split], np.repeat(
                chunk.rows[sel], chunk.count[sel], axis=0))
            assert np.array_equal(rows[where, split:], chunk.lists[table])
            held.append((chunk, chunk.lists.copy()))
        assert got == want
        for chunk, lists in held:  # the walk went on past every chunk
            assert np.array_equal(chunk.lists, lists)


PINS = Path(__file__).with_name("stream_pins.json")


def chunk_records(sizes, groups, caps, chunks, chunk_rows):
    """Per chunk of a host's stream: leaves, prefixes, palette, row digest."""
    g = complete_multipartite(sizes)
    stream = grouped_chunks(g.n, groups, parts=g.parts, caps=caps,
                            chunk_rows=chunk_rows)
    return [[c.leaves, len(c.count), c.palette.tolist(),
             hashlib.sha256(c.leaf_rows().astype("<i4").tobytes())
             .hexdigest()[:16]]
            for c in islice(stream, chunks)]


class TestPinnedStreams:
    """The chunks of five streams, as the walk before its base memo made
    them: the palette picks the mask's owner-map space, so it is pinned
    along with the rows."""

    @pytest.mark.parametrize("pin", json.loads(PINS.read_text()),
                             ids=lambda pin: pin["name"])
    def test_chunks_are_pinned(self, pin):
        got = chunk_records(tuple(pin["sizes"]), tuple(pin["groups"]),
                            pin["caps"] and tuple(pin["caps"]),
                            pin["chunks"], pin["chunk_rows"])
        assert len(got) == len(pin["records"])
        for i, (have, want) in enumerate(zip(got, pin["records"])):
            assert have == want, f"chunk {i}"


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
        ((3, (1,)), {"parts": ((0, 2), (1,))}),
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


class TestCanonicalClass:
    def test_matches_brute_minimum(self):
        import random
        rng = random.Random(5)
        singletons = ((0,), (1,), (2,))
        # (vertices, list length, colors drawn from, parts)
        cases = [(3, 2, 6, None), (4, 2, 6, ((0, 1), (2, 3))),
                 (3, 2, 6, ((0, 1), (2,))),
                 # parts that are not consecutive ranges
                 (4, 2, 6, ((0, 2), (1, 3))), (5, 2, 5, ((3, 0), (4, 1, 2))),
                 # three parts of equal size
                 (6, 2, 5, ((0, 1), (2, 3), (4, 5))),
                 (6, 2, 5, ((4, 1), (0, 5), (3, 2))),
                 # 3-lists
                 (3, 3, 6, None), (4, 3, 5, ((0, 1), (2, 3))),
                 (4, 3, 5, ((1,), (0, 2, 3))),
                 # singleton parts may be reordered, parts=None may not
                 (3, 2, 6, singletons)]
        for n, k, colors, parts in cases:
            for _ in range(25):
                lists = [tuple(rng.sample(range(colors), k))
                         for _ in range(n)]
                assert canonical_class(lists, parts) == brute_class(lists, parts)
        lists = [(0, 1), (2, 3), (0, 2)]
        assert canonical_class(lists, singletons) == \
            brute_class(lists, singletons) == (0, 1, 0, 2, 1, 3)
        assert canonical_class(lists, None) == \
            brute_class(lists, None) == (0, 1, 2, 3, 0, 2)

    def test_invariant_under_allowed_moves(self):
        import random
        rng = random.Random(6)
        parts = ((0, 1), (2, 3))
        for _ in range(40):
            lists = [tuple(rng.sample(range(7), 2)) for _ in range(4)]
            base = canonical_class(lists, parts)
            relabel = dict(zip(range(7), rng.sample(range(20), 7)))
            perm = rng.choice(list(part_perms(parts, 4)))
            moved = [None] * 4
            for v in range(4):
                moved[perm[v]] = tuple(relabel[c] for c in lists[v])
            assert canonical_class(moved, parts) == base

    def test_separates_classes(self):
        assert canonical_class([(0,), (0,)], None) != \
            canonical_class([(0,), (1,)], None)
        assert canonical_class([(5,), (9,)], None) == (0, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            canonical_class([(1, 2), (1,)], None)
        with pytest.raises(ValueError):
            canonical_class([(1,), (2,)], ((0,),))

"""Bulk verdict tests against a per-row brute-force oracle."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import leaf_refusals_oracle
from strictcolor import limits
from strictcolor.bulk import (
    _choice_matrix,
    colorable_mask,
    leaf_candidates,
    mask_stream,
    row_chunks,
)
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import Graph, complete_multipartite
from strictcolor.lambdacolor import _head_rows
from strictcolor.listcolor import find_refusals, l_color, l_color_multipartite
from strictcolor.streams import (
    PrefixChunk,
    enumerate_grouped,
    enumerate_k_lists,
    grouped_chunks,
    row_lists,
)


def row_colorable_oracle(row, n, edges):
    k = len(row) // n
    lists = [row[v * k:(v + 1) * k] for v in range(n)]
    for choice in product(*lists):
        if all(choice[u] != choice[v] for u, v in edges):
            return True
    return False


def random_rows(rng, count, n, k, colors):
    return [tuple(rng.randrange(colors) for _ in range(n * k))
            for _ in range(count)]


class TestColorableMask:
    def test_matches_oracle_on_random_rows(self):
        rng = random.Random(11)
        for n, k in [(3, 2), (4, 2), (5, 2), (4, 3)]:
            pairs = list(combinations(range(n), 2))
            edges = tuple(e for e in pairs if rng.random() < 0.6)
            rows = random_rows(rng, 80, n, k, colors=2 * k)
            chunk = np.array(rows, dtype=np.int32)
            mask = colorable_mask(chunk, n, edges)
            want = [row_colorable_oracle(r, n, edges) for r in rows]
            assert mask.tolist() == want

    def test_matches_oracle_on_a_stream(self):
        g = complete_multipartite([2, 2])
        rows = list(enumerate_k_lists(g.n, 2, parts=g.parts))
        chunk = np.array(rows, dtype=np.int32)
        mask = colorable_mask(chunk, g.n, g.edges)
        want = [row_colorable_oracle(r, g.n, g.edges) for r in rows]
        assert mask.tolist() == want

    def test_no_edges_all_colorable(self):
        chunk = np.zeros((5, 6), dtype=np.int32)
        assert colorable_mask(chunk, 3, ()).all()

    def test_zero_vertices(self):
        chunk = np.zeros((4, 0), dtype=np.int32)
        assert colorable_mask(chunk, 0, ()).tolist() == [True] * 4

    def test_bad_width(self):
        with pytest.raises(ValueError):
            colorable_mask(np.zeros((1, 5), dtype=np.int32), 2, ((0, 1),))

    def test_choice_cap(self, monkeypatch):
        monkeypatch.setattr(limits, "CHOICE_CAP", 100)
        chunk = np.zeros((1, 40), dtype=np.int32)
        with pytest.raises(BoundExceeded):
            colorable_mask(chunk, 10, ((0, 1),))

    def test_every_choice_vector_is_swept(self):
        # The row below is colored by exactly one choice vector.  Swapping
        # slots moves that vector to each position of the sweep in turn,
        # so a sweep that skips any vector refuses one of these rows.
        edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                 (2, 3))
        lists = [[3, 0, 1], [1, 0, 0], [2, 1, 1], [1, 1, 0], [0, 3, 3]]
        only = (0, 0, 0, 2, 0)
        assert [c for c in product(range(3), repeat=5)
                if all(lists[u][c[u]] != lists[v][c[v]]
                       for u, v in edges)] == [only]
        rows = []
        for target in _choice_matrix(3, 5).T.tolist():
            row = []
            for v, slots in enumerate(lists):
                slots = list(slots)
                slots[only[v]], slots[target[v]] = (slots[target[v]],
                                                    slots[only[v]])
                row.extend(slots)
            rows.append(row)
        assert len(rows) == 243
        assert colorable_mask(np.array(rows, dtype=np.int32), 5, edges).all()

    def test_choice_matrix_is_the_fixed_shuffle_and_shared(self):
        for k, n in [(1, 3), (2, 5), (3, 4), (4, 3)]:
            vals = np.arange(k ** n)
            powers = k ** np.arange(n - 1, -1, -1)
            lex = (vals[:, None] // powers[None, :]) % k
            want = np.random.default_rng(0).permutation(lex)
            got = _choice_matrix(k, n)
            assert got.T.tolist() == want.tolist()
            assert not got.flags.writeable
            assert _choice_matrix(k, n) is got


@st.composite
def graphs_and_rows(draw, max_rows=130):
    """A small graph plus random rows over a palette barely big enough."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    pairs = list(combinations(range(n), 2))
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True))
                  if pairs else ())
    colors = draw(st.integers(1, k + 2))
    count = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 129]),
                           st.integers(0, max_rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    chunk = rng.integers(0, colors, size=(count, n * k), dtype=np.int32)
    return n, edges, chunk


# 3^7 choice vectors outlast several doubling blocks; 2^2 fit in the first.
K7_EDGES = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (0, 6))


class TestMaskProperties:
    @settings(max_examples=60, deadline=None)
    @given(graphs_and_rows())
    @example((7, K7_EDGES, np.random.default_rng(1).integers(
        0, 3, size=(65, 21), dtype=np.int32)))
    @example((2, ((0, 1),), np.random.default_rng(2).integers(
        0, 2, size=(63, 4), dtype=np.int32)))
    def test_matches_brute_force(self, case):
        n, edges, chunk = case
        mask = colorable_mask(chunk, n, edges)
        assert mask.dtype == bool and mask.shape == (chunk.shape[0],)
        want = [row_colorable_oracle(tuple(r), n, edges)
                for r in chunk.tolist()]
        assert mask.tolist() == want

    @settings(max_examples=25, deadline=None)
    @given(graphs_and_rows(max_rows=300), st.integers(1, 70))
    def test_workers_agree(self, case, chunk_rows):
        n, edges, chunk = case
        rows = [tuple(r) for r in chunk.tolist()]

        def run(workers):
            return [(off, c.tolist(), m.tolist())
                    for off, c, m in mask_stream(iter(rows), n, edges,
                                                 width=chunk.shape[1],
                                                 chunk_rows=chunk_rows,
                                                 workers=workers)]

        assert run(1) == run(2)


class TestStragglerSweep:
    """Color-starved K(3,3,5) rows: 3^11 choice vectors, a few refusals."""

    SIZES = (3, 3, 5)

    @pytest.fixture(scope="class")
    def starved(self):
        g = complete_multipartite(self.SIZES)
        rows = list(islice(enumerate_grouped(11, (2, 1), parts=g.parts,
                                             caps=(3, 1)), 1024))
        assert len(rows) == 1024
        return g, rows, np.array(rows, dtype=np.int32)

    def test_matches_multipartite_solver(self, starved):
        g, rows, chunk = starved
        mask = colorable_mask(chunk, g.n, g.edges)
        want = [l_color_multipartite(self.SIZES,
                                     row_lists(r, g.n)).colorable
                for r in rows]
        assert want.count(False) == 6
        assert mask.tolist() == want

    def test_memory_stays_bounded(self, starved):
        g, _, chunk = starved
        tracemalloc.start()
        try:
            colorable_mask(chunk, g.n, g.edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


class TestChunking:
    def test_row_chunks_shapes_and_order(self):
        rows = [(i, i + 1) for i in range(10)]
        chunks = list(row_chunks(iter(rows), 2, chunk_rows=4))
        assert [c.shape for c in chunks] == [(4, 2), (4, 2), (2, 2)]
        assert np.concatenate(chunks).tolist() == [list(r) for r in rows]

    def test_zero_width(self):
        chunks = list(row_chunks(iter([(), (), ()]), 0))
        assert len(chunks) == 1 and chunks[0].shape == (3, 0)
        assert list(row_chunks(iter([]), 0)) == []

    def test_chunked_mask_equals_whole(self):
        g = complete_multipartite([1, 2])
        rows = list(enumerate_k_lists(g.n, 2))
        whole = colorable_mask(np.array(rows, dtype=np.int32), g.n, g.edges)
        pieces = [colorable_mask(c, g.n, g.edges)
                  for c in row_chunks(iter(rows), 2 * g.n, chunk_rows=5)]
        assert np.concatenate(pieces).tolist() == whole.tolist()


class TestMaskStream:
    def test_workers_do_not_change_output(self):
        g = complete_multipartite([2, 2])
        rows = list(enumerate_k_lists(g.n, 2, parts=g.parts))
        serial = [(off, c.tolist(), m.tolist())
                  for off, c, m in mask_stream(iter(rows), g.n, g.edges,
                                               width=2 * g.n, chunk_rows=7)]
        threaded = [(off, c.tolist(), m.tolist())
                    for off, c, m in mask_stream(iter(rows), g.n, g.edges,
                                                 width=2 * g.n, chunk_rows=7,
                                                 workers=3)]
        assert serial == threaded
        assert serial[-1][0] + len(serial[-1][2]) == len(rows)

    def test_first_uncolorable(self):
        # A single edge with 1-lists: the only uncolorable rows give both
        # endpoints the same singleton list.
        refusals, examined = find_refusals(Graph(2, ((0, 1),)),
                                           grouped_chunks(2, (1,)))
        [(index, lists, _nodes)] = refusals
        assert index == 0 and examined == 1
        assert lists == ((0,), (0,))

    def test_first_uncolorable_none(self):
        rows = list(enumerate_k_lists(2, 2))
        assert find_refusals(Graph(2, ((0, 1),)),
                             grouped_chunks(2, (2,))) == ([], len(rows))


# ---------------------------------------------------------------- prefix filter

def head_leaves(chunks, limit):
    """The first ``limit`` rows of a leaf chunk stream; the last is cut."""
    for chunk in chunks:
        yield chunk[:limit]
        limit -= chunk.shape[0]
        if limit <= 0:
            return


@st.composite
def refusal_cases(draw):
    """(graph, group sizes, caps, budget, first_only, chunk_rows).

    The graph has at most 6 vertices: complete multipartite with its
    parts, or random edges and no parts.  Group sizes have weight at most
    3; a large uncapped stream always gets a budget.
    """
    if draw(st.booleans()):
        g = complete_multipartite(draw(
            st.lists(st.integers(1, 6), min_size=1, max_size=6)
            .filter(lambda s: sum(s) <= 6)))
    else:
        n = draw(st.integers(0, 6))
        pairs = list(combinations(range(n), 2))
        g = Graph(n, tuple(e for e in pairs if draw(st.booleans())))
    sizes = draw(st.sampled_from([(1,), (2,), (1, 1), (3,), (2, 1),
                                  (1, 1, 1)]))
    caps = None
    if draw(st.booleans()):
        caps = tuple(draw(st.integers(s, s + 3)) for s in sizes)
    budget = draw(st.one_of(st.none(), st.integers(1, 3000)))
    if budget is None and caps is None and g.n * sum(sizes) > 12:
        budget = 20000
    return (g, sizes, caps, budget, draw(st.booleans()),
            draw(st.sampled_from((1, 7, 64, 65536))))


class TestPrefixFilter:
    """find_refusals against the leaf path it replaces, which masks every
    leaf row of the stream (oracles.leaf_refusals_oracle)."""

    @settings(max_examples=80, deadline=None)
    @given(refusal_cases())
    @example((Graph(0, ()), (2,), None, None, True, 64))
    @example((Graph(1, ()), (1,), None, None, False, 1))
    @example((Graph(5, ()), (2, 1), (3, 1), None, False, 7))
    @example((complete_multipartite((2, 4)), (2,), None, None, False, 64))
    @example((complete_multipartite((2, 4)), (2,), None, 3581, True, 65536))
    @example((complete_multipartite((1, 1, 1)), (1, 1, 1), (1, 1, 2), 2,
              False, 1))
    def test_matches_leaf_path(self, case):
        g, sizes, caps, budget, first_only, chunk_rows = case

        def stream():
            return grouped_chunks(g.n, sizes, parts=g.parts, caps=caps,
                                  chunk_rows=chunk_rows)

        prefixes = stream()
        leaves = (chunk.leaf_rows() for chunk in stream())
        if budget is not None:
            prefixes = _head_rows(prefixes, budget)
            leaves = head_leaves(leaves, budget)
        assert (find_refusals(g, prefixes, first_only=first_only)
                == leaf_refusals_oracle(g, leaves, first_only=first_only))

    def test_clears_only_colorable_leaves_past_color_63(self):
        # Group 1's window starts at 22 * 3 = 66, so the colors need the
        # compact palette; a 4^22 mask sweep is out of reach, so each
        # cleared leaf is checked by the solver instead.
        g = Graph(22, tuple((v, (v + 1) % 22) for v in range(22)))
        stream = grouped_chunks(22, (3, 1), caps=(4, 1), chunk_rows=500)
        chunk = next(stream)
        rows = chunk.leaf_rows()
        assert rows.max() >= 64
        kept = set(leaf_candidates(chunk, g.n, g.edges).tolist())
        cleared = [i for i in range(chunk.leaves) if i not in kept]
        assert cleared
        for i in cleared:
            assert l_color(g, row_lists(tuple(rows[i].tolist()), g.n)).colorable

    def test_more_than_64_colors_keep_every_leaf(self):
        # A hand-made chunk over 3 vertices whose last lists use 90
        # colors: the filter keeps every leaf, and the mask decides them
        # as the leaf path does.
        rng = np.random.default_rng(5)
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        lists = np.arange(90, dtype=np.int32).reshape(45, 2)
        lists.flags.writeable = False
        rows = np.sort(rng.choice(90, size=(40, 2, 2)), axis=2).reshape(
            40, 4).astype(np.int32)
        rows[:, :2] = 0, 1  # vertex 0 always lists (0, 1): refusals happen
        # Each prefix spans one of 9 runs of 5 lists.
        start = 5 * rng.integers(0, 9, size=40)
        chunk = PrefixChunk(rows, start, np.full(40, 5), lists,
                            np.unique(lists), 5 * 40)
        assert chunk.palette.size == 90
        assert leaf_candidates(chunk, g.n, g.edges).tolist() == list(
            range(chunk.leaves))
        got = find_refusals(g, [chunk], first_only=False)
        assert got == leaf_refusals_oracle(g, [chunk.leaf_rows()],
                                           first_only=False)

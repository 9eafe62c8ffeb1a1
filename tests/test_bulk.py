"""Bulk verdict tests against a per-row brute-force oracle."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strictcolor import limits
from strictcolor.bulk import (
    _choice_matrix,
    colorable_mask,
    mask_stream,
    row_chunks,
)
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import Graph, complete_multipartite
from strictcolor.listcolor import find_refusals, l_color_multipartite
from strictcolor.streams import (
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
                             row_chunks(iter(rows), 4)) == ([], len(rows))

"""Bulk verdict tests against a per-row brute-force oracle."""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest

from strictcolor.bulk import colorable_mask, mask_stream, row_chunks
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import Graph, complete_multipartite
from strictcolor.listcolor import find_refusals
from strictcolor.streams import enumerate_k_lists


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

    def test_choice_cap(self):
        chunk = np.zeros((1, 40), dtype=np.int32)
        with pytest.raises(BoundExceeded):
            colorable_mask(chunk, 10, ((0, 1),), choice_cap=100)


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
        rows = list(enumerate_k_lists(2, 1))
        refusals, examined = find_refusals(Graph(2, ((0, 1),)), iter(rows),
                                           width=2)
        [(index, lists, _nodes)] = refusals
        assert index == 0 and examined == 1
        assert lists == ((0,), (0,))

    def test_first_uncolorable_none(self):
        rows = list(enumerate_k_lists(2, 2))
        assert find_refusals(Graph(2, ((0, 1),)), iter(rows),
                             width=4) == ([], len(rows))

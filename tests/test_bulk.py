"""Bulk verdict tests against a per-row brute-force oracle."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, islice, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    chunk_from_rows,
    leaf_refusals_oracle,
    leaf_slices,
    prefix_colors_oracle,
)
import strictcolor as sc
from strictcolor import bulk, limits, streams
from strictcolor.bulk import (
    _choice_matrix,
    colorable_mask,
    leaf_candidates,
    mask_stream,
    row_chunks,
)
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import Graph, complete_multipartite
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
        # slots moves that vector to each leaf of the choice tree in turn,
        # so a search that prunes or skips any leaf refuses one of these
        # rows.
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

    def test_large_choice_space_needs_no_vector_matrix(self):
        # C13(1, 2), i ~ i+1 and i ~ i+2 mod 13, has chi = 4: 3^13 choice
        # vectors, under CHOICE_CAP.  The all-{0,1,2} row is refused; the
        # random 3-of-4 lists are mostly colorable.  Settling them must not
        # build, or cache, a matrix of all 3^13 vectors.
        n = 13
        edges = tuple((i, (i + d) % n) for i in range(n) for d in (1, 2))
        g = Graph(n, edges)
        rng = random.Random(13)
        rows = [tuple(c for _ in range(n)
                      for c in sorted(rng.sample(range(4), 3)))
                for _ in range(64)]
        rows.append((0, 1, 2) * n)
        want = [l_color(g, row_lists(r, n)).colorable for r in rows]
        assert not want[-1]
        _choice_matrix.cache_clear()
        cached = _choice_matrix.cache_info().currsize
        tracemalloc.start()
        try:
            mask = colorable_mask(np.array(rows, dtype=np.int32), n, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.tolist() == want
        assert peak < 8 << 20
        assert _choice_matrix.cache_info().currsize == cached


@st.composite
def graphs_and_rows(draw, max_rows=130):
    """A small graph plus random rows over a palette barely big enough."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    pairs = list(combinations(range(n), 2))
    chosen = (draw(st.lists(st.sampled_from(pairs), unique=True))
              if pairs else [])
    # Either orientation, in any order: the mask takes edges as given.
    flips = draw(st.lists(st.booleans(), min_size=len(chosen),
                          max_size=len(chosen)))
    edges = tuple(draw(st.permutations(
        [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)])))
    colors = draw(st.integers(1, k + 2))
    count = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 129]),
                           st.integers(0, max_rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    chunk = rng.integers(0, colors, size=(count, n * k), dtype=np.int32)
    return n, edges, chunk


# 3^7 choice vectors over 65 rows, two words of bits; 2^2 over 63, one word.
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

    def test_import_leaves_the_pool_out(self):
        # Only mask_chunks's workers > 1 branch uses the thread pool, so
        # importing the package loads neither concurrent.futures nor the
        # logging it imports.
        src = Path(sc.__file__).resolve().parent.parent
        code = ("import sys, strictcolor; print(sorted({'concurrent.futures',"
                " 'logging'} & set(sys.modules)))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "[]"


class TestStragglerSweep:
    """Color-starved K(3,3,5) and K(3,4,4) rows without parts: 3^11 choice
    vectors and a few refusals, all settled by the choice-tree search."""

    SIZES = (3, 3, 5)

    @staticmethod
    def head(sizes, count):
        g = complete_multipartite(sizes)
        rows = list(islice(enumerate_grouped(11, (2, 1), parts=g.parts,
                                             caps=(3, 1)), count))
        assert len(rows) == count
        return g, rows, np.array(rows, dtype=np.int32)

    @staticmethod
    def solver_mask(sizes, g, rows):
        return [l_color_multipartite(sizes, row_lists(r, g.n)).colorable
                for r in rows]

    @pytest.fixture(scope="class")
    def starved(self):
        return self.head(self.SIZES, 1024)

    def test_matches_multipartite_solver(self, starved):
        g, rows, chunk = starved
        mask = colorable_mask(chunk, g.n, g.edges)
        want = self.solver_mask(self.SIZES, g, rows)
        assert want.count(False) == 6
        assert mask.tolist() == want

    def test_edge_orientation_and_order_do_not_matter(self, starved):
        g, _, chunk = starved
        edges = [(v, u) for u, v in g.edges]
        random.Random(3).shuffle(edges)
        assert (colorable_mask(chunk, g.n, edges).tolist()
                == colorable_mask(chunk, g.n, g.edges).tolist())

    def test_search_spans_several_words(self, monkeypatch):
        # Every row goes to one search call: all 1,350, 22 words of bits.
        sizes = (3, 4, 4)
        g, rows, chunk = self.head(sizes, 1350)
        searched = []

        def spy(lists, edges):
            searched.append(lists.shape[0])
            return search(lists, edges)

        search = bulk._search_choice_tree
        monkeypatch.setattr(bulk, "_search_choice_tree", spy)
        mask = colorable_mask(chunk, g.n, g.edges)
        want = self.solver_mask(sizes, g, rows)
        assert want.count(False) == 9
        assert mask.tolist() == want
        assert len(searched) == 1 and searched[0] > 64

    def test_memory_stays_bounded(self, starved):
        g, _, chunk = starved
        tracemalloc.start()
        try:
            colorable_mask(chunk, g.n, g.edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20

    def test_first_refusal_of_k255_at_caps_4_1(self):
        # The 12-vertex strict host's first refusal in its (4, 1) capped
        # stream sits deep in the stream (ROADMAP item 3).  With parts the
        # mask sweeps 3^5 owner maps; the same graph without parts sends
        # it over 3^12 choice vectors.
        host = complete_multipartite((2, 5, 5))
        for g in (host, Graph(host.n, host.edges)):
            [(index, lists, _nodes)], examined = find_refusals(
                g, grouped_chunks(12, (2, 1), parts=host.parts, caps=(4, 1)))
            assert (index, examined) == (188235, 188236)
            assert not l_color(g, lists).colorable


# ---------------------------------------------------------------- owner maps

@st.composite
def owner_cases(draw):
    """(part sizes, group sizes, caps, head, seed) for TestOwnerMaps.

    A complete multipartite host with at most 9 vertices and a capped
    canonical stream on it; the test masks a random subset of the
    stream's first ``head`` leaves together with every refusal among them.
    """
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)
                       .filter(lambda s: sum(s) <= 9)))
    groups = draw(st.sampled_from([(1,), (2,), (1, 1), (3,), (2, 1)]))
    caps = tuple(draw(st.integers(s, s + 3)) for s in groups)
    return (sizes, groups, caps, draw(st.integers(1, 300)),
            draw(st.integers(0, 2 ** 32 - 1)))


class TestOwnerMaps:
    """The owner-map space of colorable_mask against the choice space
    (parts=None) and l_color."""

    @staticmethod
    def rows_of(case):
        """(n, edges, parts, rows, l_color's verdicts), vertices shuffled.

        The rows' vertices are renumbered at random, so the last vertex
        of the stream, whose list follows its part's order, can sit
        anywhere, and parts need not be ranges.
        """
        sizes, groups, caps, head, seed = case
        g = complete_multipartite(sizes)
        leaves = np.concatenate(list(head_leaves(
            (rows for c in grouped_chunks(g.n, groups, parts=g.parts,
                                          caps=caps)
             for rows in leaf_slices(c)), head)))
        solver = np.array([l_color(g, row_lists(tuple(r), g.n)).colorable
                           for r in leaves.tolist()], dtype=bool)
        rng = np.random.default_rng(seed)
        keep = (rng.random(len(leaves)) < 0.5) | ~solver
        to = rng.permutation(g.n)
        k = sum(groups)
        rows = np.empty_like(leaves[keep])
        for v in range(g.n):
            rows[:, to[v] * k:(to[v] + 1) * k] = leaves[keep,
                                                        v * k:(v + 1) * k]
        parts = [[int(to[v]) for v in part] for part in g.parts]
        edges = [(int(to[u]), int(to[v])) for u, v in g.edges]
        return g.n, edges, parts, rows, solver[keep]

    @settings(max_examples=60, deadline=None)
    @given(owner_cases())
    # 3^2 maps < 2^4 vectors, then 3^3 > 2^4: both sides of the switch.
    @example(((1, 1, 2), (2,), (2,), 300, 0))
    @example(((1, 1, 2), (2,), (3,), 300, 0))
    # One row with three colors: 3^3 maps against 3^11 vectors.
    @example(((3, 3, 5), (2, 1), (2, 1), 300, 2))
    # The whole stream, with its one refusal (leaf 444): 3^4 maps.
    @example(((3, 3, 3), (2, 1), (3, 1), 600, 1))
    def test_matches_choice_space_and_solver(self, case):
        n, edges, parts, rows, solver = self.rows_of(case)
        owner = colorable_mask(rows, n, edges, parts=parts)
        choice = colorable_mask(rows, n, edges)
        assert owner.tolist() == choice.tolist() == solver.tolist()

    @pytest.mark.parametrize("caps,maps", [((2,), True), ((3,), False)])
    def test_switch_follows_the_smaller_space(self, monkeypatch, caps,
                                              maps):
        swept = []

        def spy(lists, parts, colors):
            swept.append(colors)
            return sweep(lists, parts, colors)

        sweep = bulk._sweep_maps
        monkeypatch.setattr(bulk, "_sweep_maps", spy)
        n, edges, parts, rows, solver = self.rows_of(
            ((1, 1, 2), (2,), caps, 300, 0))
        colors = len(set(rows.ravel().tolist()))
        assert (3 ** colors < 2 ** 4) == maps
        assert colorable_mask(rows, n, edges,
                              parts=parts).tolist() == solver.tolist()
        assert swept == ([colors] if maps else [])

    def test_cap_counts_the_space_used(self, monkeypatch):
        g = complete_multipartite((3, 3, 5))
        chunk = np.zeros((0, 33), dtype=np.int32)
        monkeypatch.setattr(limits, "CHOICE_CAP", 3 ** 5 - 1)
        with pytest.raises(BoundExceeded, match=r"owner map count 3\^5 "):
            colorable_mask(chunk, g.n, g.edges, parts=g.parts,
                           palette=np.arange(5))
        monkeypatch.setattr(limits, "CHOICE_CAP", 3 ** 5)
        assert colorable_mask(chunk, g.n, g.edges, parts=g.parts,
                              palette=np.arange(5)).shape == (0,)

    def test_palette_must_hold_the_rows(self):
        g = complete_multipartite((1, 2))
        chunk = np.array([[0, 1, 0, 2, 1, 2]], dtype=np.int32)
        with pytest.raises(ValueError, match="more colors than the palette"):
            colorable_mask(chunk, g.n, g.edges, parts=g.parts,
                           palette=np.arange(2))


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


# Chunks one example may make: a chunk costs a filter and a mask call or
# two, and one-row chunks on a capped stream of 100,000 leaves take
# about a minute.
MAX_CHUNKS = 3000


@st.composite
def refusal_cases(draw):
    """(graph, group sizes, caps, budget, first_only, chunk_rows).

    The graph has at most 6 vertices: complete multipartite with its
    parts, or random edges and no parts.  Group sizes have weight at most
    3; a large uncapped stream always gets a budget, and so does any
    stream that would make more than MAX_CHUNKS chunks.
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
    first_only = draw(st.booleans())
    chunk_rows = draw(st.sampled_from((1, 7, 64, 65536)))
    # Each prefix holds a leaf at least, and every chunk but the last
    # chunk_rows prefixes, so this many leaves make at most MAX_CHUNKS
    # chunks.
    most = max(MAX_CHUNKS, (MAX_CHUNKS - 1) * chunk_rows // 2)
    if budget is None:
        leaves = sum(chunk.leaves for chunk in grouped_chunks(
            g.n, sizes, parts=g.parts, caps=caps))
        if leaves > most:
            budget = most
    else:
        budget = min(budget, most)
    return g, sizes, caps, budget, first_only, chunk_rows


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

        leaves = (rows for chunk in stream() for rows in leaf_slices(chunk))
        if budget is not None:
            leaves = head_leaves(leaves, budget)
        assert (find_refusals(g, stream(), first_only, limit=budget)
                == leaf_refusals_oracle(g, leaves, first_only=first_only))

    @pytest.mark.parametrize("sizes, groups, caps", [
        ((2, 4), (2,), None),
        ((3, 4), (2,), None),
        ((3, 3, 5), (2, 1), (3, 1)),
    ])
    def test_leaf_slices_keep_the_refusals(self, sizes, groups, caps):
        # Slices of 3 leaves cut the filter's leaf stage and the masked
        # rows inside chunks and inside prefixes.
        g = complete_multipartite(sizes)

        def stream():
            return grouped_chunks(g.n, groups, parts=g.parts, caps=caps,
                                  chunk_rows=64)

        want = leaf_refusals_oracle(
            g, (rows for chunk in stream() for rows in leaf_slices(chunk)),
            first_only=False)
        assert want[0]
        with mock.patch.object(bulk, "CHUNK_ROWS", 3):
            assert find_refusals(g, stream(), first_only=False) == want

    @pytest.mark.parametrize("sizes, groups, caps, filtered", [
        ((2, 5, 5), (2, 1), (4, 1), False),  # 16,409 leaves, 8,192 prefixes
        ((2, 6), (2,), None, True),          # 47,932 leaves, 8,192 prefixes
    ])
    def test_skips_chunks_under_three_leaves_per_prefix(
            self, monkeypatch, sizes, groups, caps, filtered):
        g = complete_multipartite(sizes)
        chunk = next(grouped_chunks(g.n, groups, parts=g.parts, caps=caps))
        assert (chunk.leaves >= 3 * len(chunk.count)) == filtered
        calls = []
        inner = bulk._prefix_colors

        def spy(*args):
            calls.append(args[0])
            return inner(*args)

        monkeypatch.setattr(bulk, "_prefix_colors", spy)
        kept = leaf_candidates(chunk, g.n, g.edges)
        assert len(calls) == filtered
        if not filtered:
            assert kept.tolist() == list(range(chunk.leaves))

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
        chunk = chunk_from_rows(rows, start, np.full(40, 5), lists)
        assert chunk.palette.size == 90
        assert leaf_candidates(chunk, g.n, g.edges).tolist() == list(
            range(chunk.leaves))
        got = find_refusals(g, [chunk], first_only=False)
        assert got == leaf_refusals_oracle(g, [chunk.leaf_rows()],
                                           first_only=False)


# ---------------------------------------------------------------- filter colors

def expected_candidates(chunk, k, inside):
    """leaf_candidates read off G: a leaf is kept when its prefix's G has
    k colors or more and holds every color of its last list."""
    sel = np.flatnonzero(np.bitwise_count(inside) >= k)
    lens = chunk.count[sel]
    within = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens,
                                                    lens)
    first = np.cumsum(chunk.count) - chunk.count
    last = chunk.lists[np.repeat(chunk.start[sel], lens) + within]
    g = np.repeat(inside[sel], lens)
    at = np.searchsorted(chunk.palette, last)
    held = (chunk.palette[np.minimum(at, chunk.palette.size - 1)] == last) & (
        (g[:, None] >> at.astype(np.uint64)) & 1 == 1)
    return (np.repeat(first[sel], lens) + within)[held.all(axis=1)].tolist()


def check_filter_colors(chunk, n, edges):
    """_prefix_colors against its definition, and the leaves it keeps,
    in stretches under SWEEP_BYTES and in stretches of 64 prefixes that
    cut long runs."""
    want = None
    for budget in (bulk.SWEEP_BYTES, 0):
        with mock.patch.object(bulk, "SWEEP_BYTES", budget):
            found = bulk._prefix_colors(chunk, n, edges)
            kept = leaf_candidates(chunk, n, edges).tolist()
        if chunk.palette.size > 64:
            assert found is None
            continue
        inside, bit = found
        if want is None:
            want = prefix_colors_oracle(chunk, n, edges).tolist()
        assert inside.tolist() == want
        flags = np.zeros_like(bit)
        flags[chunk.palette] = 1 << np.arange(chunk.palette.size,
                                              dtype=np.uint64)
        assert bit.tolist() == flags.tolist()
        if chunk.leaves >= 3 * chunk.rows.shape[0]:
            assert kept == expected_candidates(chunk, chunk.lists.shape[1],
                                               inside)
        elif edges:
            assert kept == list(range(chunk.leaves))


@st.composite
def filter_streams(draw):
    """(graph, group sizes, caps, chunk_rows, first, count): chunks
    first..first+count-1 of a canonical stream.

    The graph has 2 to 6 vertices: complete multipartite with its parts
    (complete graphs among them, so vertex n-2 may see the last vertex),
    or random edges and no parts.
    """
    if draw(st.booleans()):
        g = complete_multipartite(draw(
            st.lists(st.integers(1, 5), min_size=1, max_size=6)
            .filter(lambda s: 2 <= sum(s) <= 6)))
    else:
        n = draw(st.integers(2, 6))
        pairs = list(combinations(range(n), 2))
        g = Graph(n, tuple(e for e in pairs if draw(st.booleans())))
    sizes = draw(st.sampled_from([(1,), (2,), (1, 1), (3,), (2, 1)]))
    caps = None
    if draw(st.booleans()):
        caps = tuple(draw(st.integers(s, s + 3)) for s in sizes)
    chunk_rows = draw(st.sampled_from((1, 7, 64, 2048)))
    return (g, sizes, caps, chunk_rows, draw(st.integers(0, 2)),
            draw(st.integers(1, 2)))


@st.composite
def hand_made_chunks(draw):
    """(chunk, n, edges): prefixes in runs over random colors of the
    palette, and a last list table whose palette may near or pass 64
    colors.

    On a stream every prefix color is in the palette, since a last vertex
    may reuse any color seen before it, and the filter indexes colors by
    the palette alone, so the prefixes draw from it too."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    pairs = list(combinations(range(n), 2))
    edges = tuple(e for e in pairs if draw(st.booleans()))
    size = draw(st.sampled_from((1, 2, 5, 17, 60, 63, 64, 65)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    colors = np.sort(rng.choice(120, size=size, replace=False))
    table = np.concatenate([np.resize(colors, -(-size // k) * k),
                            rng.choice(colors, size=6 * k)]).reshape(-1, k)
    lists = np.sort(table, axis=1).astype(np.int32)
    lists.flags.writeable = False
    pool = colors[:draw(st.integers(1, size))]
    runs = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    rows = []
    for length in runs:
        upper = rng.choice(pool, size=(n - 2) * k)
        for _ in range(length):
            rows.append(np.concatenate([upper, rng.choice(pool, size=k)]))
    rows = np.array(rows, dtype=np.int32).reshape(len(rows), (n - 1) * k)
    # 1 to 3 leaves per prefix, or 3 to 5: the latter chunks pass the
    # filter's three-leaves-per-prefix skip, so about half the draws
    # check the kept leaves.
    low = draw(st.sampled_from((1, 3)))
    count = rng.integers(low, low + 3, size=len(rows))
    start = rng.integers(0, len(lists) - count + 1)
    return chunk_from_rows(rows, start, count, lists), n, edges


class TestFilterColors:
    """The prefix filter's G, per prefix, against its definition
    (oracles.prefix_colors_oracle), on stream chunks and hand-made ones,
    in stretches of whole runs and in stretches that cut them."""

    @settings(max_examples=60, deadline=None)
    @given(filter_streams())
    @example((complete_multipartite((2, 2, 2)), (2, 1), None, 2048, 40, 3))
    @example((complete_multipartite((2, 2, 2, 2)), (3,), None, 2048, 0, 1))
    @example((complete_multipartite((2, 2, 3)), (2, 1), None, 2048, 0, 2))
    @example((complete_multipartite((2, 4)), (3,), None, 2048, 0, 3))
    @example((complete_multipartite((3, 4)), (2,), None, 2048, 0, 1))
    @example((complete_multipartite((2, 6)), (2,), None, 2048, 2, 1))
    @example((complete_multipartite((2, 5)), (2,), None, 2048, 0, 1))
    @example((complete_multipartite((3, 3, 5)), (2, 1), (3, 1), 2048, 0, 1))
    @example((complete_multipartite((3, 4, 4)), (2, 1), (3, 1), 2048, 0, 1))
    @example((complete_multipartite((2, 5, 5)), (2, 1), (4, 1), 8192, 0, 1))
    @example((complete_multipartite((1, 1)), (2,), None, 7, 0, 2))
    @example((complete_multipartite((1, 1, 1)), (2, 1), (3, 2), 7, 1, 2))
    def test_stream_chunks(self, case):
        g, sizes, caps, chunk_rows, first, count = case
        stream = grouped_chunks(g.n, sizes, parts=g.parts, caps=caps,
                                chunk_rows=chunk_rows)
        for chunk in islice(stream, first, first + count):
            check_filter_colors(chunk, g.n, g.edges)

    @settings(max_examples=60, deadline=None)
    @given(hand_made_chunks())
    def test_hand_made_chunks(self, case):
        check_filter_colors(*case)

    @pytest.mark.parametrize("sizes, groups, caps", [
        ((2, 5, 5), (2, 1), (4, 1)),  # 2.25 prefixes per run
        ((2, 2, 2, 2), (3,), None),   # 41 prefixes per run
    ])
    def test_memory_stays_bounded(self, sizes, groups, caps):
        # A full chunk of CHUNK_ROWS prefixes, through G alone and through
        # leaf_candidates, which skips the filter on the K(2,5,5) chunk's
        # 2 leaves per prefix.
        g = complete_multipartite(sizes)
        chunk = next(grouped_chunks(g.n, groups, parts=g.parts, caps=caps))
        assert len(chunk.count) == bulk.CHUNK_ROWS
        for filter_chunk in (bulk._prefix_colors, leaf_candidates):
            tracemalloc.start()
            try:
                filter_chunk(chunk, g.n, g.edges)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bulk.SWEEP_BYTES


def check_stream_palette(stream_of, chunks):
    """The first ``chunks`` chunks of a stream read at chunk_rows 3, 4099
    and the default: every chunk shares the stream's one read-only lists
    table, and its palette is the same array whatever the chunking, the
    colors of that table, and holds every prefix color."""
    want = None
    for chunk_rows in (3, 4099, bulk.CHUNK_ROWS):
        lists = None
        for chunk in islice(stream_of(chunk_rows), chunks):
            if lists is None:
                lists = chunk.lists
                assert not lists.flags.writeable
            assert chunk.lists is lists
            if want is None:
                want = np.unique(lists)
            assert np.array_equal(chunk.palette, want)
            assert np.array_equal(chunk.palette, np.unique(chunk.lists))
            assert np.isin(chunk.rows, chunk.palette).all()


class TestStreamPalette:
    """One lists table and one palette per stream, so the mask's space
    and the filter's colors do not depend on where chunks end."""

    @pytest.mark.parametrize("pin", json.loads(
        Path(__file__).with_name("stream_pins.json").read_text()),
        ids=lambda pin: pin["name"])
    def test_pinned_streams(self, pin):
        g = complete_multipartite(tuple(pin["sizes"]))
        check_stream_palette(lambda rows: grouped_chunks(
            g.n, tuple(pin["groups"]), parts=g.parts,
            caps=pin["caps"] and tuple(pin["caps"]), chunk_rows=rows), 40)

    @settings(max_examples=40, deadline=None)
    @given(filter_streams())
    def test_filter_streams(self, case):
        g, sizes, caps, _, first, count = case
        check_stream_palette(lambda rows: grouped_chunks(
            g.n, sizes, parts=g.parts, caps=caps, chunk_rows=rows),
            first + count)


class TestBlockBounds:
    """No block the skeleton builds holds more than CHUNK_ROWS rows: a
    chunk holds at most CHUNK_ROWS prefixes, whatever leaves they stand
    for, and leaf rows are built CHUNK_ROWS at a time."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The prefixes of each chunk made and the rows of each leaf_rows
        call, as they happen."""
        seen = {"prefixes": [], "leaves": [], "rows": []}
        chunks_of, rows_of = streams.grouped_chunks, PrefixChunk.leaf_rows

        def grouped_chunks(*args, **kwargs):
            for chunk in chunks_of(*args, **kwargs):
                seen["prefixes"].append(chunk.rows.shape[0])
                seen["leaves"].append(chunk.leaves)
                yield chunk

        def leaf_rows(chunk, positions=None):
            rows = rows_of(chunk, positions)
            seen["rows"].append(rows.shape[0])
            return rows

        monkeypatch.setattr(streams, "grouped_chunks", grouped_chunks)
        monkeypatch.setattr(PrefixChunk, "leaf_rows", leaf_rows)
        return seen

    @pytest.mark.parametrize("sizes, groups, caps, want, masked", [
        # sweep-k222's stream: the filter keeps no leaf.
        ((2, 2, 2), (2, 1), None, ([], 5_618_352), 0),
        ((2, 5, 5), (2, 1), (4, 1), ([188_235], 188_236), bulk.CHUNK_ROWS),
    ])
    def test_find_refusals(self, built, sizes, groups, caps, want, masked):
        g = complete_multipartite(sizes)
        got = find_refusals(g, streams.grouped_chunks(
            g.n, groups, parts=g.parts, caps=caps))
        assert ([index for index, _, _ in got[0]], got[1]) == want
        assert max(built["prefixes"]) == bulk.CHUNK_ROWS
        assert max(built["leaves"]) > bulk.CHUNK_ROWS
        assert max(built["rows"]) == masked

    def test_enumerate_grouped(self, built):
        g = complete_multipartite((2, 2, 2))
        rows = list(islice(enumerate_grouped(6, (2, 1), parts=g.parts),
                           3 * bulk.CHUNK_ROWS + 5))
        assert len(rows) == 3 * bulk.CHUNK_ROWS + 5
        assert built["prefixes"] == [bulk.CHUNK_ROWS]
        assert built["leaves"][0] > len(rows)
        assert built["rows"] == [bulk.CHUNK_ROWS] * 4

    def test_find_refusals_memory(self):
        # The refusal hunt's capped stream on K(2,5,5): about 2 leaves per
        # prefix, nearly all kept by the filter and masked.
        g = complete_multipartite((2, 5, 5))
        tracemalloc.start()
        try:
            [(index, _, _)], _ = find_refusals(g, grouped_chunks(
                g.n, (2, 1), parts=g.parts, caps=(4, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index == 188_235
        assert peak < 3 * bulk.SWEEP_BYTES


def strict_profiles():
    """The three-part profiles up to 11 vertices but the case-2 shapes."""
    return [(a, b, c) for a in range(1, 12) for b in range(a, 12)
            for c in range(b, 12)
            if a + b + c <= 11 and (a, b, c) not in {(2, 4, 4), (2, 4, 5)}]


FILTER_PINS = {
    # decisions: (chunks filtered, leaves, leaves kept)
    "sweep-k222": (lambda: sc.lambda_choosable(
        complete_multipartite((2, 2, 2)), sc.near_unit_partition(3),
        method="exhaustive"), (17, 5_618_352, 0)),
    "choice-k24": (lambda: sc.choice_number(complete_multipartite((2, 4))),
                   (1, 6_467, 5)),
    # choice-k24 no longer streams k = 3 (an Alon-Tarsi certificate decides
    # it); this keeps a pin on the large uncapped k-list stream it swept.
    "k-choosable-k24": (lambda: sc.k_choosable(complete_multipartite((2, 4)),
                                               3),
                        (11, 2_073_089, 0)),
    "refusals-hj": (lambda: [sc.hoffman_johnson_enumerate(*mn)
                             for mn in ((2, 5), (3, 4), (2, 6))],
                    (8, 373_555, 1_453)),
    "search-strict": (lambda: [
        sc.decide_strict_search(complete_multipartite(s), 3)
        for s in strict_profiles()], (8, 4_114, 4_114)),
}


class TestFilterPins:
    """How many leaves the prefix filter keeps on the streams of the
    benchmark's four decisions; these leaves are all the mask sees."""

    @pytest.mark.parametrize("name", sorted(FILTER_PINS))
    def test_kept_leaves(self, name, monkeypatch):
        decide, want = FILTER_PINS[name]
        seen = []
        inner = bulk.leaf_candidates

        def spy(chunk, n, edges):
            kept = inner(chunk, n, edges)
            seen.append((chunk.leaves, kept.size))
            return kept

        monkeypatch.setattr(bulk, "leaf_candidates", spy)
        decide()
        assert (len(seen), sum(a for a, _ in seen),
                sum(b for _, b in seen)) == want

"""Graph module tests backed by brute-force oracles."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import embedding_oracle, find_subgraph, part_of
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import (
    Graph,
    chromatic_number,
    complete_multipartite,
    contains_parts,
    find_coloring,
    is_proper,
)
from strictcolor.listcolor import k_choosable


# ---------------------------------------------------------------- oracles

def chromatic_oracle(g: Graph) -> int:
    """Smallest k admitting a proper coloring, by trying every coloring."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for coloring in product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in g.edges):
                return k
    raise AssertionError("unreachable")


def contains_parts_oracle(host: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """Try every injective assignment of pattern parts to host parts."""
    if len(pattern) > len(host):
        return False
    for target in permutations(range(len(host)), len(pattern)):
        if all(p <= host[t] for p, t in zip(pattern, target)):
            return True
    return False


def graphs_on(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))


# ---------------------------------------------------------------- Graph basics

class TestGraph:
    def test_edge_normalization(self):
        g = Graph(3, ((2, 0), (0, 2), (1, 2)))
        assert g.edges == ((0, 2), (1, 2))
        assert g.adj == (0b100, 0b100, 0b011)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))
        with pytest.raises(ValueError):
            Graph(-1, ())

    def test_neighbors_and_degree(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3 and g.degree(1) == 1

    def test_induced_relabels(self):
        g = Graph(5, ((0, 2), (2, 4), (1, 3)))
        h = g.induced([0, 2, 4])
        assert h.n == 3 and h.edges == ((0, 1), (1, 2))


# ---------------------------------------------------------------- multipartite

class TestParts:
    """Parts are accepted only as the edges' complete multipartite shape."""

    @pytest.mark.parametrize("g", [
        lambda: Graph(6, complete_multipartite([2, 4]).edges,
                      parts=((0, 1, 2, 3, 4, 5),)),
        lambda: Graph(10, tuple(combinations(range(10), 2)),
                      parts=((0, 1), (2, 3, 4, 5), (6, 7, 8, 9))),
        lambda: Graph(3, ((0, 1), (0, 2), (1, 2)), parts=((0, 1), (2,))),
        lambda: Graph(4, ((0, 2), (0, 3), (1, 2)), parts=((0, 1), (2, 3))),
        lambda: Graph(2, ((0, 1),), parts=((0,), (1,), ())),
    ], ids=["one-part-k24", "k10-as-k244", "triangle-as-k21",
            "missing-cross-edge", "empty-part"])
    def test_false_parts_refused(self, g):
        with pytest.raises(ValueError, match="parts must"):
            g()

    def test_true_parts_accepted_in_any_order(self):
        g = complete_multipartite([1, 2, 3])
        shuffled = Graph(g.n, g.edges, parts=((3, 5, 4), (0,), (2, 1)))
        assert shuffled.parts == ((3, 5, 4), (0,), (2, 1))
        assert Graph(0, (), parts=()).parts == ()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.sampled_from(list(combinations(range(n), 2)) or [(0, 1)])),
        st.sets(st.integers(1, max(n - 1, 1))))))
    def test_random_parts_refused_or_same_verdicts(self, case):
        n, edges, cuts = case
        edges = tuple(e for e in edges if e[1] < n)
        ends = [0] + sorted(c for c in cuts if c < n) + [n]
        parts = tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
        plain = Graph(n, edges)
        try:
            g = Graph(n, edges, parts=parts if n else ())
        except ValueError:
            return
        assert chromatic_number(g) == chromatic_number(plain)
        assert (find_coloring(g, chromatic_number(g)) is not None
                and is_proper(g, find_coloring(g, chromatic_number(g))))
        assert k_choosable(g, 2).choosable == k_choosable(plain, 2).choosable


class TestCompleteMultipartite:
    def test_small_instance(self):
        g = complete_multipartite([2, 1])
        # sizes are sorted ascending, so part 0 is the singleton
        assert g.parts == ((0,), (1, 2))
        assert g.edges == ((0, 1), (0, 2))

    def test_sizes_sorted(self):
        g = complete_multipartite([4, 2, 3])
        assert tuple(len(p) for p in g.parts) == (2, 3, 4)

    def test_edge_count(self):
        g = complete_multipartite([2, 4, 6])
        assert len(g.edges) == 2 * 4 + 2 * 6 + 4 * 6

    def test_part_of(self):
        g = complete_multipartite([1, 2])
        assert [part_of(g, v) for v in range(3)] == [0, 1, 1]
        with pytest.raises(ValueError):
            part_of(Graph(2, ()), 0)

    def test_bounds(self):
        with pytest.raises(BoundExceeded):
            complete_multipartite([33, 33])
        with pytest.raises(ValueError):
            complete_multipartite([])
        with pytest.raises(ValueError):
            complete_multipartite([0, 2])


# ---------------------------------------------------------------- is_proper

class TestIsProper:
    def test_accepts_and_rejects(self):
        g = complete_multipartite([1, 2])
        assert is_proper(g, {0: 0, 1: 1, 2: 1})
        assert is_proper(g, [5, 3, 7])
        assert not is_proper(g, [1, 1, 2])

    def test_partial_is_an_error(self):
        g = complete_multipartite([1, 2])
        with pytest.raises(ValueError):
            is_proper(g, {0: 0, 1: 1})
        with pytest.raises(ValueError):
            is_proper(g, [0, 1])
        with pytest.raises(ValueError):
            is_proper(g, {0: 0, 1: 1, 2: None})


# ---------------------------------------------------------------- chromatic

class TestChromaticNumber:
    def test_exhaustive_up_to_4(self):
        for g in graphs_on(4):
            assert chromatic_number(g) == chromatic_oracle(g)

    def test_sampled_5_and_6(self):
        rng = random.Random(7)
        for n in (5, 6):
            pairs = list(combinations(range(n), 2))
            for _ in range(40):
                edges = tuple(e for e in pairs if rng.random() < 0.5)
                g = Graph(n, edges)
                assert chromatic_number(g) == chromatic_oracle(g)

    def test_multipartite_shortcut_matches_generic(self):
        sizes_grid = [(1,), (3,), (1, 1), (2, 3), (1, 1, 1), (1, 2, 3),
                      (2, 2, 2), (3, 3, 3), (1, 1, 2, 2), (2, 2, 2, 2)]
        for sizes in sizes_grid:
            k_graph = complete_multipartite(sizes)
            bare = Graph(k_graph.n, k_graph.edges)  # drop the parts metadata
            assert chromatic_number(k_graph) == len(sizes)
            assert chromatic_number(bare) == len(sizes)

    def test_empty_graph(self):
        assert chromatic_number(Graph(0, ())) == 0

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            chromatic_number(Graph(17, ()))


# ---------------------------------------------------------------- containment

class TestContainsParts:
    def test_matches_injective_oracle(self):
        tuples = [t for m in range(1, 5)
                  for t in product(range(1, 5), repeat=m) if sorted(t) == list(t)]
        for host in tuples:
            for pattern in tuples:
                assert contains_parts(host, pattern) == \
                    contains_parts_oracle(host, pattern), (host, pattern)

    def test_theorem_shapes(self):
        assert contains_parts((3, 3, 3), (3, 3, 3))
        assert contains_parts((3, 4, 7), (3, 3, 3))
        assert not contains_parts((2, 4, 4), (3, 3, 3))
        assert contains_parts((2, 5, 5), (2, 5, 5))
        assert not contains_parts((2, 4, 5), (2, 5, 5))
        assert contains_parts((2, 4, 6, 6), (2, 4, 6, 6))
        assert not contains_parts((2, 4, 5, 9), (2, 4, 6, 6))

    def test_agrees_with_subgraph_search_for_equal_part_counts(self):
        # With the same number of parts on both sides, a plain subgraph
        # embedding cannot split a pattern part across host parts, so the
        # two notions coincide.
        small = [t for m in (2, 3) for t in product(range(1, 4), repeat=m)
                 if sorted(t) == list(t) and sum(t) <= 8]
        for host_sizes in small:
            for pattern_sizes in small:
                if len(host_sizes) != len(pattern_sizes):
                    continue
                host = complete_multipartite(host_sizes)
                pattern = complete_multipartite(pattern_sizes)
                embedded = find_subgraph(host, pattern) is not None
                assert embedded == contains_parts(host_sizes, pattern_sizes), \
                    (host_sizes, pattern_sizes)


class TestFindSubgraph:
    def test_embedding_is_checked_valid(self):
        host = complete_multipartite([2, 4, 4])
        pattern = complete_multipartite([2, 3, 4])
        image = find_subgraph(host, pattern)
        assert image is not None
        assert len(set(image.values())) == pattern.n
        for u, v in pattern.edges:
            assert host.has_edge(image[u], image[v])

    def test_triangle_in_bipartite_fails(self):
        host = complete_multipartite([3, 3])
        triangle = complete_multipartite([1, 1, 1])
        assert find_subgraph(host, triangle) is None

    def test_part_splitting_embedding_exists(self):
        # K_{1,2} sits inside the triangle once its 2-part splits over two
        # host parts; this is exactly the case part fitting does not cover.
        host = complete_multipartite([1, 1, 1])
        pattern = complete_multipartite([1, 2])
        assert find_subgraph(host, pattern) is not None
        assert not contains_parts((1, 1, 1), (1, 2))

    def test_too_large_pattern(self):
        assert find_subgraph(Graph(2, ()), Graph(3, ())) is None


class TestEmbeddingOracle:
    def test_matches_contains_parts_on_equal_part_counts(self):
        small = [t for m in (2, 3) for t in product(range(1, 4), repeat=m)
                 if sorted(t) == list(t) and sum(t) <= 7]
        for host_sizes in small:
            for pattern_sizes in small:
                if len(host_sizes) != len(pattern_sizes):
                    continue
                assert embedding_oracle(host_sizes, pattern_sizes) == \
                    contains_parts(host_sizes, pattern_sizes)

    def test_part_splitting_diverges(self):
        # Unequal part counts: the embedding finds homes the part fitting
        # refuses, which is why the equality above needs the restriction.
        assert embedding_oracle((1, 1, 1), (1, 2))
        assert not contains_parts((1, 1, 1), (1, 2))

    def test_bounds(self):
        with pytest.raises(BoundExceeded):
            embedding_oracle((8, 9), (7, 7))
        with pytest.raises(BoundExceeded):
            embedding_oracle((9, 9), (2, 4))


class TestFindColoring:
    def test_against_chromatic_number(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randrange(1, 7)
            g = Graph(n, tuple(e for e in combinations(range(n), 2)
                               if rng.random() < 0.5))
            chi = chromatic_number(g)
            assert find_coloring(g, chi - 1) is None
            got = find_coloring(g, chi)
            assert got is not None
            assert is_proper(g, got)
            assert all(0 <= c < chi for c in got)

    def test_multipartite_route(self):
        g = complete_multipartite([2, 3, 3])
        assert find_coloring(g, 2) is None
        got = find_coloring(g, 3)
        assert got is not None and is_proper(g, got)

    def test_empty_and_errors(self):
        assert find_coloring(Graph(0, ()), 0) == ()
        with pytest.raises(ValueError):
            find_coloring(Graph(1, ()), -1)

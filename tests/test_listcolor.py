"""Solver and choosability tests.

l_color is checked against a try-every-choice oracle and against the
ownership-based multipartite solver; choosability results are checked
against classical small cases and the structural 2-choosability test.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    eulerian_difference_oracle,
    graph_polynomial_oracle,
    l_color_oracle,
    two_choosable_oracle,
)
from strictcolor import bulk, limits
from strictcolor.errors import BoundExceeded, Undetermined
from strictcolor.graphs import Graph, complete_multipartite, is_proper
from strictcolor.lambdacolor import lambda_choosable
from strictcolor.listcolor import (
    AlonTarsiWitness,
    _exponent_vectors,
    _graph_coefficient,
    alon_tarsi,
    check_alon_tarsi_witness,
    choice_number,
    k_choosable,
    l_color,
    l_color_multipartite,
    two_choosable_fast,
)
from strictcolor.partitions import IntegerPartition
from strictcolor.strict import hoffman_johnson_enumerate


def colorable_oracle(g, lists):
    for choice in product(*lists):
        if all(choice[u] != choice[v] for u, v in g.edges):
            return True
    return False


def cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


HJ_K24_LISTS = ((1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4))


# ---------------------------------------------------------------- l_color

@st.composite
def coloring_cases(draw):
    """(graph, lists): up to 9 vertices, random edges, lists of 0 to 4
    colors out of 6."""
    n = draw(st.integers(0, 9))
    pairs = list(combinations(range(n), 2))
    density = draw(st.sampled_from((0.2, 0.5, 0.9)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g = Graph(n, tuple(e for e in pairs if rng.random() < density))
    lists = [tuple(rng.sample(range(6), rng.choice((0, 1, 2, 2, 3, 3, 4))))
             for _ in range(n)]
    return g, lists


class TestLColor:
    def test_trivial_cases(self):
        g = Graph(1, ())
        out = l_color(g, [(7,)])
        assert out.colorable and out.coloring == (7,)
        empty = l_color(Graph(0, ()), [])
        assert empty.colorable and empty.coloring == ()

    def test_empty_list_uncolorable(self):
        out = l_color(Graph(2, ((0, 1),)), [(1,), ()])
        assert not out.colorable and out.coloring is None

    def test_hoffman_johnson_instance(self):
        g = complete_multipartite([2, 4])
        out = l_color(g, HJ_K24_LISTS)
        assert not out.colorable
        assert out.nodes_searched > 0

    def test_matches_oracle_random(self):
        rng = random.Random(23)
        for _ in range(400):
            n = rng.randrange(1, 6)
            pairs = list(combinations(range(n), 2))
            g = Graph(n, tuple(e for e in pairs if rng.random() < 0.5))
            lists = [tuple(rng.sample(range(4), rng.randrange(1, 4)))
                     for _ in range(n)]
            out = l_color(g, lists)
            assert out.colorable == colorable_oracle(g, lists)
            if out.colorable:
                assert is_proper(g, list(out.coloring))
                assert all(out.coloring[v] in lists[v] for v in range(n))

    @settings(max_examples=300, deadline=None)
    @given(coloring_cases())
    @example((Graph(0, ()), []))
    @example((complete_multipartite([2, 4]), list(HJ_K24_LISTS)))
    def test_matches_recursive_search(self, case):
        # The same branching order as the recursive search: the same
        # coloring and node count, which the CLI prints.
        g, lists = case
        assert l_color(g, lists) == l_color_oracle(g, lists)

    def test_long_path_passes_the_recursion_limit(self):
        n = 1024
        g = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        out = l_color(g, [(1, 2)] * n)
        assert out.colorable and is_proper(g, list(out.coloring))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            l_color(Graph(2, ()), [(1,)])
        with pytest.raises(ValueError):
            l_color(Graph(1, ()), [("red",)])


class TestMultipartiteSolver:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            l_color_multipartite((2, 0), [(1,), (2,)])

    def test_hoffman_johnson_instance(self):
        assert not l_color_multipartite((2, 4), HJ_K24_LISTS).colorable

    def test_agrees_with_l_color(self):
        rng = random.Random(31)
        shapes = [(1, 2), (2, 2), (2, 3), (1, 2, 2), (2, 2, 2), (1, 1, 3)]
        for _ in range(300):
            sizes = rng.choice(shapes)
            g = complete_multipartite(sizes)
            lists = [tuple(rng.sample(range(5), rng.randrange(1, 4)))
                     for _ in range(g.n)]
            a = l_color(g, lists)
            b = l_color_multipartite(sizes, lists)
            assert a.colorable == b.colorable
            if b.colorable:
                assert is_proper(g, list(b.coloring))
                assert all(b.coloring[v] in lists[v] for v in range(g.n))


# ---------------------------------------------------------------- k_choosable

class TestKChoosable:
    def test_classical_small_cases(self):
        assert k_choosable(Graph(2, ((0, 1),)), 2).choosable
        assert k_choosable(cycle(4), 2).choosable
        assert k_choosable(cycle(6), 2).choosable
        assert not k_choosable(cycle(3), 2).choosable
        assert not k_choosable(cycle(5), 2).choosable
        assert k_choosable(cycle(5), 3).choosable
        assert k_choosable(complete_multipartite([2, 3]), 2).choosable
        assert not k_choosable(complete_multipartite([2, 4]), 2).choosable
        assert not k_choosable(complete_multipartite([1, 1, 1, 1]), 3).choosable
        assert k_choosable(complete_multipartite([1, 1, 1, 1]), 4).choosable

    def test_bad_lists_are_a_real_witness(self):
        g = complete_multipartite([2, 4])
        v = k_choosable(g, 2)
        assert not v.choosable
        assert all(len(lst) == 2 for lst in v.bad_lists)
        assert not colorable_oracle(g, v.bad_lists)
        assert v.solver_nodes > 0
        assert 0 < v.classes_checked

    def test_monotone_in_k(self):
        for g in [cycle(5), complete_multipartite([1, 1, 1]),
                  complete_multipartite([2, 4])]:
            prev = False
            for k in range(1, 4):
                cur = k_choosable(g, k).choosable
                assert cur or not prev
                prev = cur

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            k_choosable(complete_multipartite([5, 5]), 3)



def refuse_every_row(chunk, n, edges, parts=None, palette=None):
    return np.zeros(chunk.shape[0], dtype=bool)


def keep_every_leaf(chunk, n, edges):
    return np.arange(chunk.leaves)


@pytest.mark.parametrize("decide", [
    lambda: k_choosable(complete_multipartite([2, 2]), 2),
    lambda: lambda_choosable(complete_multipartite([1, 1, 1]),
                             IntegerPartition((1, 2)), method="exhaustive"),
    lambda: lambda_choosable(complete_multipartite([3, 3, 3]),
                             IntegerPartition((1, 2))),
    lambda: hoffman_johnson_enumerate(2, 2),
], ids=["k-choosable", "lambda-exhaustive", "lambda-prospect",
        "hoffman-johnson"])
def test_bulk_solver_disagreement_raises(monkeypatch, decide):
    # A mask that refuses colorable rows must stop every decision loop
    # before it reports a verdict.  The prefix filter keeps every leaf,
    # so no loop can settle a leaf before the mask refuses it.
    monkeypatch.setattr(bulk, "leaf_candidates", keep_every_leaf)
    monkeypatch.setattr(bulk, "colorable_mask", refuse_every_row)
    with pytest.raises(RuntimeError, match="bulk filter and solver disagree"):
        decide()


class TestChoiceNumber:
    def test_known_values(self):
        assert choice_number(Graph(0, ())) == 0
        assert choice_number(Graph(3, ())) == 1
        assert choice_number(cycle(4)) == 2
        assert choice_number(cycle(5)) == 3
        assert choice_number(complete_multipartite([2, 4])) == 3
        assert choice_number(complete_multipartite([3, 3])) == 3
        assert choice_number(complete_multipartite([1, 1, 1, 1])) == 4

    def test_undetermined_when_capped(self, monkeypatch):
        monkeypatch.setattr(limits, "KLISTS_BOUND", 8)
        out = choice_number(cycle(5))
        assert isinstance(out, Undetermined)
        assert out.lower_bound == 2
        with pytest.raises(TypeError):
            bool(out)

    def test_edgeless_is_one_and_an_edge_starts_at_two(self):
        # 25 vertices are past KLISTS_BOUND even at k = 1; the empty
        # monomial's coefficient 1 certifies 1-choosability instead.
        assert choice_number(Graph(25, ())) == 1
        out = choice_number(complete_multipartite([13, 13]))
        assert isinstance(out, Undetermined)
        assert out.lower_bound == 2
        assert out.reason.endswith("got 52; not (1)-choosable")
        assert "(0)-choosable" not in out.reason

    def test_alon_tarsi_decides_the_top(self):
        # Erdos-Rubin-Taylor: ch(K_{2*k}) = k; K(4,4) and K(2,2,2) are
        # not 2-choosable.  The stream alone cannot reach k = 4 on
        # K(2,2,2,2) (32 colors per row, over KLISTS_BOUND).
        t0 = time.perf_counter()
        assert choice_number(complete_multipartite([2, 2, 2, 2])) == 4
        assert time.perf_counter() - t0 <= 0.2
        assert choice_number(complete_multipartite([4, 4])) == 3
        assert choice_number(complete_multipartite([2, 2, 2])) == 3

    def test_k333_stays_undetermined(self):
        # ch(K(3,3,3)) = 4 (Kierstead), but the one vector at k = 4,
        # (3, ..., 3), has coefficient 0, and k = 3 has no vector at all
        # (|E| = 27 > 2 * 9), so only the stream's stop is named.
        out = choice_number(complete_multipartite([3, 3, 3]))
        assert isinstance(out, Undetermined)
        assert out.lower_bound == 3
        assert out.reason == (
            "KLISTS_BOUND: the total colors per row of a k-choosability "
            "check is bounded at 24, got 27; not (2)-choosable")

    def test_names_both_stops_in_order(self, monkeypatch):
        monkeypatch.setattr(limits, "AT_VECTORS", 0)
        monkeypatch.setattr(limits, "KLISTS_BOUND", 8)
        out = choice_number(cycle(5))
        assert isinstance(out, Undetermined)
        assert out.lower_bound == 2
        assert [stop.split(":")[0] for stop in out.reason.split("; ")] == [
            "AT_VECTORS", "KLISTS_BOUND", "not (1)-choosable"]


# ---------------------------------------------------------------- Alon-Tarsi

@st.composite
def small_graphs(draw, max_n=6, max_edges=10):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    edges = (draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=max_edges)) if pairs else [])
    return Graph(n, tuple(edges))


@st.composite
def oriented_graphs(draw):
    """A small graph and the out-degrees of one of its orientations."""
    g = draw(small_graphs(max_edges=9))
    t = [0] * g.n
    for u, v in g.edges:
        t[v if draw(st.booleans()) else u] += 1
    return g, tuple(t)


@st.composite
def guard_cases(draw):
    """(graph, k) with n*k <= 18: a complete multipartite host with its
    parts, or random edges on at most 5 vertices and no parts."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)
                     .filter(lambda s: sum(s) * k <= 18))
        return complete_multipartite(sizes), k
    return draw(small_graphs(max_n=min(5, 18 // k))), k


class TestAlonTarsi:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(1, 4))
    @example(cycle(5), 3)
    @example(complete_multipartite([2, 3]), 2)
    @example(complete_multipartite([1, 1, 1, 1]), 3)
    @example(Graph(3, ()), 1)
    def test_coefficients_match_the_expansion(self, g, k):
        poly = graph_polynomial_oracle(g)
        fits = [t for t in product(range(k), repeat=g.n)
                if sum(t) == len(g.edges)]
        for t in fits:
            assert _graph_coefficient(g, t) == poly.get(t, 0)
        # The vectors tried fit, are distinct, are counted exactly, and
        # hold every monomial with a non-zero coefficient; the witness is
        # the first of them with one.
        total, vectors = _exponent_vectors(g, k)
        tried = list(islice(vectors, total))
        assert len(set(tried)) == total
        assert {t for t in fits if t in poly} <= set(tried) <= set(fits)
        w = alon_tarsi(g, k)
        if w is None:
            assert not any(t in poly for t in fits)
        else:
            assert w == AlonTarsiWitness(next(t for t in tried if t in poly),
                                         poly[w.exponents])
            assert check_alon_tarsi_witness(g, k, w)

    @settings(max_examples=60, deadline=None)
    @given(oriented_graphs())
    @example((cycle(5), (1, 1, 1, 1, 1)))
    @example((cycle(4), (1, 1, 1, 1)))
    def test_coefficients_match_eulerian_subgraphs(self, case):
        g, t = case
        assert abs(_graph_coefficient(g, t)) == eulerian_difference_oracle(
            g, t)

    @settings(max_examples=40, deadline=None)
    @given(guard_cases())
    @example((complete_multipartite([2, 4]), 3))
    @example((complete_multipartite([2, 2, 2, 2]), 3))  # n*k = 24
    @example((complete_multipartite([1] * 6), 4))  # n*k = 24
    def test_never_certifies_a_refused_host(self, case):
        # Exhaustive streams of choosable hosts at n*k = 21..24 take from
        # seconds to minutes, so the draws stop at 18; the n*k = 24
        # examples are hosts the stream refuses.
        g, k = case
        w = alon_tarsi(g, k)
        assert w is None or k_choosable(g, k).choosable

    def test_exported(self):
        import strictcolor
        for name in ("AlonTarsiWitness", "alon_tarsi",
                     "check_alon_tarsi_witness"):
            assert name in strictcolor.__all__
            assert getattr(strictcolor, name) is globals()[name]

    def test_edgeless_and_tree_certificates(self):
        assert alon_tarsi(Graph(4, ()), 1) == AlonTarsiWitness((0,) * 4, 1)
        assert alon_tarsi(Graph(0, ()), 1) == AlonTarsiWitness((), 1)
        assert alon_tarsi(Graph(2, ((0, 1),)), 1) is None
        w = alon_tarsi(Graph(4, ((0, 1), (1, 2), (1, 3))), 2)
        assert abs(w.coefficient) == 1

    def test_degenerate_graphs_certify_on_the_first_vector(self):
        # Smallest-last order makes the first vector an acyclic
        # orientation's out-degrees when k - 1 reaches the degeneracy.
        for g, k in [(cycle(9), 3), (complete_multipartite([1, 1, 6]), 3),
                     (complete_multipartite([2, 4]), 5),
                     (complete_multipartite([1, 1, 1, 1]), 4)]:
            _, vectors = _exponent_vectors(g, k)
            first = next(vectors)
            assert alon_tarsi(g, k) == AlonTarsiWitness(
                first, _graph_coefficient(g, first))
            assert abs(alon_tarsi(g, k).coefficient) == 1

    def test_checker_refuses_bad_witnesses(self):
        g = complete_multipartite([2, 4])
        w = alon_tarsi(g, 3)
        assert check_alon_tarsi_witness(g, 3, w)
        t, c = w.exponents, w.coefficient
        assert not check_alon_tarsi_witness(g, 2, w)  # an entry over k-1
        for bad in [AlonTarsiWitness(t, c + 1), AlonTarsiWitness(t, 0),
                    AlonTarsiWitness(t[:-1], c),
                    AlonTarsiWitness(t[:-1] + (t[-1] + 1,), c),
                    AlonTarsiWitness(tuple(map(float, t)), c),
                    AlonTarsiWitness((True,) + t[1:], c)]:
            assert not check_alon_tarsi_witness(g, 3, bad)
        # K4 is not 3-choosable, so every coefficient at k = 3 is 0.
        k4 = complete_multipartite([1, 1, 1, 1])
        assert not check_alon_tarsi_witness(
            k4, 3, AlonTarsiWitness((2, 2, 1, 1), 1))

    def test_limits(self, monkeypatch):
        with pytest.raises(ValueError):
            alon_tarsi(cycle(4), 0)
        with pytest.raises(BoundExceeded, match="CHOICE_CAP: the points of "
                           "an Alon-Tarsi coefficient grid is bounded at "
                           "2000000, got 9765625"):
            alon_tarsi(complete_multipartite([2] * 5), 5)
        monkeypatch.setattr(limits, "AT_VECTORS", 3)
        total, _ = _exponent_vectors(complete_multipartite([1] * 4), 3)
        with pytest.raises(BoundExceeded, match=f"AT_VECTORS: .* bounded at "
                           f"3, got {total}"):
            alon_tarsi(complete_multipartite([1] * 4), 3)
        assert alon_tarsi(cycle(9), 3) is not None  # the first vector


# ---------------------------------------------------------------- structural

def theta(*lengths):
    """Hubs 0 and 1 joined by paths of the given lengths."""
    edges, n = [], 2
    for length in lengths:
        walk = [0, *range(n, n + length - 1), 1]
        n += length - 1
        edges += zip(walk, walk[1:])
    return Graph(n, tuple(edges))


def union(*graphs):
    """Disjoint union, each graph's vertices shifted past the ones before."""
    edges, n = [], 0
    for h in graphs:
        edges += ((u + n, v + n) for u, v in h.edges)
        n += h.n
    return Graph(n, tuple(edges))


# C_4 (vertices 0..3) and C_6 (4..9) joined by the path 0-10-11-4.
HANDCUFF = Graph(12, union(cycle(4), cycle(6)).edges
                 + ((0, 10), (10, 11), (11, 4)))

# (graph, 2-choosable): past the exhaustive checks' few vertices.
FAMILIES = {
    "C63": (cycle(63), False),
    "C64": (cycle(64), True),
    "theta-2-2-40": (theta(2, 2, 40), True),
    "theta-2-2-41": (theta(2, 2, 41), False),
    "theta-1-2-2": (theta(1, 2, 2), False),
    "even-cycles-on-a-path": (HANDCUFF, False),
    "C64+theta-2-2-40": (union(cycle(64), theta(2, 2, 40)), True),
    "C64+theta-2-2-40+C63": (
        union(cycle(64), theta(2, 2, 40), cycle(63)), False),
    "theta-2-2-40+theta-2-2-41": (
        union(theta(2, 2, 40), theta(2, 2, 41)), False),
    "theta-1-2-2+C64": (union(theta(1, 2, 2), cycle(64)), False),
    "C64+even-cycles-on-a-path": (union(cycle(64), HANDCUFF), False),
}


@st.composite
def core_graphs(draw):
    """Up to 14 vertices: hub pairs joined by one to three paths (paths,
    cycles, thetas), pendant vertices and a few extra edges, relabelled;
    or random edges."""
    if draw(st.booleans()):
        return draw(small_graphs(max_n=14, max_edges=20))
    edges, n = [], 0
    for lengths in draw(st.lists(st.lists(st.integers(1, 6), min_size=1,
                                          max_size=3), max_size=4)):
        if n + 2 + sum(lengths) - len(lengths) > 14:
            break
        piece = theta(*lengths)
        edges += ((u + n, v + n) for u, v in piece.edges)
        n += piece.n
    for _ in range(draw(st.integers(0, 3))):
        if 0 < n < 14:
            edges.append((draw(st.integers(0, n - 1)), n))
            n += 1
    if n > 1:
        pairs = list(combinations(range(n), 2))
        edges += draw(st.lists(st.sampled_from(pairs), max_size=2))
    order = draw(st.permutations(range(n)))
    return Graph(n, tuple((order[u], order[v]) for u, v in edges))


class TestTwoChoosable:
    def test_family_members(self):
        assert two_choosable_fast(Graph(0, ()))
        assert two_choosable_fast(Graph(3, ()))                 # no core
        assert two_choosable_fast(Graph(4, ((0, 1), (1, 2), (2, 3))))  # path
        assert two_choosable_fast(cycle(4))
        assert two_choosable_fast(cycle(6))
        assert two_choosable_fast(complete_multipartite([2, 3]))  # theta 2,2,2
        assert not two_choosable_fast(cycle(5))
        assert not two_choosable_fast(cycle(3))
        assert not two_choosable_fast(complete_multipartite([2, 4]))
        assert not two_choosable_fast(complete_multipartite([1, 1, 1, 1]))

    def test_theta_shapes(self):
        # Two hubs joined by paths of lengths 2, 2, 4: 2-choosable.
        theta224 = Graph(7, ((0, 2), (2, 1), (0, 3), (3, 1),
                             (0, 4), (4, 5), (5, 6), (6, 1)))
        assert two_choosable_fast(theta224)
        # Lengths 2, 2, 3 are not in the family.
        theta223 = Graph(6, ((0, 2), (2, 1), (0, 3), (3, 1),
                             (0, 4), (4, 5), (5, 1)))
        assert not two_choosable_fast(theta223)
        # Lengths 1, 2, 2 (a diamond) are not either.
        diamond = Graph(4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))
        assert not two_choosable_fast(diamond)

    def test_matches_exhaustive_on_all_graphs_up_to_4(self):
        pairs = list(combinations(range(4), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(4, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))
            assert two_choosable_fast(g) == k_choosable(g, 2).choosable

    def test_matches_exhaustive_on_random_5_vertex_graphs(self):
        rng = random.Random(47)
        pairs = list(combinations(range(5), 2))
        for _ in range(60):
            g = Graph(5, tuple(e for e in pairs if rng.random() < 0.5))
            assert two_choosable_fast(g) == k_choosable(g, 2).choosable

    def test_disconnected_mix(self):
        # Even cycle plus a path: fine.  Add a triangle: broken.
        g1 = Graph(7, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)))
        assert two_choosable_fast(g1)
        g2 = Graph(10, g1.edges + ((7, 8), (8, 9), (9, 7)))
        assert not two_choosable_fast(g2)

    @settings(max_examples=300, deadline=None)
    @given(core_graphs())
    def test_matches_the_oracle(self, g):
        assert two_choosable_fast(g) == two_choosable_oracle(g)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_families_build_no_graph(self, monkeypatch, name):
        # The classification reads g.adj: no induced subgraph, no Graph.
        g, expected = FAMILIES[name]
        assert two_choosable_oracle(g) == expected
        built = []

        def counted(method):
            def wrapper(self, *args):
                built.append(method.__name__)
                return method(self, *args)
            return wrapper

        for method in ("induced", "__post_init__"):
            monkeypatch.setattr(Graph, method, counted(getattr(Graph, method)))
        assert two_choosable_fast(g) == expected
        assert built == []

"""Solver and choosability tests.

l_color is checked against a try-every-choice oracle and against the
ownership-based multipartite solver; choosability results are checked
against classical small cases and the structural 2-choosability test.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest

from strictcolor import bulk, limits
from strictcolor.errors import BoundExceeded, Undetermined
from strictcolor.graphs import Graph, complete_multipartite, is_proper
from strictcolor.lambdacolor import lambda_choosable
from strictcolor.listcolor import (
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



def refuse_every_row(chunk, n, edges):
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


# ---------------------------------------------------------------- structural

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

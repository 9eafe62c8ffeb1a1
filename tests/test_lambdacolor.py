"""Grouped-assignment tests: validator, coarsening, enumeration, verdicts."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import partitionable_oracle
from strictcolor import lambdacolor, limits
from strictcolor.errors import BoundExceeded, Undetermined
from strictcolor.graphs import Graph, chromatic_number, complete_multipartite, is_proper
from strictcolor.lambdacolor import (
    BadAssignmentWitness,
    LambdaAssignment,
    PartitionabilityWitness,
    _certify_block,
    _prospect_bad_row,
    check_bad_witness,
    check_partitionability_witness,
    coarsen_grouping,
    color_via_partition,
    descending_parts,
    enumerate_lambda_assignments,
    lambda_choosable,
    lambda_partitionable,
    random_lambda_assignment,
    validate_lambda,
)
from strictcolor.listcolor import l_color
from strictcolor.partitions import (
    GroupingWitness,
    IntegerPartition,
    enumerate_partitions,
    near_unit_partition,
    unit_partition,
)

P = IntegerPartition

# The K_{3,3,3} table for k=3: parts of three vertices each, every part
# carrying {0,1,3}, {0,2,3}, {1,2,3}, grouped as {0,1,2} twice-met and {3}
# once-met.  Written out literally so validator tests do not depend on the
# constructor module.
K333_LISTS = tuple(
    lst for _ in range(3) for lst in ((0, 1, 3), (0, 2, 3), (1, 2, 3)))
K333_ASSIGNMENT = LambdaAssignment(
    P((1, 2)), K333_LISTS,
    (frozenset({0, 1, 2}), frozenset({3})), sizes=(3, 3, 3))


def graphs_on(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, tuple(e for i, e in enumerate(pairs) if mask >> i & 1))


class TestValidate:
    def test_k333_table_validates(self):
        report = validate_lambda(K333_ASSIGNMENT)
        assert report.ok and not report.violations
        assert bool(report)

    def test_misaligned_grouping_reports_each_violation(self):
        bad = LambdaAssignment(
            P((1, 2)), K333_LISTS,
            (frozenset({0, 1}), frozenset({2, 3})), sizes=(3, 3, 3))
        report = validate_lambda(bad)
        assert not report.ok
        # list {1,2,3} meets {0,1} once but needs 2; three such vertices,
        # and every vertex is off against at least one group.
        assert any("vertex 2 group 0" in v for v in report.violations)
        assert len(report.violations) >= 9

    def test_single_vertex(self):
        a = LambdaAssignment(P((1,)), ((1,),), ({1},))
        assert validate_lambda(a).ok

    def test_structural_violations(self):
        overlap = LambdaAssignment(P((1, 1)), ((1, 2),), ({1, 2}, {2, 3}))
        assert any("share" in v for v in validate_lambda(overlap).violations)
        empty = LambdaAssignment(P((1, 1)), ((1, 2),), ({1, 2}, set()))
        assert any("empty" in v for v in validate_lambda(empty).violations)
        stray = LambdaAssignment(P((1, 1)), ((1, 9),), ({1}, {2}))
        assert any("no group" in v for v in validate_lambda(stray).violations)
        short = LambdaAssignment(P((1, 2)), ((1, 4),), ({1, 2, 3}, {4}))
        assert any("need 3" in v for v in validate_lambda(short).violations)
        sized = LambdaAssignment(P((1,)), ((1,), (1,)), ({1},), sizes=(3,))
        assert any("sum to" in v for v in validate_lambda(sized).violations)


class TestCoarsen:
    def test_merge_to_single_group(self):
        out = coarsen_grouping(K333_ASSIGNMENT, P((3,)),
                               GroupingWitness((0, 0)))
        assert out.lam == P((3,))
        assert out.groups == (frozenset({0, 1, 2, 3}),)
        assert validate_lambda(out).ok
        assert out.lists == K333_ASSIGNMENT.lists

    def test_identity_witness(self):
        out = coarsen_grouping(K333_ASSIGNMENT, P((1, 2)),
                               GroupingWitness((0, 1)))
        assert out == K333_ASSIGNMENT

    def test_three_part_merge(self):
        a = random_lambda_assignment(4, P((1, 1, 2)), seed=3)
        out = coarsen_grouping(a, P((2, 2)), GroupingWitness((0, 0, 1)))
        assert validate_lambda(out).ok
        assert out.lam == P((2, 2))

    def test_bad_witness_rejected(self):
        with pytest.raises(ValueError):
            coarsen_grouping(K333_ASSIGNMENT, P((3,)), GroupingWitness((0, 1)))

    def test_500_random_coarsenings(self):
        rng = random.Random(17)
        for _ in range(500):
            k = rng.randrange(2, 7)
            coarse = rng.choice(list(enumerate_partitions(k)))
            pieces = []  # (fine part, coarse slot)
            for slot, part in enumerate(coarse.parts):
                left = part
                while left:
                    cut = rng.randrange(1, left + 1)
                    pieces.append((cut, slot))
                    left -= cut
            pieces.sort(key=lambda t: t[0])
            fine = P(tuple(sz for sz, _ in pieces))
            witness = GroupingWitness(tuple(slot for _, slot in pieces))
            n = rng.randrange(1, 4)
            a = random_lambda_assignment(n, fine, seed=rng.randrange(10 ** 6))
            assert validate_lambda(a).ok
            out = coarsen_grouping(a, coarse, witness)
            assert validate_lambda(out).ok


class TestEnumeration:
    def test_single_vertex_two_unit_groups(self):
        got = list(enumerate_lambda_assignments(Graph(1, ()), P((1, 1))))
        assert len(got) == 1
        assert got[0].lists == ((1, 2),)
        assert got[0].groups == (frozenset({1}), frozenset({2}))

    def test_k2_one_unit_group(self):
        got = list(enumerate_lambda_assignments(Graph(2, ((0, 1),)), P((1,))))
        assert [a.lists for a in got] == [((1,), (1,)), ((1,), (2,))]

    def test_every_member_validates(self):
        cases = [(complete_multipartite([1, 2]), P((1, 1))),
                 (complete_multipartite([2, 2]), P((2,))),
                 (Graph(3, ((0, 1), (1, 2))), P((1, 2)))]
        for g, lam in cases:
            members = list(enumerate_lambda_assignments(g, lam))
            assert members
            for a in members:
                assert validate_lambda(a).ok
                assert len(a.lists) == g.n
            assert members == list(enumerate_lambda_assignments(g, lam))

    def test_k3_with_unit_pair_has_bad_member(self):
        g = complete_multipartite([1, 1, 1])
        bad = [a for a in enumerate_lambda_assignments(g, P((1, 1)))
               if not l_color(g, a.lists).colorable]
        assert bad  # chi = 3, so some {1,1}-assignment refuses

    def test_bound(self):
        from strictcolor.errors import BoundExceeded
        g = complete_multipartite([4, 4])
        with pytest.raises(BoundExceeded):
            list(enumerate_lambda_assignments(g, P((1, 1, 1, 1))))


class TestPartitionable:
    def test_pair_core_block_shape(self):
        g = complete_multipartite([2, 3, 3])
        w = lambda_partitionable(g, P((1, 2)))
        assert isinstance(w, PartitionabilityWitness)
        assert w.blocks[0].vertices == (0, 1, 2, 3, 4)  # V_1 ∪ V_2 = K_{2,3}
        assert w.blocks[0].method == "ert-core"
        assert w.blocks[1].vertices == (5, 6, 7)
        assert w.blocks[1].method == "edgeless"
        assert check_partitionability_witness(g, P((1, 2)), w)

    def test_complete_graph_pairing(self):
        g = complete_multipartite([1, 1, 1, 1])
        w = lambda_partitionable(g, P((1, 1, 2)))
        assert isinstance(w, PartitionabilityWitness)
        assert len(w.blocks[0].vertices) == 2  # a K_2 at the level-2 slot
        assert check_partitionability_witness(g, P((1, 1, 2)), w)

    def test_edgeless_single_block(self):
        w = lambda_partitionable(Graph(3, ()), P((1,)))
        assert isinstance(w, PartitionabilityWitness)
        assert w.blocks[0].method == "edgeless"

    def test_triangle_unit_pair_absent(self):
        assert lambda_partitionable(Graph(3, ((0, 1), (0, 2), (1, 2))),
                                    P((1, 1))) is None

    def test_case2_shape_absent(self):
        # (2,4,5) admits no lambda_3-partition; the full vertex-level
        # search (2^11 candidates) settles it definitively.
        assert lambda_partitionable(complete_multipartite([2, 4, 5]),
                                    P((1, 2))) is None

    def test_out_of_bounds_is_undetermined(self):
        cyc = Graph(11, tuple((i, (i + 1) % 11) for i in range(11)))
        got = lambda_partitionable(cyc, P((3,)))
        assert isinstance(got, Undetermined)

    def test_block_bound_is_raised_by_k_choosable(self):
        # The level-3 block needs 33 colors per row, over KLISTS_BOUND;
        # lambda_partitionable catches it (test above).
        cyc = Graph(11, tuple((i, (i + 1) % 11) for i in range(11)))
        with pytest.raises(BoundExceeded, match="KLISTS_BOUND.*33"):
            _certify_block(cyc, tuple(range(11)), 3)

    def test_tampered_witness_fails(self):
        g = complete_multipartite([2, 3, 3])
        w = lambda_partitionable(g, P((1, 2)))
        swapped = PartitionabilityWitness(
            w.lam, (w.blocks[1], w.blocks[0]))
        assert not check_partitionability_witness(g, P((1, 2)), swapped)


# SHA-256 of the joined reprs of lambda_partitionable over pin_corpus(),
# recorded before the search memoised its block certificates.
PIN_SHA256 = "e4307cb4e08e39bc8f2107cb2f452a2f8ec1a6b012ad4512f13893b67e3ec66e"
C5_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


def pin_corpus():
    """Every K(a,b,c) up to 11 vertices with {1,2}, then every labelled
    graph on 1..5 vertices with the unit partitions of 1..3, in the order
    of the unit-equivalence claim."""
    for a in range(1, 12):
        for b in range(a, 12):
            for c in range(b, 12 - a - b):
                yield complete_multipartite((a, b, c)), near_unit_partition(3)
    for n in range(1, 6):
        for g in graphs_on(n):
            for k in range(1, 4):
                yield g, unit_partition(k)


@st.composite
def partition_cases(draw):
    """A graph on at most 6 vertices and a partition of weight at most 3.

    The graph is complete multipartite, with its parts, or has random
    edges and no parts: a Graph refuses parts that do not match its
    edges."""
    lam = draw(st.sampled_from(
        [p for w in (1, 2, 3) for p in enumerate_partitions(w)]))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6)
                     .filter(lambda s: sum(s) <= 6))
        return complete_multipartite(sizes), lam
    n = draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    edges = tuple(e for e in pairs if draw(st.booleans()))
    return Graph(n, edges), lam


class TestPartitionMemo:
    def test_witnesses_pinned(self):
        text = "\n".join(repr(lambda_partitionable(g, lam))
                         for g, lam in pin_corpus())
        assert hashlib.sha256(text.encode()).hexdigest() == PIN_SHA256

    @settings(max_examples=80, deadline=None)
    @given(partition_cases())
    @example((complete_multipartite([3, 3]), P((3,))))
    @example((Graph(5, C5_EDGES), P((3,))))
    @example((Graph(5, C5_EDGES), P((1, 2))))
    def test_matches_unmemoised_oracle(self, case):
        g, lam = case
        # A 6-vertex level-3 block then stops at KLISTS_BOUND, which
        # exercises a stored BoundExceeded; 5 vertices still certify.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "KLISTS_BOUND", 15)
            assert lambda_partitionable(g, lam) == partitionable_oracle(g, lam)

    def test_each_induced_block_certified_once_per_call(self, monkeypatch):
        g = complete_multipartite([3, 3, 5])
        lam = P((1, 2))
        certify = lambdacolor._certify_block
        seen: list[tuple] = []

        def counting(graph, vertices, level):
            h = graph.induced(vertices)
            seen.append((level, h.n, h.edges))
            return certify(graph, vertices, level)

        monkeypatch.setattr(oracles, "_certify_block", counting)
        partitionable_oracle(g, lam)
        every = list(seen)
        seen.clear()
        monkeypatch.setattr(lambdacolor, "_certify_block", counting)
        first = lambda_partitionable(g, lam)
        once = len(seen)
        # The oracle's blocks, each certified once: nothing is skipped
        # and nothing is merged that the induced subgraph tells apart.
        assert len(every) > once == len(set(seen))
        assert set(seen) == set(every)
        seen.clear()
        assert lambda_partitionable(g, lam) == first
        assert len(seen) == once


class TestChoosable:
    def test_triangle_near_unit_both_routes(self):
        g = complete_multipartite([1, 1, 1])
        auto = lambda_choosable(g, P((1, 2)))
        assert auto.choosable and auto.provenance == "partitionable"
        assert check_partitionability_witness(g, P((1, 2)), auto.partition)
        full = lambda_choosable(g, P((1, 2)), method="exhaustive")
        assert full.choosable and full.provenance == "exhaustive"
        assert full.classes_checked > 0

    def test_bipartite_unit_pair(self):
        g = complete_multipartite([2, 2])
        v = lambda_choosable(g, P((1, 1)))
        assert v.choosable

    def test_exhaustive_negative_carries_witness(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        v = lambda_choosable(g, P((1, 1)), method="exhaustive")
        assert v.choosable is False and v.provenance == "exhaustive"
        assert check_bad_witness(g, v.witness)
        assert v.classes_checked >= 1

    def test_undecided_when_everything_is_out_of_bounds(self):
        cyc = Graph(11, tuple((i, (i + 1) % 11) for i in range(11)))
        v = lambda_choosable(cyc, P((3,)))
        assert v.choosable is None and v.provenance == "undecided"
        assert "bounded" in v.reason

    def test_unit_partition_matches_chromatic_number_small(self):
        for n in (1, 2, 3):
            for g in graphs_on(n):
                for k in (1, 2):
                    v = lambda_choosable(g, unit_partition(k))
                    assert v.choosable is (chromatic_number(g) <= k), (g, k)


# The search-strict benchmark profiles; the case-2 shapes never reach the
# prospect rung.
PROSPECT_PROFILES = [
    (a, b, c) for a in range(1, 12) for b in range(a, 12) for c in range(b, 12)
    if a + b + c <= 11 and (a, b, c) not in {(2, 4, 4), (2, 4, 5)}]

# Refusals lambda_choosable(auto) finds with lambda = {1,2} on the 3-part
# profiles up to 11 vertices: (classes_checked, witness lists, solver nodes).
PROSPECT_REFUSALS = {
    (3, 3, 3): (446, (
        (1, 2, 19), (1, 3, 19), (2, 3, 19),
        (1, 2, 19), (1, 3, 19), (2, 3, 19),
        (1, 2, 19), (1, 3, 19), (2, 3, 19),
    ), 21),
    (3, 3, 4): (666, (
        (1, 2, 21), (1, 3, 21), (2, 3, 21),
        (1, 2, 21), (1, 3, 21), (2, 3, 21),
        (1, 2, 21), (1, 2, 21), (1, 3, 21), (2, 3, 21),
    ), 21),
    (3, 3, 5): (930, (
        (1, 2, 23), (1, 3, 23), (2, 3, 23),
        (1, 2, 23), (1, 3, 23), (2, 3, 23),
        (1, 2, 23), (1, 2, 23), (1, 2, 23), (1, 3, 23), (2, 3, 23),
    ), 21),
    (3, 4, 4): (966, (
        (1, 2, 23), (1, 3, 23), (2, 3, 23),
        (1, 2, 23), (1, 2, 23), (1, 3, 23), (2, 3, 23),
        (1, 2, 23), (1, 2, 23), (1, 3, 23), (2, 3, 23),
    ), 23),
}


class TestProspectBudget:
    """The prospect rung reads its caps streams exactly to its row budget."""

    def test_refusing_profiles_keep_their_witnesses(self):
        found = {}
        for sizes in PROSPECT_PROFILES:
            v = lambda_choosable(complete_multipartite(sizes), P((1, 2)))
            if v.choosable is False:
                assert v.provenance == "exhaustive"
                found[sizes] = (v.classes_checked, v.witness.assignment.lists,
                                v.witness.nodes_searched)
        assert found == PROSPECT_REFUSALS

    # (rows each caps stream examined, classes_checked or None if no hit)
    @pytest.mark.parametrize("sizes,budget,masked,checked", [
        ((3, 3, 3), 445, [1, 444], None),
        ((3, 3, 3), 446, [1, 445], 446),
        ((3, 3, 5), 929, [1, 928], None),
        ((3, 3, 5), 930, [1, 929], 930),
        ((2, 2, 2), 600, [1, 108, 491], None),
        ((2, 2, 2), 70000, [1, 108, 2646, 43812, 23433], None),
        ((2, 2, 2), 200000, [1, 108, 2646, 43812, 153433], None),
    ])
    def test_budget_is_cut_exactly(self, monkeypatch, sizes, budget, masked,
                                   checked):
        seen = []
        find = lambdacolor.find_refusals

        def counting(*args, **kwargs):
            refusals, examined = find(*args, **kwargs)
            seen.append(examined)
            return refusals, examined

        monkeypatch.setattr(lambdacolor, "find_refusals", counting)
        monkeypatch.setattr(limits, "PROSPECT_ROWS", budget)
        v = _prospect_bad_row(complete_multipartite(sizes), P((1, 2)))
        assert seen == masked
        # Without a hit, v is the reason the hunt stopped (a str).
        assert getattr(v, "classes_checked", None) == checked


class TestPartitionImpliesChoosable:
    def test_instance_level_on_tiny_graph(self):
        g = complete_multipartite([1, 2])
        lam = P((1, 1))
        w = lambda_partitionable(g, lam)
        assert isinstance(w, PartitionabilityWitness)
        for a in enumerate_lambda_assignments(g, lam):
            coloring = color_via_partition(g, a, w)
            assert is_proper(g, coloring)
            assert all(coloring[v] in a.lists[v] for v in range(g.n))

    def test_sampled_assignments_color_via_blocks(self):
        g = complete_multipartite([2, 3, 3])
        lam = P((1, 2))
        w = lambda_partitionable(g, lam)
        stream = enumerate_lambda_assignments(g, lam)
        for i, a in enumerate(stream):
            if i >= 2000:
                break
            coloring = color_via_partition(g, a, w)
            assert is_proper(g, coloring)
            assert all(coloring[v] in a.lists[v] for v in range(g.n))
        for seed in range(200):
            a = random_lambda_assignment(g.n, lam, seed=seed,
                                         sizes=(2, 3, 3))
            coloring = color_via_partition(g, a, w)
            assert is_proper(g, coloring)
            assert all(coloring[v] in a.lists[v] for v in range(g.n))


class TestRandomAssignment:
    def test_validates_and_is_deterministic(self):
        for lam in (P((1, 2)), P((2, 3)), P((1, 1, 1))):
            for n in (1, 3, 5):
                a = random_lambda_assignment(n, lam, seed=9)
                assert validate_lambda(a).ok
                assert a == random_lambda_assignment(n, lam, seed=9)
        assert random_lambda_assignment(4, P((1, 2)), seed=0) != \
            random_lambda_assignment(4, P((1, 2)), seed=1)

    def test_sizes_metadata(self):
        a = random_lambda_assignment(11, P((1, 2)), seed=0, sizes=(2, 4, 5))
        assert a.sizes == (2, 4, 5)
        with pytest.raises(ValueError):
            random_lambda_assignment(10, P((1, 2)), seed=0, sizes=(2, 4, 5))

    def test_descending_alignment(self):
        a = random_lambda_assignment(3, P((1, 2)), seed=2)
        desc = descending_parts(a.lam)
        assert desc == (2, 1)
        for lst in a.lists:
            assert len(set(lst) & a.groups[0]) == 2
            assert len(set(lst) & a.groups[1]) == 1

"""Strictness tests: witness tables, the case split, both decision routes."""

from __future__ import annotations

import ast
import random
from hashlib import sha256
from pathlib import Path

import pytest

from strictcolor import listcolor, strict
from strictcolor.graphs import Graph, complete_multipartite, contains_parts, is_proper
from strictcolor.lambdacolor import (
    BadAssignmentWitness,
    LambdaAssignment,
    LambdaVerdict,
    PartitionabilityWitness,
    check_bad_witness,
    check_partitionability_witness,
    lambda_choosable,
    random_lambda_assignment,
    validate_lambda,
)
from strictcolor.listcolor import l_color, l_color_multipartite
from strictcolor.partitions import IntegerPartition, near_unit_partition
from strictcolor.streams import canonical_class
from strictcolor.strict import (
    Case2Transcript,
    case1_partition,
    case2_color,
    decide_strict_cmp,
    decide_strict_search,
    extend_witness,
    hoffman_johnson_enumerate,
    witness_k246,
    witness_k255,
    witness_k3k,
)

P = IntegerPartition

WITNESSES = (witness_k3k, witness_k246, witness_k255)

CROSSING = ((1, 3), (1, 4), (2, 3), (2, 4))


def near_unit_assignment(sizes, part_rows):
    """Near-unit assignment from one doubly-met pair per vertex.

    Every list is its pair from {1,2,3,4} padded with the shared singleton
    colors 5..k+2, one per remaining group, so stage behavior is driven
    entirely by the chosen pairs.
    """
    sz = tuple(sorted(sizes))
    k = len(sz)
    tail = tuple(range(5, k + 3))
    lists = tuple(tuple(sorted(pair + tail))
                  for rows in part_rows for pair in rows)
    groups = (frozenset({1, 2, 3, 4}),) + tuple(
        frozenset({c}) for c in tail)
    return LambdaAssignment(near_unit_partition(k), lists, groups, sizes=sz)


def assert_transcript_proper(sizes, t: Case2Transcript) -> None:
    g = complete_multipartite(sizes)
    assert is_proper(g, t.final)
    assert all(t.final[v] in t.assignment.lists[v] for v in range(g.n))


class TestWitnessTables:
    def test_k3k_table_k3(self):
        w = witness_k3k(3)
        assert w.lists == ((0, 1, 3), (0, 2, 3), (1, 2, 3)) * 3
        assert w.groups == (frozenset({0, 1, 2}), frozenset({3}))
        assert w.sizes == (3, 3, 3)
        assert w.lam == near_unit_partition(3)

    def test_k246_table_k3(self):
        w = witness_k246(3)
        assert w.lists == (
            (1, 2, 5), (3, 4, 5),
            (1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5),
            (1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5), (1, 2, 5), (3, 4, 5),
        )
        assert w.groups == (frozenset({1, 2, 3, 4}), frozenset({5}))
        assert w.sizes == (2, 4, 6)

    def test_k255_table_k3(self):
        w = witness_k255(3)
        big = ((1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5), (1, 2, 5))
        assert w.lists == ((1, 2, 5), (3, 4, 5)) + big + big
        assert w.groups == (frozenset({1, 2, 3, 4}), frozenset({5}))
        assert w.sizes == (2, 5, 5)

    def test_k3k_table_k4(self):
        w = witness_k3k(4)
        assert w.lists[:3] == ((0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4))
        assert w.lists == w.lists[:3] * 4
        assert w.groups == (frozenset({0, 1, 2}), frozenset({3}),
                            frozenset({4}))
        assert w.sizes == (3, 3, 3, 3)

    def test_small_k_rejected(self):
        for make in WITNESSES:
            for k in (0, 1, 2):
                with pytest.raises(ValueError):
                    make(k)

    def test_validate_through_k6(self):
        for make in WITNESSES:
            for k in range(3, 7):
                w = make(k)
                assert w.lam == near_unit_partition(k)
                assert w.sizes == tuple(sorted(w.sizes))
                assert validate_lambda(w).ok

    def test_refused_by_both_solvers(self):
        for make in WITNESSES:
            for k in (3, 4):
                w = make(k)
                g = complete_multipartite(w.sizes)
                assert not l_color(g, w.lists).colorable
                assert not l_color_multipartite(w.sizes, w.lists).colorable


class TestExtendWitness:
    def test_copies_and_pads(self):
        base = witness_k3k(3)
        w = extend_witness(base, (3, 4, 5))
        assert w.sizes == (3, 4, 5)
        assert w.lists[:3] == base.lists[0:3]
        assert w.lists[3:7] == base.lists[3:6] + (base.lists[3],)
        assert w.lists[7:] == base.lists[6:9] + (base.lists[6],) * 2
        assert validate_lambda(w).ok
        assert not l_color(complete_multipartite(w.sizes), w.lists).colorable

    def test_part_count_must_match(self):
        with pytest.raises(ValueError):
            extend_witness(witness_k3k(3), (3, 3, 3, 3))

    def test_host_must_contain_base(self):
        with pytest.raises(ValueError):
            extend_witness(witness_k255(3), (3, 3, 5))

    def test_base_needs_sizes(self):
        base = witness_k3k(3)
        bare = LambdaAssignment(base.lam, base.lists, base.groups)
        with pytest.raises(ValueError):
            extend_witness(bare, (3, 3, 3))

    def test_random_hosts_stay_refusing(self):
        rng = random.Random(7)
        for _ in range(40):
            make = rng.choice(WITNESSES)
            base = make(3)
            host = tuple(s + rng.randrange(3) for s in base.sizes)
            w = extend_witness(base, host)
            assert validate_lambda(w).ok
            g = complete_multipartite(w.sizes)
            assert not l_color(g, w.lists).colorable

    def test_random_hosts_k4(self):
        rng = random.Random(11)
        for _ in range(6):
            make = rng.choice(WITNESSES)
            base = make(4)
            host = tuple(s + rng.randrange(2) for s in base.sizes)
            w = extend_witness(base, host)
            assert validate_lambda(w).ok
            g = complete_multipartite(w.sizes)
            assert not l_color(g, w.lists).colorable


class TestCase1Partition:
    def test_one_head(self):
        w = case1_partition((1, 6, 7))
        assert w.lam == near_unit_partition(3)
        assert w.blocks[0].vertices == tuple(range(7))
        assert w.blocks[0].level == 2
        assert w.blocks[0].method == "ert-core"
        assert w.blocks[1].vertices == tuple(range(7, 14))
        assert w.blocks[1].level == 1
        g = complete_multipartite((1, 6, 7))
        assert check_partitionability_witness(g, near_unit_partition(3), w)

    def test_two_three_head(self):
        sz = (2, 3, 4, 9)
        w = case1_partition(sz)
        assert len(w.blocks) == 3
        assert w.blocks[0].vertices == tuple(range(5))
        g = complete_multipartite(sz)
        assert check_partitionability_witness(g, near_unit_partition(4), w)

    def test_rejects_other_shapes(self):
        for sz in ((2, 4, 4), (3, 3, 3), (2, 4, 6)):
            with pytest.raises(ValueError):
                case1_partition(sz)
        with pytest.raises(ValueError):
            case1_partition((1, 2))


class TestCase2Color:
    def full_obstruction(self):
        return near_unit_assignment(
            (2, 4, 4),
            ((((1, 2)), (3, 4)), CROSSING, CROSSING))

    def test_stage1_success(self):
        a = near_unit_assignment((2, 4, 4),
                                 (((1, 2), (1, 3)), CROSSING, CROSSING))
        t = case2_color((2, 4, 4), a)
        assert len(t.rounds) == 2
        assert "doubly-met group" in t.rounds[-1]
        assert t.assignment is a
        assert_transcript_proper((2, 4, 4), t)

    def test_stage2_success(self):
        a = near_unit_assignment((2, 4, 4),
                                 (((1, 2), (3, 4)), CROSSING,
                                  ((1, 2),) * 4))
        t = case2_color((2, 4, 4), a)
        assert len(t.rounds) == 3
        assert "Hoffman-Johnson" in t.rounds[1]
        assert "parts 1 and 3" in t.rounds[-1]
        assert_transcript_proper((2, 4, 4), t)

    def test_stage3_branch_a(self):
        t = case2_color((2, 4, 4), self.full_obstruction())
        assert len(t.rounds) == 4
        assert "split" in t.rounds[-1]
        assert t.final == (5, 5, 3, 4, 3, 4, 1, 1, 2, 2)
        assert_transcript_proper((2, 4, 4), t)

    def test_stage3_branch_a_with_extra(self):
        a = near_unit_assignment((2, 4, 5),
                                 (((1, 2), (3, 4)), CROSSING,
                                  CROSSING + ((1, 2),)))
        t = case2_color((2, 4, 5), a)
        assert t.final == (5, 5, 3, 4, 3, 4, 1, 1, 2, 2, 1)
        assert_transcript_proper((2, 4, 5), t)

    def test_stage3_branch_b(self):
        a = near_unit_assignment((2, 4, 5),
                                 (((1, 2), (3, 4)), CROSSING,
                                  CROSSING + ((3, 4),)))
        t = case2_color((2, 4, 5), a)
        assert t.final == (5, 5, 1, 1, 2, 2, 3, 4, 3, 4, 3)
        assert_transcript_proper((2, 4, 5), t)

    def test_four_parts(self):
        sz = (2, 4, 5, 9)
        a = near_unit_assignment(
            sz, (((1, 2), (3, 4)), CROSSING, CROSSING + ((1, 2),),
                 ((1, 2),) * 9))
        t = case2_color(sz, a)
        assert len(t.rounds) == 4
        assert t.final == (5, 5, 3, 4, 3, 4, 1, 1, 2, 2, 1) + (6,) * 9
        assert_transcript_proper(sz, t)

    def test_rejects_wrong_shapes(self):
        a = self.full_obstruction()
        for sz in ((2, 4, 6), (1, 2, 3), (2, 2, 3), (2, 4)):
            with pytest.raises(ValueError):
                case2_color(sz, a)

    def test_rejects_wrong_lambda(self):
        a = self.full_obstruction()
        coarse = LambdaAssignment(P((3,)), a.lists, (frozenset(range(1, 7)),),
                                  sizes=a.sizes)
        with pytest.raises(ValueError):
            case2_color((2, 4, 4), coarse)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            case2_color((2, 4, 5), self.full_obstruction())

    def test_rejects_sizes_disagreement(self):
        a = self.full_obstruction()
        relabeled = LambdaAssignment(a.lam, a.lists + ((1, 2, 5),), a.groups,
                                     sizes=(1, 5, 5))
        with pytest.raises(ValueError):
            case2_color((2, 4, 5), relabeled)

    def test_rejects_invalid_assignment(self):
        a = self.full_obstruction()
        broken = LambdaAssignment(a.lam, ((1, 3, 4),) + a.lists[1:],
                                  a.groups, sizes=a.sizes)
        with pytest.raises(ValueError):
            case2_color((2, 4, 4), broken)

    def test_random_assignments_land(self):
        for seed in range(150):
            a = random_lambda_assignment(11, near_unit_partition(3), seed,
                                         sizes=(2, 4, 5))
            assert_transcript_proper((2, 4, 5), case2_color((2, 4, 5), a))

    def test_random_assignments_four_parts(self):
        for seed in range(50):
            a = random_lambda_assignment(18, near_unit_partition(4), seed,
                                         sizes=(2, 4, 5, 7))
            t = case2_color((2, 4, 5, 7), a)
            assert_transcript_proper((2, 4, 5, 7), t)


STRICT_PATTERNS = ((3, 3, 3), (2, 4, 6), (2, 5, 5))


class TestDecideStrictCmp:
    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            decide_strict_cmp((2, 4))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            decide_strict_cmp((0, 1, 2))

    def test_sorts_input(self):
        d = decide_strict_cmp((6, 4, 2))
        assert d.sizes == (2, 4, 6)
        assert d.strict is True

    def test_triples_match_embedding(self):
        for a in range(1, 8):
            for b in range(a, 8):
                for c in range(b, 8):
                    sz = (a, b, c)
                    d = decide_strict_cmp(sz)
                    expected = any(contains_parts(sz, pat)
                                   for pat in STRICT_PATTERNS)
                    assert d.strict is expected, sz
                    g = complete_multipartite(sz)
                    if expected:
                        assert d.reason.startswith("contains-")
                        assert isinstance(d.certificate, LambdaAssignment)
                        assert d.certificate.sizes == sz
                        assert validate_lambda(d.certificate).ok
                    elif d.reason == "case1":
                        assert check_partitionability_witness(
                            g, near_unit_partition(3), d.certificate)
                    else:
                        assert d.reason == "case2"
                        assert isinstance(d.certificate, Case2Transcript)
                        assert_transcript_proper(sz, d.certificate)

    def test_pattern_precedence(self):
        assert decide_strict_cmp((3, 5, 6)).reason == "contains-K3k"
        assert decide_strict_cmp((2, 5, 6)).reason == "contains-K255"
        assert decide_strict_cmp((2, 4, 6)).reason == "contains-K246"

    def test_strict_certificates_refused(self):
        for sz in ((3, 3, 3), (2, 4, 6), (2, 5, 5), (3, 4, 7)):
            d = decide_strict_cmp(sz)
            assert d.strict is True
            g = complete_multipartite(sz)
            assert not l_color(g, d.certificate.lists).colorable

    def test_four_part_profiles(self):
        strict = {(3, 3, 3, 3): "contains-K3k",
                  (2, 5, 5, 5): "contains-K255",
                  (2, 4, 6, 6): "contains-K246"}
        for sz, reason in strict.items():
            d = decide_strict_cmp(sz)
            assert (d.strict, d.reason) == (True, reason)
            assert validate_lambda(d.certificate).ok
        d = decide_strict_cmp((1, 9, 9, 9))
        assert (d.strict, d.reason) == (False, "case1")
        d = decide_strict_cmp((2, 4, 5, 9))
        assert (d.strict, d.reason) == (False, "case2")
        assert_transcript_proper((2, 4, 5, 9), d.certificate)


class TestDecideStrictSearch:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            decide_strict_search(Graph(1, []), 0)

    def test_k1_is_chromatic_only(self):
        assert decide_strict_search(Graph(3, []), 1).strict is True
        d = decide_strict_search(Graph(2, [(0, 1)]), 1)
        assert (d.strict, d.reason, d.certificate) == (False, "chromatic",
                                                       None)

    def test_low_chromatic_number(self):
        g = complete_multipartite((2, 3))
        d = decide_strict_search(g, 3)
        assert (d.strict, d.reason) == (False, "chromatic")
        assert isinstance(d.certificate, PartitionabilityWitness)
        assert check_partitionability_witness(g, near_unit_partition(3),
                                              d.certificate)

    def test_low_chromatic_number_empty_class(self):
        g = complete_multipartite((2, 3))
        d = decide_strict_search(g, 4)
        assert d.strict is False
        assert check_partitionability_witness(g, near_unit_partition(4),
                                              d.certificate)

    def test_high_chromatic_number(self):
        g = complete_multipartite((1, 1, 1, 1))
        d = decide_strict_search(g, 3)
        assert (d.strict, d.reason) == (False, "chromatic")
        assert isinstance(d.certificate, BadAssignmentWitness)
        assert d.certificate.assignment.lists == ((1, 2, 3),) * 4
        assert check_bad_witness(g, d.certificate)

    def test_k2_strict_bipartite(self):
        g = complete_multipartite((2, 4))
        d = decide_strict_search(g, 2)
        assert (d.strict, d.reason) == (True, "search")
        assert check_bad_witness(g, d.certificate)

    def test_k2_choosable_cycle(self):
        cyc = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        d = decide_strict_search(cyc, 2)
        assert (d.strict, d.reason) == (False, "search")
        assert check_partitionability_witness(cyc, near_unit_partition(2),
                                              d.certificate)

    def test_triangle_not_strict(self):
        g = complete_multipartite((1, 1, 1))
        d = decide_strict_search(g, 3)
        assert (d.strict, d.reason) == (False, "search")
        assert check_partitionability_witness(g, near_unit_partition(3),
                                              d.certificate)

    def test_strict_multipartite_witness(self):
        g = complete_multipartite((3, 3, 3))
        d = decide_strict_search(g, 3)
        assert (d.strict, d.reason) == (True, "search")
        assert isinstance(d.certificate, BadAssignmentWitness)
        assert check_bad_witness(g, d.certificate)

    def test_agrees_with_cmp_route(self):
        for sz in ((1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 2, 3), (2, 3, 3)):
            g = complete_multipartite(sz)
            assert (decide_strict_search(g, 3).strict
                    == decide_strict_cmp(sz).strict), sz

    def test_k4_host_k3333_is_strict(self):
        # The prospect's capped rows fit the owner maps: its refusal sits
        # at caps (3, 1, 1), 4^5 maps, where 4^12 choice vectors are over
        # CHOICE_CAP.
        g = complete_multipartite((3, 3, 3, 3))
        d = decide_strict_search(g, 4)
        assert (d.strict, d.reason) == (True, "search")
        assert isinstance(d.certificate, BadAssignmentWitness)
        assert check_bad_witness(g, d.certificate)
        assert decide_strict_cmp((3, 3, 3, 3)).strict is True

    @pytest.mark.parametrize("sizes", [(2, 5, 5, 5), (2, 4, 6, 6)])
    def test_k4_minimal_hosts_stay_undecided(self, sizes):
        # Strict by the characterization, but no capped row within
        # PROSPECT_ROWS refuses (their refusals need a color-starved row
        # order), and the full stream is past GROUPED_BOUND.
        d = decide_strict_search(complete_multipartite(sizes), 4)
        assert (d.strict, d.certificate) == (None, None)
        assert d.reason.startswith("search-undecided: ")
        assert "PROSPECT_ROWS: 200000 capped rows held no refusal" in d.reason
        assert "GROUPED_BOUND: " in d.reason
        assert decide_strict_cmp(sizes).strict is True

    @pytest.mark.parametrize("sizes", [(2, 4, 4), (2, 4, 5)])
    def test_case2_shapes_are_undecided_without_case2_color(
            self, monkeypatch, sizes):
        # The search route has no case-2 shortcut: the ladder runs on these
        # shapes as on any host and names the limits that stopped it.
        calls = []

        def spy(*args, _inner=strict.case2_color):
            calls.append(args)
            return _inner(*args)

        monkeypatch.setattr(strict, "case2_color", spy)
        d = decide_strict_search(complete_multipartite(sizes), 3)
        assert calls == []
        assert (d.strict, d.certificate) == (None, None)
        head, _, reason = d.reason.partition(": ")
        assert head == "search-undecided"
        assert [stop.split(":")[0] for stop in reason.split("; ")] == [
            "PROSPECT_ROWS", "GROUPED_BOUND"]
        # The comparison route does call it, through the spy.
        assert decide_strict_cmp(sizes).reason == "case2"
        assert len(calls) == 1

    def test_ladder_shortfall_reported(self, monkeypatch):
        monkeypatch.setattr(
            "strictcolor.strict.lambda_choosable",
            lambda g, lam: LambdaVerdict(None, "undecided",
                                         reason="out of room"))
        d = decide_strict_search(complete_multipartite((1, 1, 1)), 3)
        assert (d.strict, d.reason, d.certificate) == (
            None, "search-undecided: out of room", None)

    def test_routes_never_reach_alon_tarsi(self, monkeypatch):
        # The Alon-Tarsi rung serves choice_number only, so the two routes
        # (and lambda_choosable, the search route's ladder) stay
        # independent of it.
        calls = []
        for name in ("alon_tarsi", "_exponent_vectors", "_graph_coefficient"):
            def spy(*args, _inner=getattr(listcolor, name), _name=name):
                calls.append(_name)
                return _inner(*args)
            monkeypatch.setattr(listcolor, name, spy)
        for sizes in ((2, 2, 2), (2, 2, 3), (3, 3, 3), (2, 4, 4)):
            decide_strict_cmp(sizes)
            decide_strict_search(complete_multipartite(sizes), 3)
        lambda_choosable(complete_multipartite((1, 1, 2)), P((3,)))
        lambda_choosable(complete_multipartite((1, 2, 2)), P((1, 2)),
                         method="exhaustive")
        assert calls == []
        listcolor.choice_number(complete_multipartite((2, 2)))
        assert calls[0] == "alon_tarsi"


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import in tree names, inside functions too, as a
    dotted path; an imported name counts as a module as well."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, [
                "strictcolor" if node.level else None, node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


class TestRouteIndependence:
    """The search route's modules never read the comparison route."""

    SRC = Path(strict.__file__).resolve().parent

    def test_search_modules_do_not_import_strict(self):
        found = {name: imported_modules(ast.parse(
                     (self.SRC / f"{name}.py").read_text()))
                 for name in ("streams", "bulk", "listcolor", "lambdacolor",
                              "cli")}
        # The scan sees the CLI's import of the comparison route.
        assert "strictcolor.strict" in found.pop("cli")
        assert [name for name, modules in found.items()
                if "strictcolor.strict" in modules] == []


class TestHoffmanJohnson:
    def test_k24_unique_class(self):
        reps = hoffman_johnson_enumerate(2, 4)
        assert len(reps) == 1
        table = ((1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4))
        parts = ((0, 1), (2, 3, 4, 5))
        canon = lambda lists: canonical_class(
            tuple(tuple(c - 1 for c in lst) for lst in lists), parts)
        assert canon(reps[0]) == canon(table)

    def test_class_lists_pinned(self):
        # Class counts, and a SHA-256 of the classes' repr that pins
        # every returned tuple.
        pins = {
            (2, 5): (4, "14d61f22a97cbfe86be1a1e5a3f7beef"
                        "a5c4da3cae64a4611d43dcf6c693eff3"),
            (3, 4): (24, "376a71c1d24f18b29750d2a2e861cf58"
                         "3c16f2ac1ea75a1a9995ed9322dad571"),
            (2, 6): (23, "754589d549e530d5c088cfe59a3e2e72"
                         "7ce3ee0066847ebdb9a4f4c36e385e48"),
            (2, 7): (112, "79fce59968e3b7230a6e490aa8feb8a4"
                          "a2aa17a2266ba977a1292fe3318d9ab2"),
            (3, 5): (175, "9ff84c0bdcbe46f6d4565d7ff9b86ff6"
                          "b677b1ceec78848d39bac15a67464db2"),
        }
        for (m, n), (count, digest) in pins.items():
            reps = hoffman_johnson_enumerate(m, n)
            assert len(reps) == count, (m, n)
            assert sha256(repr(reps).encode()).hexdigest() == digest, (m, n)

    def test_two_choosable_hosts_have_none(self):
        assert hoffman_johnson_enumerate(2, 3) == ()
        assert hoffman_johnson_enumerate(1, 1) == ()
        assert hoffman_johnson_enumerate(1, 2) == ()

"""Round-trip and shape tests for the JSON forms."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictcolor import serialize as ser
from strictcolor.graphs import Graph, complete_multipartite
from strictcolor.lambdacolor import (
    BadAssignmentWitness,
    LambdaAssignment,
    lambda_choosable,
    random_lambda_assignment,
)
from strictcolor.listcolor import k_choosable, l_color
from strictcolor.partitions import IntegerPartition, near_unit_partition
from strictcolor.strict import (
    case1_partition,
    case2_color,
    decide_strict_cmp,
    decide_strict_search,
    witness_k3k,
)

P = IntegerPartition


class TestGraph:
    def test_round_trip_with_parts(self):
        g = complete_multipartite((2, 3))
        back = ser.graph_from_json(ser.graph_to_json(g))
        assert back == g
        assert back.parts == g.parts

    def test_round_trip_plain(self):
        g = Graph(4, [(0, 1), (2, 3)])
        obj = ser.graph_to_json(g)
        assert "parts" not in obj
        assert ser.graph_from_json(obj) == g

    def test_rejects_malformed(self):
        for obj in ({}, {"n": 2}, {"n": 2, "edges": [[0, 5]]},
                    {"n": "x", "edges": []}):
            with pytest.raises(ValueError):
                ser.graph_from_json(obj)

    @pytest.mark.parametrize("obj", [
        {"n": 2.7, "edges": []},
        {"n": True, "edges": []},
        {"n": float("inf"), "edges": []},
        {"n": 2, "edges": [[0, 1.9]]},
        {"n": 2, "edges": [["0", True]]},
        {"n": 2, "edges": [[0, 1, 1]]},
        {"n": 2, "edges": ["01"]},
        {"n": 3, "edges": [], "parts": [[0, "1"], [2]]},
        {"n": 3, "edges": [], "parts": [[0, 1], [2.0]]},
        {"n": 3, "edges": [], "parts": "012"},
    ])
    def test_refuses_non_integers(self, obj):
        # Each of these used to be cast, truncated or crashed on.
        with pytest.raises(ValueError, match="bad graph object"):
            ser.graph_from_json(obj)


class TestLists:
    def test_round_trip(self):
        lists = ((1, 2), (2, 3), (1, 3))
        obj = ser.lists_to_json(lists)
        assert obj == {"lists": {"0": [1, 2], "1": [2, 3], "2": [1, 3]}}
        assert ser.lists_from_json(obj) == lists

    def test_rejects_gaps_and_junk(self):
        with pytest.raises(ValueError):
            ser.lists_from_json({"lists": {"0": [1], "2": [1]}})
        with pytest.raises(ValueError):
            ser.lists_from_json({"lists": {"zero": [1]}})
        with pytest.raises(ValueError):
            ser.lists_from_json({})


class TestAssignment:
    def test_round_trip_witness(self):
        a = witness_k3k(3)
        back = ser.assignment_from_json(ser.assignment_to_json(a))
        assert back == a
        assert back.sizes == (3, 3, 3)

    def test_round_trip_without_sizes(self):
        a = LambdaAssignment(P((1, 1)), ((1, 3), (2, 3)),
                             (frozenset({1, 2}), frozenset({3})))
        obj = ser.assignment_to_json(a)
        assert "sizes" not in obj
        assert ser.assignment_from_json(obj) == a

    def test_random_round_trips(self):
        for seed in range(20):
            a = random_lambda_assignment(6, P((1, 2)), seed, sizes=(2, 2, 2))
            assert ser.assignment_from_json(ser.assignment_to_json(a)) == a

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            ser.assignment_from_json({"lists": {"0": [1]}})


class TestVerdicts:
    def test_outcome_shape(self):
        g = Graph(2, [(0, 1)])
        out = l_color(g, ((1, 2), (1, 2)))
        obj = ser.outcome_to_json(out)
        assert obj["colorable"] is True
        assert set(obj["coloring"]) == {"0", "1"}
        refused = l_color(g, ((1,), (1,)))
        assert "coloring" not in ser.outcome_to_json(refused)

    def test_choosability_shape(self):
        v = k_choosable(complete_multipartite((2, 4)), 2)
        obj = ser.choosability_to_json(v)
        assert obj["choosable"] is False
        assert obj["bad_lists"]["0"]

    def test_lambda_verdict_shape(self):
        v = lambda_choosable(complete_multipartite((3, 3, 3)), P((1, 2)))
        obj = ser.lambda_verdict_to_json(v)
        assert obj["choosable"] is False
        assert obj["provenance"] == "exhaustive"
        assert obj["witness"]["assignment"]["lists"]["0"]


class TestCertificates:
    def test_partition_witness_round_trip(self):
        w = case1_partition((1, 2, 5))
        assert ser.partition_witness_from_json(
            ser.partition_witness_to_json(w)) == w

    def test_bad_witness_round_trip(self):
        w = BadAssignmentWitness(witness_k3k(3), 99)
        assert ser.bad_witness_from_json(ser.bad_witness_to_json(w)) == w

    def test_transcript_round_trip(self):
        t = decide_strict_cmp((2, 4, 5)).certificate
        assert ser.transcript_from_json(ser.transcript_to_json(t)) == t

    def test_strict_round_trips_per_reason(self):
        decisions = [
            decide_strict_cmp((2, 5, 5)),
            decide_strict_cmp((1, 2, 5)),
            decide_strict_cmp((2, 4, 4)),
            decide_strict_search(complete_multipartite((1, 1, 1, 1)), 3),
            decide_strict_search(Graph(2, []), 1),
        ]
        for d in decisions:
            assert ser.strict_from_json(ser.strict_to_json(d)) == d

    @pytest.mark.parametrize("field, value", [
        ("strict", "yes"), ("strict", 1), ("reason", None), ("k", 3.0)])
    def test_strict_fields_are_not_cast(self, field, value):
        obj = ser.strict_to_json(decide_strict_cmp((2, 5, 5)))
        obj[field] = value
        with pytest.raises(ValueError, match=field):
            ser.strict_from_json(obj)

    @pytest.mark.parametrize("field", ["k", "strict", "reason"])
    def test_strict_fields_are_required(self, field):
        # A decision without "strict" must not read as undecided.
        obj = ser.strict_to_json(decide_strict_cmp((2, 5, 5)))
        del obj[field]
        with pytest.raises(ValueError, match='"strict"'):
            ser.strict_from_json(obj)

    def test_unknown_certificate_shape_rejected(self):
        obj = ser.strict_to_json(decide_strict_cmp((2, 5, 5)))
        obj["certificate"] = {"surprise": 1}
        with pytest.raises(ValueError):
            ser.strict_from_json(obj)


# Valid documents of every reader, for the fuzz below to break.
JSON_DOCS = (
    ser.graph_to_json(complete_multipartite((1, 2))),
    ser.graph_to_json(Graph(3, [(0, 2)])),
    ser.lists_to_json(((1, 2), (2, 3), (1, 3))),
    ser.assignment_to_json(
        random_lambda_assignment(3, IntegerPartition((1, 2)), 0,
                                 sizes=(1, 2))),
    ser.bad_witness_to_json(BadAssignmentWitness(witness_k3k(3), 9)),
    ser.partition_witness_to_json(case1_partition((1, 2, 5))),
    ser.strict_to_json(decide_strict_cmp((2, 4, 5))),
    ser.strict_to_json(decide_strict_cmp((2, 5, 5))),
    ser.strict_to_json(decide_strict_cmp((1, 2, 5))),
)
READERS = (ser.graph_from_json, ser.lists_from_json, ser.assignment_from_json,
           ser.bad_witness_from_json, ser.partition_witness_from_json,
           ser.transcript_from_json, ser.strict_from_json)
DOC_KEYS = sorted({k for doc in JSON_DOCS for k in doc}
                  | {"vertices", "level", "method", "0", "1"})
# Integers stay at most 64, because a graph allocates per vertex.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=64) | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(DOC_KEYS)
                                     | st.text(max_size=2),
                                     inner, max_size=4)),
    max_leaves=12)


@st.composite
def broken_docs(draw):
    """A valid document with one subtree replaced or one key dropped."""
    def mutate(doc):
        if isinstance(doc, dict) and doc and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(doc)))
            rest = {k: v for k, v in doc.items() if k != key}
            if draw(st.integers(0, 3)) == 0:
                return rest
            return {**rest, key: mutate(doc[key])}
        if isinstance(doc, list) and doc and draw(st.booleans()):
            i = draw(st.integers(0, len(doc) - 1))
            return doc[:i] + [mutate(doc[i])] + doc[i + 1:]
        return draw(json_values)
    return mutate(draw(st.sampled_from(JSON_DOCS)))


def read_all(obj):
    """Every reader must return a value or raise ValueError."""
    for read in READERS:
        try:
            read(obj)
        except ValueError:
            pass


class TestReaderFuzz:
    def test_every_document_is_valid(self):
        def reads(read, doc):
            try:
                read(doc)
            except ValueError:
                return False
            return True

        for doc in JSON_DOCS:
            assert any(reads(read, doc) for read in READERS)

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_arbitrary_json(self, obj):
        read_all(obj)

    @settings(max_examples=500, deadline=None)
    @given(broken_docs())
    def test_broken_documents(self, obj):
        read_all(obj)


class TestDump:
    def test_deterministic_bytes(self):
        one = ser.dump({"b": 1, "a": [2, 3]})
        two = ser.dump({"a": [2, 3], "b": 1})
        assert one == two
        assert one.endswith("\n")
        assert json.loads(one) == {"a": [2, 3], "b": 1}

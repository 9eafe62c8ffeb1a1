"""JSON forms for graphs, assignments, verdicts, and certificates.

Every emitter returns plain dict/list/int structures; `dump` renders them
with sorted keys and a fixed layout so identical inputs always produce
identical bytes.  Readers raise ValueError on structural problems, which
the command line maps to its usage exit code; they take every value as the
JSON type it must be, so 2.7, "2" and true are refused as integers, and
null as a string, instead of being cast.

Colorings and per-vertex lists travel as objects keyed by the vertex
index written in decimal ("0", "1", ...), matching the certificate files
the command line reads back.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from . import limits
from .graphs import Graph
from .lambdacolor import (
    BadAssignmentWitness,
    BlockEvidence,
    LambdaAssignment,
    LambdaVerdict,
    PartitionabilityWitness,
)
from .listcolor import ChoosabilityVerdict, ColoringOutcome
from .partitions import IntegerPartition
from .strict import Case2Transcript, StrictDecision

__all__ = [
    "assignment_from_json",
    "assignment_to_json",
    "bad_witness_from_json",
    "bad_witness_to_json",
    "choosability_to_json",
    "dump",
    "graph_from_json",
    "graph_to_json",
    "lambda_verdict_to_json",
    "lists_from_json",
    "lists_to_json",
    "outcome_to_json",
    "partition_witness_from_json",
    "partition_witness_to_json",
    "strict_from_json",
    "strict_to_json",
    "transcript_from_json",
    "transcript_to_json",
]


def dump(obj: Any) -> str:
    """Canonical text for a JSON structure: sorted keys, two-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _vertex_map(values: Sequence[int]) -> dict[str, int]:
    return {str(v): int(c) for v, c in enumerate(values)}


def _int(value: Any, what: str) -> int:
    """A JSON integer, refusing booleans, floats and strings."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r:.40}")
    return value


def _str(value: Any, what: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r:.40}")
    return value


def _list(values: Any, what: str) -> Sequence[Any]:
    """A JSON array."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be an array, got {values!r:.40}")
    return values


def _ints(values: Any, what: str) -> tuple[int, ...]:
    """A JSON array of integers."""
    return tuple(_int(v, f"each entry of {what}")
                 for v in _list(values, what))


def _need(obj: Any, keys: Sequence[str], message: str) -> None:
    """Refuse anything but an object holding every required key."""
    if not isinstance(obj, Mapping) or any(k not in obj for k in keys):
        raise ValueError(message)


def _from_vertex_map(obj: Mapping[str, Any], what: str) -> tuple[Any, ...]:
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be an object keyed by vertex")
    keys = [str(v) for v in range(len(obj))]
    if set(obj) != set(keys):
        raise ValueError(f"{what} keys must be the vertex numbers 0..n-1 "
                         "without gaps")
    return tuple(obj[k] for k in keys)


def graph_to_json(g: Graph) -> dict[str, Any]:
    out: dict[str, Any] = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.parts is not None:
        out["parts"] = [list(p) for p in g.parts]
    return out


def graph_from_json(obj: Mapping[str, Any]) -> Graph:
    _need(obj, ("n", "edges"), "a graph object needs \"n\" and \"edges\"")
    parts = obj.get("parts")
    try:
        n = _int(obj["n"], "n")
        limits.enforce("READ_VERTEX_BOUND", n, "the vertex count of a "
                       "graph object")
        edges = [_ints(e, "an edge") for e in _list(obj["edges"], "edges")]
        if any(len(e) != 2 for e in edges):
            raise ValueError("every edge must be a pair of vertices")
        return Graph(n, tuple(edges),
                     parts=None if parts is None else
                     tuple(_ints(p, "a part") for p in _list(parts, "parts")))
    except ValueError as exc:
        raise ValueError(f"bad graph object: {exc}") from None


def lists_to_json(lists: Sequence[Sequence[int]]) -> dict[str, Any]:
    return {"lists": {str(v): [int(c) for c in lst]
                      for v, lst in enumerate(lists)}}


def lists_from_json(obj: Mapping[str, Any]) -> tuple[tuple[int, ...], ...]:
    _need(obj, ("lists",), "a list assignment object needs \"lists\"")
    rows = _from_vertex_map(obj["lists"], "lists")
    return tuple(tuple(sorted(_ints(row, "a list of colors"))) for row in rows)


def outcome_to_json(out: ColoringOutcome) -> dict[str, Any]:
    verdict: dict[str, Any] = {"colorable": out.colorable,
                               "nodes_searched": out.nodes_searched}
    if out.coloring is not None:
        verdict["coloring"] = _vertex_map(out.coloring)
    return verdict


def choosability_to_json(v: ChoosabilityVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {"choosable": v.choosable,
                           "classes_checked": v.classes_checked,
                           "solver_nodes": v.solver_nodes}
    if v.bad_lists is not None:
        out["bad_lists"] = lists_to_json(v.bad_lists)["lists"]
    return out


def assignment_to_json(a: LambdaAssignment) -> dict[str, Any]:
    out: dict[str, Any] = {
        "lambda": list(a.lam.parts),
        "lists": lists_to_json(a.lists)["lists"],
        "groups": [sorted(grp) for grp in a.groups],
    }
    if a.sizes is not None:
        out["sizes"] = list(a.sizes)
    return out


def assignment_from_json(obj: Mapping[str, Any]) -> LambdaAssignment:
    _need(obj, ("lambda", "lists", "groups"),
          "an assignment object needs \"lambda\", \"lists\" and \"groups\"")
    try:
        lam = IntegerPartition(_ints(obj["lambda"], "lambda"))
        groups = tuple(frozenset(_ints(grp, "a group"))
                       for grp in _list(obj["groups"], "groups"))
    except ValueError as exc:
        raise ValueError(f"bad assignment object: {exc}") from None
    sizes = obj.get("sizes")
    return LambdaAssignment(
        lam, lists_from_json(obj), groups,
        sizes=None if sizes is None else _ints(sizes, "sizes"))


def lambda_verdict_to_json(v: LambdaVerdict) -> dict[str, Any]:
    out: dict[str, Any] = {"choosable": v.choosable,
                           "provenance": v.provenance,
                           "classes_checked": v.classes_checked}
    if v.reason is not None:
        out["reason"] = v.reason
    if v.witness is not None:
        out["witness"] = bad_witness_to_json(v.witness)
    if v.partition is not None:
        out["partition"] = partition_witness_to_json(v.partition)
    return out


def bad_witness_to_json(w: BadAssignmentWitness) -> dict[str, Any]:
    return {"assignment": assignment_to_json(w.assignment),
            "nodes_searched": w.nodes_searched}


def bad_witness_from_json(obj: Mapping[str, Any]) -> BadAssignmentWitness:
    _need(obj, ("assignment",), "a refusal witness needs \"assignment\"")
    return BadAssignmentWitness(assignment_from_json(obj["assignment"]),
                                _int(obj.get("nodes_searched", 0),
                                     "nodes_searched"))


def partition_witness_to_json(w: PartitionabilityWitness) -> dict[str, Any]:
    return {"lambda": list(w.lam.parts),
            "blocks": [{"vertices": list(b.vertices), "level": b.level,
                        "method": b.method,
                        "classes_checked": b.classes_checked}
                       for b in w.blocks]}


def partition_witness_from_json(obj: Mapping[str, Any]
                                ) -> PartitionabilityWitness:
    _need(obj, ("lambda", "blocks"),
          "a partition witness needs \"lambda\" and \"blocks\"")
    try:
        lam = IntegerPartition(_ints(obj["lambda"], "lambda"))
        blocks = []
        for b in _list(obj["blocks"], "blocks"):
            _need(b, ("vertices", "level", "method"), "a block needs "
                  "\"vertices\", \"level\" and \"method\"")
            blocks.append(BlockEvidence(
                _ints(b["vertices"], "vertices"), _int(b["level"], "level"),
                _str(b["method"], "method"),
                _int(b.get("classes_checked", 0), "classes_checked")))
    except ValueError as exc:
        raise ValueError(f"bad partition witness: {exc}") from None
    return PartitionabilityWitness(lam, tuple(blocks))


def transcript_to_json(t: Case2Transcript) -> dict[str, Any]:
    return {"assignment": assignment_to_json(t.assignment),
            "rounds": list(t.rounds),
            "final": _vertex_map(t.final)}


def transcript_from_json(obj: Mapping[str, Any]) -> Case2Transcript:
    _need(obj, ("assignment", "rounds", "final"), "a coloring transcript "
          "needs \"assignment\", \"rounds\" and \"final\"")
    rounds = tuple(_str(r, "a round") for r in _list(obj["rounds"], "rounds"))
    final = _from_vertex_map(obj["final"], "final")
    return Case2Transcript(assignment_from_json(obj["assignment"]), rounds,
                           tuple(_int(c, "a final color") for c in final))


def _certificate_to_json(cert: object) -> Any:
    if cert is None:
        return None
    if isinstance(cert, LambdaAssignment):
        return assignment_to_json(cert)
    if isinstance(cert, PartitionabilityWitness):
        return partition_witness_to_json(cert)
    if isinstance(cert, BadAssignmentWitness):
        return bad_witness_to_json(cert)
    if isinstance(cert, Case2Transcript):
        return transcript_to_json(cert)
    raise ValueError(f"no JSON form for certificate {type(cert).__name__}")


def _certificate_from_json(obj: Any) -> object:
    if obj is None:
        return None
    if not isinstance(obj, Mapping):
        raise ValueError("a certificate must be an object or null")
    if "rounds" in obj:
        return transcript_from_json(obj)
    if "blocks" in obj:
        return partition_witness_from_json(obj)
    if "nodes_searched" in obj:
        return bad_witness_from_json(obj)
    if "lists" in obj:
        return assignment_from_json(obj)
    raise ValueError("unrecognized certificate shape")


def strict_to_json(d: StrictDecision) -> dict[str, Any]:
    return {"sizes": None if d.sizes is None else list(d.sizes),
            "k": d.k,
            "strict": d.strict,
            "reason": d.reason,
            "certificate": _certificate_to_json(d.certificate)}


def strict_from_json(obj: Mapping[str, Any]) -> StrictDecision:
    _need(obj, ("k", "strict", "reason"), "a strictness decision needs "
          "\"k\", \"strict\" and \"reason\"")
    sizes = obj.get("sizes")
    strict = obj["strict"]
    if strict is not None and not isinstance(strict, bool):
        raise ValueError(f"strict must be true, false or null, "
                         f"got {strict!r:.40}")
    return StrictDecision(
        None if sizes is None else _ints(sizes, "sizes"),
        _int(obj["k"], "k"),
        strict,
        _str(obj["reason"], "reason"),
        _certificate_from_json(obj.get("certificate")))

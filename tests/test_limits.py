"""Search limits: one module assigns them, and every stop names its limit.

Each limit is reached through a public entry point, and the BoundExceeded
message or the undecided reason must carry the limit's name, its value
and the size that was over it.  A static scan of the package keeps every
limit assigned in ``strictcolor.limits`` only, read at call time, and
checked in one function.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import strictcolor
from strictcolor import limits
from strictcolor.bulk import colorable_mask
from strictcolor.cli import main
from strictcolor.errors import BoundExceeded
from strictcolor.graphs import Graph, chromatic_number, complete_multipartite
from strictcolor.lambdacolor import lambda_choosable, lambda_partitionable
from strictcolor.listcolor import alon_tarsi, choice_number, k_choosable
from strictcolor.partitions import (
    IntegerPartition,
    enumerate_partitions,
    refinement_hasse,
)
from strictcolor.serialize import graph_from_json
from strictcolor.streams import grouped_chunks

LIMITS = {
    "MULTIPARTITE_BOUND": 64,
    "CHROMATIC_BOUND": 16,
    "ENUMERATION_BOUND": 30,
    "HASSE_BOUND": 12,
    "GROUPED_BOUND": 30,
    "KLISTS_BOUND": 24,
    "CHOICE_CAP": 2_000_000,
    "AT_VECTORS": 500,
    "PARTITION_GENERIC_BOUND": 200_000,
    "PROSPECT_ROWS": 200_000,
    "READ_VERTEX_BOUND": 1024,
}

SRC = Path(strictcolor.__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def stop_text(decide) -> str:
    """The BoundExceeded message decide raises, or its undecided reason."""
    try:
        out = decide()
    except BoundExceeded as exc:
        return str(exc)
    assert getattr(out, "choosable", None) is None
    return out.reason


# (limit, text the stop must contain, the decision, limits to move first)
CASES = [
    ("MULTIPARTITE_BOUND", "bounded at 64, got 66",
     lambda: complete_multipartite([33, 33]), {}),
    ("CHROMATIC_BOUND", "bounded at 16, got 17",
     lambda: chromatic_number(Graph(17, ())), {}),
    ("ENUMERATION_BOUND", "bounded at 30, got 31",
     lambda: list(enumerate_partitions(31)), {}),
    ("HASSE_BOUND", "bounded at 12, got 13",
     lambda: refinement_hasse(13), {}),
    ("GROUPED_BOUND", "bounded at 30, got 32",
     lambda: next(grouped_chunks(16, (2,))), {}),
    ("KLISTS_BOUND", "bounded at 24, got 30",
     lambda: k_choosable(complete_multipartite([5, 5]), 3), {}),
    ("KLISTS_BOUND", "bounded at 24, got 31",
     lambda: k_choosable(Graph(1, ()), 31), {}),
    ("CHOICE_CAP", "5^10 of a mask sweep is bounded at 2000000, got 9765625",
     lambda: colorable_mask(np.zeros((1, 50), dtype=np.int32), 10,
                            ((0, 1),)), {}),
    ("GROUPED_BOUND", "bounded at 30, got 33",
     lambda: lambda_choosable(cycle(11), IntegerPartition((3,))),
     {"PROSPECT_ROWS": 1000}),
    ("KLISTS_BOUND", "bounded at 24, got 27; not (2)-choosable",
     lambda: choice_number(complete_multipartite([3, 3, 3])), {}),
    ("KLISTS_BOUND", "bounded at 24, got 33",
     lambda: lambda_partitionable(cycle(11), IntegerPartition((3,))), {}),
    ("PARTITION_GENERIC_BOUND", "bounded at 200000, got 262144",
     lambda: lambda_partitionable(Graph(18, ()), IntegerPartition((1, 1))),
     {}),
    ("PROSPECT_ROWS", "1000 capped rows held no refusal",
     lambda: lambda_choosable(cycle(11), IntegerPartition((3,))),
     {"PROSPECT_ROWS": 1000}),
    ("CHOICE_CAP", "Alon-Tarsi coefficient grid is bounded at 2000000, "
     "got 9765625",
     lambda: alon_tarsi(complete_multipartite([2] * 5), 5), {}),
    ("AT_VECTORS", "exponent vectors of an Alon-Tarsi search is bounded at "
     "0, got 89",
     lambda: alon_tarsi(complete_multipartite([2, 4]), 3), {"AT_VECTORS": 0}),
    ("PARTITION_GENERIC_BOUND", "part-aligned block candidate count is "
     "bounded at 200000, got 262144",
     lambda: lambda_partitionable(complete_multipartite([1] * 18),
                                  IntegerPartition((1, 3))), {}),
]


@pytest.mark.parametrize("limit,fragment,decide,moved", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_every_stop_names_its_limit(monkeypatch, limit, fragment, decide,
                                    moved):
    for name, value in moved.items():
        monkeypatch.setattr(limits, name, value)
    text = stop_text(decide)
    assert f"{limit}: " in text
    assert fragment in text


def test_graph_reader_bounds_the_vertex_count_first(monkeypatch):
    # Checked before any allocation, and a usage error (ValueError), not
    # an undecided verdict: the CLI exits 64.
    with pytest.raises(ValueError, match="READ_VERTEX_BOUND: the vertex "
                       "count of a graph object is bounded at 1024, got "
                       "1000000000") as info:
        graph_from_json({"n": 10**9, "edges": []})
    assert not isinstance(info.value, BoundExceeded)
    monkeypatch.setattr(limits, "READ_VERTEX_BOUND", 3)
    assert graph_from_json({"n": 3, "edges": []}).n == 3
    with pytest.raises(ValueError, match="bounded at 3, got 4"):
        graph_from_json({"n": 4, "edges": []})


def test_lambda_choosable_names_every_rung_that_stopped(monkeypatch):
    monkeypatch.setattr(limits, "PROSPECT_ROWS", 1000)
    v = lambda_choosable(cycle(11), IntegerPartition((3,)))
    assert [stop.split(":")[0] for stop in v.reason.split("; ")] == [
        "KLISTS_BOUND", "PROSPECT_ROWS", "GROUPED_BOUND"]


def test_limits_are_read_at_call_time(monkeypatch):
    monkeypatch.setattr(limits, "MULTIPARTITE_BOUND", 3)
    with pytest.raises(BoundExceeded, match="MULTIPARTITE_BOUND.* 3, got 4"):
        complete_multipartite([2, 2])
    monkeypatch.setattr(limits, "GROUPED_BOUND", 40)
    chunk = next(grouped_chunks(16, (2,), chunk_rows=1))
    assert chunk.rows.shape == (1, 30)  # one prefix: vertices 0..14
    assert chunk.leaf_rows().shape == (chunk.leaves, 32)


@pytest.mark.parametrize("argv,limit", [
    (["check", "k-choosable", "--parts", "5,5", "--k", "3"], "KLISTS_BOUND"),
    (["partitions", "list", "31"], "ENUMERATION_BOUND"),
    (["partitions", "hasse", "13"], "HASSE_BOUND"),
])
def test_cli_undecided_line_starts_with_the_limit(capsys, argv, limit):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"undecided: {limit}: ")


def test_sizes_past_15_digits_are_written_in_scientific_form():
    # Four significant digits, rounded from the exact int: 3^2000 is past
    # what a float holds.  Sizes of up to 15 digits are written in full.
    for size, got in [(2 ** 1024, "1.798e+308"), (3 ** 2000, "1.748e+954"),
                      (10 ** 15, "1.000e+15"), (10 ** 15 - 1, "9" * 15)]:
        with pytest.raises(BoundExceeded) as info:
            limits.enforce("CHOICE_CAP", size, "a size")
        assert str(info.value) == (f"CHOICE_CAP: a size is bounded at "
                                   f"2000000, got {got}")


def test_limit_values():
    assert {name: getattr(limits, name) for name in LIMITS} == LIMITS


def test_readme_lists_every_limit():
    # README's strictcolor.limits list gives each limit as `NAME` = value.
    text = README.read_text()
    section = text[text.index("- `strictcolor.limits`"):
                   text.index("- `strictcolor.serialize`")]
    listed = {name: int(value.replace(",", "")) for name, value in
              re.findall(r"`([A-Z_]+)` = (\d[\d,]*)", section)}
    assert listed == {name: getattr(limits, name) for name in dir(limits)
                      if name.isupper()}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_only_the_limits_module_assigns_limits():
    bad = []
    for name, tree in _modules():
        if name == "limits.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                    node.ctx, ast.Store):
                target = getattr(node, "id", None) or node.attr
                if target in LIMITS:
                    bad.append(f"{name}: assigns {target}")
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name in LIMITS for alias in node.names):
                bad.append(f"{name}: imports a limit by value")
            if isinstance(node, ast.arguments):
                for default in node.defaults + node.kw_defaults:
                    if isinstance(default, ast.Attribute) and isinstance(
                            default.value, ast.Name) and (
                            default.value.id == "limits"):
                        bad.append(f"{name}: limits.{default.attr} as a "
                                   f"default")
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(
                           stmt, (ast.AnnAssign, ast.AugAssign)) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith(
                        ("_BOUND", "_CAP")):
                    bad.append(f"{name}: module-level {target.id}")
    assert bad == []


def test_each_limit_is_checked_in_one_function():
    sites: dict[str, set[str]] = {name: set() for name in LIMITS}

    def visit(module: str, scope: str, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope or node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "limits" and node.attr in LIMITS):
            sites[node.attr].add(f"{module}.{scope}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "enforce" and node.args
                and isinstance(node.args[0], ast.Constant)):
            sites[node.args[0].value].add(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(module, scope, child)

    for name, tree in _modules():
        if name != "limits.py":
            visit(name[:-3], "", tree)
    assert sites == {
        "MULTIPARTITE_BOUND": {"graphs.complete_multipartite"},
        "CHROMATIC_BOUND": {"graphs.find_coloring"},
        "ENUMERATION_BOUND": {"partitions.enumerate_partitions"},
        "HASSE_BOUND": {"partitions.refinement_hasse"},
        "GROUPED_BOUND": {"streams.grouped_chunks"},
        "KLISTS_BOUND": {"listcolor.k_choosable"},
        "CHOICE_CAP": {"bulk.colorable_mask", "listcolor._graph_coefficient"},
        "AT_VECTORS": {"listcolor.alon_tarsi"},
        "PARTITION_GENERIC_BOUND": {"lambdacolor.lambda_partitionable"},
        "PROSPECT_ROWS": {"lambdacolor._prospect_bad_row"},
        "READ_VERTEX_BOUND": {"serialize.graph_from_json"},
    }

"""Command line behavior: exit codes, JSON output, certificate flow."""

from __future__ import annotations

import ast
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import strictcolor
from strictcolor import bulk, limits
from strictcolor import serialize as ser
from strictcolor.cli import build_parser, main
from strictcolor.graphs import Graph, complete_multipartite, is_proper
from strictcolor.lambdacolor import check_bad_witness
from strictcolor.listcolor import l_color
from strictcolor.serialize import strict_from_json

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.with_name("README.md")

HJ_LISTS = ((1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4))


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(path, g):
    path.write_text(ser.dump(ser.graph_to_json(g)))
    return str(path)


def write_lists(path, lists):
    path.write_text(ser.dump(ser.lists_to_json(lists)))
    return str(path)


class TestPartitions:
    def test_list_counts(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "list", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_order_le_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "order", "3,3",
                               "1,1,2,4")
        assert code == 0
        assert out.strip() == "LE via {3,5}"

    def test_order_nle(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "order", "1,1,2", "2,2")
        assert code == 1
        assert out.strip() == "NLE"

    def test_hasse_dot(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "hasse", "4")
        assert code == 0
        assert out.startswith("digraph")
        assert '"{1*4}"' in out


class TestCheck:
    def test_list_color_colorable(self, capsys, tmp_path):
        cyc = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        gf = write_graph(tmp_path / "g.json", cyc)
        lf = write_lists(tmp_path / "l.json", ((1, 2),) * 4)
        code, out, _ = run_cli(capsys, "check", "list-color",
                               "--graph", gf, "--lists", lf)
        assert code == 0
        verdict = json.loads(out)
        coloring = [verdict["coloring"][str(v)] for v in range(4)]
        assert is_proper(cyc, coloring)
        assert all(c in (1, 2) for c in coloring)

    def test_list_color_refusal(self, capsys, tmp_path):
        gf = write_graph(tmp_path / "g.json", complete_multipartite((2, 4)))
        lf = write_lists(tmp_path / "l.json", HJ_LISTS)
        code, out, _ = run_cli(capsys, "check", "list-color",
                               "--graph", gf, "--lists", lf)
        assert code == 1
        assert json.loads(out)["colorable"] is False

    def test_lambda_validate(self, capsys, tmp_path):
        from strictcolor.strict import witness_k255
        wf = tmp_path / "w.json"
        wf.write_text(ser.dump(ser.assignment_to_json(witness_k255(3))))
        code, out, _ = run_cli(capsys, "check", "lambda-validate",
                               "--witness", str(wf))
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}
        broken = json.loads(wf.read_text())
        broken["lists"]["0"] = [1, 2, 3]
        wf.write_text(json.dumps(broken))
        code, out, _ = run_cli(capsys, "check", "lambda-validate",
                               "--witness", str(wf))
        assert code == 1
        assert json.loads(out)["violations"]

    def test_lambda_choosable_refusal(self, capsys):
        code, out, _ = run_cli(capsys, "check", "lambda-choosable",
                               "--parts", "3,3,3", "--lambda", "1,2")
        assert code == 1
        verdict = json.loads(out)
        w = ser.bad_witness_from_json(verdict["witness"])
        assert check_bad_witness(complete_multipartite((3, 3, 3)), w)

    def test_lambda_choosable_positive(self, capsys):
        code, out, _ = run_cli(capsys, "check", "lambda-choosable",
                               "--parts", "1,1,1", "--lambda", "1,2",
                               "--method", "exhaustive")
        assert code == 0
        assert json.loads(out)["provenance"] == "exhaustive"

    def test_lambda_choosable_undecided(self, capsys, tmp_path):
        cyc = Graph(11, [(i, (i + 1) % 11) for i in range(11)])
        gf = write_graph(tmp_path / "g.json", cyc)
        code, out, err = run_cli(capsys, "check", "lambda-choosable",
                                 "--graph", gf, "--lambda", "3")
        assert code == 2
        assert json.loads(out)["choosable"] is None
        assert "undecided" in err

    def test_k_choosable(self, capsys, tmp_path):
        cyc = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        gf = write_graph(tmp_path / "g.json", cyc)
        code, out, _ = run_cli(capsys, "check", "k-choosable",
                               "--graph", gf, "--k", "2")
        assert code == 0
        code, out, _ = run_cli(capsys, "check", "k-choosable",
                               "--parts", "2,4", "--k", "2")
        assert code == 1
        assert json.loads(out)["bad_lists"]

    @pytest.mark.parametrize("doc", [
        # K(1,2) with its middle vertex as the part of one
        {"n": 3, "edges": [[0, 1], [1, 2]], "parts": [[1], [0, 2]]},
        # K(2,4) with its parts interleaved: not 2-choosable
        {"n": 6, "edges": [[0, 1], [0, 3], [0, 4], [0, 5], [1, 2], [2, 3],
                           [2, 4], [2, 5]],
         "parts": [[0, 2], [1, 3, 4, 5]]},
    ], ids=["K12", "K24"])
    @pytest.mark.parametrize("argv", [
        ("k-choosable", "--k", "2"),
        ("lambda-choosable", "--lambda", "2", "--method", "exhaustive"),
    ], ids=["k-choosable", "lambda-choosable"])
    def test_parts_need_not_be_vertex_ranges(self, capsys, tmp_path, doc,
                                             argv):
        # The same verdict as the graph without its parts.
        verdicts = []
        for name, obj in (("parts", doc), ("plain", {"n": doc["n"],
                                                     "edges": doc["edges"]})):
            gf = tmp_path / f"{name}.json"
            gf.write_text(json.dumps(obj))
            code, out, err = run_cli(capsys, "check", *argv[:1], "--graph",
                                     str(gf), *argv[1:])
            assert code in (0, 1), err
            verdicts.append((code, json.loads(out)["choosable"]))
        assert verdicts[0] == verdicts[1]

    def test_list_color_long_path(self, capsys, tmp_path):
        n = 1024  # READ_VERTEX_BOUND
        path = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        gf = write_graph(tmp_path / "g.json", path)
        lf = write_lists(tmp_path / "l.json", ((1, 2),) * n)
        code, out, err = run_cli(capsys, "check", "list-color",
                                 "--graph", gf, "--lists", lf)
        assert code == 0, err
        verdict = json.loads(out)
        assert is_proper(path, [verdict["coloring"][str(v)]
                                for v in range(n)])

    @pytest.mark.parametrize("argv,code,witness", [
        (("--lambda", "1"), 1, True),
        (("--lambda", "1,1"), 2, False),
    ], ids=["refused", "undecided"])
    def test_lambda_choosable_long_path(self, capsys, tmp_path, argv, code,
                                        witness):
        # The walk builds the bases of a capped stream on every vertex of
        # the path without recursing per vertex.
        n = 1024  # READ_VERTEX_BOUND
        gf = write_graph(tmp_path / "g.json",
                         Graph(n, tuple((v, v + 1) for v in range(n - 1))))
        got, out, err = run_cli(capsys, "check", "lambda-choosable",
                                "--graph", gf, *argv)
        assert got == code, err
        verdict = json.loads(out)
        if witness:
            lists = verdict["witness"]["assignment"]["lists"]
            assert len(lists) == n
            assert verdict["choosable"] is False
        else:
            assert verdict["choosable"] is None
            assert err.startswith("undecided: PARTITION_GENERIC_BOUND: ")
            assert "GROUPED_BOUND: " in verdict["reason"]
            # 2^1024 choice vectors, not its 309 digits.
            assert "got 1.798e+308" in verdict["reason"]
            assert len(verdict["reason"]) < 400

    def test_usage_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", "list-color",
                               "--graph", str(tmp_path / "missing.json"),
                               "--lists", str(tmp_path / "missing.json"))
        assert code == 64
        assert "cannot read" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(capsys, "check", "lambda-validate",
                               "--witness", str(bad))
        assert code == 64
        code, _, err = run_cli(capsys, "check", "lambda-choosable",
                               "--graph", str(bad), "--parts", "2,2",
                               "--lambda", "1,1")
        assert code == 64
        code, _, err = run_cli(capsys, "not-a-command")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ("check", "lambda-choosable", "--parts", "2,2", "--lambda", "1,1"),
        ("check", "k-choosable", "--parts", "2,2", "--k", "2"),
        ("verify-claims", "--k-max", "3"),
    ], ids=["lambda-choosable", "k-choosable", "verify-claims"])
    def test_workers_flag_is_a_usage_error(self, capsys, argv):
        # Decisions run on one thread: there is no --workers to pass.
        code, out, err = run_cli(capsys, *argv, "--workers", "2")
        assert (code, out) == (64, "")
        assert err.startswith("usage: strictcolor ")
        assert "unrecognized arguments: --workers 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        '{"n": 2.7, "edges": []}',
        '{"n": 2, "edges": [[0, 1.9]]}',
        '{"n": Infinity, "edges": []}',
    ])
    def test_non_integer_graph_is_a_usage_error(self, capsys, tmp_path, text):
        gf = tmp_path / "g.json"
        gf.write_text(text)
        code, out, err = run_cli(capsys, "check", "lambda-choosable",
                                 "--graph", str(gf), "--lambda", "1,1")
        assert (code, out) == (64, "")
        assert err.startswith("error: bad graph object: ")

    def test_false_parts_are_a_usage_error(self, capsys, tmp_path):
        # The K(2,4) edges under one part: K(2,4) is not 2-choosable, and
        # one part would let the stream skip orbits that are no symmetry.
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps({
            "n": 6, "edges": [list(e) for e in
                              complete_multipartite((2, 4)).edges],
            "parts": [[0, 1, 2, 3, 4, 5]]}))
        code, out, err = run_cli(capsys, "check", "k-choosable",
                                 "--graph", str(gf), "--k", "2")
        assert (code, out) == (64, "")
        assert err.startswith("error: bad graph object: parts must be the "
                              "complete multipartite structure")

    def test_huge_vertex_count_is_a_usage_error(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"n": 1000000000, "edges": []}')
        code, out, err = run_cli(capsys, "check", "k-choosable",
                                 "--graph", str(gf), "--k", "2")
        assert (code, out) == (64, "")
        assert err.startswith("error: bad graph object: READ_VERTEX_BOUND: "
                              "the vertex count of a graph object is "
                              "bounded at 1024, got 1000000000")

    def test_unsorted_json_parts_reach_case2(self, capsys, tmp_path):
        # K(2,4,4) listed as parts of sizes 4, 2, 4: the case-2 rung reads
        # the sizes sorted, as it does for --parts.
        parts = [[0, 1, 2, 3], [4, 5], [6, 7, 8, 9]]
        edges = [[u, v] for i, p in enumerate(parts) for q in parts[i + 1:]
                 for u in p for v in q]
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps({"n": 10, "edges": edges, "parts": parts}))
        code, out, _ = run_cli(capsys, "check", "lambda-choosable",
                               "--graph", str(gf), "--lambda", "1,2")
        assert code == 0
        assert json.loads(out)["provenance"] == "case2"
        code, sorted_out, _ = run_cli(capsys, "check", "lambda-choosable",
                                      "--parts", "2,4,4", "--lambda", "1,2")
        assert code == 0 and out == sorted_out

    def test_internal_fault(self, capsys, monkeypatch):
        # A bulk mask that refuses a colorable row is a fault of the
        # program: exit 70 with a one-line diagnostic and no verdict.  The
        # prefix filter keeps every leaf, so the mask sees them all.
        monkeypatch.setattr(
            bulk, "leaf_candidates",
            lambda chunk, *_args, **_kw: np.arange(chunk.leaves))
        monkeypatch.setattr(
            bulk, "colorable_mask",
            lambda chunk, *_args, **_kw: np.zeros(chunk.shape[0], dtype=bool))
        code, out, err = run_cli(capsys, "check", "k-choosable",
                                 "--parts", "2,2", "--k", "2")
        assert code == 70
        assert out == ""
        assert err.startswith("error: internal: bulk filter and solver "
                              "disagree")
        assert "Traceback" not in err


class TestStrict:
    def test_theorem_route(self, capsys):
        code, out, _ = run_cli(capsys, "strict", "check", "--parts", "2,5,5")
        assert code == 0
        d = strict_from_json(json.loads(out))
        assert (d.strict, d.reason) == (True, "contains-K255")
        code, out, _ = run_cli(capsys, "strict", "check", "--parts", "2,4,5")
        assert code == 1
        assert strict_from_json(json.loads(out)).reason == "case2"

    def test_theorem_needs_three_parts(self, capsys):
        code, _, err = run_cli(capsys, "strict", "check", "--parts", "2,4")
        assert code == 64
        assert "search" in err

    def test_search_route(self, capsys):
        code, out, _ = run_cli(capsys, "strict", "check", "--parts", "2,4",
                               "--method", "search")
        assert code == 0
        d = strict_from_json(json.loads(out))
        assert (d.strict, d.reason) == (True, "search")
        code, out, _ = run_cli(capsys, "strict", "check", "--parts", "2,2,2",
                               "--method", "search")
        assert code == 1

    def test_search_undecided_names_limits(self, capsys, monkeypatch):
        monkeypatch.setattr(limits, "PROSPECT_ROWS", 1)
        monkeypatch.setattr(limits, "GROUPED_BOUND", 10)
        code, out, err = run_cli(capsys, "strict", "check", "--parts",
                                 "3,3,3", "--method", "search")
        assert code == 2
        assert json.loads(out)["strict"] is None
        assert err.startswith("search-undecided: ")
        assert "PROSPECT_ROWS" in err
        assert "GROUPED_BOUND" in err

    def test_quiet_leaves_stdout_alone(self, capsys):
        _, loud, _ = run_cli(capsys, "strict", "check", "--parts", "2,5,5")
        _, quiet, err = run_cli(capsys, "--quiet", "strict", "check",
                                "--parts", "2,5,5")
        assert loud == quiet
        assert err == ""


class TestDeterminism:
    def test_exhaustive_bytes_repeat(self, capsys, tmp_path):
        cyc = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        gf = write_graph(tmp_path / "c5.json", cyc)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "check", "lambda-choosable",
                                   "--graph", gf, "--lambda", "1,2",
                                   "--method", "exhaustive")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["classes_checked"] == 254800

    def test_repeat_runs_identical(self, capsys):
        runs = {run_cli(capsys, "strict", "check", "--parts", "3,4,6")[1]
                for _ in range(2)}
        assert len(runs) == 1


class TestReadme:
    def test_every_command_parses(self):
        # Parsing only: a flag renamed in the parser but not in README
        # exits 64 here.
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("strictcolor ")]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit as exc:
                pytest.fail(f"README command exits {exc.code}: {line}")


def run_module(*argv):
    """Run `python -m strictcolor` in a fresh process on this package."""
    package_root = str(Path(strictcolor.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "strictcolor", *argv],
                          capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_console_script(self):
        if tomllib is not None:  # stdlib from Python 3.11
            with PYPROJECT.open("rb") as fh:
                scripts = tomllib.load(fh)["project"]["scripts"]
            assert scripts["strictcolor"] == "strictcolor.cli:main"
        proc = run_module("partitions", "list", "5")
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 7
        proc = run_module("partitions", "order", "1,1,2", "2,2")
        assert proc.returncode == 1
        assert proc.stdout.strip() == "NLE"

    @pytest.mark.skipif(tomllib is None, reason="tomllib is stdlib from "
                        "Python 3.11")
    def test_test_imports_are_declared(self):
        with PYPROJECT.open("rb") as fh:
            project = tomllib.load(fh)["project"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                    for req in (project["dependencies"]
                                + project["optional-dependencies"]["test"])}
        imported = set()
        for path in PYPROJECT.parent.glob("tests/*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported |= {a.name.split(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = (imported - set(sys.stdlib_module_names)
                       - {"strictcolor", "oracles"})
        assert "pytest" in third_party  # the scan sees the imports
        assert third_party <= declared

    @pytest.mark.skipif(tomllib is None, reason="tomllib is stdlib from "
                        "Python 3.11")
    def test_numpy_floor_has_bitwise_count(self):
        # bulk.leaf_candidates calls np.bitwise_count, new in NumPy 2.0.
        with PYPROJECT.open("rb") as fh:
            deps = tomllib.load(fh)["project"]["dependencies"]
        [floor] = [re.fullmatch(r"numpy>=(\d+)(?:\.(\d+))?", d)
                   for d in deps if d.startswith("numpy")]
        assert floor is not None
        assert (int(floor[1]), int(floor[2] or 0)) >= (2, 0)

    @pytest.mark.skipif(tomllib is None, reason="tomllib is stdlib from "
                        "Python 3.11")
    def test_python_floor_has_int_bit_count(self):
        # streams.canonical_class calls int.bit_count, new in Python 3.10.
        with PYPROJECT.open("rb") as fh:
            spec = tomllib.load(fh)["project"]["requires-python"]
        floor = re.fullmatch(r">=\s*(\d+)\.(\d+)(?:\.\d+)?", spec)
        assert floor is not None
        assert (int(floor[1]), int(floor[2])) >= (3, 10)

    @pytest.mark.skipif(shutil.which("strictcolor") is None,
                        reason="strictcolor console script not installed")
    def test_installed_console_script(self):
        proc = subprocess.run(
            [shutil.which("strictcolor"), "partitions", "list", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 7


class TestVerifyClaims:
    @pytest.mark.parametrize("where", ["file", "under-a-file",
                                       "report-is-a-directory"])
    def test_unusable_out_is_a_usage_error(self, capsys, tmp_path, where):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = {"file": taken, "under-a-file": taken / "x",
               "report-is-a-directory": tmp_path / "certs"}[where]
        want = f"error: cannot use --out {out}: "
        if where == "report-is-a-directory":
            (out / "report.json").mkdir(parents=True)
            want = f"error: cannot write {out / 'report.json'}: "
        code, stdout, err = run_cli(capsys, "--quiet", "verify-claims",
                                    "--k-max", "3", "--out", str(out))
        assert (code, stdout) == (64, "")
        assert err.startswith(want)
        assert "Traceback" not in err

    def test_report_certificates_and_tampering(self, capsys, tmp_path):
        out_dir = tmp_path / "certs"
        code, out, _ = run_cli(capsys, "--quiet", "verify-claims",
                               "--k-max", "3", "--out", str(out_dir))
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        ids = [e["claim_id"] for e in report["entries"]]
        assert "lemma-k3k-k3" in ids
        assert "lemma-k3k-k4" not in ids
        assert "hj-unique-k24" in ids
        assert "exhaustive-k222" in ids
        assert "unit-equivalence" in ids
        for entry in report["entries"]:
            assert entry["status"] == "pass"
            assert entry["elapsed"] >= 0
        assert json.loads((out_dir / "report.json").read_text()) == report

        witness_file = out_dir / "lemma-k246-k3.json"
        code, out, _ = run_cli(capsys, "check", "lambda-validate",
                               "--witness", str(witness_file))
        assert code == 0

        gf = write_graph(tmp_path / "k24.json", complete_multipartite((2, 4)))
        code, out, _ = run_cli(capsys, "check", "list-color",
                               "--graph", gf,
                               "--lists", str(out_dir / "hj-k24.json"))
        assert code == 1

        target = out_dir / "lemma-k255-k3.json"
        tampered = json.loads(target.read_text())
        tampered["lists"]["2"] = [1, 2, 3]
        target.write_text(json.dumps(tampered))
        code, out, _ = run_cli(capsys, "--quiet", "verify-claims",
                               "--k-max", "3", "--out", str(out_dir))
        assert code == 1
        report = json.loads(out)
        failing = {e["claim_id"] for e in report["entries"]
                   if e["status"] != "pass"}
        assert failing == {"lemma-k255-k3"}

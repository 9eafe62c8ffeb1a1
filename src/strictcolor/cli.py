"""Command line front end: decisions, certificates, and the claim report.

Four command families: `partitions` for the order on integer partitions,
`check` for colorability and choosability questions, `strict check` for
the strictness decision by either route, and `verify-claims` for the
one-shot re-verification of every desk-scale claim with certificate
output.

JSON verdicts go to standard output; human diagnostics go to standard
error and `--quiet` drops them.  Exit codes: 0 for yes (colorable,
choosable, valid, strict, all claims pass), 1 for a definite no, 2 for
undecided, 64 for unusable input, 70 for an internal fault, such as the
bulk filter and the solver disagreeing on a row, which prints no verdict.
When a limit of `strictcolor.limits` leaves a question undecided, the
`undecided:` line on standard error starts with that limit's name.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from itertools import combinations
from pathlib import Path
from typing import Any, Callable, Sequence

from . import serialize as ser
from .errors import BoundExceeded
from .graphs import Graph, chromatic_number, complete_multipartite
from .lambdacolor import lambda_choosable, validate_lambda
from .listcolor import k_choosable, l_color, l_color_multipartite
from .partitions import (
    IntegerPartition,
    enumerate_partitions,
    format_partition,
    leq,
    near_unit_partition,
    parse_partition,
    refinement_hasse_dot,
    unit_partition,
)
from .streams import canonical_class
from .strict import (
    extend_witness,
    decide_strict_cmp,
    decide_strict_search,
    hoffman_johnson_enumerate,
    witness_k246,
    witness_k255,
    witness_k3k,
)

OK, NO, UNDECIDED, USAGE, INTERNAL = 0, 1, 2, 64, 70

WITNESS_MAKERS = (("k3k", witness_k3k), ("k246", witness_k246),
                  ("k255", witness_k255))


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code instead of its default 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _emit(obj: Any) -> None:
    sys.stdout.write(ser.dump(obj))


def _read_json(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph", None) and getattr(args, "parts", None):
        raise ValueError("give either --graph or --parts, not both")
    if getattr(args, "graph", None):
        return ser.graph_from_json(_read_json(args.graph))
    if getattr(args, "parts", None):
        return complete_multipartite(parse_partition(args.parts).parts)
    raise ValueError("a graph is needed: --graph FILE or --parts SIZES")


def cmd_partitions(args: argparse.Namespace) -> int:
    if args.action == "list":
        for p in enumerate_partitions(args.k):
            print(format_partition(p))
        return OK
    if args.action == "hasse":
        sys.stdout.write(refinement_hasse_dot(args.k))
        return OK
    lo = parse_partition(args.lo)
    hi = parse_partition(args.hi)
    w = leq(lo, hi)
    if w is None:
        print("NLE")
        return NO
    inter = w.intermediate if w.intermediate is not None else lo
    print(f"LE via {{{format_partition(inter)}}}")
    return OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.question == "list-color":
        g = _load_graph(args)
        lists = ser.lists_from_json(_read_json(args.lists))
        out = l_color(g, lists)
        _emit(ser.outcome_to_json(out))
        return OK if out.colorable else NO
    if args.question == "lambda-validate":
        a = ser.assignment_from_json(_read_json(args.witness))
        report = validate_lambda(a)
        _emit({"ok": report.ok, "violations": list(report.violations)})
        if not report.ok:
            _say(args, f"{len(report.violations)} violation(s)")
        return OK if report.ok else NO
    if args.question == "lambda-choosable":
        g = _load_graph(args)
        lam = parse_partition(getattr(args, "lambda"))
        verdict = lambda_choosable(g, lam, method=args.method)
        _emit(ser.lambda_verdict_to_json(verdict))
        if verdict.choosable is None:
            _say(args, f"undecided: {verdict.reason}")
            return UNDECIDED
        return OK if verdict.choosable else NO
    g = _load_graph(args)
    verdict = k_choosable(g, args.k)
    _emit(ser.choosability_to_json(verdict))
    return OK if verdict.choosable else NO


def cmd_strict(args: argparse.Namespace) -> int:
    sizes = parse_partition(args.parts).parts
    if args.method == "theorem":
        if len(sizes) < 3:
            print("the subgraph characterization covers three or more "
                  "parts only; use --method search for smaller k",
                  file=sys.stderr)
            return USAGE
        decision = decide_strict_cmp(sizes)
    else:
        decision = decide_strict_search(complete_multipartite(sizes),
                                        len(sizes))
    _emit(ser.strict_to_json(decision))
    _say(args, f"{decision.reason}")
    if decision.strict is None:
        return UNDECIDED
    return OK if decision.strict else NO


def _claim_lemma(name: str, make, k: int,
                 out_dir: Path | None) -> tuple[bool, str]:
    expected = make(k)
    path = out_dir / f"lemma-{name}-k{k}.json" if out_dir else None
    if path is not None and path.exists():
        a = ser.assignment_from_json(_read_json(str(path)))
        detail = f"re-validated {path}"
    else:
        a = expected
        if path is not None:
            path.write_text(ser.dump(ser.assignment_to_json(a)))
        detail = str(path) if path is not None else "in-memory"
    if a.sizes != expected.sizes or a.lam != expected.lam:
        return False, f"{detail}: profile or partition drifted"
    if not validate_lambda(a).ok:
        return False, f"{detail}: assignment fails validation"
    g = complete_multipartite(a.sizes)
    if l_color(g, a.lists).colorable:
        return False, f"{detail}: solver colored the assignment"
    if l_color_multipartite(a.sizes, a.lists).colorable:
        return False, f"{detail}: ownership solver disagreed"
    return True, detail


def _claim_extension(name: str, make, seed: int) -> tuple[bool, str]:
    rng = random.Random(f"{seed}:{name}")
    base = make(3)
    host = tuple(s + rng.randrange(4) for s in base.sizes)
    w = extend_witness(base, host)
    if not validate_lambda(w).ok:
        return False, f"extension onto {host} fails validation"
    if l_color(complete_multipartite(w.sizes), w.lists).colorable:
        return False, f"extension onto {host} was colored"
    return True, f"host {format_partition(IntegerPartition(w.sizes))}"


def _claim_hj_unique(out_dir: Path | None) -> tuple[bool, str]:
    reps = hoffman_johnson_enumerate(2, 4)
    table = ((1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4))
    parts = ((0, 1), (2, 3, 4, 5))
    detail = f"{len(reps)} class(es)"
    if out_dir is not None and len(reps) == 1:
        path = out_dir / "hj-k24.json"
        path.write_text(ser.dump(ser.lists_to_json(reps[0])))
        detail = str(path)
    if len(reps) != 1:
        return False, detail
    if canonical_class(reps[0], parts) != canonical_class(table, parts):
        return False, f"{detail}: class differs from the known table"
    return True, detail


def _claim_exhaustive(sizes: tuple[int, ...]) -> tuple[bool, str]:
    g = complete_multipartite(sizes)
    v = lambda_choosable(g, IntegerPartition((1, 2)), method="exhaustive")
    if v.choosable is not True:
        return False, f"verdict {v.choosable} ({v.provenance})"
    return True, f"{v.classes_checked} classes"


def _claim_unit_equivalence() -> tuple[bool, str]:
    count = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for m in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs))
                          if m >> i & 1])
            chi = chromatic_number(g)
            for k in range(1, 4):
                v = lambda_choosable(g, unit_partition(k))
                if v.choosable is not (chi <= k):
                    return False, f"disagreement on n={n} mask={m} k={k}"
                count += 1
    return True, f"{count} verdicts"


def cmd_verify_claims(args: argparse.Namespace) -> int:
    if args.k_max < 3:
        raise ValueError(f"--k-max must be at least 3, got {args.k_max}")
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use --out {out_dir}: {exc}") from None
    claims: list[tuple[str, Callable[[], tuple[bool, str]]]] = []
    for k in range(3, args.k_max + 1):
        for name, make in WITNESS_MAKERS:
            claims.append((f"lemma-{name}-k{k}",
                           lambda name=name, make=make, k=k:
                           _claim_lemma(name, make, k, out_dir)))
    for name, make in WITNESS_MAKERS:
        claims.append((f"extend-{name}",
                       lambda name=name, make=make:
                       _claim_extension(name, make, args.seed)))
    claims.append(("hj-unique-k24", lambda: _claim_hj_unique(out_dir)))
    claims.append(("hj-empty-k23",
                   lambda: (hoffman_johnson_enumerate(2, 3) == (),
                            "no refusing class")))
    claims.append(("exhaustive-k3",
                   lambda: _claim_exhaustive((1, 1, 1))))
    claims.append(("exhaustive-k222",
                   lambda: _claim_exhaustive((2, 2, 2))))
    claims.append(("unit-equivalence", _claim_unit_equivalence))

    entries = []
    for claim_id, fn in claims:
        start = time.perf_counter()
        try:
            ok, detail = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        entries.append({"claim_id": claim_id, "status": status,
                        "detail": detail,
                        "elapsed": round(time.perf_counter() - start, 3)})
        _say(args, f"{claim_id:<18} {status:<4} "
                   f"{entries[-1]['elapsed']:>8.3f}s  {detail}")
    report = {"entries": entries,
              "ok": all(e["status"] == "pass" for e in entries)}
    if out_dir is not None:
        try:
            (out_dir / "report.json").write_text(ser.dump(report))
        except OSError as exc:
            raise ValueError(f"cannot write {out_dir / 'report.json'}: "
                             f"{exc}") from None
    _emit(report)
    return OK if report["ok"] else NO


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strictcolor")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress diagnostics on standard error")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    parts = sub.add_parser("partitions",
                           help="the refinement order on partitions")
    psub = parts.add_subparsers(dest="action", required=True,
                                parser_class=_Parser)
    p_list = psub.add_parser("list", help="all partitions of k")
    p_list.add_argument("k", type=int)
    p_order = psub.add_parser("order",
                              help="compare two partitions in the order")
    p_order.add_argument("lo")
    p_order.add_argument("hi")
    p_hasse = psub.add_parser("hasse", help="refinement Hasse diagram, DOT")
    p_hasse.add_argument("k", type=int)
    parts.set_defaults(func=cmd_partitions)

    check = sub.add_parser("check", help="colorability and choosability")
    csub = check.add_subparsers(dest="question", required=True,
                                parser_class=_Parser)

    def graph_source(p):
        p.add_argument("--graph", help="graph JSON file")
        p.add_argument("--parts",
                       help="complete multipartite part sizes, e.g. 2,4,6")

    c_lc = csub.add_parser("list-color", help="color from per-vertex lists")
    graph_source(c_lc)
    c_lc.add_argument("--lists", required=True,
                      help="list assignment JSON file")
    c_lv = csub.add_parser("lambda-validate",
                           help="validate a grouped assignment file")
    c_lv.add_argument("--witness", required=True,
                      help="grouped assignment JSON file")
    c_ch = csub.add_parser("lambda-choosable",
                           help="decide choosability for grouped lists")
    graph_source(c_ch)
    c_ch.add_argument("--lambda", required=True,
                      help="integer partition, e.g. 1,2 or 1*2,2")
    c_ch.add_argument("--method", choices=("auto", "exhaustive"),
                      default="auto")
    c_kc = csub.add_parser("k-choosable",
                           help="decide plain k-choosability")
    graph_source(c_kc)
    c_kc.add_argument("--k", type=int, required=True)
    check.set_defaults(func=cmd_check)

    strict = sub.add_parser("strict", help="strict colorability decisions")
    ssub = strict.add_subparsers(dest="action", required=True,
                                 parser_class=_Parser)
    s_check = ssub.add_parser("check", help="decide strictness of a profile")
    s_check.add_argument("--parts", required=True,
                         help="part sizes, e.g. 2,4,6")
    s_check.add_argument("--method", choices=("theorem", "search"),
                         default="theorem")
    strict.set_defaults(func=cmd_strict)

    verify = sub.add_parser("verify-claims",
                            help="re-verify every desk-scale claim")
    verify.add_argument("--k-max", type=int, default=6,
                        help="largest part count for the witness lemmas, >= 3")
    verify.add_argument("--out", help="directory for certificates and "
                                      "report.json")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the random host extensions")
    verify.set_defaults(func=cmd_verify_claims)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return UNDECIDED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())

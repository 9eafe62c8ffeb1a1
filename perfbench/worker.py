"""One workload in its own process: set up, time passes, check verdicts.

Started by run.py, never by hand.  Prints ``ready`` once the package is
imported and the inputs are built, so the parent can time set-up, then
one JSON line with the raw measurements once everything is checked.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import strictcolor
from tracing import EXACT_COUNTS, Tracer
from workloads import WORKLOADS, Workload, time_pool

SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(w: Workload, instances: list) -> tuple[float, list]:
    """Issue every decision once; exceptions are outcomes, not crashes."""
    outs = []
    t0 = perf_counter()
    for inst in instances:
        try:
            outs.append(w.decide(inst))
        except Exception as exc:  # a failed decision, counted by check
            outs.append(exc)
    return perf_counter() - t0, outs


def run_passes(w: Workload, instances: list, seconds: float,
               tracers: list | None = None) -> tuple[list, list]:
    """Passes until ``seconds`` have been measured, at least one."""
    times, outs = [], []
    while not times or sum(times) < seconds:
        if tracers is None:
            took, got = run_pass(w, instances)
        else:
            tracer = Tracer()
            with tracer.installed():
                took, got = run_pass(w, instances)
            tracers.append(tracer)
        times.append(took)
        outs.append(got)
    return times, outs


def check_pass(w: Workload, instances: list, outs: list,
               refs: list) -> list[str]:
    problems = []
    for inst, out, ref in zip(instances, outs, refs):
        if isinstance(out, Exception):
            problems.append(f"{inst}: raised {type(out).__name__}: {out}")
            continue
        try:
            problem = w.check(inst, out, ref)
        except Exception as exc:  # a certificate that breaks its checker
            problem = f"{inst}: check raised {type(exc).__name__}: {exc}"
        if problem:
            problems.append(problem)
    return problems


def pool_speedup(w: Workload) -> float:
    """mask_stream time at workers=1 over workers=2, on fixed rows."""
    case = w.pool()
    one, two = [], []
    for _ in range(2):
        one.append(time_pool(case, 1))
        two.append(time_pool(case, 2))
    return median(one) / median(two)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if Path(strictcolor.__file__).resolve().parent.parent != SRC:
        print(f"strictcolor imported from {strictcolor.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    instances = w.build(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    times, outs = run_passes(w, instances, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": times, "peak_rss_mb": peak_rss_mb}
    problems: list[str] = []
    if args.trace:
        tracers: list[Tracer] = []
        traced, traced_outs = run_passes(w, instances, args.seconds, tracers)
        outs += traced_outs
        # The comparison route is the reference, so it runs untimed; its
        # span is still reported so a change to it shows in the trace.
        ref_tracer = Tracer()
        with ref_tracer.installed():
            refs = [w.reference(inst) for inst in instances]
        reports = [t.report() for t in tracers]
        layers = {name: median(r[name] for r in reports)
                  for name in reports[0]}
        layers["strict.cmp_s"] = ref_tracer.report()["strict.cmp_s"]
        for name in EXACT_COUNTS:
            seen = {r[name] for r in reports}
            if len(seen) > 1:
                problems.append(f"{name} differs between passes: {seen}")
            layers[name] = reports[0][name]
        layers["trace.overhead_s"] = median(traced) - median(times)
        layers["bulk.mask_stream_w2_speedup"] = pool_speedup(w)
        result["layers"] = layers
    else:
        refs = [w.reference(inst) for inst in instances]

    failed = 0
    for got in outs:
        found = check_pass(w, instances, got, refs)
        failed += len(found)
        problems += found
    result.update(attempted=len(instances) * len(outs), failed=failed,
                  problems=problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

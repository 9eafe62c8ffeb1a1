"""Benchmark of strictcolor's four stream -> mask -> confirm decision loops.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-k222 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 runs the same passes untraced and then traced, and prints the
per-layer self times and counts with the tracing overhead.  The last line
of output is one JSON object: correct, attempted, failed, metrics.  The
lines before it print every metric with its unit, plus failed_share.

The package is imported from src/ of the checkout; nothing is installed.
Each workload runs in a child process, so its peak RSS is its own, and
set-up is timed as the median of several fresh interpreter starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("sweep-k222", "choice-k24", "refusals-hj", "search-strict")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_speedup"):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args,
                            stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    took = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, took


def finish_worker(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def setup_seconds(base: list[str]) -> float:
    """Median time to a worker's ready line, after one warm-up start."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc, took = start_worker(base + ["--setup-only"])
        finish_worker(proc)
        if i:
            samples.append(took)
    return median(samples)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setup_s = setup_seconds(base) if not trace else None
    proc, _ = start_worker(base + ["--seconds", str(seconds),
                                   "--trace", str(trace)])
    raw = json.loads(finish_worker(proc).strip().splitlines()[-1])
    if trace:
        values = raw["layers"]
        units = {k: layer_unit(k) for k in values}
    else:
        values = {"wall_s": median(raw["wall_s"]), "setup_s": setup_s,
                  "peak_rss_mb": raw["peak_rss_mb"]}
        units = END_TO_END_UNITS
    for problem in raw["problems"]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    return {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "passes": len(raw["wall_s"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def print_table(name: str, result: dict) -> None:
    share = result["failed"] / result["attempted"]
    print(f"{name}: {result['passes']} passes, {result['attempted']} "
          f"decisions, failed_share {share:.4f} ({result['failed']} / "
          f"{result['attempted']}), correct {result['correct']}")
    for metric, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {metric:34s} {shown} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "strictcolor" / "__init__.py").is_file():
        print(f"no strictcolor sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    import numpy
    print(f"machine: nproc {os.cpu_count()}, Python "
          f"{platform.python_version()}, numpy {numpy.__version__}, "
          f"workers 1, seed {args.seed}")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
            print_table(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        out = results[names[0]]
        out.pop("passes")
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

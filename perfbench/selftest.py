"""Self-test of the benchmark: output shape and exactly repeating counts.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py                 # all workloads, ~6 min
    python3 perfbench/selftest.py choice-k24      # one workload

For each workload it makes one untraced run and two traced runs with
different seeds, then checks that every metric BENCHMARK.json names is
printed with its unit, that every run is correct with nothing failed, and
that the exact counts are identical in both traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
from run import WORKLOAD_NAMES  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          cwd=HERE.parent)
    return json.loads(done.stdout.strip().splitlines()[-1])


def shape_problems(result: dict, spec: list[dict]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct {result['correct']}, failed "
                        f"{result['failed']} of {result['attempted']}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {got} differ from BENCHMARK.json {want}")
    return problems


def main() -> int:
    names = sys.argv[1:] or list(WORKLOAD_NAMES)
    problems = []
    for name in names:
        problems += [f"{name} untraced: {p}" for p in
                     shape_problems(run(name, 1, 0), SPEC["end_to_end"])]
        traced = [run(name, seed, 1) for seed in (1, 2)]
        for result in traced:
            problems += [f"{name} traced: {p}" for p in
                         shape_problems(result, SPEC["per_layer"])]
        for count in EXACT_COUNTS:
            seen = [r["metrics"][count]["value"] for r in traced]
            if seen[0] != seen[1]:
                problems.append(f"{name}: {count} differs between runs: "
                                f"{seen}")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

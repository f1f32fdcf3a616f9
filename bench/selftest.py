"""Self-test of the benchmark (not part of the repository's test suite).

    python3 bench/selftest.py

1. A very short run of each workload, untraced and traced, must print
   every metric that ``BENCHMARK.json`` names, with its unit, and no other,
   and report no failed operation.
2. Each workload's check must pass on the program's real output and
   report every operation as failed when the expected values are wrong.

Exits with 0 when every step holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Added to every expected (delta, Delta): above each workload's tolerance
# (1e-6 curves, 1e-4 diamond, 3e-3 experiment).
WRONG_BY = 0.01


def short_runs(spec):
    """Step 1; returns a list of problems."""
    problems = []
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "7", "--seconds", "0.5",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            if set(out) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(out)}")
            if units != wanted[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(wanted[trace]))}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{tag}: {out['attempted']} attempted, "
                                f"{out['failed']} failed")
            print(f"{tag}: {out['attempted']} attempted, {out['failed']} failed, "
                  f"{len(units)} metrics")
    return problems


def wrong_expectations():
    """Step 2; returns a list of problems."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from worker import run_cycles

    problems = []
    for name, (make_cycle, run, check) in workloads.WORKLOADS.items():
        ops = make_cycle(random.Random(7))
        if name == "curves":
            ops = ops[:len(workloads.CURVE_SCHEMES)]
        wrong = copy.deepcopy(ops)
        for op in wrong:
            for key in ("delta", "Delta"):
                if key in op.expected:
                    op.expected[key] += WRONG_BY
        _, _, failed_right = run_cycles(ops, run, check, 0)
        _, _, failed_wrong = run_cycles(wrong, run, check, 0)
        print(f"{name}: {len(ops)} operations; failed with right expected "
              f"values {failed_right}, with wrong ones {failed_wrong}")
        if failed_right != 0 or failed_wrong != len(ops):
            problems.append(f"{name}: check does not separate right from wrong")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = short_runs(spec) + wrong_expectations()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

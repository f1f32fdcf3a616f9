"""Benchmark of qtradeoff: the `curves`, `diamond` and `experiment` workloads.

    python3 bench/run.py --workload curves --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

Run from the root of a checkout that holds ``src/qtradeoff``.  Each
workload runs closed-loop with one client in a fresh child process
(``worker.py``) with one BLAS/OpenMP thread.  Set-up time is measured on
``SETUP_SAMPLES`` fresh interpreters and reported as their median.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a run in which every other cycle is traced.  Every run appends a record
to ``bench/results/runs.jsonl``; a traced run also writes its spans to
``bench/results/spans-<workload>.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("curves", "diamond", "experiment")
SETUP_SAMPLES = 7
# Seconds a child may take beyond the measured time: set-up, the warm-up
# operation and the rest of the last cycle.
CHILD_SLACK_S = 120
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload, seed, seconds=0.0, trace=0, setup_only=False):
    """Start one worker process, wait for it, and return its result with
    ``setup_s``, the time from its start until its first operation may
    begin."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def measure(workload, seed, seconds, trace):
    """One run of a workload; returns the printed result and the record."""
    os.makedirs(RESULTS, exist_ok=True)
    probes = [run_worker(workload, seed, setup_only=True)
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker(workload, seed, seconds, trace)
    setups = [r["setup_s"] for r in probes] + [res["setup_s"]]
    imports = [r["import_s"] for r in probes] + [res["import_s"]]
    if trace:
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = statistics.median(imports)
        units = dict(tracing.METRICS)
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "ops_per_s": res["ops_per_s"],
                   "op_p50_ms": res["op_p50_ms"],
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "peak_rss_mb": "MB"}
    out = {"correct": res["failed"] == 0, "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **{k: out[k] for k in ("correct", "attempted", "failed", "metrics")},
        "reference": {k: res[k] for k in ("op_p90_ms", "op_samples",
                                          "cycle_length", "op_times_s")},
        "setup_samples_s": setups, "import_samples_s": imports,
        "machine": machine(res),
    }
    with open(os.path.join(RESULTS, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return out, record


def machine(res):
    """Revision and machine facts for the results record."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"git_revision": revision, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": res["python"],
            "numpy": res["numpy"], "scipy": res["scipy"]}


def report(workload, out, record):
    """Human-readable lines for one workload."""
    print(f"{workload}: attempted {out['attempted']}, failed {out['failed']}")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    ref = record["reference"]
    if record["trace"] == 0:
        print(f"  (reference) op_p90_ms = {ref['op_p90_ms']:.6g} ms "
              f"over {ref['op_samples']} operations")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qtradeoff", "__init__.py")):
        print(f"run.py: no src/qtradeoff under {ROOT}", file=sys.stderr)
        return 2
    # Compile the sources once, so no timed interpreter pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), HERE], check=True,
                   stdout=subprocess.DEVNULL)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    try:
        for name in names:
            outs[name], record = measure(name, args.seed, args.seconds,
                                         args.trace)
            report(name, outs[name], record)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outs[names[0]] if len(names) == 1 else outs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

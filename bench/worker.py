"""One benchmark process: import the program, build a workload's inputs
and, unless asked only to set up, run the workload closed-loop.

    python3 bench/worker.py --workload curves --seed 1 --seconds 30 --trace 0
    python3 bench/worker.py --workload curves --seed 1 --setup-only

``run.py`` starts this script in a fresh interpreter and reads the JSON
object it prints as its last line.  A traced run writes its spans to
``bench/results/spans-<workload>.json``.  ``ready`` is read from the
system-wide monotonic clock, so the runner can subtract the moment it
started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

clock = time.perf_counter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cycles(ops, run, check, seconds, tracer=None):
    """Repeat the cycle ``ops`` until ``seconds`` have passed, whole cycles
    only.  With a tracer, odd cycles run traced and the run ends after an
    even number of cycles, so traced and untraced operations have the
    same mix.  Returns (untraced op seconds, traced op seconds, failed)."""
    plain, traced_times = [], []
    failed = 0
    start = clock()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        for op in ops:
            if traced:
                tracer.op = len(traced_times)
                tracer.install()
            t = clock()
            try:
                out = run(op.args)
            except Exception:
                out = None
                traceback.print_exc()
            finally:
                dt = clock() - t
                if traced:
                    tracer.uninstall()
            (traced_times if traced else plain).append(dt)
            try:
                ok = out is not None and check(op, out)
            except Exception:
                ok = False
                traceback.print_exc()
            if not ok:
                failed += 1
                print(f"worker: check failed: {op.label} {op.args}",
                      file=sys.stderr)
        cycle += 1
        if clock() - start >= seconds and (tracer is None or cycle % 2 == 0):
            return plain, traced_times, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t = clock()
    sys.path.insert(0, SRC)
    import qtradeoff
    import_s = clock() - t
    if os.path.dirname(os.path.dirname(os.path.abspath(qtradeoff.__file__))) != SRC:
        print(f"worker: imported qtradeoff from {qtradeoff.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    make_cycle, run, check = workloads.WORKLOADS[args.workload]
    ops = make_cycle(random.Random(args.seed))
    result = {"ready": time.monotonic(), "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    run(ops[0].args)  # untimed warm-up
    tracer = None
    if args.trace:
        from qtradeoff import (experiment, instruments, measures, qmath,
                               schemes, states, supopt)
        import tracing
        tracer = tracing.Tracer({
            "experiment": experiment, "instruments": instruments,
            "measures": measures, "qmath": qmath, "schemes": schemes,
            "states": states, "supopt": supopt})
    plain, traced, failed = run_cycles(ops, run, check, args.seconds, tracer)

    import numpy
    import scipy
    times = sorted(plain)
    result.update({
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "cycle_length": len(ops),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        # Reference only: a p90 over a few hundred operations is not steady.
        "op_p90_ms": 1e3 * times[min(len(times) - 1, int(0.9 * len(times)))],
        "op_samples": len(times),
        "op_times_s": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_ms_per_op"] = 1e3 * (
            statistics.median(traced) - statistics.median(plain))
        result["layers"] = layers
        results = os.path.join(os.path.dirname(SRC), "bench", "results")
        os.makedirs(results, exist_ok=True)
        tracer.dump(os.path.join(results, f"spans-{args.workload}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

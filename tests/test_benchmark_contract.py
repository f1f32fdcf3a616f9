"""The benchmark's workloads against the program.

``bench/workloads.py`` is imported as it is and one seeded cycle of each
workload runs, every operation judged by the workload's own check.  A
name the benchmark calls that the program no longer has, or an output
the benchmark no longer accepts, fails here rather than in a benchmark
run.  The same cycle runs once more under ``bench/tracing.py``'s tracer,
as the benchmark's traced run does, so a module attribute the tracer
wraps cannot break that run unseen.
"""

import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from qtradeoff import (
    experiment, instruments, measures, qmath, schemes, states, supopt)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads").WORKLOADS
tracing = load("tracing")

# The modules the worker hands the tracer.
TRACED_MODULES = {
    "experiment": experiment, "instruments": instruments,
    "measures": measures, "qmath": qmath, "schemes": schemes,
    "states": states, "supopt": supopt}
# Per-layer metrics that the worker and the runner fill in, not the tracer.
UNTRACED_METRICS = {"setup.import_s", "trace.overhead_ms_per_op"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seeded_cycle_passes_its_checks(name):
    make_cycle, run, check = WORKLOADS[name]
    ops = make_cycle(random.Random(1))
    assert ops
    assert [op.label for op in ops if not check(op, run(op.args))] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_traced_cycle_passes_its_checks(name):
    originals = {(mod, attr): getattr(TRACED_MODULES[mod], attr)
                 for _, _, attrs in tracing.TARGETS for mod, attr in attrs
                 if hasattr(TRACED_MODULES.get(mod), attr)}
    make_cycle, run, check = WORKLOADS[name]
    ops = make_cycle(random.Random(1))
    tracer = tracing.Tracer(TRACED_MODULES)
    failed = []
    for i, op in enumerate(ops):
        tracer.op = i
        tracer.install()
        try:
            out = run(op.args)
        finally:
            tracer.uninstall()
        if not check(op, out):
            failed.append(op.label)
    assert failed == []
    assert tracer.spans
    metrics = tracer.layer_metrics(len(ops))
    assert set(metrics) == {m for m, _ in tracing.METRICS} - UNTRACED_METRICS
    assert all(math.isfinite(v) for v in metrics.values())
    assert all(getattr(TRACED_MODULES[mod], attr) is fn
               for (mod, attr), fn in originals.items())

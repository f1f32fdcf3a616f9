"""The benchmark's workloads against the program.

``bench/workloads.py`` is imported as it is and one seeded cycle of each
workload runs, every operation judged by the workload's own check.  A
name the benchmark calls that the program no longer has, or an output
the benchmark no longer accepts, fails here rather than in a benchmark
run.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seeded_cycle_passes_its_checks(name):
    make_cycle, run, check = WORKLOADS[name]
    ops = make_cycle(random.Random(1))
    assert ops
    assert [op.label for op in ops if not check(op, run(op.args))] == []

"""``import qtradeoff`` loads only the package root, every CLI path
stays numpy-only, and no evaluation loads ``numpy.random``.

The package's only runtime dependency is numpy; scipy is a test
dependency of the oracles in ``tests/oracles.py`` and of the reference
solvers.  ``scipy.optimize`` alone costs more start-up time and memory
than the rest of the package together.  Each check runs in a fresh
interpreter that imports the package from this checkout.
"""

import json
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import qtradeoff

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qtradeoff.__file__)))

# `import qtradeoff`, which loads no submodule and no numpy, so that
# neither the checks of `verify` nor the CLI count towards the start-up
# time of an importer (ROOT_IMPORT below checks that alone); every
# non-diamond kind of every sweep scheme, `eval`, and `experiment` on a
# config whose target fit takes the rim branch (amplitude 1); then the
# diamond kind through `eval` and `sweep`.  None may load any scipy module,
# nor `qtradeoff.supopt`, the test oracles' knobs.
GUARD = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

import qtradeoff
assert not loaded(), loaded()
for name in ("qtradeoff.verification", "qtradeoff.cli"):
    assert name not in sys.modules, name
from qtradeoff.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv
    assert "qtradeoff.supopt" not in sys.modules, argv

kinds = ["worst-case-trace-norm", "worst-case-hilbert-schmidt",
         "worst-case-infidelity", "state-averaged-trace-norm"]
for scheme in ("optimal", "cloner", "swap", "diagonal"):
    for kind in kinds:
        run("sweep", "--scheme", scheme, "--steps", "3", "--kind", kind,
            "--out", f"{scheme}-{kind}.csv")
        run("eval", "--instrument", "ins.json", "--kind", kind)
run("experiment", "--config", "rim.json", "--out", "rim")
with open("rim/estimate.json") as fh:
    assert json.load(fh)["diagnostics"]["delta"]["amplitude"] == 1.0
assert not loaded(), loaded()
run("eval", "--instrument", "ins.json", "--kind", "diamond")
run("sweep", "--scheme", "cloner", "--kind", "diamond", "--steps", "3",
    "--out", "cloner-diamond.csv")
assert not loaded(), loaded()
print("ok")
"""


ROOT_IMPORT = """
import sys
import qtradeoff
loaded = sorted(m for m in sys.modules
                if m.startswith("qtradeoff.") or m.split(".")[0] == "numpy")
assert not loaded, loaded
assert qtradeoff.__version__ == "0.1.0", qtradeoff.__version__
print("ok")
"""


# Every module of the package, then one diamond evaluation and one point
# of every scheme under every other kind (a non-unital channel too, for
# the quadrature), as the benchmark's diamond and curves workloads run
# them.  None may load numpy.random: it adds about 6 MB of resident
# memory, against a 5% bound on the benchmark's peak_rss_mb, and only
# simulate_dataset draws.
NO_NUMPY_RANDOM = """
import importlib, pkgutil, sys
import numpy as np
import qtradeoff
for module in pkgutil.iter_modules(qtradeoff.__path__):
    importlib.import_module("qtradeoff." + module.name)
from qtradeoff import instruments, measures, schemes

optimal = instruments.make_optimal_instrument(
    instruments.OptimalFamilyParams(0.37))
measures.disturbance_estimate(optimal, "diamond")
channels = [
    optimal,
    instruments.make_diagonal_instrument(
        instruments.DiagonalFamilyParams(0.3, 0.55, 0.4, -1.1)),
    schemes.cloner_system_channel_spec(schemes.ClonerParams.from_a2(0.4)),
    schemes.swap_system_channel_spec(schemes.SwapParams(0.7)),
    schemes.MarginalChannelSpec(0.5, np.diag([1.0, 0.0])),
]
for kind in measures.MeasureKind:
    if kind is not measures.MeasureKind.DIAMOND:
        for channel in channels:
            measures.disturbance_estimate(channel, kind)
measures.measurement_error_estimate(instruments.povm_of(optimal))
assert "numpy.random" not in sys.modules
print("ok")
"""


def run_fresh(args, cwd):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_no_cli_path_loads_scipy(tmp_path):
    (tmp_path / "ins.json").write_text(
        json.dumps({"family": "optimal", "gamma": 0.5, "beta": 0.0}))
    (tmp_path / "rim.json").write_text(json.dumps({
        "alpha": 0.5 * math.asin(0.999), "phi": 0.5 * math.pi,
        "shots_per_basis": 1000, "seed": 4}))
    proc = run_fresh(["-c", GUARD], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_root_import_loads_no_submodule_and_no_numpy(tmp_path):
    proc = run_fresh(["-c", ROOT_IMPORT], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_no_evaluation_loads_numpy_random(tmp_path):
    proc = run_fresh(["-c", NO_NUMPY_RANDOM], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


@pytest.mark.parametrize("module", sorted(
    name for _, name, _ in pkgutil.iter_modules(qtradeoff.__path__)))
def test_star_import_of_every_module(module):
    # Fails on an __all__ entry whose definition was deleted.
    exec(f"from qtradeoff.{module} import *", {})


def test_python_m_qtradeoff_runs_the_cli(tmp_path):
    f = tmp_path / "ins.json"
    f.write_text(json.dumps({"family": "optimal", "gamma": 1.0, "beta": 0.0}))
    proc = run_fresh(["-m", "qtradeoff", "eval", "--instrument", str(f)],
                     tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["Delta"] == pytest.approx(0.5, abs=1e-12)
    proc = run_fresh(["-m", "qtradeoff", "eval", "--instrument",
                      str(tmp_path / "missing.json")], tmp_path)
    assert proc.returncode == 2

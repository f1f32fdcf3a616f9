"""``import qtradeoff`` and every CLI path stay numpy-only.

The package's only runtime dependency is numpy; scipy is a test
dependency of the oracles in ``tests/oracles.py`` and of the reference
solvers.  ``scipy.optimize`` alone costs more start-up time and memory
than the rest of the package together.  Each check runs in a fresh
interpreter that imports the package from this checkout.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import qtradeoff

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qtradeoff.__file__)))

# `import qtradeoff`; every non-diamond kind of every sweep scheme, `eval`,
# and `experiment` on a config whose target fit takes the rim branch
# (amplitude 1); then the diamond kind through `eval` and `sweep`.  None
# may load any scipy module.
GUARD = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

import qtradeoff
assert not loaded(), loaded()
from qtradeoff.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

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


def run_fresh(args, cwd):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
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

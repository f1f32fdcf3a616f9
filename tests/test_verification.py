import numpy as np
import pytest

from qtradeoff import verification
from qtradeoff.verification import _AXIOM_TOLS, check_axioms


def axiom_worsts(result):
    # The per-axiom largest violations, as the detail prints them.
    pairs = (item.split("=") for item in result.detail.split("; "))
    return {name: float(value) for name, value in pairs}


def test_axiom_checker_passes_and_reports():
    res = check_axioms(trials=10, seed=4)
    assert res.name == "measure-axioms" and res.passed
    worst = axiom_worsts(res)
    assert list(worst) == list(_AXIOM_TOLS)
    assert all(worst[name] <= tol for name, tol in _AXIOM_TOLS.items())
    assert worst["delta-convexity"] < 1e-8
    assert worst["Delta-basis-independence"] < 1e-6
    assert res.worst == pytest.approx(max(worst.values()), rel=0.05)
    with pytest.raises(KeyError):
        worst["nope"]


def test_extremal_states_reads_the_branch_model(monkeypatch):
    assert verification.check_extremal_states().passed
    real = verification._branch_blochs
    calls = []

    def perturbed(ins, thetas):
        # Tilt every branch state by 1e-6 towards +x.
        calls.append(len(thetas))
        blochs, probs = real(ins, thetas)
        return blochs + np.array([1e-6, 0.0, 0.0]), probs

    monkeypatch.setattr(verification, "_branch_blochs", perturbed)
    res = verification.check_extremal_states()
    assert calls == [360] * 3
    assert not res.passed and res.worst >= 1e-6


def test_axiom_checker_rejects_zero_samples():
    with pytest.raises(ValueError):
        check_axioms(trials=0)

import pytest

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


def test_axiom_checker_rejects_zero_samples():
    with pytest.raises(ValueError):
        check_axioms(trials=0)

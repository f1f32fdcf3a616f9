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


@pytest.mark.parametrize("check, kwargs", [
    ("check_optimal_frontier", {"points": 0}),
    ("check_cloner_curve", {"points": 0}),
    ("check_swap_line", {"points": 0}),
    ("check_diamond_equality", {"points": 0}),
    ("check_no_go", {"n": 0}),
    ("check_axioms", {"trials": 0}),
    ("check_pipeline", {"n_seeds": 0}),
    ("check_pipeline", {"gammas": ()}),
])
def test_sampled_checks_reject_empty_samples(check, kwargs):
    # A check that samples nothing must not pass having checked nothing.
    with pytest.raises(ValueError, match="must be >= 1, got 0"):
        getattr(verification, check)(**kwargs)


QUICK = [
    ("check_optimal_frontier", {"points": 21}),
    ("check_cloner_curve", {"points": 11}),
    ("check_swap_line", {"points": 11}),
    ("check_dominance", {}),
    ("check_no_go", {"n": 200}),
    ("check_extremal_states", {}),
    ("check_axioms", {"trials": 25}),
]
FULL = [
    ("check_optimal_frontier", {"points": 101}),
    ("check_cloner_curve", {"points": 101}),
    ("check_swap_line", {"points": 101}),
    ("check_dominance", {}),
    ("check_no_go", {"n": 1000}),
    ("check_extremal_states", {}),
    ("check_axioms", {"trials": 200}),
    ("check_diamond_equality", {"points": 11}),
    ("check_pipeline", {}),
    ("check_parabolic_systematic", {}),
]


@pytest.fixture
def recorded_checks(monkeypatch):
    # Every check replaced by a stub that records its name and arguments.
    calls = []
    for name in {name for name, _ in FULL}:
        def stub(*args, _name=name, **kwargs):
            calls.append((_name, args, kwargs))
            return verification.CheckResult(_name, True, 0.0, 1.0)
        monkeypatch.setattr(verification, name, stub)
    return calls


@pytest.mark.parametrize("level, expected", [("quick", QUICK), ("full", FULL)])
def test_run_checks_runs_each_levels_checks(recorded_checks, level, expected):
    results = verification.run_checks(level)
    assert recorded_checks == [(name, (), kw) for name, kw in expected]
    assert [r.name for r in results] == [name for name, _ in expected]


def test_run_checks_rejects_unknown_level(recorded_checks):
    with pytest.raises(ValueError, match="'quick' or 'full'"):
        verification.run_checks("fast")
    assert recorded_checks == []

"""Self-verification checks: frontier reproduction, reference-curve
agreement, dominance margins, no-go sampling, measure axioms, diamond-norm
equality, pipeline closure, extremal-state facts, and the parabolic
systematic bound.

Each check returns a :class:`CheckResult` with the worst observed
deviation, so a caller can print one line per check.  The functions take
their thresholds and, where meaningful, an injectable frontier function,
which lets a test verify that a deliberately perturbed frontier is
detected.  The scheme checks reduce the rows of
:func:`qtradeoff.schemes.sweep`, the rows ``qtradeoff sweep`` writes; the
axiom check samples from a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import schemes
from .experiment import (
    ExperimentConfig,
    InterferometerSetting,
    _branch_blochs,
    _disturbances,
    analytic_tradeoff_of_setting,
    estimate_tradeoff,
    simulate_dataset,
)
from .instruments import DiagonalFamilyParams, Instrument, Povm
from .measures import (
    MeasureKind, disturbance, disturbance_estimate, measurement_error)
from .qmath import ID2, SIGMA_X, dag
from .states import density_to_bloch, linear_pol_state

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    threshold: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst", float(self.worst))

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        msg = (f"[{status}] {self.name}: worst deviation {self.worst:.3e} "
               f"(threshold {self.threshold:.1e})")
        if self.detail:
            msg += f" - {self.detail}"
        return msg


def _require_samples(name, n):
    # A sampled check that samples nothing would pass having checked nothing.
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def check_optimal_frontier(points=101, tol=1e-6,
                           frontier_fn=None) -> CheckResult:
    """Exact (delta, Delta) of the optimal family lies on the frontier."""
    _require_samples("points", points)
    frontier = frontier_fn or schemes.optimal_frontier
    worst = max(abs(D - frontier(min(d, 1.0)))
                for _, _, _, d, D in schemes.sweep("optimal", points))
    return CheckResult("frontier-optimal", worst < tol, worst, tol,
                       f"{points} instruments")


def check_cloner_curve(points=101, tol=1e-6) -> CheckResult:
    """Cloner closed forms match the exact suprema on the induced pair."""
    _require_samples("points", points)
    worst = max(
        max(abs(d - dc), abs(D - Dc),
            abs(D - schemes.cloner_tradeoff_curve(min(d, 1.0))))
        for _, dc, Dc, d, D in schemes.sweep("cloner", points))
    return CheckResult("curve-cloner", worst < tol, worst, tol,
                       f"{points} parameter values")


def check_swap_line(points=101, tol=1e-6) -> CheckResult:
    """Swap closed forms match the exact suprema; delta + Delta = 1/2."""
    _require_samples("points", points)
    rows = list(schemes.sweep("swap", points))
    closed_worst = max(abs(dc + Dc - 0.5) for _, dc, Dc, _, _ in rows)
    worst = max(closed_worst, *(max(abs(d + D - 0.5), abs(d - dc), abs(D - Dc))
                                for _, dc, Dc, d, D in rows))
    return CheckResult("line-swap", worst < tol, worst, tol,
                       f"closed-form residual {closed_worst:.1e}")


def check_dominance(margin=1e-4, frontier_fn=None) -> CheckResult:
    """Strict ordering frontier < cloner < swap on the 0.01..0.49 grid,
    with the required separation margin, plus on-curve tightness of the
    swept optimal family against the frontier function."""
    frontier = frontier_fn or schemes.optimal_frontier

    # Tightness: the optimal family's closed-form points must sit on the
    # frontier essentially exactly.
    tight_worst = max(abs(Dc - frontier(dc))
                      for _, dc, Dc, _, _ in schemes.sweep("optimal", 101))
    tight_ok = tight_worst < 1e-12

    grid = np.round(np.arange(0.01, 0.495, 0.01), 10)
    min_margin = np.inf
    ordered = True
    worst_point = None
    for d in grid:
        f_opt = frontier(float(d))
        f_clo = schemes.cloner_tradeoff_curve(float(d))
        f_swap = schemes.swap_tradeoff_curve(float(d))
        m = min(f_clo - f_opt, f_swap - f_clo)
        ordered = ordered and (f_opt < f_clo < f_swap)
        if m < min_margin:
            min_margin = m
            worst_point = float(d)
    passed = tight_ok and ordered and (min_margin > margin)
    detail = (f"min separation {min_margin:.3e} at delta={worst_point}, "
              f"tightness residual {tight_worst:.1e}")
    # "worst" reports the binding quantity: margin shortfall or tightness.
    worst = max(tight_worst, margin - min_margin if min_margin <= margin else 0.0)
    return CheckResult("frontier-dominance", passed, worst, margin, detail)


def check_no_go(n=1000, seed=20260809, slack=1e-7, frontier_fn=None) -> CheckResult:
    """Random diagonal instruments never beat the frontier.

    Both delta and Delta are the exact closed forms of
    :func:`~qtradeoff.schemes.diagonal_tradeoff_point`, so the check
    covers the full family including phases.
    """
    _require_samples("n", n)
    frontier = frontier_fn or schemes.optimal_frontier
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n):
        p = DiagonalFamilyParams(
            b1=float(rng.uniform()), b2=float(rng.uniform()),
            beta1=float(rng.uniform(0.0, 2.0 * np.pi)),
            beta2=float(rng.uniform(0.0, 2.0 * np.pi)))
        pt = schemes.diagonal_tradeoff_point(p)
        worst = max(worst, frontier(min(pt.delta, 1.0)) - pt.Delta)
    return CheckResult("no-go-sampling", worst <= slack, max(worst, 0.0),
                       slack, f"{n} random diagonal instruments")


def check_diamond_equality(points=11, tol=1e-4) -> CheckResult:
    """Diamond-norm disturbance equals the trace-norm value on the
    optimal family, and so does its certified upper bound."""
    _require_samples("points", points)
    worst = 0.0
    for gamma, _, _, _, d_tr in schemes.sweep("optimal", points):
        ins = schemes.scheme_point("optimal", gamma)[1]
        est = disturbance_estimate(ins, MeasureKind.DIAMOND)
        if est.value < d_tr - 1e-12:
            worst = max(worst, tol + (d_tr - est.value))  # ordering violated
        worst = max(worst, abs(est.value - d_tr),
                    est.value + est.certified_gap - d_tr)
    return CheckResult("diamond-equality", worst < tol, worst, tol,
                       f"{points} optimal-family points")


def _random_unitary(rng, dim=2):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_povm(rng):
    u = _random_unitary(rng)
    e1 = u @ np.diag(rng.uniform(0.0, 1.0, size=2)) @ dag(u)
    e1 = 0.5 * (e1 + dag(e1))
    return Povm(e1, ID2 - e1)


def _random_instrument(rng):
    # Haar 4x4 unitary -> isometry C^2 -> C^2 (x) C^2 -> Kraus pair.
    v = _random_unitary(rng, 4)[:, :2]
    return Instrument(v[0:2, :], v[2:4, :])


def _mix_povm(a: Povm, b: Povm, lam):
    return Povm(lam * a.e1 + (1 - lam) * b.e1, lam * a.e2 + (1 - lam) * b.e2)


# Each axiom with the largest violation it may show.
_AXIOM_TOLS = {
    "delta-convexity": 1e-8,
    "delta-permutation-invariance": 1e-8,
    "delta-diagonal-unitary-invariance": 1e-8,
    "Delta-convexity": 1e-6,
    "Delta-basis-independence": 1e-6,
}


def check_axioms(trials=200, seed=4242, tol=1e-6) -> CheckResult:
    """Convexity and invariance properties of both measures, with the
    largest violation of each axiom over ``trials`` random trials in the
    detail.  Passes when every axiom is within its own bound and all are
    within ``tol``.

    Per trial: convexity of delta under POVM mixing; invariance of delta
    under conjugation by the two-element permutation and by a random
    diagonal unitary; convexity of Delta under channel mixing; invariance
    of Delta under a random change of basis.
    """
    _require_samples("trials", trials)
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in _AXIOM_TOLS}

    for _ in range(trials):
        m, mp = _random_povm(rng), _random_povm(rng)
        lam = float(rng.uniform())

        d_m = measurement_error(m)
        d_mp = measurement_error(mp)
        d_mix = measurement_error(_mix_povm(m, mp, lam))
        worst["delta-convexity"] = max(
            worst["delta-convexity"], d_mix - (lam * d_m + (1 - lam) * d_mp))

        # Permutation pi = (1 2): elements swapped and conjugated by sigma_x.
        perm = Povm(SIGMA_X @ m.e2 @ SIGMA_X, SIGMA_X @ m.e1 @ SIGMA_X)
        worst["delta-permutation-invariance"] = max(
            worst["delta-permutation-invariance"],
            abs(measurement_error(perm) - d_m))

        chi = float(rng.uniform(0.0, 2.0 * np.pi))
        du = np.diag([1.0, np.exp(1j * chi)])
        rotated = Povm(dag(du) @ m.e1 @ du, dag(du) @ m.e2 @ du)
        worst["delta-diagonal-unitary-invariance"] = max(
            worst["delta-diagonal-unitary-invariance"],
            abs(measurement_error(rotated) - d_m))

        fa = _random_instrument(rng)
        fb = _random_instrument(rng)
        da = disturbance(fa)
        db = disturbance(fb)
        dmix = disturbance(lambda rho: lam * fa(rho) + (1 - lam) * fb(rho))
        worst["Delta-convexity"] = max(
            worst["Delta-convexity"], dmix - (lam * da + (1 - lam) * db))

        u = _random_unitary(rng)
        ud = dag(u)
        drot = disturbance(lambda rho: u @ fa(ud @ rho @ u) @ ud)
        worst["Delta-basis-independence"] = max(
            worst["Delta-basis-independence"], abs(drot - da))

    detail = "; ".join(f"{name}={w:.1e}" for name, w in worst.items())
    passed = all(worst[name] <= t for name, t in _AXIOM_TOLS.items())
    top = max(worst.values())
    return CheckResult("measure-axioms", passed and top < tol, top, tol, detail)


def _setting_for_gamma(gamma):
    return InterferometerSetting(alpha=0.5 * np.arcsin(gamma), phi=0.5 * np.pi)


def check_pipeline(gammas=(0.2, 0.5, 0.8), exact_tol=1e-6, shot_tol=3e-3,
                   shots=10**6, n_seeds=100, success_fraction=0.95) -> CheckResult:
    """Experiment pipeline closure.

    Zero-noise (exact) datasets must reproduce the analytic (delta, Delta)
    to ``exact_tol``; with ``shots`` samples per basis, at least
    ``success_fraction`` of seeded runs must land within ``shot_tol``.
    """
    total_runs = len(gammas) * n_seeds
    _require_samples("len(gammas) * n_seeds", total_runs)
    worst_exact = 0.0
    ok_runs = 0
    for gamma in gammas:
        s = _setting_for_gamma(gamma)
        d_ref, dd_ref = analytic_tradeoff_of_setting(s)
        exact_cfg = ExperimentConfig(setting=s, shots_per_basis=None)
        est = estimate_tradeoff(simulate_dataset(exact_cfg))
        worst_exact = max(worst_exact, abs(est.delta_hat - d_ref),
                          abs(est.Delta_hat - dd_ref))
        base = ExperimentConfig(setting=s, shots_per_basis=shots)
        for seed in range(n_seeds):
            est = estimate_tradeoff(simulate_dataset(replace(base, seed=seed)))
            if (abs(est.delta_hat - d_ref) <= shot_tol
                    and abs(est.Delta_hat - dd_ref) <= shot_tol):
                ok_runs += 1
    frac = ok_runs / total_runs
    passed = worst_exact < exact_tol and frac >= success_fraction
    detail = (f"exact residual {worst_exact:.1e}; "
              f"{ok_runs}/{total_runs} noisy runs within {shot_tol:g}")
    worst = max(worst_exact, 0.0 if frac >= success_fraction
                else success_fraction - frac)
    return CheckResult("pipeline-closure", passed, worst,
                       max(exact_tol, 1.0 - success_fraction), detail)


def check_extremal_states(tol=1e-14) -> CheckResult:
    """Locations of the error/disturbance extrema over the state sweep.

    For beta = 0 instruments the error integrand vanishes at 90 and 270
    degrees and is maximal at 0 and 180; the disturbance integrand
    vanishes at 0 and 180 and peaks at 90.

    Both integrands come from one call of the experiment's branch model
    (:func:`~qtradeoff.experiment._branch_blochs`) over the 360 one-degree
    angles: with input Bloch z-component z and port-1 probability p_1, the
    error is |p_1 - (1 + z)/2|; the disturbance is the estimator's trace
    distance, :func:`~qtradeoff.experiment._disturbances`.
    """
    thetas = np.arange(0.0, 360.0, 1.0)
    z = density_to_bloch(linear_pol_state(thetas))[:, 2]
    worst = 0.0
    for gamma in (0.2, 0.5, 0.8):
        blochs, probs = _branch_blochs(
            schemes.scheme_point("optimal", gamma)[1], thetas)
        err = np.abs(probs[:, 0] - 0.5 * (1.0 + z))
        dist = _disturbances(thetas, blochs, probs)
        # Entry i of each array belongs to the angle of i degrees.
        worst = max(worst, err[90], err[270], dist[0], dist[180])
        if not (err[0] >= err.max() - 1e-12 and err[180] >= err.max() - 1e-12
                and dist[90] >= dist.max() - 1e-12):
            worst = max(worst, 1.0)
    return CheckResult("extremal-states", worst < tol, worst, tol)


def check_parabolic_systematic(gamma=0.5, shots=10**8, seed=11, tol=1e-3) -> CheckResult:
    """The parabola vertex near the 90-degree disturbance maximum sits
    within half a degree of 90 and within 0.1% of the sampled maximum on
    noisy data, so the finite state sweep introduces no relevant
    systematic."""
    s = _setting_for_gamma(gamma)
    cfg = ExperimentConfig(setting=s, shots_per_basis=shots, seed=seed)
    est = estimate_tradeoff(simulate_dataset(cfg))
    par = est.diagnostics["Delta"]["parabola"]
    if par is None:
        return CheckResult("parabolic-systematic", False, np.inf, tol,
                           "no parabola fit available")
    rel = abs(par["rel_gap"])
    vertex_ok = abs(par["vertex_theta_deg"] - 90.0) <= 0.5
    detail = (f"vertex at {par['vertex_theta_deg']:.3f} deg, "
              f"relative gap {rel:.2e}")
    return CheckResult("parabolic-systematic", vertex_ok and rel < tol,
                       rel, tol, detail)


def run_checks(level="quick"):
    """Run the verification suite: `quick` with interactive sample counts,
    `full` with acceptance-grade ones and three checks more."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    results = [
        check_optimal_frontier(points=101 if full else 21),
        check_cloner_curve(points=101 if full else 11),
        check_swap_line(points=101 if full else 11),
        check_dominance(),
        check_no_go(n=1000 if full else 200),
        check_extremal_states(),
        check_axioms(trials=200 if full else 25),
    ]
    if full:
        results += [check_diamond_equality(points=11), check_pipeline(),
                    check_parabolic_systematic()]
    return results

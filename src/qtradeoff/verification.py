"""Self-verification checks: frontier reproduction, reference-curve
agreement, dominance margins, no-go sampling, measure axioms, diamond-norm
equality, pipeline closure, extremal-state facts, and the parabolic
systematic bound.

Each check returns a :class:`CheckResult` with the worst observed
deviation, so a caller can print one line per check.  The functions take
their thresholds and, where meaningful, an injectable frontier function,
which lets a test verify that a deliberately perturbed frontier is
detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schemes
from .experiment import (
    ExperimentConfig,
    InterferometerSetting,
    analytic_tradeoff_of_setting,
    estimate_tradeoff,
    simulate_dataset,
    with_seed,
)
from .instruments import (
    DiagonalFamilyParams,
    OptimalFamilyParams,
    apply_channel,
    make_diagonal_instrument,
    make_optimal_instrument,
    povm_of,
)
from .measures import (
    MeasureKind,
    check_measure_axioms,
    diagonal_channel_disturbance_exact,
    disturbance,
    disturbance_estimate,
    measurement_error,
)

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


def check_optimal_frontier(points=101, tol=1e-6,
                           frontier_fn=None) -> CheckResult:
    """Exact (delta, Delta) of the optimal family lies on the frontier."""
    frontier = frontier_fn or schemes.optimal_frontier
    worst = 0.0
    for gamma in np.linspace(0.0, 1.0, points):
        ins = make_optimal_instrument(OptimalFamilyParams(float(gamma)))
        d = measurement_error(povm_of(ins))
        dd = disturbance(ins, MeasureKind.WORST_TRACE)
        worst = max(worst, abs(dd - frontier(min(d, 1.0))))
    return CheckResult("frontier-optimal", worst < tol, worst, tol,
                       f"{points} instruments")


def check_cloner_curve(points=101, tol=1e-6) -> CheckResult:
    """Cloner closed forms match the exact suprema on the induced pair."""
    worst = 0.0
    for a2 in np.linspace(0.0, 1.0, points):
        p = schemes.ClonerParams.from_a2(float(a2))
        pt = schemes.cloner_tradeoff_point(p)
        d_num = measurement_error(schemes.cloner_induced_povm(p))
        dd_num = disturbance(schemes.cloner_system_channel_spec(p),
                             MeasureKind.WORST_TRACE)
        worst = max(worst, abs(d_num - pt.delta), abs(dd_num - pt.Delta),
                    abs(dd_num - schemes.cloner_tradeoff_curve(min(d_num, 1.0))))
    return CheckResult("curve-cloner", worst < tol, worst, tol,
                       f"{points} parameter values")


def check_swap_line(points=101, tol=1e-6) -> CheckResult:
    """Swap closed forms match the exact suprema; delta + Delta = 1/2."""
    worst = 0.0
    closed_worst = 0.0
    for t in np.linspace(0.0, 0.5 * np.pi, points):
        p = schemes.SwapParams(float(t))
        pt = schemes.swap_tradeoff_point(p)
        closed_worst = max(closed_worst, abs(pt.delta + pt.Delta - 0.5))
        d_num = measurement_error(schemes.swap_induced_povm(p))
        dd_num = disturbance(schemes.swap_system_channel_spec(p),
                             MeasureKind.WORST_TRACE)
        worst = max(worst, abs(d_num + dd_num - 0.5),
                    abs(d_num - pt.delta), abs(dd_num - pt.Delta))
    worst = max(worst, closed_worst)
    return CheckResult("line-swap", worst < tol, worst, tol,
                       f"closed-form residual {closed_worst:.1e}")


def check_dominance(margin=1e-4, frontier_fn=None) -> CheckResult:
    """Strict ordering frontier < cloner < swap on the 0.01..0.49 grid,
    with the required separation margin, plus on-curve tightness of the
    swept optimal family against the frontier function."""
    frontier = frontier_fn or schemes.optimal_frontier

    # Tightness: the optimal family's closed-form points must sit on the
    # frontier essentially exactly.
    tight_worst = 0.0
    for gamma in np.linspace(0.0, 1.0, 101):
        delta = 0.5 * (1.0 - gamma)
        Delta = 0.5 * (1.0 - np.sqrt(1.0 - gamma**2))
        tight_worst = max(tight_worst, abs(Delta - frontier(delta)))
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

    delta is evaluated exactly and Delta with the exact
    diagonal closed form, so the check covers the full family including
    phases.
    """
    frontier = frontier_fn or schemes.optimal_frontier
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n):
        p = DiagonalFamilyParams(
            b1=float(rng.uniform()), b2=float(rng.uniform()),
            beta1=float(rng.uniform(0.0, 2.0 * np.pi)),
            beta2=float(rng.uniform(0.0, 2.0 * np.pi)))
        ins = make_diagonal_instrument(p)
        delta = measurement_error(povm_of(ins))
        Delta = diagonal_channel_disturbance_exact(ins)
        worst = max(worst, frontier(min(delta, 1.0)) - Delta)
    return CheckResult("no-go-sampling", worst <= slack, max(worst, 0.0),
                       slack, f"{n} random diagonal instruments")


def check_diamond_equality(points=11, tol=1e-4) -> CheckResult:
    """Diamond-norm disturbance equals the trace-norm value on the
    optimal family, and so does its certified upper bound."""
    worst = 0.0
    for gamma in np.linspace(0.0, 1.0, points):
        ins = make_optimal_instrument(OptimalFamilyParams(float(gamma)))
        d_tr = disturbance(ins, MeasureKind.WORST_TRACE)
        est = disturbance_estimate(ins, MeasureKind.DIAMOND)
        if est.value < d_tr - 1e-12:
            worst = max(worst, tol + (d_tr - est.value))  # ordering violated
        worst = max(worst, abs(est.value - d_tr),
                    est.value + est.certified_gap - d_tr)
    return CheckResult("diamond-equality", worst < tol, worst, tol,
                       f"{points} optimal-family points")


def check_axioms(trials=200, seed=4242, tol=1e-6) -> CheckResult:
    """Convexity and invariance properties of both measures."""
    rng = np.random.default_rng(seed)
    report = check_measure_axioms(trials, rng)
    worst = max(e.worst for e in report.entries)
    detail = "; ".join(f"{e.name}={e.worst:.1e}" for e in report.entries)
    return CheckResult("measure-axioms", report.all_passed and worst < tol,
                       worst, tol, detail)


def _setting_for_gamma(gamma):
    return InterferometerSetting(alpha=0.5 * np.arcsin(gamma), phi=0.5 * np.pi)


def check_pipeline(gammas=(0.2, 0.5, 0.8), exact_tol=1e-6, shot_tol=3e-3,
                   shots=10**6, n_seeds=100, success_fraction=0.95) -> CheckResult:
    """Experiment pipeline closure.

    Zero-noise (exact) datasets must reproduce the analytic (delta, Delta)
    to ``exact_tol``; with ``shots`` samples per basis, at least
    ``success_fraction`` of seeded runs must land within ``shot_tol``.
    """
    worst_exact = 0.0
    ok_runs = 0
    total_runs = 0
    for gamma in gammas:
        s = _setting_for_gamma(gamma)
        d_ref, dd_ref = analytic_tradeoff_of_setting(s)
        exact_cfg = ExperimentConfig(setting=s, shots_per_basis=None)
        est = estimate_tradeoff(simulate_dataset(exact_cfg))
        worst_exact = max(worst_exact, abs(est.delta_hat - d_ref),
                          abs(est.Delta_hat - dd_ref))
        base = ExperimentConfig(setting=s, shots_per_basis=shots)
        for seed in range(n_seeds):
            est = estimate_tradeoff(simulate_dataset(with_seed(base, seed)))
            total_runs += 1
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
    """
    from .states import density_to_bloch, linear_pol_state

    worst = 0.0
    for gamma in (0.2, 0.5, 0.8):
        ins = make_optimal_instrument(OptimalFamilyParams(gamma))
        e1 = povm_of(ins).e1

        def err_integrand(theta):
            rho = linear_pol_state(theta)
            actual = np.einsum("ij,ji->", e1, rho).real
            ideal = rho[0, 0].real
            return abs(actual - ideal)

        def dist_integrand(theta):
            # Trace distance: half the Euclidean distance of Bloch vectors.
            rho = linear_pol_state(theta)
            return 0.5 * np.linalg.norm(
                density_to_bloch(apply_channel(ins, rho) - rho))

        worst = max(worst, err_integrand(90.0), err_integrand(270.0),
                    dist_integrand(0.0), dist_integrand(180.0))
        peak_err = max(err_integrand(t) for t in np.arange(0.0, 360.0, 1.0))
        if not (err_integrand(0.0) >= peak_err - 1e-12
                and err_integrand(180.0) >= peak_err - 1e-12):
            worst = max(worst, 1.0)
        peak_dist = max(dist_integrand(t) for t in np.arange(0.0, 360.0, 1.0))
        if not dist_integrand(90.0) >= peak_dist - 1e-12:
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
    """Run the verification suite; `quick` trims sample counts to stay
    interactive, `full` runs the acceptance-grade variants including the
    diamond-norm equality and the Monte-Carlo pipeline closure."""
    if level == "quick":
        results = [
            check_optimal_frontier(points=21),
            check_cloner_curve(points=11),
            check_swap_line(points=11),
            check_dominance(),
            check_no_go(n=200),
            check_extremal_states(),
            check_axioms(trials=25),
        ]
    elif level == "full":
        results = [
            check_optimal_frontier(points=101),
            check_cloner_curve(points=101),
            check_swap_line(points=101),
            check_dominance(),
            check_no_go(n=1000),
            check_extremal_states(),
            check_axioms(trials=200),
            check_diamond_equality(points=11),
            check_pipeline(),
            check_parabolic_systematic(),
        ]
    else:
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return results

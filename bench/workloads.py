"""The three benchmark workloads: seeded inputs, one operation each, and the
checks of every operation's output.

Every expected value is computed here from the paper's closed forms with
the standard library alone, never from the program.  The program is
reached only through module attributes (``measures.disturbance_estimate``
and so on) at call time, so that the tracer in ``tracing.py`` sees every
call the workloads make.

A cycle is a list of :class:`Op`; the worker repeats one cycle, built once
from the seed, until the run's time is up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from qtradeoff import experiment, instruments, measures, schemes, supopt

WORST_TRACE = "worst-case-trace-norm"
WORST_HS = "worst-case-hilbert-schmidt"
WORST_INFIDELITY = "worst-case-infidelity"
AVG_TRACE = "state-averaged-trace-norm"
DIAMOND = "diamond"

CURVE_KINDS = (WORST_TRACE, WORST_HS, WORST_INFIDELITY, AVG_TRACE)
CURVE_SCHEMES = ("optimal", "diagonal", "cloner", "swap")

# Acceptance tolerance of the curves (criteria 1-3).
CURVES_TOL = 1e-6
# Tolerance of the diamond-norm equality (criterion 6).
DIAMOND_TOL = 1e-4
# Pipeline closure (criterion 8): exact datasets and 10^6 shots per basis.
EXACT_TOL = 1e-6
SHOT_TOL = 3e-3
# Analytic fields of the estimate summary are closed-form evaluations.
ANALYTIC_TOL = 1e-9

# One explicit strategy for the diamond workload.  The program's default
# costs about 8 s per diamond call; this one keeps the shape of the work
# (coarse scan, then Nelder-Mead from every start) at about 0.6 s a call.
DIAMOND_STRATEGY = dict(coarse_grid_points=12, refine_iterations=4,
                        tolerance=1e-8, multistarts=2)

# The paper's 16 polarisation angles (degrees) and a dense 1-degree list.
PAPER_THETAS = (-20.0, -10.0, 0.0, 10.0, 20.0, 70.0, 80.0, 90.0, 100.0,
                110.0, 160.0, 170.0, 180.0, 190.0, 200.0, 270.0)
DENSE_THETAS = tuple(float(t) for t in range(0, 360))
SHOTS = 10**6
# Order of the experiment configs in a cycle.  The paper's list appears
# three times in five, so the median operation lies inside one group of
# similar cost whatever the costs of the two groups are.
EXPERIMENT_PATTERN = (("paper", SHOTS), ("paper", "exact"),
                      ("dense", SHOTS), ("dense", "exact"), ("paper", SHOTS))
ALPHA_RANGE = (0.1, 0.25 * math.pi)


@dataclass
class Op:
    """One operation: what to run and the values its output must match."""

    label: str
    args: dict
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def optimal_delta(gamma):
    return 0.5 * (1.0 - gamma)


def optimal_Delta(gamma):
    return 0.5 * (1.0 - math.sqrt(1.0 - gamma * gamma))


def cloner_a1(a2):
    return 0.5 * (-a2 + math.sqrt(4.0 - 3.0 * a2 * a2))


def curve_point(scheme, value):
    """(delta, worst-case trace-norm Delta, replacement weight or None)."""
    if scheme == "optimal":
        return optimal_delta(value), optimal_Delta(value), None
    if scheme == "diagonal":
        b = value
        return b * b, 0.5 * abs(1.0 - 2.0 * b * math.sqrt(1.0 - b * b)), None
    if scheme == "cloner":
        a1 = cloner_a1(value)
        return 0.5 * value * value, 0.5 * a1 * a1, a1 * a1
    s = math.sin(value)
    return 0.5 * math.cos(value) ** 2, 0.5 * s * s, s * s


def curve_Delta(scheme, value, kind):
    """Disturbance of a sweep point under one of the four state kinds."""
    _, base, weight = curve_point(scheme, value)
    if kind == WORST_HS:
        return base / math.sqrt(2.0)
    if kind == AVG_TRACE:
        # Replacement channels disturb every pure state alike; diagonal
        # channels scale with |sin theta|, whose surface mean is pi/4.
        return base if weight is not None else base * math.pi / 4.0
    return base


# ---------------------------------------------------------------------------
# curves: one (delta, Delta) point of `qtradeoff sweep`
# ---------------------------------------------------------------------------

def draw_curve_param(rng, scheme):
    if scheme == "swap":
        return rng.uniform(0.0, 0.5 * math.pi)
    return rng.uniform(0.0, 1.0)


def curves_cycle(rng):
    """Every (kind, scheme) pair once, kinds outermost."""
    ops = []
    for kind in CURVE_KINDS:
        for scheme in CURVE_SCHEMES:
            v = draw_curve_param(rng, scheme)
            delta, _, _ = curve_point(scheme, v)
            ops.append(Op(f"{scheme}/{kind}",
                          {"scheme": scheme, "value": v, "kind": kind},
                          {"delta": delta,
                           "Delta": curve_Delta(scheme, v, kind)}))
    return ops


def build_scheme(scheme, value):
    """(POVM, channel) of a sweep point, built as `qtradeoff sweep` does."""
    if scheme == "optimal":
        ins = instruments.make_optimal_instrument(
            instruments.OptimalFamilyParams(value))
        return instruments.povm_of(ins), ins
    if scheme == "diagonal":
        ins = instruments.make_diagonal_instrument(
            instruments.DiagonalFamilyParams(value, value))
        return instruments.povm_of(ins), ins
    if scheme == "cloner":
        p = schemes.ClonerParams.from_a2(value)
        return (schemes.cloner_induced_povm(p),
                schemes.cloner_system_channel_spec(p))
    p = schemes.SwapParams(value)
    return schemes.swap_induced_povm(p), schemes.swap_system_channel_spec(p)


def run_curves(a):
    povm, channel = build_scheme(a["scheme"], a["value"])
    delta = measures.measurement_error_estimate(povm).value
    Delta = measures.disturbance_estimate(channel, a["kind"]).value
    return {"delta": delta, "Delta": Delta}


def check_curves(op, out):
    return (abs(out["delta"] - op.expected["delta"]) <= CURVES_TOL
            and abs(out["Delta"] - op.expected["Delta"]) <= CURVES_TOL)


# ---------------------------------------------------------------------------
# diamond: one diamond-norm disturbance
# ---------------------------------------------------------------------------

def diamond_cycle(rng):
    """Optimal-family instruments alternate with replacement channels."""
    ops = []
    for scheme in ("optimal", "cloner", "optimal", "swap"):
        v = draw_curve_param(rng, scheme)
        _, worst, weight = curve_point(scheme, v)
        # Full depolarisation has diamond distance 3/4; a replacement
        # channel of weight w is w times it.  The optimal family's
        # diamond distance equals its worst-case trace-norm value.
        value = worst if weight is None else 0.75 * weight
        ops.append(Op(f"{scheme}/diamond", {"scheme": scheme, "value": v},
                      {"Delta": value, "worst_trace": worst}))
    return ops


def run_diamond(a):
    v = a["value"]
    if a["scheme"] == "optimal":
        channel = instruments.make_optimal_instrument(
            instruments.OptimalFamilyParams(v))
    elif a["scheme"] == "cloner":
        channel = schemes.cloner_system_channel_spec(
            schemes.ClonerParams.from_a2(v))
    else:
        channel = schemes.swap_system_channel_spec(schemes.SwapParams(v))
    strategy = supopt.SupremumStrategy(**DIAMOND_STRATEGY)
    return {"Delta": measures.disturbance_estimate(channel, DIAMOND,
                                                   strategy).value}


def check_diamond(op, out):
    d = out["Delta"]
    return (abs(d - op.expected["Delta"]) <= DIAMOND_TOL
            and d >= op.expected["worst_trace"] - DIAMOND_TOL)


# ---------------------------------------------------------------------------
# experiment: the calls of `qtradeoff experiment` for one config
# ---------------------------------------------------------------------------

def experiment_cycle(rng):
    ops = []
    for states, shots in EXPERIMENT_PATTERN:
        alpha = rng.uniform(*ALPHA_RANGE)
        config = {
            "alpha": alpha,
            "phi": 0.5 * math.pi,
            "thetas": list(PAPER_THETAS if states == "paper" else DENSE_THETAS),
            "shots_per_basis": shots,
            "intensity_noise": 0.0,
            "seed": rng.randrange(2**31),
            "fit_amplitude": False,
        }
        gamma = math.sin(2.0 * alpha)
        ops.append(Op(f"{states}/{'exact' if shots == 'exact' else 'shots'}",
                      {"config": config},
                      {"delta": optimal_delta(gamma),
                       "Delta": optimal_Delta(gamma),
                       "gamma": gamma,
                       "tol": EXACT_TOL if shots == "exact" else SHOT_TOL}))
    return ops


def run_experiment(a):
    cfg = experiment.config_from_dict(a["config"])
    dataset = experiment.simulate_dataset(cfg)
    estimate = experiment.estimate_tradeoff(dataset)
    text = experiment.dataset_to_json(dataset)
    gamma, beta = experiment.gamma_beta_from_setting(cfg.setting)
    d_ref, dd_ref = experiment.analytic_tradeoff_of_setting(cfg.setting)
    summary = json.dumps({
        "gamma": gamma,
        "beta": beta,
        "delta_analytic": d_ref,
        "Delta_analytic": dd_ref,
        "delta_hat": estimate.delta_hat,
        "Delta_hat": estimate.Delta_hat,
        "diagnostics": estimate.diagnostics,
    }, indent=2)
    return {"dataset": dataset, "json": text, "summary": summary}


def check_experiment(op, out):
    e = op.expected
    s = json.loads(out["summary"])
    if not (abs(s["delta_hat"] - e["delta"]) <= e["tol"]
            and abs(s["Delta_hat"] - e["Delta"]) <= e["tol"]
            and abs(s["gamma"] - e["gamma"]) <= ANALYTIC_TOL
            and abs(s["delta_analytic"] - e["delta"]) <= ANALYTIC_TOL
            and abs(s["Delta_analytic"] - e["Delta"]) <= ANALYTIC_TOL):
        return False
    back = experiment.dataset_from_json(out["json"])
    return back.records == out["dataset"].records


WORKLOADS = {
    "curves": (curves_cycle, run_curves, check_curves),
    "diamond": (diamond_cycle, run_diamond, check_diamond),
    "experiment": (experiment_cycle, run_experiment, check_experiment),
}

"""Command-line interface: parameter sweeps, single-instrument evaluation,
experiment simulation, and the verification suite.

Exit codes: 0 success, 2 input error, 3 verification failure.  Every run
logs its command and settings to stderr; no measure depends on a
search strategy or a seed.  The environment variable ``QTRADEOFF_SEED``
overrides config seeds for reproducibility audits.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import schemes, verification
from .experiment import (
    analytic_tradeoff_of_setting,
    config_from_dict,
    dataset_to_json,
    estimate_tradeoff,
    gamma_beta_from_setting,
    simulate_dataset,
    with_seed,
)
from .instruments import (
    DiagonalFamilyParams,
    NotNormalized,
    OptimalFamilyParams,
    ParamOutOfRange,
    instrument_from_descriptor,
    make_diagonal_instrument,
    make_optimal_instrument,
    povm_of,
)
from .measures import (
    HS_TO_TRACE_NORM_SCALE,
    MeasureKind,
    UnknownKind,
    diagonal_disturbance_closed_form,
    diagonal_measurement_error_closed_form,
    disturbance_estimate,
    measurement_error_estimate,
)
from .states import density_to_bloch, pure_state

log = logging.getLogger("qtradeoff")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3

_KIND_CHOICES = [k.value for k in MeasureKind]


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.12g}"


def _sweep_point(scheme, value, kind):
    """Closed-form and computed (delta, Delta) of one sweep row.  The
    closed-form Delta is None where the kind has no closed form
    (diamond)."""
    if scheme == "optimal":
        ins = make_optimal_instrument(OptimalFamilyParams(value))
        povm, channel = povm_of(ins), ins
        delta = 0.5 * (1.0 - value)
        base = 0.5 * (1.0 - np.sqrt(1.0 - value**2))
    elif scheme == "diagonal":
        params = DiagonalFamilyParams(value, value)
        ins = make_diagonal_instrument(params)
        povm, channel = povm_of(ins), ins
        delta = diagonal_measurement_error_closed_form(params)
        base = diagonal_disturbance_closed_form(params)
    elif scheme == "cloner":
        p = schemes.ClonerParams.from_a2(value)
        povm = schemes.cloner_induced_povm(p)
        channel = schemes.cloner_system_channel_spec(p)
        pt = schemes.cloner_tradeoff_point(p)
        delta, base = pt.delta, pt.Delta
    else:
        p = schemes.SwapParams(value)
        povm = schemes.swap_induced_povm(p)
        channel = schemes.swap_system_channel_spec(p)
        pt = schemes.swap_tradeoff_point(p)
        delta, base = pt.delta, pt.Delta

    if kind is MeasureKind.WORST_TRACE or kind is MeasureKind.WORST_INFIDELITY:
        Delta_c = base
    elif kind is MeasureKind.WORST_HS:
        Delta_c = base / HS_TO_TRACE_NORM_SCALE
    elif kind is MeasureKind.AVG_TRACE:
        # Replacement channels disturb every pure state equally; diagonal
        # channels scale with |sin theta|, whose surface average is pi/4.
        Delta_c = base if scheme in ("cloner", "swap") else base * np.pi / 4.0
    else:
        Delta_c = None
    return (delta, Delta_c, measurement_error_estimate(povm).value,
            disturbance_estimate(channel, kind).value)


def cmd_sweep(args) -> int:
    if args.steps < 2:
        log.error("sweep: --steps must be >= 2")
        return EXIT_INPUT
    try:
        kind = MeasureKind(args.kind)
    except ValueError:
        log.error("sweep: unknown measure kind %r", args.kind)
        return EXIT_INPUT

    top = 0.5 * np.pi if args.scheme == "swap" else 1.0
    values = np.linspace(0.0, top, args.steps)
    log.info("sweep scheme=%s steps=%d kind=%s", args.scheme, args.steps,
             kind.value)

    rows = ["scheme,param,delta_closed,Delta_closed,delta_numeric,"
            "Delta_numeric,kind"]
    for v in values:
        point = _sweep_point(args.scheme, float(v), kind)
        rows.append(",".join([args.scheme, _fmt(float(v)),
                              *map(_fmt, point), kind.value]))
    try:
        Path(args.out).write_text("\n".join(rows) + "\n")
    except OSError as exc:
        log.error("sweep: cannot write %s: %s", args.out, exc)
        return EXIT_INPUT
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        desc = json.loads(Path(args.instrument).read_text())
    except OSError as exc:
        log.error("eval: cannot read %s: %s", args.instrument, exc)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        log.error("eval: invalid JSON in %s: %s", args.instrument, exc)
        return EXIT_INPUT
    try:
        kind = MeasureKind(args.kind)
        ins = instrument_from_descriptor(desc)
    except (ValueError, ParamOutOfRange, NotNormalized, UnknownKind) as exc:
        log.error("eval: %s", exc)
        return EXIT_INPUT

    log.info("eval kind=%s", kind.value)
    d_est = measurement_error_estimate(povm_of(ins))
    dd_est = disturbance_estimate(ins, kind)

    def argmax_state(est):
        if est.params.size == 2:
            bloch = density_to_bloch(pure_state(*est.params))
            return {"bloch": [round(float(c), 12) for c in bloch]}
        if est.params.size == 8:
            v = est.params[:4] + 1j * est.params[4:]
            return {"bipartite_vector": [[float(c.real), float(c.imag)]
                                         for c in v]}
        return None

    out = {
        "delta": d_est.value,
        "Delta": dd_est.value,
        "kind": kind.value,
        "argmax_states": {
            "delta": argmax_state(d_est),
            "Delta": argmax_state(dd_est),
        },
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        obj = json.loads(Path(args.config).read_text())
    except OSError as exc:
        log.error("experiment: cannot read %s: %s", args.config, exc)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        log.error("experiment: invalid JSON in %s: %s", args.config, exc)
        return EXIT_INPUT
    try:
        cfg = config_from_dict(obj)
    except ValueError as exc:
        log.error("experiment: %s", exc)
        return EXIT_INPUT

    env_seed = os.environ.get("QTRADEOFF_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            seed = -1
        if seed < 0:
            log.error("experiment: QTRADEOFF_SEED=%r is not a non-negative "
                      "integer", env_seed)
            return EXIT_INPUT
        cfg = with_seed(cfg, seed)
        log.info("experiment: seed overridden by QTRADEOFF_SEED=%s", env_seed)

    log.info("experiment alpha=%g phi=%g shots=%s seed=%d",
             cfg.setting.alpha, cfg.setting.phi,
             "exact" if cfg.shots_per_basis is None else cfg.shots_per_basis,
             cfg.seed)

    dataset = simulate_dataset(cfg)
    estimate = estimate_tradeoff(dataset)
    gamma, beta = gamma_beta_from_setting(cfg.setting)
    d_ref, dd_ref = analytic_tradeoff_of_setting(cfg.setting)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "dataset.json").write_text(dataset_to_json(dataset))
        summary = {
            "gamma": gamma,
            "beta": beta,
            "delta_analytic": d_ref,
            "Delta_analytic": dd_ref,
            "delta_hat": estimate.delta_hat,
            "Delta_hat": estimate.Delta_hat,
            "diagnostics": estimate.diagnostics,
        }
        (out_dir / "estimate.json").write_text(
            json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        log.error("experiment: cannot write outputs: %s", exc)
        return EXIT_INPUT
    print(json.dumps(summary))
    return EXIT_OK


def cmd_verify(args) -> int:
    log.info("verify level=%s", args.level)
    results = verification.run_checks(args.level)
    for r in results:
        print(r.line())
    if all(r.passed for r in results):
        print(f"verify: all {len(results)} checks passed")
        return EXIT_OK
    failed = sum(1 for r in results if not r.passed)
    print(f"verify: {failed} of {len(results)} checks FAILED")
    return EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtradeoff",
        description="Measurement-error / disturbance tradeoff toolkit "
                    "for binary qubit instruments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep a scheme parameter, write CSV")
    p.add_argument("--scheme", required=True,
                   choices=["optimal", "cloner", "swap", "diagonal"])
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--kind", default=MeasureKind.WORST_TRACE.value,
                   choices=_KIND_CHOICES)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate one instrument descriptor")
    p.add_argument("--instrument", required=True)
    p.add_argument("--kind", default=MeasureKind.WORST_TRACE.value,
                   choices=_KIND_CHOICES)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("experiment", help="simulate a run and estimate")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--level", default="quick", choices=["quick", "full"])
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="qtradeoff: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: parameter sweeps, single-instrument evaluation,
experiment simulation, and the verification suite.  ``sweep`` writes the
rows of :func:`qtradeoff.schemes.sweep` as CSV.

Exit codes: 0 success, 2 input error, 3 verification failure.  A config
or descriptor field the command does not read, or a config whose
``convention`` is not ours, is an input error naming the field.  Every run
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
from dataclasses import replace
from pathlib import Path

from . import schemes, verification
from .experiment import (
    analytic_tradeoff_of_setting,
    config_from_dict,
    dataset_to_json,
    estimate_tradeoff,
    gamma_beta_from_setting,
    simulate_dataset,
)
from .instruments import instrument_from_descriptor, povm_of
from .measures import (
    MeasureKind, disturbance_estimate, measurement_error_estimate)

log = logging.getLogger("qtradeoff")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3

_KIND_CHOICES = [k.value for k in MeasureKind]


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.12g}"


def _read_json(path):
    """The JSON value in a file.  ValueError, with the reason, if the file
    cannot be read or decoded, or if json cannot parse its text (too
    deeply nested, or an integer past Python's digit limit, included)."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def cmd_sweep(args) -> int:
    if args.steps < 2:
        log.error("sweep: --steps must be >= 2")
        return EXIT_INPUT
    kind = MeasureKind(args.kind)
    try:
        rows = schemes.sweep(args.scheme, args.steps, kind)
    except (ValueError, MemoryError) as exc:
        log.error("sweep: --steps %d is too large: %s", args.steps, exc)
        return EXIT_INPUT
    log.info("sweep scheme=%s steps=%d kind=%s", args.scheme, args.steps,
             kind.value)

    lines = ["scheme,param,delta_closed,Delta_closed,delta_numeric,"
             "Delta_numeric,kind"]
    lines += [",".join([args.scheme, *map(_fmt, row), kind.value])
              for row in rows]
    try:
        Path(args.out).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        log.error("sweep: cannot write %s: %s", args.out, exc)
        return EXIT_INPUT
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        kind = MeasureKind(args.kind)
        ins = instrument_from_descriptor(_read_json(args.instrument))
    except ValueError as exc:
        log.error("eval: %s", exc)
        return EXIT_INPUT

    log.info("eval kind=%s", kind.value)
    d_est = measurement_error_estimate(povm_of(ins))
    dd_est = disturbance_estimate(ins, kind)

    def argmax_state(est):
        if est.params.size == 3:
            return {"bloch": [round(float(c), 12) for c in est.params]}
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
        cfg = config_from_dict(_read_json(args.config))
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
        cfg = replace(cfg, seed=seed)
        log.info("experiment: seed overridden by QTRADEOFF_SEED=%s", env_seed)

    log.info("experiment alpha=%g phi=%g shots=%s seed=%d",
             cfg.setting.alpha, cfg.setting.phi,
             "exact" if cfg.shots_per_basis is None else cfg.shots_per_basis,
             cfg.seed)

    try:
        dataset = simulate_dataset(cfg)
        estimate = estimate_tradeoff(dataset)
    except ValueError as exc:  # counts that cannot be drawn or analysed
        log.error("experiment: %s", exc)
        return EXIT_INPUT
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

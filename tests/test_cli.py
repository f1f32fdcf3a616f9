import hashlib
import json
import time

import numpy as np
import pytest

from qtradeoff import schemes, verification
from qtradeoff.cli import main
from qtradeoff.measures import MeasureKind, _quadrature


# Input files that neither command can use, with the start of the message
# each must log: not UTF-8, nested past the recursion limit, an integer past
# Python's 4,300-digit limit, and JSON that is not an object.
UNUSABLE_FILES = [
    (b'{"family": "optimal", "gamma": 0.5} \xff', "cannot read"),
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
    (b'{"gamma": 1' + b"0" * 4300 + b"}", "invalid JSON"),
    (b"null", "expected a JSON object"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_optimal(tmp_path, capsys):
    out = tmp_path / "opt.csv"
    code, _ = run_cli(capsys, "sweep", "--scheme", "optimal", "--steps", "11",
                      "--kind", "worst-case-trace-norm", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["scheme", "param", "delta_closed", "Delta_closed",
                      "delta_numeric", "Delta_numeric", "kind"]
    assert len(rows) == 11
    first = rows[0]
    assert float(first["param"]) == 0.0
    assert float(first["delta_numeric"]) == pytest.approx(0.5, abs=1e-8)
    assert float(first["Delta_numeric"]) == pytest.approx(0.0, abs=1e-8)
    assert out.read_text().endswith("\n")


def test_sweep_swap_midpoint(tmp_path, capsys):
    out = tmp_path / "swap.csv"
    code, _ = run_cli(capsys, "sweep", "--scheme", "swap", "--steps", "3",
                      "--out", str(out))
    assert code == 0
    _, rows = read_csv(out)
    mid = rows[1]
    assert float(mid["delta_numeric"]) == pytest.approx(0.25, abs=1e-6)
    assert float(mid["Delta_numeric"]) == pytest.approx(0.25, abs=1e-6)


def test_sweep_cloner_satisfies_curve_identity(tmp_path, capsys):
    out = tmp_path / "clo.csv"
    code, _ = run_cli(capsys, "sweep", "--scheme", "cloner", "--steps", "5",
                      "--out", str(out))
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    for row in rows:
        d = float(row["delta_closed"])
        dd = float(row["Delta_closed"])
        if d <= 0.5:
            expected = 0.25 * (np.sqrt(2.0 - 3.0 * d) - np.sqrt(d)) ** 2
            assert dd == pytest.approx(expected, abs=1e-10)


def test_sweep_closed_matches_numeric(tmp_path, capsys):
    out = tmp_path / "diag.csv"
    code, _ = run_cli(capsys, "sweep", "--scheme", "diagonal", "--steps", "5",
                      "--out", str(out))
    assert code == 0
    _, rows = read_csv(out)
    for row in rows:
        if row["delta_closed"]:
            assert float(row["delta_numeric"]) == pytest.approx(
                float(row["delta_closed"]), abs=1e-6)
        if row["Delta_closed"]:
            assert float(row["Delta_numeric"]) == pytest.approx(
                float(row["Delta_closed"]), abs=1e-6)


# sha256 of `sweep --steps 11` per scheme and kind, recorded before the
# scheme construction and closed forms moved into `schemes.scheme_point`.
# The cloner's averaged pin was taken again when unital channels moved to
# the closed-form average: its row cloner,0.5 reads 0.212153045284, equal
# to its Delta_closed (0.212153045283 by the quadrature rule).
SWEEP_11_SHA256 = {
    ("optimal", "worst-case-trace-norm"): "62022a90c28c6c76a10d2450caf3d269b0ddf93f97c026be8234306e0351698e",
    ("optimal", "worst-case-hilbert-schmidt"): "68ac06dbc9a976ee9d3fd36f04ceb6e1bda026ee59fe9907cb576889a9cb3be2",
    ("optimal", "worst-case-infidelity"): "63c283badcd9992cefe3fb57378b58d7c4d9ec4ee3da1fafcd29c0e57319973d",
    ("optimal", "state-averaged-trace-norm"): "152a053dee266c3193f70f4b20eceb1c7f5226f0762a88f16a40c781e16af644",
    ("diagonal", "worst-case-trace-norm"): "899bf10ce87141b84b7763645ba2665c9963410974189cf240419628df5763ca",
    ("diagonal", "worst-case-hilbert-schmidt"): "fa5c9cc16a788d491ddccfe7151d8746691c55e108443962137921ae0b0e032d",
    ("diagonal", "worst-case-infidelity"): "ef428f89c74793f477d94277ebbd2ebc0a479dbd2485790231c705605ba17311",
    ("diagonal", "state-averaged-trace-norm"): "d5743123fb26c267f999859044373feb5e36c72ce3c8af21007650a7561133fd",
    ("cloner", "worst-case-trace-norm"): "d29afec199cdd5d061af25987474c6bdfc783f730f51c395b09ca819eda6b967",
    ("cloner", "worst-case-hilbert-schmidt"): "ebf0e9de7d252a54f241930762c29dd93985ad770313344fb9bcd3cfdcbad8ee",
    ("cloner", "worst-case-infidelity"): "19ff75cac9f5e4b0e7e98c04c47e55decf5bae5b04b35627c8f00841b8417980",
    ("cloner", "state-averaged-trace-norm"): "c6bf6ee8910fa9aa0b0b0e51ed7055f1e89b5a710c763fd0ab07a22fe09bc64e",
    ("swap", "worst-case-trace-norm"): "829675fbcfa9f147eea940052ead9d8e2ccf5f6fb5dac86a7bfe36728ef194b5",
    ("swap", "worst-case-hilbert-schmidt"): "b8be83bf1625c98e8c4c74d2d4520c5ba2c0466e210f9786e9708f76c4ac4581",
    ("swap", "worst-case-infidelity"): "5814ec300435c2ff25dfe0d93a7d9f62f030ddbae9fb61f7091d5266b6cd3f2f",
    ("swap", "state-averaged-trace-norm"): "214689cbda1a5996f43ee5438ad26ab2321d585deac7309ab12fc633a5138cc6",
}


@pytest.mark.parametrize("scheme, kind", sorted(SWEEP_11_SHA256))
def test_sweep_bytes_are_pinned(tmp_path, capsys, scheme, kind):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--scheme", scheme, "--steps", "11",
                      "--kind", kind, "--out", str(out))
    assert code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SWEEP_11_SHA256[scheme, kind]


def test_averaged_sweeps_never_build_the_quadrature(tmp_path, capsys):
    # Every channel that sweep builds has t = 0, which the closed-form
    # average serves; the quadrature rule is built on first use only.
    _quadrature.cache_clear()
    for scheme in ("optimal", "diagonal", "cloner", "swap"):
        code, _ = run_cli(capsys, "sweep", "--scheme", scheme, "--steps", "11",
                          "--kind", "state-averaged-trace-norm",
                          "--out", str(tmp_path / f"{scheme}.csv"))
        assert code == 0
    assert _quadrature.cache_info().misses == 0


def test_sweep_csv_number_format(tmp_path, capsys):
    out = tmp_path / "fmt.csv"
    run_cli(capsys, "sweep", "--scheme", "swap", "--steps", "3", "--out", str(out))
    text = out.read_text()
    assert "," in text and ";" not in text
    # 12 significant digits, point decimal separator
    assert "0.785398163397" in text


def test_sweep_rejects_bad_steps(tmp_path, capsys, caplog):
    code, _ = run_cli(capsys, "sweep", "--scheme", "optimal", "--steps", "1",
                      "--out", str(tmp_path / "x.csv"))
    assert code == 2
    # Counts numpy refuses before it allocates anything.
    for steps in ("4611686018427387904", "100000000000000000000"):
        caplog.clear()
        code, _ = run_cli(capsys, "sweep", "--scheme", "optimal", "--steps",
                          steps, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert f"--steps {steps}" in caplog.text
    assert not (tmp_path / "x.csv").exists()


def test_a_measure_error_in_a_sweep_is_no_steps_error(tmp_path, capsys,
                                                      caplog, monkeypatch):
    def failing(channel, kind):
        raise ValueError("channel image of shape (3, 3)")

    monkeypatch.setattr(schemes, "disturbance", failing)
    with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
        main(["sweep", "--scheme", "optimal", "--steps", "3",
              "--out", str(tmp_path / "x.csv")])
    assert "--steps" not in caplog.text
    assert not (tmp_path / "x.csv").exists()


def test_sweep_and_verify_read_the_rows_of_schemes_sweep(tmp_path, capsys,
                                                         monkeypatch):
    calls = []

    def spy(scheme, steps, kind=MeasureKind.WORST_TRACE):
        calls.append((scheme, steps, kind))
        # A row off every curve: delta 0.25 with Delta 0.5.
        return iter([(0.5, 0.25, 0.125, 0.25, 0.5)] * steps)

    monkeypatch.setattr(schemes, "sweep", spy)
    out = tmp_path / "x.csv"
    code, _ = run_cli(capsys, "sweep", "--scheme", "cloner", "--steps", "2",
                      "--kind", "diamond", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[1:] == [
        "cloner,0.5,0.25,0.125,0.25,0.5,diamond"] * 2
    results = [verification.check_optimal_frontier(points=3),
               verification.check_cloner_curve(points=3),
               verification.check_swap_line(points=3),
               verification.check_dominance(),
               verification.check_diamond_equality(points=1)]
    worst = MeasureKind.WORST_TRACE
    assert calls == [("cloner", 2, MeasureKind.DIAMOND), ("optimal", 3, worst),
                     ("cloner", 3, worst), ("swap", 3, worst),
                     ("optimal", 101, worst), ("optimal", 1, worst)]
    assert not any(r.passed for r in results)
    assert results[2].worst == 0.375
    assert results[2].detail == "closed-form residual 1.2e-01"


@pytest.mark.parametrize("command", ["sweep", "eval"])
def test_unknown_kind_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # argparse's choices reject the kind before the command runs.
    ins = tmp_path / "ins.json"
    ins.write_text(json.dumps({"family": "optimal", "gamma": 0.5}))
    args = {"sweep": ["--scheme", "optimal", "--steps", "3",
                      "--out", str(tmp_path / "x.csv")],
            "eval": ["--instrument", str(ins)]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--kind", "bogus"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'bogus'" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ins.json"]


def test_sweep_rejects_unwritable_path(capsys):
    code, _ = run_cli(capsys, "sweep", "--scheme", "optimal", "--steps", "2",
                      "--out", "/nonexistent-dir/x.csv")
    assert code == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_projective_optimal(tmp_path, capsys):
    f = tmp_path / "ins.json"
    f.write_text(json.dumps({"family": "optimal", "gamma": 1.0, "beta": 0.0}))
    code, out = run_cli(capsys, "eval", "--instrument", str(f))
    assert code == 0
    result = json.loads(out)
    assert result["delta"] == pytest.approx(0.0, abs=1e-8)
    assert result["Delta"] == pytest.approx(0.5, abs=1e-8)
    assert result["kind"] == "worst-case-trace-norm"
    assert "argmax_states" in result


def test_eval_prints_argmax_bloch_vectors(tmp_path, capsys):
    # The exact kinds return the maximizing state's Bloch vector itself,
    # printed rounded to 12 decimals: no component reads -0.0.
    f = tmp_path / "ins.json"
    f.write_text(json.dumps({"family": "optimal", "gamma": 0.5}))
    code, out = run_cli(capsys, "eval", "--instrument", str(f))
    assert code == 0
    assert json.dumps(json.loads(out)["argmax_states"]) == json.dumps(
        {"delta": {"bloch": [0.0, 0.0, -1.0]},
         "Delta": {"bloch": [1.0, 0.0, 0.0]}})


def test_eval_diagonal_half(tmp_path, capsys):
    f = tmp_path / "ins.json"
    f.write_text(json.dumps({"family": "diagonal", "b1": 0.5, "b2": 0.5}))
    code, out = run_cli(capsys, "eval", "--instrument", str(f))
    assert code == 0
    result = json.loads(out)
    assert result["delta"] == pytest.approx(0.25, abs=1e-8)
    assert result["Delta"] == pytest.approx(0.066987298, abs=1e-8)


def test_eval_diamond_optimal(tmp_path, capsys):
    f = tmp_path / "ins.json"
    f.write_text(json.dumps({"family": "optimal", "gamma": 0.5, "beta": 0.0}))
    code, out = run_cli(capsys, "eval", "--instrument", str(f),
                        "--kind", "diamond")
    assert code == 0
    result = json.loads(out)
    assert result["kind"] == "diamond"
    # on the optimal family the diamond value is the worst-case trace value
    assert result["Delta"] == pytest.approx(0.5 * (1.0 - np.sqrt(0.75)), abs=1e-10)
    pairs = result["argmax_states"]["Delta"]["bipartite_vector"]
    assert len(pairs) == 4 and all(len(p) == 2 for p in pairs)
    assert sum(re * re + im * im for re, im in pairs) == pytest.approx(1.0, abs=1e-12)


def test_eval_rejects_unnormalized_raw(tmp_path, capsys):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"family": "raw", "k1": eye, "k2": eye}))
    code, _ = run_cli(capsys, "eval", "--instrument", str(f))
    assert code == 2


@pytest.mark.parametrize("desc, field", [
    ({"family": "raw", "k1": [[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
      "k2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "K1^dag K1"),
    ({"family": "optimal", "gamma": 0.5, "beta": float("inf")}, "instrument.beta"),
    ({"family": "diagonal", "b1": float("nan"), "b2": 0.5}, "instrument.b1"),
    ({"family": "diagonal", "b1": 0.5, "b2": 0.5, "beta2": 10**400},
     "instrument.beta2"),
    *(({"family": "raw",
        "k1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "k2": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [entry, 0.0]]]},
       "instrument.k2: entry [1][1][0]")
      for entry in ("0.7071067811865476", False, None)),
    ({"family": "optimal", "gamma": 0.5, "betta": 0.2},
     "instrument.betta: unknown field"),
], ids=["overflowing-raw", "beta-inf", "b1-nan", "beta2-huge", "raw-string",
        "raw-bool", "raw-null", "unknown-field"])
def test_eval_rejects_unusable_numbers(tmp_path, capsys, caplog, desc, field):
    f = tmp_path / "ins.json"
    f.write_text(json.dumps(desc))
    code, out = run_cli(capsys, "eval", "--instrument", str(f))
    assert code == 2
    assert out == ""
    assert field in caplog.text


def test_eval_rejects_bad_schema(tmp_path, capsys, caplog):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"family": "optimal", "gamma": "big"}))
    code, _ = run_cli(capsys, "eval", "--instrument", str(f))
    assert code == 2
    for content, message in UNUSABLE_FILES:
        f.write_bytes(content)
        caplog.clear()
        code, out = run_cli(capsys, "eval", "--instrument", str(f))
        assert code == 2
        assert out == ""
        assert message in caplog.text


def test_eval_missing_file(capsys):
    code, _ = run_cli(capsys, "eval", "--instrument", "/no/such/file.json")
    assert code == 2


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def experiment_config(**overrides):
    cfg = {"alpha": float(0.5 * np.arcsin(0.5)), "phi": float(0.5 * np.pi),
           "shots_per_basis": "exact"}
    cfg.update(overrides)
    return cfg


def test_experiment_exact_mode_matches_analytic(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(experiment_config()))
    out_dir = tmp_path / "run"
    code, out = run_cli(capsys, "experiment", "--config", str(f),
                        "--out", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["gamma"] == pytest.approx(0.5, abs=1e-12)
    assert summary["delta_hat"] == pytest.approx(summary["delta_analytic"], abs=1e-6)
    assert summary["Delta_hat"] == pytest.approx(summary["Delta_analytic"], abs=1e-6)
    assert (out_dir / "dataset.json").exists()
    assert (out_dir / "estimate.json").exists()


def test_experiment_reruns_byte_identical(tmp_path, capsys):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(experiment_config(shots_per_basis=2000, seed=7)))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "experiment", "--config", str(f), "--out", str(d1))
    run_cli(capsys, "experiment", "--config", str(f), "--out", str(d2))
    assert (d1 / "dataset.json").read_bytes() == (d2 / "dataset.json").read_bytes()
    assert (d1 / "estimate.json").read_bytes() == (d2 / "estimate.json").read_bytes()


def test_experiment_env_seed_override(tmp_path, capsys, monkeypatch):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(experiment_config(shots_per_basis=2000, seed=7)))
    d_env, d_plain = tmp_path / "env", tmp_path / "plain"
    monkeypatch.setenv("QTRADEOFF_SEED", "99")
    run_cli(capsys, "experiment", "--config", str(f), "--out", str(d_env))
    monkeypatch.delenv("QTRADEOFF_SEED")
    f.write_text(json.dumps(experiment_config(shots_per_basis=2000, seed=99)))
    run_cli(capsys, "experiment", "--config", str(f), "--out", str(d_plain))
    env_records = json.loads((d_env / "dataset.json").read_text())["records"]
    plain_records = json.loads((d_plain / "dataset.json").read_text())["records"]
    assert env_records == plain_records


@pytest.mark.parametrize("value", ["-1", "seven"])
def test_experiment_rejects_bad_env_seed(tmp_path, capsys, monkeypatch, value):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(experiment_config(shots_per_basis=100)))
    monkeypatch.setenv("QTRADEOFF_SEED", value)
    code, _ = run_cli(capsys, "experiment", "--config", str(f),
                      "--out", str(tmp_path / "x"))
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_experiment_config_errors(tmp_path, capsys, caplog):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"phi": 0.0}))
    code, _ = run_cli(capsys, "experiment", "--config", str(f),
                      "--out", str(tmp_path / "x"))
    assert code == 2
    f.write_text("{not json")
    code, _ = run_cli(capsys, "experiment", "--config", str(f),
                      "--out", str(tmp_path / "x"))
    assert code == 2
    for content, message in UNUSABLE_FILES:
        f.write_bytes(content)
        caplog.clear()
        code, out = run_cli(capsys, "experiment", "--config", str(f),
                            "--out", str(tmp_path / "x"))
        assert code == 2
        assert out == ""
        assert message in caplog.text
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("overrides, field", [
    ({"phi": float("nan")}, "config.phi"),
    ({"alpha": float("nan")}, "config.alpha"),
    ({"intensity_noise": float("inf")}, "config.intensity_noise"),
    ({"thetas": [0.0, float("nan")]}, "config.thetas[1]"),
    ({"thetas": [0.0, 10**400]}, "config.thetas[1]"),
    ({"phi": 10**400}, "config.phi"),
    ({"seed": -1}, "config.seed"),
    ({"shots_per_basis": 10**30}, "config.shots_per_basis"),
    ({"thetas": [0, 0.0, 90.0]}, "config.thetas[1]: duplicate angle"),
    ({"shots_per_basis": 0}, "config.shots_per_basis"),
    ({"shots_per_basis": 1.5}, "config.shots_per_basis"),
    ({"shots_per_basis": "10"}, "config.shots_per_basis"),
    ({"shots_per_basis": True}, "config.shots_per_basis"),
    ({"shots_per_basis": 2**63}, "config.shots_per_basis"),
    ({"seed": 1.0}, "config.seed"),
    ({"seed": True}, "config.seed"),
    ({"seed": "3"}, "config.seed"),
    ({"alpha": 2.0}, "config.alpha"),
    ({"intensity_noise": -0.1}, "config.intensity_noise"),
    ({"shot_per_basis": 100}, "config.shot_per_basis: unknown field"),
    ({"convention": "other-bs/phase-in-arm-A"}, "config.convention: expected"),
])
def test_experiment_rejects_unusable_numbers(tmp_path, capsys, caplog,
                                             overrides, field):
    # Python's json writes and reads NaN, Infinity and integers of any
    # size; the config must reject values the simulation cannot use with
    # the input-error exit code and name the field.
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(experiment_config(
        **{"shots_per_basis": 100, **overrides})))
    code, _ = run_cli(capsys, "experiment", "--config", str(f),
                      "--out", str(tmp_path / "x"))
    assert code == 2
    assert field in caplog.text
    assert not (tmp_path / "x").exists()


def test_experiment_rejects_noise_that_overflows_a_count(tmp_path, capsys,
                                                       caplog):
    # A finite but huge noise takes an intensity count beyond float range;
    # that is an input error naming the field, not a traceback.
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(experiment_config(
        shots_per_basis=1000, intensity_noise=1e308)))
    code, out = run_cli(capsys, "experiment", "--config", str(f),
                        "--out", str(tmp_path / "x"))
    assert code == 2
    assert out == ""
    assert "config.intensity_noise" in caplog.text
    assert not (tmp_path / "x").exists()


def test_experiment_accepts_angles_whose_difference_overflows(tmp_path, capsys):
    # Finite angles 2e308 apart: their difference overflows to inf, which
    # lies outside the parabola's window, and warns about nothing.
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(experiment_config(thetas=[1e308, -1e308])))
    code, _ = run_cli(capsys, "experiment", "--config", str(f),
                      "--out", str(tmp_path / "x"))
    assert code == 0


@pytest.mark.parametrize("overrides, theta", [
    ({"shots_per_basis": 1, "seed": 3}, "90.0"),
    ({"shots_per_basis": 100, "intensity_noise": 50, "seed": 1}, "100.0"),
], ids=["one-shot", "loud-noise"])
def test_experiment_rejects_a_dataset_without_intensity(tmp_path, capsys, caplog,
                                                        overrides, theta):
    # Legal configs whose draws leave a state with no light in either port:
    # the estimate cannot be formed, which is an input error, not a crash.
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"alpha": 0.4, "phi": 1.5707963, **overrides}))
    code, _ = run_cli(capsys, "experiment", "--config", str(f),
                      "--out", str(tmp_path / "x"))
    assert code == 2
    assert f"experiment: no intensity recorded at theta = {theta}" in caplog.text
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_quick_runtime_and_report(capsys):
    t0 = time.time()
    code = main(["verify", "--level", "quick"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert elapsed < 10.0
    # one line per check plus the summary
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) >= 6
    assert all(("PASS" in ln) or ("FAIL" in ln) for ln in lines)
    # the known separation shortfall at the grid edge makes this non-zero
    assert code in (0, 3)


def test_verify_detects_injected_faulty_frontier():
    # a frontier shifted down by 1e-3 must break the tightness part of
    # the dominance check
    from qtradeoff import schemes
    from qtradeoff.verification import check_dominance

    faulty = lambda d: schemes.optimal_frontier(d) - 1e-3
    assert check_dominance(frontier_fn=faulty).passed is False
    # and the frontier-reproduction check must catch it too
    from qtradeoff.verification import check_optimal_frontier

    res = check_optimal_frontier(points=5, frontier_fn=faulty)
    assert res.passed is False

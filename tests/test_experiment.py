import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtradeoff.experiment as experiment
from qtradeoff.experiment import (
    _branch_blochs,
    _config_to_dict,
    _port_stream,
    ExperimentConfig,
    InsufficientCounts,
    InterferometerSetting,
    Record,
    SimulatedDataset,
    analytic_tradeoff_of_setting,
    config_from_dict,
    dataset_from_json,
    dataset_to_json,
    estimate_Delta,
    estimate_delta,
    estimate_tradeoff,
    gamma_beta_from_setting,
    instrument_from_setting,
    reconstruct_branch_states,
    simulate_dataset,
    with_seed,
)
from qtradeoff.instruments import (
    OptimalFamilyParams,
    make_optimal_instrument,
    outcome_probabilities,
    povm_of,
)
from qtradeoff.measures import measurement_error
from qtradeoff.qmath import ID2, dag
from qtradeoff.states import linear_pol_state, sm7_state_list


def setting_for_gamma(gamma):
    return InterferometerSetting(alpha=0.5 * np.arcsin(gamma), phi=0.5 * np.pi)


# ---------------------------------------------------------------------------
# setting -> (gamma, beta) -> instrument
# ---------------------------------------------------------------------------

def test_gamma_beta_examples():
    g, b = gamma_beta_from_setting(InterferometerSetting(np.pi / 8.0, np.pi / 2.0))
    assert g == pytest.approx(np.sin(np.pi / 4.0), abs=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)

    g, b = gamma_beta_from_setting(InterferometerSetting(np.pi / 6.0, 0.0))
    assert g == pytest.approx(0.0, abs=1e-12)
    assert b == pytest.approx(np.pi / 3.0, abs=1e-12)

    g, b = gamma_beta_from_setting(InterferometerSetting(np.pi / 4.0, np.pi / 2.0))
    assert g == pytest.approx(1.0, abs=1e-12)
    # beta is whatever atan2 gives at the singular point; the vanishing
    # amplitude makes it irrelevant
    assert np.isfinite(b)


def test_gamma_magnitude_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = InterferometerSetting(rng.uniform(0, np.pi / 2), rng.uniform(-np.pi, 3 * np.pi))
        g, b = gamma_beta_from_setting(s)
        assert abs(g) <= 1.0 + 1e-15
        assert np.isfinite(b)


def test_instrument_from_setting_projective():
    ins = instrument_from_setting(InterferometerSetting(np.pi / 4.0, np.pi / 2.0))
    assert np.allclose(ins.k1, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(ins.k2, np.diag([0.0, 1.0]), atol=1e-12)


def test_instrument_from_setting_single_arm():
    # alpha = 0: all light in one arm, no which-path information
    ins = instrument_from_setting(InterferometerSetting(0.0, 0.7))
    g, _ = gamma_beta_from_setting(InterferometerSetting(0.0, 0.7))
    assert g == 0.0
    assert np.allclose(ins.k1, ID2 / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(ins.k2, ID2 / np.sqrt(2.0), atol=1e-12)


def test_instrument_normalization_tight():
    rng = np.random.default_rng(1)
    for _ in range(30):
        s = InterferometerSetting(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        ins = instrument_from_setting(s)
        dev = np.linalg.norm(dag(ins.k1) @ ins.k1 + dag(ins.k2) @ ins.k2 - ID2)
        assert dev < 1e-12


def test_instrument_matches_optimal_family_up_to_phase():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 25:
        s = InterferometerSetting(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        g, b = gamma_beta_from_setting(s)
        if g < 0.0:
            continue
        mz = instrument_from_setting(s)
        ref = make_optimal_instrument(OptimalFamilyParams(g, b))
        for km, kr in ((mz.k1, ref.k1), (mz.k2, ref.k2)):
            i = np.unravel_index(np.argmax(np.abs(kr)), kr.shape)
            phase = km[i] / kr[i]
            assert abs(abs(phase) - 1.0) < 1e-10
            assert np.allclose(km, phase * kr, atol=1e-12)
        checked += 1


def same_substream(phase_a, phase_b):
    def state(phase):
        return _port_stream(7, 3, phase).bit_generator.state
    return state(phase_a) == state(phase_b)


near_full_turns = st.builds(lambda k, e: 2.0 * np.pi * k + e,
                            st.integers(-7, 7), st.floats(-1e-12, 1e-12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(alpha=st.floats(0.0, 0.5 * np.pi),
       phi=st.one_of(st.floats(-50.0, 50.0), near_full_turns))
@example(alpha=0.4, phi=-1e-16)
@example(alpha=0.4, phi=2.0 * np.pi - 1e-15)
def test_port_swap_identity(alpha, phi):
    partner = phi + np.pi
    a = instrument_from_setting(InterferometerSetting(alpha, phi))
    b = instrument_from_setting(InterferometerSetting(alpha, partner))
    assert np.allclose(a.k1, b.k2, atol=1e-12)
    assert np.allclose(a.k2, b.k1, atol=1e-12)
    # Port 2 at phi and port 1 at the partner key on the same float.
    # Port 1 at phi pairs with port 2 at the partner, whose phase
    # fl(fl(phi + pi) + pi) differs from phi + 2 pi by rounding (below
    # 1e-14 rad here).  The key rounds the reduced phase to 1e-12 rad, so
    # the two can split only within that rounding of a half step.
    scaled = (phi % (2.0 * np.pi)) * 1e12
    if abs(scaled - np.floor(scaled) - 0.5) > 0.01:
        assert same_substream(phi, partner + np.pi)


def test_setting_validation():
    with pytest.raises(ValueError):
        InterferometerSetting(-0.1, 0.0)
    with pytest.raises(ValueError):
        InterferometerSetting(0.1, 0.0, convention="other")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_dataset_shape_and_count_invariants():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=1000, seed=1)
    d = simulate_dataset(cfg)
    assert len(d.records) == 16 * 2 * 3
    for r in d.records:
        assert r.n_plus >= 0 and r.n_minus >= 0 and r.intensity >= 0
        assert r.n_plus + r.n_minus == 1000
        assert isinstance(r.n_plus, int)


def test_simulation_deterministic():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.3), shots_per_basis=5000, seed=9,
                           intensity_noise=0.01)
    assert dataset_to_json(simulate_dataset(cfg)) == dataset_to_json(simulate_dataset(cfg))


def test_large_shot_frequencies_match_probabilities():
    # law of large numbers at 1e8 shots: 3 sigma binomial bounds
    n = 10**8
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=n, seed=12)
    d = simulate_dataset(cfg)
    ins = instrument_from_setting(cfg.setting)
    intensities = {(r.theta_deg, r.port): r.intensity for r in d.records}
    for theta in cfg.thetas:
        p = outcome_probabilities(ins, linear_pol_state(theta))
        for port, p_j in zip((1, 2), p):
            obs = intensities[(theta, port)] / n
            sigma = np.sqrt(max(p_j * (1 - p_j), 1e-12) / n)
            assert abs(obs - p_j) <= 3.0 * sigma + 1e-9


def test_projective_setting_puts_h_in_port_one():
    cfg = ExperimentConfig(
        setting=InterferometerSetting(np.pi / 4.0, np.pi / 2.0),
        thetas=(0.0,), shots_per_basis=10**5, seed=4)
    d = simulate_dataset(cfg)
    intensities = {r.port: r.intensity for r in d.records}
    assert intensities[2] == 0
    assert intensities[1] > 0


def test_exact_mode_stores_expected_frequencies():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    d = simulate_dataset(cfg)
    ins = instrument_from_setting(cfg.setting)
    rec = {(r.theta_deg, r.port, r.basis): r for r in d.records}
    p1, _ = outcome_probabilities(ins, linear_pol_state(90.0))
    assert rec[(90.0, 1, "z")].intensity == pytest.approx(p1, abs=1e-12)
    r = rec[(90.0, 1, "z")]
    assert r.n_plus + r.n_minus == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_exact_mode_recovers_branches():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.6), shots_per_basis=None)
    branches = reconstruct_branch_states(simulate_dataset(cfg))
    ins = instrument_from_setting(cfg.setting)
    for theta in cfg.thetas:
        rho = linear_pol_state(theta)
        probs = outcome_probabilities(ins, rho)
        for port, k in zip((1, 2), (ins.k1, ins.k2)):
            est = branches[(theta, port)]
            p = probs[port - 1]
            assert est.probability == pytest.approx(p, abs=1e-12)
            if p > 1e-9:
                expected = (k @ rho @ dag(k)) / p
                assert np.allclose(est.rho, expected, atol=1e-12)


def test_reconstruction_equal_counts_gives_maximally_mixed():
    records = []
    for port in (1, 2):
        for basis in ("x", "y", "z"):
            records.append(Record(0.0, port, basis, 500, 500, 1000))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,),
                           shots_per_basis=1000)
    d = SimulatedDataset(cfg, tuple(records))
    branches = reconstruct_branch_states(d)
    assert np.allclose(branches[(0.0, 1)].rho, 0.5 * ID2, atol=1e-12)
    assert branches[(0.0, 1)].probability == pytest.approx(0.5)


def test_reconstruction_projects_nonphysical_inversion():
    # all three Bloch components near +1: norm sqrt(3) > 1
    records = []
    for port in (1, 2):
        for basis in ("x", "y", "z"):
            records.append(Record(0.0, port, basis, 999, 1, 1000))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,),
                           shots_per_basis=1000)
    branches = reconstruct_branch_states(SimulatedDataset(cfg, tuple(records)))
    rho = branches[(0.0, 1)].rho
    vals = np.linalg.eigvalsh(rho)
    assert vals.min() >= -1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_reconstruction_insufficient_counts():
    records = []
    for port in (1, 2):
        for basis in ("x", "y", "z"):
            n = 0 if (port, basis) == (1, "y") else 100
            records.append(Record(0.0, port, basis, n, 0, 100))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,),
                           shots_per_basis=100)
    with pytest.raises(InsufficientCounts,
                       match="zero shots in basis 'y' at theta = 0.0, port 1"):
        reconstruct_branch_states(SimulatedDataset(cfg, tuple(records)))


def test_reconstruction_missing_basis():
    records = [Record(0.0, 1, "x", 50, 50, 100)]
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,),
                           shots_per_basis=100)
    with pytest.raises(InsufficientCounts,
                       match="missing basis 'y' at theta = 0.0, port 1"):
        reconstruct_branch_states(SimulatedDataset(cfg, tuple(records)))


@pytest.mark.parametrize("drop, dark, message", [
    # The first state in config order with a gap is reported, whatever
    # the kind of gap.
    ((0.0, 2, "z"), 90.0, "missing basis 'z' at theta = 0.0, port 2"),
    (None, 90.0, "no intensity recorded at theta = 90.0"),
    ((90.0, 1, "x"), 0.0, "no intensity recorded at theta = 0.0"),
])
def test_reconstruction_reports_first_gap(drop, dark, message):
    records = tuple(
        Record(t, port, b, 60, 40, 0 if t == dark else 100)
        for t in (0.0, 90.0) for port in (1, 2) for b in ("x", "y", "z")
        if (t, port, b) != drop)
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0, 90.0),
                           shots_per_basis=100)
    with pytest.raises(InsufficientCounts, match=message):
        reconstruct_branch_states(SimulatedDataset(cfg, records))


def reference_branch_blochs(ins, thetas):
    # One state at a time: rho at the polarization angle, k rho k^H per
    # port, and I/2 for a branch of probability at most 1e-12.
    blochs = np.zeros((len(thetas), 2, 3))
    probs = np.zeros((len(thetas), 2))
    for i, theta in enumerate(thetas):
        t = np.deg2rad(float(theta))
        psi = np.array([np.cos(0.5 * t), np.sin(0.5 * t)], dtype=complex)
        rho = np.outer(psi, psi.conj())
        for j, k in enumerate((ins.k1, ins.k2)):
            out = k @ rho @ k.conj().T
            p = float(np.trace(out).real)
            if p > 1e-12:
                out = out / p
                blochs[i, j] = [2.0 * out[0, 1].real, -2.0 * out[0, 1].imag,
                                (out[0, 0] - out[1, 1]).real]
            probs[i, j] = max(p, 0.0)
    return blochs, probs


@pytest.mark.parametrize("alpha, phi", [
    (0.25 * np.pi, 0.5 * np.pi),  # projective: zero-probability branches
    (0.0, 0.7), (0.4, 0.9), (0.1, -3.0), (1.2, 5.0), (0.5 * np.arcsin(0.8), 0.5 * np.pi),
])
def test_branch_blochs_match_per_state_reference(alpha, phi):
    ins = instrument_from_setting(InterferometerSetting(alpha, phi))
    thetas = [float(t) for t in range(360)] + [-20.0, 370.5, 1e-9, -1e-300]
    blochs, probs = _branch_blochs(ins, thetas)
    ref_blochs, ref_probs = reference_branch_blochs(ins, thetas)
    np.testing.assert_array_equal(blochs, ref_blochs)
    np.testing.assert_array_equal(probs, ref_probs)
    if alpha == 0.25 * np.pi:
        assert probs[0, 1] <= 1e-12 and probs[180, 0] <= 1e-12
        assert not blochs[0, 1].any() and not blochs[180, 0].any()


def reference_branch_arrays(d):
    # Branch by branch, as a dict of counts per cell.
    cells = {(r.theta_deg, r.port, r.basis): (r.n_plus, r.n_minus) for r in d.records}
    intensities = {(r.theta_deg, r.port): r.intensity for r in d.records}
    blochs = np.zeros((len(d.config.thetas), 2, 3))
    probs = np.zeros((len(d.config.thetas), 2))
    for i, theta in enumerate(d.config.thetas):
        total_i = sum(intensities[(theta, port)] for port in (1, 2))
        for j, port in enumerate((1, 2)):
            means = [(n_plus - n_minus) / (n_plus + n_minus) for n_plus, n_minus
                     in (cells[(theta, port, b)] for b in ("x", "y", "z"))]
            norm = np.linalg.norm(means)
            blochs[i, j] = [m / norm for m in means] if norm > 1.0 else means
            probs[i, j] = intensities[(theta, port)] / total_i
    return blochs, probs


@pytest.mark.parametrize("cfg", [
    # Near-pure branches at 1e3 shots: 535 of the 720 invert outside the
    # Bloch ball and are scaled back.
    ExperimentConfig(setting=setting_for_gamma(0.999), shots_per_basis=1000, seed=4,
                     thetas=tuple(range(360))),
    ExperimentConfig(setting=setting_for_gamma(0.6), shots_per_basis=None),
    ExperimentConfig(setting=InterferometerSetting(0.4, 0.9), shots_per_basis=10**4,
                     seed=3, intensity_noise=0.05),
], ids=["rim-shots", "exact", "noisy"])
def test_branch_arrays_match_per_branch_reference(cfg):
    d = simulate_dataset(cfg)
    blochs, probs = experiment._branch_arrays(d)
    ref_blochs, ref_probs = reference_branch_arrays(d)
    np.testing.assert_array_equal(blochs, ref_blochs)
    np.testing.assert_array_equal(probs, ref_probs)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_zero_noise_estimates_match_analytic():
    for gamma in (0.2, 0.5, 0.8):
        s = setting_for_gamma(gamma)
        d_ref, dd_ref = analytic_tradeoff_of_setting(s)
        assert d_ref == pytest.approx(0.5 * (1.0 - gamma), abs=1e-12)
        est = estimate_tradeoff(simulate_dataset(
            ExperimentConfig(setting=s, shots_per_basis=None)))
        assert est.delta_hat == pytest.approx(d_ref, abs=1e-6)
        assert est.Delta_hat == pytest.approx(dd_ref, abs=1e-6)


def test_zero_noise_projective_estimates():
    s = InterferometerSetting(np.pi / 4.0, np.pi / 2.0)
    est = estimate_tradeoff(simulate_dataset(
        ExperimentConfig(setting=s, shots_per_basis=None)))
    assert est.delta_hat == pytest.approx(0.0, abs=1e-6)
    assert est.Delta_hat == pytest.approx(0.5, abs=1e-6)


def test_error_integrand_extremal_states():
    # vanishes at 90 / 270, maximal at 0 / 180 (beta = 0)
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    d = simulate_dataset(cfg)
    branches = reconstruct_branch_states(d)
    ins = instrument_from_setting(cfg.setting)
    delta_exact = measurement_error(povm_of(ins))
    devs = {t: abs(branches[(t, 1)].probability
                   - 0.5 * (1.0 + np.cos(np.deg2rad(t))))
            for t in cfg.thetas}
    assert devs[90.0] < 1e-15
    assert devs[270.0] < 1e-15
    assert devs[0.0] == pytest.approx(delta_exact, abs=1e-12)
    assert devs[180.0] == pytest.approx(delta_exact, abs=1e-12)
    assert max(devs.values()) == pytest.approx(devs[0.0], abs=1e-12)


def test_disturbance_integrand_extremal_states():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    d = simulate_dataset(cfg)
    branches = reconstruct_branch_states(d)

    def dist(theta):
        out = sum(branches[(theta, port)].probability * branches[(theta, port)].rho
                  for port in (1, 2))
        return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(out - linear_pol_state(theta))))

    assert dist(0.0) < 1e-15
    assert dist(180.0) < 1e-15
    assert dist(90.0) == pytest.approx(max(dist(t) for t in cfg.thetas), abs=1e-15)


def test_delta_estimate_diagnostics():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    val, diag = estimate_delta(simulate_dataset(cfg))
    assert val == pytest.approx(0.25, abs=1e-9)
    theta0 = diag["theta0_deg"]
    assert 0.0 <= theta0 < 360.0
    assert min(theta0, 360.0 - theta0) <= 1e-6
    assert diag["amplitude"] == pytest.approx(0.5, abs=1e-9)
    assert diag["argmax_theta_deg"] in (0.0, 180.0)
    assert diag["parabola"] is not None


def test_fit_amplitude_compares_with_fitted_curve():
    # Exact data follow (1 + gamma cos theta) / 2, so the fitted curve
    # matches them where the unit-amplitude ideal curve misses by 0.25.
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None,
                           fit_amplitude=True)
    val, diag = estimate_delta(simulate_dataset(cfg))
    assert val <= 1e-9
    assert diag["amplitude"] == pytest.approx(0.5, abs=1e-12)


def test_Delta_estimate_diagnostics():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    val, diag = estimate_Delta(simulate_dataset(cfg))
    assert val == pytest.approx(0.5 * (1.0 - np.sqrt(0.75)), abs=1e-9)
    assert diag["argmax_theta_deg"] == 90.0
    par = diag["parabola"]
    assert par is not None
    assert par["vertex_theta_deg"] == pytest.approx(90.0, abs=0.5)
    assert abs(par["rel_gap"]) < 1e-3


@pytest.mark.parametrize("shots", [4000, None])
def test_estimate_tradeoff_matches_separate_estimates(shots, monkeypatch):
    cfg = ExperimentConfig(setting=setting_for_gamma(0.6),
                           shots_per_basis=shots, seed=5)
    d = simulate_dataset(cfg)
    delta_hat, ddiag = estimate_delta(d)
    Delta_hat, Ddiag = estimate_Delta(d)

    calls = []
    original = experiment._branch_arrays
    monkeypatch.setattr(experiment, "_branch_arrays",
                        lambda ds: calls.append(ds) or original(ds))
    est = estimate_tradeoff(d)
    assert len(calls) == 1
    assert est.delta_hat == delta_hat
    assert est.Delta_hat == Delta_hat
    assert est.diagnostics == {"delta": ddiag, "Delta": Ddiag}


def test_estimator_bias_is_upward():
    # the max-over-states estimator cannot make the channel look closer
    # to the identity on average
    s = setting_for_gamma(0.5)
    _, dd_ref = analytic_tradeoff_of_setting(s)
    base = ExperimentConfig(setting=s, shots_per_basis=10**5)
    vals = []
    for seed in range(100):
        est = estimate_tradeoff(simulate_dataset(with_seed(base, seed)))
        vals.append(est.Delta_hat)
    vals = np.asarray(vals)
    sem = vals.std(ddof=1) / np.sqrt(vals.size)
    assert vals.mean() >= dd_ref - 2.0 * sem


def test_port_equivalence_of_estimates():
    c1 = ExperimentConfig(setting=InterferometerSetting(0.4, 0.9),
                          shots_per_basis=10**4, seed=21)
    c2 = ExperimentConfig(setting=InterferometerSetting(0.4, 0.9 + np.pi),
                          shots_per_basis=10**4, seed=21)
    d1, d2 = simulate_dataset(c1), simulate_dataset(c2)
    # count-level swap identity
    m1 = {(r.theta_deg, r.port, r.basis): (r.n_plus, r.n_minus, r.intensity)
          for r in d1.records}
    m2 = {(r.theta_deg, 3 - r.port, r.basis): (r.n_plus, r.n_minus, r.intensity)
          for r in d2.records}
    assert m1 == m2
    e1, e2 = estimate_tradeoff(d1), estimate_tradeoff(d2)
    assert abs(e1.delta_hat - e2.delta_hat) < 1e-9
    assert abs(e1.Delta_hat - e2.Delta_hat) < 1e-9


def swapped_cells(phi, alpha=0.4, seed=3):
    # Cells whose counts differ between phi and phi + pi, ports exchanged.
    d1, d2 = (simulate_dataset(ExperimentConfig(
        setting=InterferometerSetting(alpha, p), seed=seed))
        for p in (phi, phi + np.pi))
    m1 = {(r.theta_deg, r.port, r.basis): (r.n_plus, r.n_minus, r.intensity)
          for r in d1.records}
    m2 = {(r.theta_deg, 3 - r.port, r.basis): (r.n_plus, r.n_minus, r.intensity)
          for r in d2.records}
    return [k for k in m1 if m1[k] != m2[k]]


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the Kraus pairs at phi and fl(phi + pi) differ in the "
    "last bits, so a y-basis probability of 0.5 +- 1e-17 draws mirrored "
    "binomial counts and rejection sampling shifts the intensity draw; "
    "7 of 96 cells differ at phi = pi/2 (see ROADMAP, Known defects)"))
def test_port_swap_counts_at_quarter_turn():
    assert swapped_cells(0.5 * np.pi) == []


def test_noisy_estimates_reasonably_close():
    s = setting_for_gamma(0.5)
    d_ref, dd_ref = analytic_tradeoff_of_setting(s)
    cfg = ExperimentConfig(setting=s, shots_per_basis=10**6, seed=5)
    est = estimate_tradeoff(simulate_dataset(cfg))
    assert est.delta_hat == pytest.approx(d_ref, abs=3e-3)
    assert est.Delta_hat == pytest.approx(dd_ref, abs=3e-3)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dataset_json_round_trip():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.4), shots_per_basis=200, seed=2)
    d = simulate_dataset(cfg)
    text = dataset_to_json(d)
    back = dataset_from_json(text)
    assert dataset_to_json(back) == text
    payload = json.loads(text)
    assert list(payload) == ["config", "records"]
    assert list(payload["records"][0]) == [
        "theta_deg", "port", "basis", "n_plus", "n_minus", "intensity"]
    assert all(isinstance(r["n_plus"], int) for r in payload["records"])


def reference_json(d):
    payload = {"config": _config_to_dict(d.config),
               "records": [dataclasses.asdict(r) for r in d.records]}
    return json.dumps(payload, indent=2) + "\n"


def hand_built(*records):
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,))
    return SimulatedDataset(cfg, tuple(records))


shot_cfg = ExperimentConfig(setting=setting_for_gamma(0.4), shots_per_basis=200, seed=2)


@pytest.mark.parametrize("dataset", [
    lambda: simulate_dataset(shot_cfg),
    lambda: simulate_dataset(ExperimentConfig(setting=setting_for_gamma(0.7),
                                              shots_per_basis=None)),
    lambda: simulate_dataset(ExperimentConfig(
        setting=InterferometerSetting(0.4, 0.9), shots_per_basis=10**4, seed=3,
        intensity_noise=0.05)),
    lambda: dataset_from_json(dataset_to_json(simulate_dataset(shot_cfg))),
    lambda: dataset_from_json(dataset_to_json(simulate_dataset(
        ExperimentConfig(setting=setting_for_gamma(0.7), shots_per_basis=None)))),
    lambda: hand_built(Record(-0.0, 1, "x", 1e-300, 2**53 + 1, np.float64(0.1)),
                       Record(1e22, 2, "y", float("nan"), float("inf"), -float("inf")),
                       Record(0.5, True, "\u00e9\n", None, [1, 2.5], {"a": [3]})),
    lambda: hand_built(),
], ids=["shots", "exact", "noisy", "reloaded-shots", "reloaded-exact",
        "hand-built", "empty"])
def test_dataset_json_matches_json_module(dataset):
    d = dataset()
    assert dataset_to_json(d) == reference_json(d)


@pytest.mark.parametrize("name", ["n_plus", "n_minus", "intensity"])
@pytest.mark.parametrize("value", ["abc", None, [1], True, -5, float("nan")])
def test_dataset_from_json_rejects_unusable_counts(name, value):
    payload = json.loads(dataset_to_json(simulate_dataset(shot_cfg)))
    payload["records"][4][name] = value
    with pytest.raises(ValueError, match=rf"records\[4\]\.{name}: "):
        dataset_from_json(json.dumps(payload))


def with_record_field(payload, name, value):
    payload["records"][4][name] = value
    return payload


@pytest.mark.parametrize("edit, message", [
    (lambda p: [1, 2], r"^dataset: expected a JSON object"),
    (lambda p: {**p, "records": 5}, r"^records: expected a list"),
    (lambda p: with_record_field(p, "port", 7),
     r"^records\[4\]\.port: unexpected value 7$"),
    (lambda p: with_record_field(p, "basis", "q"),
     r"^records\[4\]\.basis: unexpected value 'q'$"),
    (lambda p: with_record_field(p, "theta_deg", 15.0),
     r"^records\[4\]\.theta_deg: unexpected value 15\.0$"),
], ids=["not-an-object", "records-not-a-list", "port", "basis", "angle"])
def test_dataset_from_json_rejects_malformed_structure(edit, message):
    payload = edit(json.loads(dataset_to_json(simulate_dataset(shot_cfg))))
    with pytest.raises(ValueError, match=message):
        dataset_from_json(json.dumps(payload))


def test_config_rejects_repeated_angles():
    # Cells are keyed by angle, so a repeat would silently drop a state.
    with pytest.raises(ValueError, match=r"^thetas\[1\]: duplicate angle"):
        ExperimentConfig(setting=setting_for_gamma(0.3), thetas=(0, 0.0, 90.0))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.3), thetas=(0.0, 90.0))
    with pytest.raises(ValueError, match="duplicate angle"):
        dataclasses.replace(cfg, thetas=(90.0, 90.0))


def test_config_from_dict_field_errors():
    with pytest.raises(ValueError, match="config.alpha"):
        config_from_dict({"phi": 0.0})
    with pytest.raises(ValueError, match="config.alpha"):
        config_from_dict({"alpha": 9.0, "phi": 0.0})
    with pytest.raises(ValueError, match="config.shots_per_basis"):
        config_from_dict({"alpha": 0.1, "phi": 0.0, "shots_per_basis": 0})
    with pytest.raises(ValueError, match="config.seed"):
        config_from_dict({"alpha": 0.1, "phi": 0.0, "seed": "zero"})
    cfg = config_from_dict({"alpha": 0.1, "phi": 0.0, "shots_per_basis": "exact"})
    assert cfg.shots_per_basis is None
    assert cfg.thetas == tuple(sm7_state_list())

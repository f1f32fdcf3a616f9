import dataclasses
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtradeoff.experiment as experiment
from oracles import bloch_to_density
from qtradeoff.experiment import (
    _branch_arrays,
    _branch_blochs,
    _config_to_dict,
    _parabola_near_max,
    _pcg64_states,
    _port_key,
    ExperimentConfig,
    InsufficientCounts,
    InterferometerSetting,
    Record,
    SimulatedDataset,
    analytic_tradeoff_of_setting,
    config_from_dict,
    dataset_from_json,
    dataset_to_json,
    estimate_tradeoff,
    gamma_beta_from_setting,
    instrument_from_setting,
    simulate_dataset,
)
from qtradeoff.instruments import (
    OptimalFamilyParams,
    make_optimal_instrument,
    povm_of,
)
from qtradeoff.measures import measurement_error
from qtradeoff.qmath import ID2, SIGMA_Z, dag
from qtradeoff.states import linear_pol_state, sm7_state_list


def setting_for_gamma(gamma):
    return InterferometerSetting(alpha=0.5 * np.arcsin(gamma), phi=0.5 * np.pi)


def from_records(config, records):
    # A dataset holding the given Record objects, in order.
    records = list(records)
    return SimulatedDataset(config, *(
        tuple(getattr(r, f.name) for r in records)
        for f in dataclasses.fields(Record)))


def outcome_probabilities(ins, rho):
    # p_j = tr(E'_j rho) for the induced POVM.
    e = povm_of(ins)
    return tuple(float(np.trace(ej @ rho).real) for ej in (e.e1, e.e2))


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

    # gamma = +-1: the coherence amplitude vanishes, and atan2 of its two
    # rounding residues (about 6.1e-17 each) would read as pi/4.
    for phi, gamma in ((np.pi / 2.0, 1.0), (-np.pi / 2.0, -1.0)):
        g, b = gamma_beta_from_setting(InterferometerSetting(np.pi / 4.0, phi))
        assert g == pytest.approx(gamma, abs=1e-12)
        assert b == 0.0


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


# The interaction U = 1 (x) |A><A| - i sigma_z (x) |B><B|, indexed (pol,
# path, pol, path), and K_P = <P| U |phi0> as its contraction with the
# port bra and the path state: the reference construction of the pair.
REFERENCE_U = (np.kron(ID2, np.diag([1.0, 0.0]).astype(complex))
               + np.kron(-1j * SIGMA_Z, np.diag([0.0, 1.0]).astype(complex))
               ).reshape(2, 2, 2, 2)
REFERENCE_BRAS = (np.array([1.0, 1.0]) / np.sqrt(2.0),
                  np.array([1.0, -1.0]) / np.sqrt(2.0))


def reference_kraus(alpha, phi):
    phi0 = np.array([np.cos(alpha), np.exp(1j * phi) * np.sin(alpha)])
    return [np.einsum("r,prqs,s->pq", bra.conj(), REFERENCE_U, phi0)
            for bra in REFERENCE_BRAS]


def kraus_settings():
    named = [(a, p) for a in (0.0, np.pi / 4.0, np.pi / 2.0)
             for p in (0.0, np.pi / 2.0, -np.pi / 2.0, 0.9, 1e3)]
    rng = np.random.default_rng(29)
    return named + [(rng.uniform(0.0, np.pi / 2.0), rng.uniform(-10.0, 10.0))
                    for _ in range(2000)]


def test_kraus_pair_matches_the_contraction_bit_for_bit():
    # A last-bit change flips y-basis counts: numpy's binomial mirrors
    # at p > 0.5, and the y probability sits at 0.5 +- 1e-17 at phi = pi/2.
    for alpha, phi in kraus_settings():
        ins = instrument_from_setting(InterferometerSetting(alpha, phi))
        k1, k2 = reference_kraus(alpha, phi)
        assert ins.k1.tobytes() == k1.tobytes(), (alpha, phi)
        assert ins.k2.tobytes() == k2.tobytes(), (alpha, phi)


def same_substream(phase_a, phase_b):
    def state(phase):
        return _pcg64_states(7, [3], _port_key(phase))
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


# ---------------------------------------------------------------------------
# substream seeding
# ---------------------------------------------------------------------------

def reference_port_stream(seed, theta_index, phase):
    """The generator of one (state, port) cell, built alone."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(theta_index, _port_key(phase)))
    return np.random.Generator(np.random.PCG64(ss))


MAX_KEY = round(2.0 * np.pi * 1e12) - 1
# Values on both sides of the 32-bit word boundaries: a seed of 2**128 or
# more has run entropy past the four-word pool.
seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96,
                     2**128 - 1, 2**128, 2**160 + 5, 2**200]),
    st.integers(0, 2**64), st.integers(2**128, 2**220))
indices = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]),
                    st.integers(0, 2**32 - 1))
keys = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, MAX_KEY]),
                 st.integers(0, 2**32 - 1), st.integers(0, MAX_KEY))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=seeds, indices=st.lists(indices, min_size=1, max_size=6), key=keys)
@example(seed=2**200, indices=[0, 2**32 - 1, 1], key=MAX_KEY)
def test_pcg64_states_match_seed_sequence(seed, indices, key):
    got = _pcg64_states(seed, indices, key)
    assert len(got) == len(indices)
    for i, (state, inc) in zip(indices, got):
        ref = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i, key)))
        assert ref.state["state"] == {"state": state, "inc": inc}


def test_pcg64_states_reject_an_index_of_two_words():
    # Its high word would be a spawn-key word of its own; hashing only the
    # low word would give another cell's stream.
    with pytest.raises(OverflowError):
        _pcg64_states(7, [0, 2**32], 0)


def reference_simulate(cfg):
    """Shot-mode records drawn cell by cell from generators built alone."""
    ins = instrument_from_setting(cfg.setting)
    blochs, probs = _branch_blochs(ins, cfg.thetas)
    plus = np.clip(0.5 * (1.0 + blochs), 0.0, 1.0)
    n = cfg.shots_per_basis
    records = []
    for ti, theta in enumerate(cfg.thetas):
        for port in (1, 2):
            rng = reference_port_stream(cfg.seed, ti, cfg.setting.phi + (port - 1) * np.pi)
            counts = [int(rng.binomial(n, q)) for q in plus[ti, port - 1]]
            intensity = int(rng.binomial(n, min(probs[ti, port - 1], 1.0)))
            if cfg.intensity_noise > 0.0:
                factor = 1.0 + rng.normal(0.0, cfg.intensity_noise)
                intensity = max(0, int(round(intensity * factor)))
            records += [Record(theta, port, b, k, n - k, intensity)
                        for b, k in zip("xyz", counts)]
    return tuple(records)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(0.0, 0.5 * np.pi),
       phi=st.one_of(st.sampled_from([0.0, 0.001, -0.001, 0.5 * np.pi]),
                     st.floats(-50.0, 50.0), near_full_turns),
       seed=seeds, shots=st.sampled_from([1, 7, 1000, 10**6]),
       noise=st.sampled_from([0.0, 0.05]),
       thetas=st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=5, unique=True))
def test_simulate_dataset_matches_per_cell_generators(alpha, phi, seed, shots, noise,
                                                       thetas):
    cfg = ExperimentConfig(setting=InterferometerSetting(alpha, phi), thetas=thetas,
                           shots_per_basis=shots, intensity_noise=noise, seed=seed)
    assert simulate_dataset(cfg).records == reference_simulate(cfg)


def test_setting_validation():
    with pytest.raises(ValueError):
        InterferometerSetting(-0.1, 0.0)


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan")])
def test_setting_rejects_non_finite_phi(phi):
    # Unchecked, a NaN phase fails only in simulate_dataset, with a message
    # about the Kraus operators that names no field.
    with pytest.raises(ValueError, match=r"^phi = "):
        InterferometerSetting(0.3, phi)
    with pytest.raises(ValueError, match=r"^phi = "):
        dataclasses.replace(InterferometerSetting(0.3, 0.5), phi=phi)


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


def test_dataset_stores_columns_and_builds_records_on_read():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=1000, seed=1,
                           thetas=(0.0, 45.0))
    d = simulate_dataset(cfg)
    assert d.theta_deg == (0.0,) * 6 + (45.0,) * 6
    assert d.port == (1, 1, 1, 2, 2, 2) * 2
    assert d.basis == ("x", "y", "z") * 4
    for name in ("n_plus", "n_minus", "intensity"):
        assert type(getattr(d, name)) is tuple and len(getattr(d, name)) == 12
    assert d.records == tuple(map(Record, d.theta_deg, d.port, d.basis, d.n_plus,
                                  d.n_minus, d.intensity))
    assert from_records(cfg, d.records) == d
    assert from_records(cfg, []).records == ()
    with pytest.raises(ValueError, match="columns differ in length"):
        dataclasses.replace(d, intensity=d.intensity[:-1])


def test_pipeline_builds_no_records(monkeypatch):
    def no_record(*args):
        raise AssertionError("a Record was built")
    monkeypatch.setattr(experiment, "Record", no_record)
    for shots in (1000, None):
        cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=shots,
                               seed=1)
        d = simulate_dataset(cfg)
        estimate_tradeoff(d)
        assert dataset_from_json(dataset_to_json(d)) == d


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
    blochs, probs = _branch_arrays(simulate_dataset(cfg))
    ins = instrument_from_setting(cfg.setting)
    for i, theta in enumerate(cfg.thetas):
        rho = linear_pol_state(theta)
        for j, (p, k) in enumerate(zip(outcome_probabilities(ins, rho), (ins.k1, ins.k2))):
            assert probs[i, j] == pytest.approx(p, abs=1e-12)
            if p > 1e-9:
                expected = (k @ rho @ dag(k)) / p
                assert np.allclose(bloch_to_density(blochs[i, j]), expected, atol=1e-12)


def test_reconstruction_equal_counts_gives_maximally_mixed():
    records = []
    for port in (1, 2):
        for basis in ("x", "y", "z"):
            records.append(Record(0.0, port, basis, 500, 500, 1000))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,),
                           shots_per_basis=1000)
    blochs, probs = _branch_arrays(from_records(cfg, records))
    assert np.allclose(bloch_to_density(blochs[0, 0]), 0.5 * ID2, atol=1e-12)
    assert probs[0, 0] == pytest.approx(0.5)


def test_reconstruction_projects_nonphysical_inversion():
    # all three Bloch components near +1: norm sqrt(3) > 1
    records = []
    for port in (1, 2):
        for basis in ("x", "y", "z"):
            records.append(Record(0.0, port, basis, 999, 1, 1000))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,),
                           shots_per_basis=1000)
    blochs, _ = _branch_arrays(from_records(cfg, records))
    rho = bloch_to_density(blochs[0, 0])
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
        _branch_arrays(from_records(cfg, records))


def test_reconstruction_missing_basis():
    records = [Record(0.0, 1, "x", 50, 50, 100)]
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0,),
                           shots_per_basis=100)
    with pytest.raises(InsufficientCounts,
                       match="missing basis 'y' at theta = 0.0, port 1"):
        _branch_arrays(from_records(cfg, records))


@pytest.mark.parametrize("records, message", [
    ([Record(45.0, 1, "y", 5, 5, 10), Record(0.0, 1, "x", 50, 50, 100),
      Record(0.0, 3, "z", 5, 5, 10)],
     r"^missing basis 'y' at theta = 0\.0, port 1$"),
    ([Record(90.0, 2, "z", 50, 50, 100), Record(-90.0, 1, "x", 5, 5, 10)],
     r"^no intensity recorded at theta = 0\.0$"),
], ids=["counts", "intensity"])
def test_reconstruction_single_usable_record(records, message):
    # Of records at angles, ports or bases outside the config, only one
    # record is read: every column gives one value.
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0, 90.0),
                           shots_per_basis=100)
    with pytest.raises(InsufficientCounts, match=message):
        _branch_arrays(from_records(cfg, records))


@pytest.mark.parametrize("records", [[], [Record(45.0, 1, "x", 5, 5, 10)]],
                         ids=["empty", "strays"])
def test_reconstruction_without_usable_records(records):
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0, 90.0),
                           shots_per_basis=100)
    with pytest.raises(InsufficientCounts, match=r"^no intensity recorded at theta = 0\.0$"):
        _branch_arrays(from_records(cfg, records))


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
        _branch_arrays(from_records(cfg, records))


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


def dataset_of(cfg, records):
    return from_records(cfg, records)


two_state_cfg = ExperimentConfig(setting=setting_for_gamma(0.5), thetas=(0.0, 90.0),
                                 shots_per_basis=100)


def two_state_records():
    # Distinct counts per cell and intensities per branch.
    return [Record(t, port, b, 60 + i, 40 - i, 100 + 10 * port + int(t))
            for t in (0.0, 90.0) for port in (1, 2)
            for i, b in enumerate(("x", "y", "z"))]


def assert_same_branches(d1, d2):
    for a1, a2 in zip(_branch_arrays(d1), _branch_arrays(d2)):
        np.testing.assert_array_equal(a1, a2)


def test_reconstruction_last_duplicate_wins():
    records = two_state_records()
    # A later record of a cell replaces its counts, and of a branch its
    # intensity, whatever its basis.
    late = [Record(0.0, 1, "x", 90, 10, 500), Record(90.0, 2, "z", 5, 95, 7)]
    expected = [dataclasses.replace(r, intensity=500) if (r.theta_deg, r.port) == (0.0, 1)
                else dataclasses.replace(r, intensity=7) if (r.theta_deg, r.port) == (90.0, 2)
                else r for r in records]
    expected[0] = late[0]
    expected[11] = late[1]
    assert_same_branches(dataset_of(two_state_cfg, records + late),
                         dataset_of(two_state_cfg, expected))
    # An empty cell counts only if it is the last of its duplicates.
    empty = Record(90.0, 1, "y", 0, 0, 110 + 90)
    assert_same_branches(dataset_of(two_state_cfg, [empty] + records),
                         dataset_of(two_state_cfg, records))
    with pytest.raises(InsufficientCounts,
                       match=r"^zero shots in basis 'y' at theta = 90\.0, port 1$"):
        _branch_arrays(dataset_of(two_state_cfg, records + [empty]))


def test_reconstruction_ignores_angles_outside_the_config():
    records = two_state_records()
    stray = [Record(45.0, port, b, 0, 0, 0) for port in (1, 2) for b in ("x", "y", "z")]
    stray += [Record(-90.0, 1, "x", 1, 99, 10**6)]
    assert_same_branches(dataset_of(two_state_cfg, stray[:3] + records + stray[3:]),
                         dataset_of(two_state_cfg, records))


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(setting=setting_for_gamma(0.6), shots_per_basis=10**4, seed=8),
    ExperimentConfig(setting=InterferometerSetting(0.4, 0.9), shots_per_basis=None,
                     thetas=tuple(float(t) for t in range(0, 360, 5))),
], ids=["shots", "exact"])
def test_estimates_do_not_depend_on_record_order(cfg):
    d = simulate_dataset(cfg)
    records = list(d.records)
    random.Random(3).shuffle(records)
    shuffled = dataset_of(cfg, records)
    assert_same_branches(shuffled, d)
    e1, e2 = estimate_tradeoff(d), estimate_tradeoff(shuffled)
    assert (e1.delta_hat, e1.Delta_hat) == (e2.delta_hat, e2.Delta_hat)
    assert e1.diagnostics == e2.diagnostics


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
    _, probs = _branch_arrays(simulate_dataset(cfg))
    ins = instrument_from_setting(cfg.setting)
    delta_exact = measurement_error(povm_of(ins))
    devs = {t: abs(p - 0.5 * (1.0 + np.cos(np.deg2rad(t))))
            for t, p in zip(cfg.thetas, probs[:, 0])}
    assert devs[90.0] < 1e-15
    assert devs[270.0] < 1e-15
    assert devs[0.0] == pytest.approx(delta_exact, abs=1e-12)
    assert devs[180.0] == pytest.approx(delta_exact, abs=1e-12)
    assert max(devs.values()) == pytest.approx(devs[0.0], abs=1e-12)


def test_disturbance_integrand_extremal_states():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    blochs, probs = _branch_arrays(simulate_dataset(cfg))

    def dist(theta):
        i = cfg.thetas.index(theta)
        out = sum(p * bloch_to_density(b) for p, b in zip(probs[i], blochs[i]))
        return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(out - linear_pol_state(theta))))

    assert dist(0.0) < 1e-15
    assert dist(180.0) < 1e-15
    assert dist(90.0) == pytest.approx(max(dist(t) for t in cfg.thetas), abs=1e-15)


def test_delta_estimate_diagnostics():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    est = estimate_tradeoff(simulate_dataset(cfg))
    diag = est.diagnostics["delta"]
    assert est.delta_hat == pytest.approx(0.25, abs=1e-9)
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
    est = estimate_tradeoff(simulate_dataset(cfg))
    assert est.delta_hat <= 1e-9
    assert est.diagnostics["delta"]["amplitude"] == pytest.approx(0.5, abs=1e-12)


def test_Delta_estimate_diagnostics():
    cfg = ExperimentConfig(setting=setting_for_gamma(0.5), shots_per_basis=None)
    est = estimate_tradeoff(simulate_dataset(cfg))
    diag = est.diagnostics["Delta"]
    assert est.Delta_hat == pytest.approx(0.5 * (1.0 - np.sqrt(0.75)), abs=1e-9)
    assert diag["argmax_theta_deg"] == 90.0
    par = diag["parabola"]
    assert par is not None
    assert par["vertex_theta_deg"] == pytest.approx(90.0, abs=0.5)
    assert abs(par["rel_gap"]) < 1e-3


@pytest.mark.parametrize("shots", [4000, None])
def test_estimate_tradeoff_parses_the_columns_once(shots, monkeypatch):
    cfg = ExperimentConfig(setting=setting_for_gamma(0.6),
                           shots_per_basis=shots, seed=5)
    d = simulate_dataset(cfg)
    calls = []
    original = experiment._branch_arrays
    monkeypatch.setattr(experiment, "_branch_arrays",
                        lambda ds: calls.append(ds) or original(ds))
    est = estimate_tradeoff(d)
    assert calls == [d]
    assert list(est.diagnostics) == ["delta", "Delta"]


def test_parabola_exact_vertex():
    thetas = np.arange(0.0, 50.0, 5.0)
    values = 5.0 - 1e-3 * (thetas - 22.0) ** 2
    par = _parabola_near_max(thetas, values)
    assert par["vertex_theta_deg"] == pytest.approx(22.0, abs=1e-9)
    assert par["vertex_value"] == pytest.approx(5.0, abs=1e-12)
    assert par["gap"] == pytest.approx(5.0 - values.max(), abs=1e-12)
    assert par["rel_gap"] == par["gap"] / values.max()


def test_parabola_collinear_degenerate():
    thetas = np.arange(0.0, 25.0, 5.0)
    assert _parabola_near_max(thetas, 1.0 + 0.01 * thetas) is None


def test_parabola_least_squares_noise():
    rng = np.random.default_rng(1)
    u = np.linspace(-1, 1, 21)
    values = 3.0 - 2.0 * (u - 0.25) ** 2 + 1e-6 * rng.standard_normal(u.size)
    par = _parabola_near_max(20.0 * u, values)
    assert par["vertex_theta_deg"] == pytest.approx(5.0, abs=2e-3)
    assert par["vertex_value"] == pytest.approx(3.0, abs=1e-5)


@pytest.mark.parametrize("thetas, values", [
    ([0.0, 30.0, 60.0, 90.0], [0.0, 1.0, 0.5, 0.0]),
    ([0.0, 20.0, 50.0], [1.0, 0.9, 0.2]),
], ids=["one", "two"])
def test_parabola_needs_three_points_in_the_window(thetas, values):
    # Only samples within 25 degrees of the largest one enter the fit.
    assert _parabola_near_max(thetas, values) is None
    assert _parabola_near_max(thetas, values, window_deg=60.0) is not None


def test_estimator_bias_is_upward():
    # the max-over-states estimator cannot make the channel look closer
    # to the identity on average
    s = setting_for_gamma(0.5)
    _, dd_ref = analytic_tradeoff_of_setting(s)
    base = ExperimentConfig(setting=s, shots_per_basis=10**5)
    vals = []
    for seed in range(100):
        est = estimate_tradeoff(simulate_dataset(dataclasses.replace(base, seed=seed)))
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
    return from_records(cfg, records)


shot_cfg = ExperimentConfig(setting=setting_for_gamma(0.4), shots_per_basis=200, seed=2)
dense_thetas = tuple(float(t) for t in range(360))


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
    # Columns of finite ints and floats next to columns that are not: a
    # bool port, an np.float64 intensity and a NaN count.
    lambda: hand_built(Record(0.0, 1, "x", 5, 3, 0.5),
                       Record(-0.0, True, "y", 2.5, float("nan"), np.float64(0.25)),
                       Record(1e22, 2, "z", 7, 1, 1)),
    # An int beyond float range next to floats.
    lambda: hand_built(Record(0.0, 1, "x", 10**400, 0.5, 1),
                       Record(0.5, 2, "y", 0.25, 2, 3)),
    lambda: hand_built(),
    lambda: simulate_dataset(ExperimentConfig(
        setting=setting_for_gamma(0.8), thetas=dense_thetas, shots_per_basis=10**6,
        seed=11)),
    lambda: simulate_dataset(ExperimentConfig(
        setting=setting_for_gamma(0.8), thetas=dense_thetas, shots_per_basis=None)),
], ids=["shots", "exact", "noisy", "reloaded-shots", "reloaded-exact",
        "hand-built", "mixed-columns", "huge-int", "empty", "dense-shots", "dense-exact"])
def test_dataset_json_matches_json_module(dataset):
    d = dataset()
    assert dataset_to_json(d) == reference_json(d)


def test_dataset_json_keeps_a_percent_sign_in_the_config(monkeypatch):
    # The config is written into the template that the records fill.
    monkeypatch.setattr(experiment, "BS_CONVENTION", "50%s/%r%%")
    d = simulate_dataset(ExperimentConfig(setting=InterferometerSetting(0.4, 0.9),
                                          thetas=(0.0, 90.0),
                                          shots_per_basis=100, seed=1))
    text = dataset_to_json(d)
    assert '"convention": "50%s/%r%%"' in text
    assert text == reference_json(d)


def test_dataset_json_keeps_signed_zeros_and_repeats_apart():
    # Each float column mixes 0.0 with -0.0, repeats values as one shared
    # object and as equal distinct objects, and mixes ints with floats.
    zero, neg, half = 0.0, -0.0, float("0.5")
    records = [Record(zero, 1, "x", zero, 1, half),
               Record(zero, 1, "y", neg, 1.0, half),
               Record(neg, 1, "z", 0, neg, float("0.5")),
               Record(neg, 2, "x", half, 0, 0),
               Record(0, 2, "y", float("-0.0"), zero, neg),
               Record(float("0.0"), 2, "z", 3, 2.5, 0.0),
               Record(half, 1, "x", 7, 7.0, 1e300)]
    d = hand_built(*records)
    text = dataset_to_json(d)
    assert text == reference_json(d)
    assert text.count('"theta_deg": -0.0') == 2
    assert text.count('"theta_deg": 0.0') == 3


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


@pytest.mark.parametrize("name, value", [
    ("port", 1.9), ("port", 1.0), ("port", "2"), ("port", True),
    ("basis", 1), ("basis", ["x"]), ("basis", None),
    ("theta_deg", "0"), ("theta_deg", False), ("theta_deg", None),
])
def test_dataset_from_json_does_not_coerce(name, value):
    # Only JSON integers are ports, strings bases and numbers angles.  Under
    # int() or float(), the ports would read 1, 1, 2 and 1 and the angles
    # 0.0, one of the config's.
    assert 0.0 in shot_cfg.thetas
    payload = json.loads(dataset_to_json(simulate_dataset(shot_cfg)))
    payload["records"][4][name] = value
    with pytest.raises(ValueError, match=rf"^records\[4\]\.{name}: "):
        dataset_from_json(json.dumps(payload))


def test_dataset_from_json_accepts_an_integer_angle():
    payload = json.loads(dataset_to_json(simulate_dataset(shot_cfg)))
    payload["records"][4]["theta_deg"] = 0
    assert dataset_from_json(json.dumps(payload)).records[4].theta_deg == 0.0


def test_config_rejects_repeated_angles():
    # Cells are keyed by angle, so a repeat would silently drop a state.
    with pytest.raises(ValueError, match=r"^thetas\[1\]: duplicate angle"):
        ExperimentConfig(setting=setting_for_gamma(0.3), thetas=(0, 0.0, 90.0))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.3), thetas=(0.0, 90.0))
    with pytest.raises(ValueError, match="duplicate angle"):
        dataclasses.replace(cfg, thetas=(90.0, 90.0))


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("inf")])
def test_config_rejects_non_finite_angles(theta):
    # Unchecked, exact mode writes NaN or Infinity, which dataset_from_json
    # rejects, and shot mode fails inside numpy naming no field.
    with pytest.raises(ValueError, match=r"^thetas\[1\] = .* must be a finite number$"):
        ExperimentConfig(setting=setting_for_gamma(0.3), thetas=(0.0, theta, 90.0))
    cfg = ExperimentConfig(setting=setting_for_gamma(0.3), thetas=(0.0, 90.0))
    with pytest.raises(ValueError, match=r"^thetas\[2\] = "):
        dataclasses.replace(cfg, thetas=(0.0, 90.0, theta, float("nan")))


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", "7"), ("seed", -1), ("seed", True), ("seed", None),
    ("seed", np.float64(3.0)),
    ("shots_per_basis", 2.5), ("shots_per_basis", True), ("shots_per_basis", 0),
    ("shots_per_basis", -3), ("shots_per_basis", "10"), ("shots_per_basis", 2**63),
    ("shots_per_basis", np.bool_(True)),
])
def test_config_rejects_bad_seed_and_shots(name, value):
    # Unchecked, a seed of 1.5 or "7" simulates seed 1 or 7 but writes the
    # value given, and a fractional shot count writes fractional counts.
    with pytest.raises(ValueError, match=rf"^{name} = "):
        ExperimentConfig(setting=setting_for_gamma(0.3), **{name: value})
    cfg = ExperimentConfig(setting=setting_for_gamma(0.3))
    with pytest.raises(ValueError, match=rf"^{name} = "):
        dataclasses.replace(cfg, **{name: value})


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -float("inf"), -0.01,
                                   np.float64("nan")])
def test_config_rejects_unusable_intensity_noise(noise):
    # Unchecked, NaN runs noise-free but writes a dataset that
    # dataset_from_json rejects, and inf overflows in simulate_dataset.
    with pytest.raises(ValueError, match=r"^intensity_noise = "):
        ExperimentConfig(setting=setting_for_gamma(0.3), intensity_noise=noise)
    cfg = ExperimentConfig(setting=setting_for_gamma(0.3), intensity_noise=0.05)
    with pytest.raises(ValueError, match=r"^intensity_noise = "):
        dataclasses.replace(cfg, intensity_noise=noise)


@pytest.mark.parametrize("name", ["seed", "shots_per_basis"])
def test_config_stores_numpy_integers_as_int(name):
    cfg = ExperimentConfig(setting=setting_for_gamma(0.3), thetas=(0.0, 90.0),
                           **{name: np.int64(3)})
    assert type(getattr(cfg, name)) is int
    d = simulate_dataset(cfg)
    assert dataset_from_json(dataset_to_json(d)) == d
    assert type(dataclasses.replace(cfg, seed=np.uint32(5)).seed) is int


@pytest.mark.parametrize("obj, name", [
    ({"alpha": 0.3, "phi": 1.5, "shot_per_basis": 100}, "shot_per_basis"),
    ({"alpha": 0.3, "phi": 1.5, "Seed": 4, "noise": 0.1}, "Seed"),
    ({"gamma": 0.5, "alpha": 0.3, "phi": 1.5}, "gamma"),
    ({"phi": 1.5, "theta": [0.0]}, "theta"),
])
def test_config_from_dict_rejects_the_first_unknown_field(obj, name):
    # Unchecked, the misspelt shot count ran the default 10**6 shots.
    with pytest.raises(ValueError, match=rf"^config\.{name}: unknown field$"):
        config_from_dict(obj)


@pytest.mark.parametrize("convention", ["other-bs/phase-in-arm-A", "", None, 1])
def test_config_from_dict_rejects_a_foreign_convention(convention):
    # Another splitter or arm convention realizes other Kraus pairs, so its
    # counts cannot be analysed as ours.
    obj = {"alpha": 0.3, "phi": 1.5, "convention": convention}
    with pytest.raises(ValueError, match=r"^config\.convention: expected "):
        config_from_dict(obj)
    text = dataset_to_json(simulate_dataset(ExperimentConfig(
        setting=InterferometerSetting(0.3, 1.5), thetas=(0.0, 90.0),
        shots_per_basis=100, seed=1)))
    payload = json.loads(text)
    assert payload["config"]["convention"] == experiment.BS_CONVENTION
    payload["config"]["convention"] = convention
    with pytest.raises(ValueError, match=r"^config\.convention: "):
        dataset_from_json(json.dumps(payload))
    assert config_from_dict(dict(obj, convention=experiment.BS_CONVENTION)) \
        == config_from_dict({"alpha": 0.3, "phi": 1.5})


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

"""Interferometric realization of the optimal instrument family, with a
shot-noise simulator and the reconstruction pipeline for the error and
disturbance estimates.

A polarization qubit traverses a two-path interferometer whose path state
is prepared as |phi0> = cos(a)|A> + e^{i phi} sin(a)|B>.  One arm applies
a polarization-dependent phase (interaction U), then a balanced output
splitter with the real symmetric convention

    <C| = (<A| + <B|)/sqrt(2),   <D| = (<A| - <B|)/sqrt(2)

produces the two outcome ports.  The Kraus operator of port P is the
partial inner product K_P = <P| U |phi0> (taken on the path factor), which
is normalized by construction.  The interaction is fixed to

    U = 1 (x) |A><A|  -  i sigma_z (x) |B><B|

(polarization slow factor); with this sign and arm assignment the
instrument parameters come out as

    gamma = sin(2 a) sin(phi),
    beta  = atan2(sin(2 a) cos(phi), cos(2 a)),

and shifting phi by pi exchanges the two ports (exactly in exact
arithmetic), so a single physical port measured at phi and phi + pi
realizes both outcomes.

Dataset generation is deterministic given (config, seed): every (state,
port) cell draws from its own substream keyed by the state index and the
port's phase mod 2 pi, rounded to 1e-12 rad, so the phi <-> phi + pi port
swap maps the Kraus operators and (away from the rounding half steps) the
substream keys onto each other.  It is not exact at the count level: the
Kraus pairs at phi and fl(phi + pi) differ in the last bits, which can
flip a binomial draw at probability 1/2 and change the number of draws
rejection sampling consumes.  Estimators are pure functions of datasets;
the target curve of the error estimate is fitted in closed form.

A dataset is a tuple of per-cell records, but each stage makes one array
pass over all prepared states: one batched product for the branch states
(only the draws go cell by cell), one parse of the records into count
arrays for the tomography, and one record template for the writer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .instruments import Instrument, povm_of, validate_instrument
from .measures import (
    _sphere_argmax,
    diagonal_channel_disturbance_exact,
    measurement_error,
)
from .qmath import ID2, SIGMA_Z
from .states import (bloch_to_density, density_to_bloch, linear_pol_state,
                     sm7_state_list)
from .supopt import DegenerateFit, parabolic_refine

__all__ = [
    "InsufficientCounts",
    "BS_CONVENTION",
    "InterferometerSetting",
    "ExperimentConfig",
    "Record",
    "SimulatedDataset",
    "BranchEstimate",
    "EstimatedTradeoff",
    "gamma_beta_from_setting",
    "instrument_from_setting",
    "analytic_tradeoff_of_setting",
    "simulate_dataset",
    "reconstruct_branch_states",
    "estimate_delta",
    "estimate_Delta",
    "estimate_tradeoff",
    "dataset_to_json",
    "dataset_from_json",
]

BS_CONVENTION = "real-symmetric-bs/phase-in-arm-B"

_BASES = ("x", "y", "z")

# Output-port bras in the (A, B) path basis.
_PORTS = {
    1: np.array([1.0, 1.0]) / np.sqrt(2.0),
    2: np.array([1.0, -1.0]) / np.sqrt(2.0),
}


class InsufficientCounts(ValueError):
    """Raised when a dataset lacks the counts needed for reconstruction."""


@dataclass(frozen=True)
class InterferometerSetting:
    """Interferometer knobs: splitting angle alpha and relative phase phi."""

    alpha: float
    phi: float
    convention: str = BS_CONVENTION

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 0.5 * np.pi):
            raise ValueError(f"alpha = {self.alpha} outside [0, pi/2]")
        if self.convention != BS_CONVENTION:
            raise ValueError(f"unsupported convention {self.convention!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Simulation run description.

    ``shots_per_basis`` is the per-analyzer-setting sample count; ``None``
    selects the exact (infinite-statistics) mode, in which the dataset
    stores expected frequencies instead of integer counts.
    ``intensity_noise`` is the relative std of a Gaussian factor applied
    to the port intensities.  ``fit_amplitude`` compares the data with the
    fitted target curve, not the unit-amplitude one, in the error estimate.
    """

    setting: InterferometerSetting
    thetas: tuple = None
    shots_per_basis: int | None = 10**6
    intensity_noise: float = 0.0
    seed: int = 0
    fit_amplitude: bool = False

    def __post_init__(self):
        thetas = self.thetas
        if thetas is None:
            thetas = tuple(sm7_state_list())
        object.__setattr__(self, "thetas", tuple(float(t) for t in thetas))
        if len(self.thetas) == 0:
            raise ValueError("thetas must be non-empty")
        # Cells are keyed by angle: a repeat would silently share counts.
        if len(set(self.thetas)) < len(self.thetas):
            i = next(i for i, t in enumerate(self.thetas) if t in self.thetas[:i])
            raise ValueError(f"thetas[{i}]: duplicate angle")
        if self.shots_per_basis is not None and self.shots_per_basis < 1:
            raise ValueError(
                f"shots_per_basis = {self.shots_per_basis} must be >= 1")
        if self.intensity_noise < 0.0:
            raise ValueError("intensity_noise must be >= 0")


@dataclass(frozen=True)
class Record:
    """Counts of one (state, port, analysis basis) cell."""

    theta_deg: float
    port: int
    basis: str
    n_plus: float
    n_minus: float
    intensity: float


@dataclass(frozen=True)
class SimulatedDataset:
    config: ExperimentConfig
    records: tuple


@dataclass(frozen=True)
class BranchEstimate:
    """Reconstructed conditional state and probability of one port."""

    rho: np.ndarray
    probability: float


@dataclass(frozen=True)
class EstimatedTradeoff:
    delta_hat: float
    Delta_hat: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (-1e-12 <= self.delta_hat <= 1.0 + 1e-12):
            raise ValueError(f"delta_hat = {self.delta_hat} outside [0, 1]")
        if not (-1e-12 <= self.Delta_hat <= 1.0 + 1e-12):
            raise ValueError(f"Delta_hat = {self.Delta_hat} outside [0, 1]")


# ---------------------------------------------------------------------------
# Setting -> instrument
# ---------------------------------------------------------------------------

def gamma_beta_from_setting(s: InterferometerSetting):
    """Instrument parameters (gamma, beta) realized by a setting.

    beta is evaluated with the two-argument arctangent of the Kraus
    coefficient components, which stays finite where tan(2 alpha) blows
    up.  |gamma| <= 1 always; gamma is negative when the phase puts the
    majority weight on the other port.
    """
    two_a = 2.0 * s.alpha
    gamma = float(np.sin(two_a) * np.sin(s.phi))
    beta = float(np.arctan2(np.sin(two_a) * np.cos(s.phi), np.cos(two_a)))
    return gamma, beta


def _interaction_unitary():
    proj_a = np.diag([1.0, 0.0]).astype(complex)
    proj_b = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(ID2, proj_a) + np.kron(-1j * SIGMA_Z, proj_b)


def instrument_from_setting(s: InterferometerSetting) -> Instrument:
    """Kraus pair realized by the interferometer at a given setting.

    K_P = <P| U |phi0> on the path factor; port C (symmetric output) is
    outcome 1.  The pair is normalized to rounding error and agrees with
    the optimal family at (gamma, beta) from
    :func:`gamma_beta_from_setting` up to a global phase per Kraus
    operator (for gamma >= 0).
    """
    phi0 = np.array([np.cos(s.alpha), np.exp(1j * s.phi) * np.sin(s.alpha)])
    u = _interaction_unitary().reshape(2, 2, 2, 2)
    gamma, beta = gamma_beta_from_setting(s)
    kraus = []
    for port in (1, 2):
        bra = _PORTS[port]
        k = np.einsum("r,prqs,s->pq", bra.conj(), u, phi0)
        kraus.append(k)
    label = {"family": "interferometer", "alpha": s.alpha, "phi": s.phi,
             "gamma": gamma, "beta": beta}
    return validate_instrument(kraus[0], kraus[1], label)


def analytic_tradeoff_of_setting(s: InterferometerSetting):
    """Exact (delta, Delta) of the instrument realized at a setting."""
    ins = instrument_from_setting(s)
    return (measurement_error(povm_of(ins)),
            diagonal_channel_disturbance_exact(ins))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _port_stream(seed, theta_index, phase):
    # Key the substream by the port's reduced phase so that the phi <->
    # phi + pi port exchange maps streams onto each other; a phase just
    # below 2 pi k rounds up to a full turn, which keys like 0.
    reduced = float(phase) % (2.0 * np.pi)
    key = int(round(reduced * 1e12)) % round(2.0 * np.pi * 1e12)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(theta_index, key))
    return np.random.Generator(np.random.PCG64(ss))


def _branch_blochs(ins, thetas):
    """Bloch vectors (N, 2, 3) and probabilities (N, 2) of the two port
    branches at the linear polarization angles ``thetas`` (degrees).

    One batched k rho k^H over states and ports; a branch of probability
    at most 1e-12 reads as I/2.
    """
    k = np.stack([ins.k1, ins.k2])
    out = k @ linear_pol_state(thetas)[:, None] @ k.conj().transpose(0, 2, 1)
    p = out[..., 0, 0].real + out[..., 1, 1].real
    live = p > 1e-12
    bloch = density_to_bloch(out / np.where(live, p, 1.0)[..., None, None])
    return np.where(live[..., None], bloch, 0.0), np.maximum(p, 0.0)


def simulate_dataset(cfg: ExperimentConfig) -> SimulatedDataset:
    """Generate per-(state, port, basis) counts for the configured run.

    The branch states of all prepared states come from one batched pass
    (:func:`_branch_blochs`).  Each (state, port) cell then draws from its
    own substream, in this order: the three Pauli analysis bases with
    ``shots_per_basis`` samples each, an intensity count of the port
    probability, and the optional intensity noise factor.  Exact mode
    (``shots_per_basis=None``) stores expected frequencies and draws
    nothing.  Deterministic given the config.
    """
    ins = instrument_from_setting(cfg.setting)
    blochs, probs = _branch_blochs(ins, cfg.thetas)
    plus = np.clip(0.5 * (1.0 + blochs), 0.0, 1.0)
    n = cfg.shots_per_basis
    records = []
    for ti, theta in enumerate(cfg.thetas):
        for port in (1, 2):
            pp, p = plus[ti, port - 1], probs[ti, port - 1]
            if n is None:
                cells = [(q, 1.0 - q) for q in pp]
                intensity = float(p)
            else:
                rng = _port_stream(cfg.seed, ti, cfg.setting.phi + (port - 1) * np.pi)
                cells = [(k, n - k) for k in (int(rng.binomial(n, q)) for q in pp)]
                intensity = int(rng.binomial(n, min(p, 1.0)))
                if cfg.intensity_noise > 0.0:
                    factor = 1.0 + rng.normal(0.0, cfg.intensity_noise)
                    intensity = max(0, int(round(intensity * factor)))
            records += [Record(theta, port, b, n_plus, n_minus, intensity)
                        for b, (n_plus, n_minus) in zip(_BASES, cells)]
    return SimulatedDataset(cfg, tuple(records))


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def _branch_arrays(d: SimulatedDataset):
    """Bloch vectors (N, 2, 3) and port probabilities (N, 2) of every
    branch, in the order of ``d.config.thetas``, from one parse of the
    records into (N, 2, 3, 2) counts and (N, 2) intensities.  The first
    state without intensity, or with a missing or empty basis, raises
    :class:`InsufficientCounts`."""
    cells, intensities = {}, {}
    for r in d.records:
        cells[(r.theta_deg, r.port, r.basis)] = (r.n_plus, r.n_minus)
        intensities[(r.theta_deg, r.port)] = r.intensity
    thetas = d.config.thetas
    found = [cells.get((t, port, b)) for t in thetas for port in (1, 2) for b in _BASES]
    missing = np.reshape([c is None for c in found], (-1, 2, 3))
    counts = np.reshape(np.array([c or (0, 0) for c in found], dtype=float), (-1, 2, 3, 2))
    inten = np.reshape(np.array([intensities.get((t, port), 0.0) for t in thetas
                                 for port in (1, 2)], dtype=float), (-1, 2))
    total_i = inten[:, 0] + inten[:, 1]
    tot = counts[..., 0] + counts[..., 1]
    no_light = total_i <= 0.0
    bad_cell = missing | (tot <= 0)
    bad = no_light | bad_cell.any(axis=(1, 2))
    if bad.any():
        i = int(np.argmax(bad))
        if no_light[i]:
            raise InsufficientCounts(f"no intensity recorded at theta = {thetas[i]}")
        port, b = np.argwhere(bad_cell[i])[0]
        what = "missing basis" if missing[i, port, b] else "zero shots in basis"
        raise InsufficientCounts(
            f"{what} {_BASES[b]!r} at theta = {thetas[i]}, port {port + 1}")
    means = (counts[..., 0] - counts[..., 1]) / tot
    # Outside the Bloch ball (1 + m.sigma)/2 has the eigenvalue
    # (1 - |m|)/2 < 0; truncating it and renormalizing leaves the pure
    # state along m.  The row-wise dot is np.linalg.norm's of one vector.
    norm = np.sqrt(means[..., None, :] @ means[..., :, None])[..., 0]
    means = means / np.maximum(norm, 1.0)
    return means, inten / total_i[:, None]


def reconstruct_branch_states(d: SimulatedDataset):
    """Linear-inversion tomography of every (state, port) branch.

    A dict mapping (theta_deg, port) to a :class:`BranchEstimate`, built
    from the arrays of :func:`_branch_arrays`.  Pauli expectations come
    from the per-basis count asymmetries, and an inverted vector outside
    the Bloch ball is scaled back to it (eigenvalue truncation).  Port
    probabilities are the normalized intensities.  Raises
    :class:`InsufficientCounts` for a state without intensity or with a
    missing or empty basis.
    """
    blochs, probs = _branch_arrays(d)
    return {(t, port): BranchEstimate(bloch_to_density(blochs[i, port - 1]),
                                      float(probs[i, port - 1]))
            for i, t in enumerate(d.config.thetas) for port in (1, 2)}


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def _target_model(thetas_deg, theta0_deg, amplitude):
    ang = np.deg2rad(np.asarray(thetas_deg) - theta0_deg)
    return 0.5 * (1.0 + amplitude * np.cos(ang))


def _fit_target(thetas_deg, p1_hat):
    """Locate the target-measurement orientation theta0.

    The measured curve is fitted with the instrument's own probability
    model (1 + A cos(theta - theta0)) / 2, amplitude and offset free;
    this identifies the measurement axis even for weakly informative
    instruments, where fitting the unit-amplitude ideal curve directly
    would rotate the axis to soak up the amplitude mismatch.  With
    y = 2 p1 - 1 = u cos theta + v sin theta this is least squares for
    w = (u, v) on the unit disk, in closed form: the unconstrained
    (minimum-norm) solution, or the rim solution of :func:`_sphere_argmax`
    when that lies outside.  Returns (theta0 = atan2(v, u) in [0, 360),
    A = |w| in [0, 1]).
    """
    ang = np.deg2rad(np.asarray(thetas_deg))
    x = np.column_stack([np.cos(ang), np.sin(ang)])
    y = 2.0 * np.asarray(p1_hat) - 1.0
    w = np.linalg.lstsq(x, y, rcond=None)[0]
    if w @ w > 1.0:
        w = _sphere_argmax(-x.T @ x, x.T @ y)
    # A tiny negative angle reduces to 360.0, outside [0, 360).
    theta0 = float(np.rad2deg(np.arctan2(w[1], w[0]))) % 360.0
    return (0.0 if theta0 == 360.0 else theta0), min(float(np.hypot(*w)), 1.0)


def _parabola_near_max(thetas, values, window_deg=25.0):
    thetas = np.asarray(thetas)
    values = np.asarray(values)
    i_max = int(np.argmax(values))
    mask = np.abs(thetas - thetas[i_max]) <= window_deg
    if np.count_nonzero(mask) < 3:
        return None
    try:
        est = parabolic_refine(np.column_stack([thetas[mask], values[mask]]))
    except DegenerateFit:
        return None
    sample_max = float(values[i_max])
    gap = est.value - sample_max
    return {
        "vertex_theta_deg": float(est.params[0]),
        "vertex_value": est.value,
        "gap": float(gap),
        "rel_gap": float(gap / sample_max) if sample_max > 0.0 else 0.0,
    }


def estimate_delta(d: SimulatedDataset):
    """Measurement-error estimate from a dataset.

    The best fitting target measurement is the ideal projective curve
    p1(theta) = cos^2((theta - theta0)/2) at the orientation theta0
    identified by the closed-form fit of :func:`_fit_target`; the
    estimate is the largest outcome-distribution distance over the
    prepared states.  With ``fit_amplitude`` set, the comparison curve
    keeps the fitted amplitude instead of the ideal unit amplitude (a
    diagnostic mode).  A parabolic fit around the extremal state bounds
    the finite-sampling systematic.

    Returns (delta_hat, diagnostics dict).
    """
    return _delta_from_branches(d, _branch_arrays(d)[1])


def _delta_from_branches(d, probs):
    thetas = np.asarray(d.config.thetas)
    p1_hat = probs[:, 0]
    theta0, amp = _fit_target(thetas, p1_hat)
    ref_amp = amp if d.config.fit_amplitude else 1.0
    devs = np.abs(p1_hat - _target_model(thetas, theta0, ref_amp))
    i_max = int(np.argmax(devs))
    diag = {
        "theta0_deg": theta0,
        "amplitude": amp,
        "argmax_theta_deg": float(thetas[i_max]),
        "parabola": _parabola_near_max(thetas, devs),
    }
    return float(devs[i_max]), diag


def estimate_Delta(d: SimulatedDataset):
    """Disturbance estimate from a dataset.

    The channel output at each prepared state is the intensity-weighted
    sum of the reconstructed branch states; the estimate is the largest
    trace distance to the corresponding input state.  A parabolic fit
    around the maximum reports the vertex-vs-sample gap.

    Returns (Delta_hat, diagnostics dict).
    """
    return _Delta_from_branches(d, *_branch_arrays(d))


def _Delta_from_branches(d, blochs, probs):
    thetas = np.asarray(d.config.thetas)
    inputs = density_to_bloch(linear_pol_state(thetas))
    outputs = probs[:, 0, None] * blochs[:, 0] + probs[:, 1, None] * blochs[:, 1]
    # The trace distance of two qubit states is half the Euclidean
    # distance of their Bloch vectors.
    dists = 0.5 * np.linalg.norm(outputs - inputs, axis=1)
    i_max = int(np.argmax(dists))
    diag = {
        "argmax_theta_deg": float(thetas[i_max]),
        "parabola": _parabola_near_max(thetas, dists),
    }
    return float(dists[i_max]), diag


def estimate_tradeoff(d: SimulatedDataset) -> EstimatedTradeoff:
    """Full pipeline: both estimates plus fit diagnostics, from one
    reconstruction of the branch states."""
    blochs, probs = _branch_arrays(d)
    delta_hat, ddiag = _delta_from_branches(d, probs)
    Delta_hat, Ddiag = _Delta_from_branches(d, blochs, probs)
    return EstimatedTradeoff(delta_hat, Delta_hat,
                             {"delta": ddiag, "Delta": Ddiag})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _config_to_dict(cfg: ExperimentConfig):
    return {
        "alpha": cfg.setting.alpha,
        "phi": cfg.setting.phi,
        "convention": cfg.setting.convention,
        "thetas": list(cfg.thetas),
        "shots_per_basis": "exact" if cfg.shots_per_basis is None
                           else cfg.shots_per_basis,
        "intensity_noise": cfg.intensity_noise,
        "seed": cfg.seed,
        "fit_amplitude": cfg.fit_amplitude,
    }


# One record as json.dumps(..., indent=2) lays it out inside the payload.
_RECORD_JSON = (
    '    {\n      "theta_deg": %s,\n      "port": %s,\n      "basis": %s,\n'
    '      "n_plus": %s,\n      "n_minus": %s,\n      "intensity": %s\n    }')


def _json_value(v):
    # What the json encoder writes for ints, finite floats (np.float64
    # included) and strings; anything else goes through json itself,
    # indented to the depth of a record field.
    if type(v) is int:
        return int.__repr__(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    if type(v) is str:
        return encode_basestring_ascii(v)
    return json.dumps(v, indent=2).replace("\n", "\n      ")


def dataset_to_json(d: SimulatedDataset) -> str:
    """Serialize a dataset with stable key order; counts stay integers in
    shot mode.  The text is that of ``json.dumps(payload, indent=2)`` plus
    a newline, with the records written from one template."""
    head = json.dumps({"config": _config_to_dict(d.config)}, indent=2)[:-2]  # no "\n}"
    rows = ",\n".join(_RECORD_JSON % (
        _json_value(r.theta_deg), _json_value(r.port), _json_value(r.basis),
        _json_value(r.n_plus), _json_value(r.n_minus), _json_value(r.intensity))
        for r in d.records)
    records = "[\n" + rows + "\n  ]" if rows else "[]"
    return head + ',\n  "records": ' + records + "\n}\n"


def _number(v, where, lo=None, hi=np.inf):
    # Float value of a JSON number.  Non-numbers, booleans, NaN, Infinity,
    # integers beyond float range and values outside [lo, hi] are rejected.
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValueError(f"{where}: expected a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        f = np.inf
    if not np.isfinite(f):
        raise ValueError(f"{where}: expected a finite number")
    if lo is not None and not (lo <= f <= hi):
        raise ValueError(f"{where}: value {f} out of range")
    return f


def config_from_dict(obj, path="config") -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict with field-path
    error messages."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")

    def number(name, default=None, lo=None, hi=np.inf, required=False):
        if name not in obj:
            if required:
                raise ValueError(f"{path}.{name}: required field missing")
            return default
        return _number(obj[name], f"{path}.{name}", lo, hi)

    alpha = number("alpha", required=True, lo=0.0, hi=0.5 * np.pi)
    phi = number("phi", required=True)
    setting = InterferometerSetting(alpha, phi)

    thetas = obj.get("thetas")
    if thetas is not None:
        if not isinstance(thetas, list):
            raise ValueError(f"{path}.thetas: expected a list of numbers")
        for i, t in enumerate(thetas):
            _number(t, f"{path}.thetas[{i}]")

    shots = obj.get("shots_per_basis", 10**6)
    if shots == "exact" or shots is None:
        shots = None
    elif (isinstance(shots, int) and not isinstance(shots, bool)
          and 1 <= shots <= np.iinfo(np.int64).max):
        pass
    else:
        raise ValueError(
            f"{path}.shots_per_basis: expected a positive 64-bit integer or "
            f"'exact', got {shots!r}")

    noise = number("intensity_noise", default=0.0, lo=0.0)
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(
            f"{path}.seed: expected a non-negative integer, got {seed!r}")
    fit_amplitude = obj.get("fit_amplitude", False)
    if not isinstance(fit_amplitude, bool):
        raise ValueError(f"{path}.fit_amplitude: expected a boolean")

    try:
        return ExperimentConfig(setting=setting, thetas=thetas,
                                shots_per_basis=shots, intensity_noise=noise,
                                seed=seed, fit_amplitude=fit_amplitude)
    except ValueError as exc:
        raise ValueError(f"{path}.{exc}") from None


def dataset_from_json(text: str) -> SimulatedDataset:
    """Parse the text of :func:`dataset_to_json`.  Counts and intensities
    must be finite non-negative numbers; they keep their JSON types.  Ports
    must be 1 or 2, bases x, y or z and angles the config's; anything else
    raises ValueError naming the field."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("dataset: expected a JSON object")
    cfg = config_from_dict(payload.get("config"), "config")
    rows = payload.get("records", [])
    if not isinstance(rows, list):
        raise ValueError("records: expected a list")
    thetas = set(cfg.thetas)
    records = []
    for i, r in enumerate(rows):
        try:
            record = Record(float(r["theta_deg"]), int(r["port"]),
                            str(r["basis"]), r["n_plus"], r["n_minus"],
                            r["intensity"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"records[{i}]: malformed record") from exc
        for name, allowed in (("port", _PORTS), ("basis", _BASES),
                              ("theta_deg", thetas)):
            if getattr(record, name) not in allowed:
                raise ValueError(f"records[{i}].{name}: unexpected value "
                                 f"{getattr(record, name)!r}")
        for name in ("n_plus", "n_minus", "intensity"):
            _number(getattr(record, name), f"records[{i}].{name}", lo=0.0)
        records.append(record)
    return SimulatedDataset(cfg, tuple(records))


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Copy of a config with the seed replaced (reproducibility audits)."""
    return replace(cfg, seed=int(seed))

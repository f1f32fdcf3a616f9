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
rejection sampling consumes.  The one estimator, :func:`estimate_tradeoff`,
is a pure function of a dataset; it fits the target curve of the error
estimate in closed form and reports each maximum through :func:`_peak`;
its disturbance integrand, :func:`_disturbances`, is shared with ``verify``.

A dataset stores its per-cell records as six parallel columns, one per
:class:`Record` field; ``records`` builds the record objects only when
read.  Each stage makes array passes over all prepared states: one
batched product for the branch states, one seeding pass per port (each
mixes the seed anew), one index parse of the columns into count arrays
for the tomography, and one template of the whole text for the writer,
filled by one ``%`` over the values of every column in record order.
Only the draws go cell by cell, from one generator whose state is set
per cell; the streams are bit-identical to
``PCG64(SeedSequence(seed, spawn_key=(i, key)))``, which the reference
test in ``tests/test_experiment.py`` pins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

import numpy as np

from .instruments import Instrument, _json_number, povm_of
from .measures import (
    _check_unit_interval,
    _sphere_argmax,
    diagonal_channel_disturbance_exact,
    measurement_error,
)
from .qmath import ID2, SIGMA_Z
from .states import density_to_bloch, linear_pol_state, sm7_state_list

__all__ = [
    "InsufficientCounts",
    "BS_CONVENTION",
    "InterferometerSetting",
    "ExperimentConfig",
    "Record",
    "SimulatedDataset",
    "EstimatedTradeoff",
    "gamma_beta_from_setting",
    "instrument_from_setting",
    "analytic_tradeoff_of_setting",
    "simulate_dataset",
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

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 0.5 * np.pi):
            raise ValueError(f"alpha = {self.alpha} outside [0, pi/2]")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi = {self.phi!r} must be a finite number")


def _is_integer(v):
    # Python and numpy integers; a bool is no count and no seed.
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Simulation run description.

    ``shots_per_basis`` is the per-analyzer-setting sample count; ``None``
    selects the exact (infinite-statistics) mode, in which the dataset
    stores expected frequencies instead of integer counts.
    ``intensity_noise`` is the relative std (finite, >= 0) of a Gaussian
    factor applied to the port intensities.  ``seed`` is a non-negative integer.  Both
    integer fields reject bools and store numpy integers as ``int``.
    ``fit_amplitude`` compares the data with the fitted target curve, not
    the unit-amplitude one, in the error estimate.
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
        if not all(map(math.isfinite, self.thetas)):
            i, t = next((i, t) for i, t in enumerate(self.thetas) if not math.isfinite(t))
            raise ValueError(f"thetas[{i}] = {t!r} must be a finite number")
        # Cells are keyed by angle: a repeat would silently share counts.
        if len(set(self.thetas)) < len(self.thetas):
            i = next(i for i, t in enumerate(self.thetas) if t in self.thetas[:i])
            raise ValueError(f"thetas[{i}]: duplicate angle")
        shots = self.shots_per_basis
        if shots is not None:
            if not _is_integer(shots) or not 1 <= shots <= np.iinfo(np.int64).max:
                raise ValueError(f"shots_per_basis = {shots!r} must be an "
                                 f"integer in [1, 2**63 - 1] or None")
            object.__setattr__(self, "shots_per_basis", int(shots))
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(
                f"seed = {self.seed!r} must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))
        noise = self.intensity_noise
        if not (math.isfinite(noise) and noise >= 0.0):
            raise ValueError(f"intensity_noise = {noise!r} must be a finite "
                             f"number >= 0")


@dataclass(frozen=True)
class Record:
    """Counts of one (state, port, analysis basis) cell."""

    theta_deg: float
    port: int
    basis: str
    n_plus: float
    n_minus: float
    intensity: float


_FIELDS = tuple(f.name for f in fields(Record))


@dataclass(frozen=True)
class SimulatedDataset:
    """The counts of a run as parallel columns, one per :class:`Record`
    field: entry ``i`` of every column belongs to record ``i``.  The
    columns are stored as tuples of equal length."""

    config: ExperimentConfig
    theta_deg: tuple
    port: tuple
    basis: tuple
    n_plus: tuple
    n_minus: tuple
    intensity: tuple

    def __post_init__(self):
        columns = [tuple(getattr(self, name)) for name in _FIELDS]
        if len(set(map(len, columns))) > 1:
            raise ValueError("dataset columns differ in length")
        for name, column in zip(_FIELDS, columns):
            object.__setattr__(self, name, column)

    @property
    def records(self):
        """The records, built on each read."""
        return tuple(map(Record, *attrgetter(*_FIELDS)(self)))


@dataclass(frozen=True)
class EstimatedTradeoff:
    delta_hat: float
    Delta_hat: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_unit_interval(self, "delta_hat", "Delta_hat")


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


# U = 1 (x) |A><A| - i sigma_z (x) |B><B|, indexed (pol, path, pol, path).
_INTERACTION = (np.kron(ID2, np.diag([1.0, 0.0]).astype(complex))
                + np.kron(-1j * SIGMA_Z, np.diag([0.0, 1.0]).astype(complex))
                ).reshape(2, 2, 2, 2)


def instrument_from_setting(s: InterferometerSetting) -> Instrument:
    """Kraus pair realized by the interferometer at a given setting.

    K_P = <P| U |phi0> on the path factor; port C (symmetric output) is
    outcome 1.  The pair is normalized to rounding error and agrees with
    the optimal family at (gamma, beta) from
    :func:`gamma_beta_from_setting` up to a global phase per Kraus
    operator (for gamma >= 0).
    """
    phi0 = np.array([np.cos(s.alpha), np.exp(1j * s.phi) * np.sin(s.alpha)])
    kraus = []
    for port in (1, 2):
        bra = _PORTS[port]
        k = np.einsum("r,prqs,s->pq", bra.conj(), _INTERACTION, phi0)
        kraus.append(k)
    return Instrument(kraus[0], kraus[1])


def analytic_tradeoff_of_setting(s: InterferometerSetting):
    """Exact (delta, Delta) of the instrument realized at a setting."""
    ins = instrument_from_setting(s)
    return (measurement_error(povm_of(ins)),
            diagonal_channel_disturbance_exact(ins))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _port_key(phase):
    # Key the substream by the port's reduced phase so that the phi <->
    # phi + pi port exchange maps streams onto each other; a phase just
    # below 2 pi k rounds up to a full turn, which keys like 0.
    reduced = float(phase) % (2.0 * np.pi)
    return int(round(reduced * 1e12)) % round(2.0 * np.pi * 1e12)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and the multiplier of PCG64's 128-bit LCG.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init, mult):
    """The (xor, multiplier) pairs of successive SeedSequence hashes."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


# Both act on Python ints and on unsigned integer arrays, mod 2**32.
def _hash(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _words(n):
    """The 32-bit words of a non-negative integer, low word first; [0]
    for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_states(seed, indices, key):
    """PCG64 ``(state, inc)`` of ``SeedSequence(entropy=seed,
    spawn_key=(i, key))`` for each ``i`` of ``indices`` (integers below
    2**32; OverflowError otherwise), as numpy computes them.

    The run entropy (the seed's words padded with zeros to the four-word
    pool) is the same for every cell, so it is mixed into the pool once,
    in Python ints.  The spawn-key words follow in one array pass over
    the indices; then ``generate_state(4, uint64)`` and, in Python ints,
    PCG64's ``srandom`` step.
    """
    run = _words(seed)
    run += [0] * (4 - len(run))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(w, *next(consts)) for w in run[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    for w in run[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(w, *next(consts)))
    # Four hashes per spawn-key word, one per pool word; eight for the
    # output words.
    spawn_consts = np.array(list(islice(consts, 16)), dtype=np.uint64).reshape(4, 4, 2)
    out_consts = np.array(list(islice(_hash_constants(_INIT_B, _MULT_B), 8)),
                          dtype=np.uint64)

    # One spawn-key word per index: uint32 rejects an index of two words
    # rather than hash only its low word.
    idx = np.asarray(indices, dtype=np.uint32).astype(np.uint64)[:, None]
    p = np.array(pool, dtype=np.uint64)
    for w, c in zip([idx] + _words(key), spawn_consts):
        p = _mix(p, _hash(w, *c.T))
    out = _hash(np.tile(p, 2), *out_consts.T)
    seeded = out[:, 0::2] | out[:, 1::2] << 32
    states = []
    for s_hi, s_lo, i_hi, i_lo in seeded.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


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
    if n is None:
        n_plus = plus.ravel().tolist()
        n_minus = (1.0 - plus).ravel().tolist()
        intensity = _repeat(probs.ravel().tolist(), 3)
    else:
        n_plus, intensity = _draw_counts(cfg, plus, probs)
        n_minus = [n - k for k in n_plus]
    m = len(cfg.thetas)
    return SimulatedDataset(cfg, _repeat(cfg.thetas, 6), (1, 1, 1, 2, 2, 2) * m,
                            _BASES * (2 * m), n_plus, n_minus, intensity)


def _repeat(values, k):
    # Each value k times over, as the same object: the records of one
    # state or cell share it.
    return [v for v in values for _ in range(k)]


def _draw_counts(cfg, plus, probs):
    """The shot-mode basis counts (3 per cell) and intensities (repeated
    3 times per cell), cells in (state, port) order.  One generator serves
    every cell: its state is set to the cell's substream before the draws."""
    n = cfg.shots_per_basis
    m = len(cfg.thetas)
    ports = [_pcg64_states(cfg.seed, range(m), _port_key(cfg.setting.phi + k * np.pi))
             for k in (0, 1)]
    states = [st for cell in zip(*ports) for st in cell]
    odds = np.concatenate([plus, np.minimum(probs, 1.0)[..., None]], axis=2)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    binomial = rng.binomial
    noise = cfg.intensity_noise
    # The setter copies the words out, so one dict serves every cell.
    cell_state = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": cell_state,
                  "has_uint32": 0, "uinteger": 0}
    n_plus, intensity = [], []
    for (state, inc), (qx, qy, qz, qi) in zip(states, odds.reshape(-1, 4).tolist()):
        cell_state["state"] = state
        cell_state["inc"] = inc
        bitgen.state = full_state
        # x, y, z, then the intensity, then the optional noise factor.
        counts = binomial(n, qx), binomial(n, qy), binomial(n, qz)
        inten = binomial(n, qi)
        if noise > 0.0:
            scaled = inten * (1.0 + rng.normal(0.0, noise))
            if not math.isfinite(scaled):
                raise ValueError(f"config.intensity_noise = {noise!r} takes "
                                 f"an intensity count beyond float range")
            inten = max(0, int(round(scaled)))
        n_plus += counts
        intensity += (inten, inten, inten)
    return n_plus, intensity


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

_PORT_INDEX = {1: 0, 2: 1}
_BASIS_INDEX = {b: i for i, b in enumerate(_BASES)}


def _index_of(column, index):
    # Position in ``index`` of each entry of a column; -1 where absent.
    return np.fromiter(map(index.get, column, repeat(-1)), np.intp, len(column))


def _last_rows(keys, size):
    # Row of the last record of each of ``size`` keys, -1 where none;
    # rows with a negative key belong to no key.
    last = np.full(size, -1)
    rows = np.flatnonzero(keys >= 0)
    np.maximum.at(last, keys[rows], rows)
    return last


def _column_at(column, rows):
    # Float values of a column at the given rows; a row of -1 reads 0.0.
    out = np.zeros(len(rows))
    found = rows >= 0
    picked = rows[found].tolist()
    if picked:
        # Of a single row, itemgetter returns the bare value, which fills
        # the one found slot all the same.
        out[found] = np.array(itemgetter(*picked)(column), dtype=float)
    return out


def _branch_arrays(d: SimulatedDataset):
    """Bloch vectors (N, 2, 3) and port probabilities (N, 2) of every
    branch, in the order of ``d.config.thetas``, from one parse of the
    columns into (N, 2, 3, 2) counts and (N, 2) intensities.

    Each record gets a branch index (state index x 2 + port) and a cell
    index (branch x 3 + basis); a record whose angle, port or basis is
    not the config's has none and is ignored.  Of the records of one
    cell the last gives its counts, and of one branch the last gives its
    intensity.  The first state without intensity, or with a missing or
    empty basis, raises :class:`InsufficientCounts`."""
    thetas = d.config.thetas
    n = len(thetas)
    state = _index_of(d.theta_deg, {t: i for i, t in enumerate(thetas)})
    port = _index_of(d.port, _PORT_INDEX)
    basis = _index_of(d.basis, _BASIS_INDEX)
    branch = np.where((state >= 0) & (port >= 0), 2 * state + port, -1)
    cell = np.where((branch >= 0) & (basis >= 0), 3 * branch + basis, -1)
    cell_rows = _last_rows(cell, 6 * n)
    branch_rows = _last_rows(branch, 2 * n)
    missing = (cell_rows < 0).reshape(-1, 2, 3)
    counts = np.stack([_column_at(d.n_plus, cell_rows),
                       _column_at(d.n_minus, cell_rows)], axis=-1).reshape(-1, 2, 3, 2)
    inten = _column_at(d.intensity, branch_rows).reshape(-1, 2)
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


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

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
    """Least-squares parabola through the samples within ``window_deg`` of
    the largest: its vertex and the vertex value's gap to that sample;
    None with fewer than 3 samples or collinear ones (|a| < 1e-12)."""
    thetas = np.asarray(thetas)
    values = np.asarray(values)
    i_max = int(np.argmax(values))
    with np.errstate(over="ignore"):  # inf lies outside the window
        mask = np.abs(thetas - thetas[i_max]) <= window_deg
    if np.count_nonzero(mask) < 3:
        return None
    a, b, c = np.polyfit(thetas[mask], values[mask], 2)
    if abs(a) < 1e-12:
        return None
    vertex_value = float(c - b * b / (4.0 * a))
    sample_max = float(values[i_max])
    gap = vertex_value - sample_max
    return {
        "vertex_theta_deg": float(-b / (2.0 * a)),
        "vertex_value": vertex_value,
        "gap": gap,
        "rel_gap": gap / sample_max if sample_max > 0.0 else 0.0,
    }


def _peak(thetas, values, **diag):
    """The largest of ``values``, and ``diag`` plus its angle and parabola."""
    i_max = int(np.argmax(values))
    diag["argmax_theta_deg"] = float(thetas[i_max])
    diag["parabola"] = _parabola_near_max(thetas, values)
    return float(values[i_max]), diag


def _disturbances(thetas, blochs, probs):
    """Per angle (degrees), the trace distance of p1 b1 + p2 b2 from the
    input state: half the Euclidean distance of the Bloch vectors."""
    inputs = density_to_bloch(linear_pol_state(thetas))
    outputs = probs[:, 0, None] * blochs[:, 0] + probs[:, 1, None] * blochs[:, 1]
    return 0.5 * np.linalg.norm(outputs - inputs, axis=1)


def estimate_tradeoff(d: SimulatedDataset) -> EstimatedTradeoff:
    """Measurement-error and disturbance estimates of a dataset, with
    their fit diagnostics, from one parse of its columns by
    :func:`_branch_arrays` (per-basis count asymmetries, scaled back into
    the Bloch ball, and normalized intensities).

    ``delta_hat`` is the largest distance of the port-1 probabilities from
    the ideal projective curve cos^2((theta - theta0)/2) at the
    orientation theta0 of the closed-form fit :func:`_fit_target`; with
    ``fit_amplitude`` set, the curve keeps the fitted amplitude (a
    diagnostic mode).  ``Delta_hat`` is the largest trace distance of the
    weighted branch sum from the input (:func:`_disturbances`).  Each
    maximum comes from :func:`_peak`, with a parabola around it whose
    vertex-vs-sample gap bounds the finite-sampling systematic.  Raises
    :class:`InsufficientCounts` where a state lacks counts.
    """
    blochs, probs = _branch_arrays(d)
    thetas = np.asarray(d.config.thetas)
    p1_hat = probs[:, 0]
    theta0, amp = _fit_target(thetas, p1_hat)
    ref_amp = amp if d.config.fit_amplitude else 1.0
    target = 0.5 * (1.0 + ref_amp * np.cos(np.deg2rad(thetas - theta0)))
    delta_hat, ddiag = _peak(thetas, np.abs(p1_hat - target),
                             theta0_deg=theta0, amplitude=amp)
    Delta_hat, Ddiag = _peak(thetas, _disturbances(thetas, blochs, probs))
    return EstimatedTradeoff(delta_hat, Delta_hat,
                             {"delta": ddiag, "Delta": Ddiag})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _config_to_dict(cfg: ExperimentConfig):
    return {
        "alpha": cfg.setting.alpha,
        "phi": cfg.setting.phi,
        "convention": BS_CONVENTION,
        "thetas": list(cfg.thetas),
        "shots_per_basis": "exact" if cfg.shots_per_basis is None
                           else cfg.shots_per_basis,
        "intensity_noise": cfg.intensity_noise,
        "seed": cfg.seed,
        "fit_amplitude": cfg.fit_amplitude,
    }


# One record as json.dumps(..., indent=2) lays it out inside the payload;
# each field's %s takes the placeholder of its column (_json_column).
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


def _json_column(values):
    """The placeholder and the values that fill it for one record field:
    ``%r`` and the values themselves for a column of plain ints and finite
    floats, else ``%s`` and their JSON texts, from one mapped formatter
    for a column of strings or :func:`_json_value` per value."""
    types = set(map(type, values))
    try:
        raw = types <= {int, float} and (float not in types
                                         or all(map(math.isfinite, values)))
    except OverflowError:  # an int beyond float range next to floats
        raw = False
    if raw:
        return "%r", values
    if types == {str}:
        return "%s", map(encode_basestring_ascii, values)
    return "%s", map(_json_value, values)


def dataset_to_json(d: SimulatedDataset) -> str:
    """Serialize a dataset with stable key order; counts stay integers in
    shot mode.  The text is that of ``json.dumps(payload, indent=2)`` plus
    a newline, written as one template of the whole text, filled by a
    single ``%`` over the values of every column in record order."""
    head = json.dumps({"config": _config_to_dict(d.config)}, indent=2)[:-2]  # no "\n}"
    specs, columns = zip(*(_json_column(getattr(d, name)) for name in _FIELDS))
    n = len(d.port)
    records = ("[\n", ",\n".join([_RECORD_JSON % specs] * n), "\n  ]") if n else ("[]",)
    # Built in one join, so that only the template and the text are alive
    # while it is filled.
    template = "".join((head.replace("%", "%%"), ',\n  "records": ', *records, "\n}\n"))
    return template % tuple(chain.from_iterable(zip(*columns)))


def config_from_dict(obj) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON-style dict with field-path
    error messages.  Only the JSON types are checked here; the ranges are
    those of :class:`InterferometerSetting` and :class:`ExperimentConfig`."""
    if not isinstance(obj, dict):
        raise ValueError("config: expected a JSON object")

    def number(name, default=None, required=False):
        if name not in obj:
            if required:
                raise ValueError(f"config.{name}: required field missing")
            return default
        return _json_number(obj[name], f"config.{name}")

    alpha = number("alpha", required=True)
    phi = number("phi", required=True)
    thetas = obj.get("thetas")
    if thetas is not None:
        if not isinstance(thetas, list):
            raise ValueError("config.thetas: expected a list of numbers")
        for i, t in enumerate(thetas):
            _json_number(t, f"config.thetas[{i}]")
    shots = obj.get("shots_per_basis", 10**6)
    if shots == "exact":
        shots = None
    noise = number("intensity_noise", default=0.0)
    fit_amplitude = obj.get("fit_amplitude", False)
    if not isinstance(fit_amplitude, bool):
        raise ValueError("config.fit_amplitude: expected a boolean")

    try:
        return ExperimentConfig(setting=InterferometerSetting(alpha, phi),
                                thetas=thetas, shots_per_basis=shots,
                                intensity_noise=noise, seed=obj.get("seed", 0),
                                fit_amplitude=fit_amplitude)
    except ValueError as exc:
        raise ValueError(f"config.{exc}") from None


def dataset_from_json(text: str) -> SimulatedDataset:
    """Parse the text of :func:`dataset_to_json`.  Counts and intensities
    must be finite non-negative numbers; they keep their JSON types.  Ports
    must be the JSON integers 1 or 2, bases the strings x, y or z and
    angles JSON numbers among the config's, with no coercion (a bool is no
    number); anything else raises ValueError naming the field."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("dataset: expected a JSON object")
    cfg = config_from_dict(payload.get("config"))
    rows = payload.get("records", [])
    if not isinstance(rows, list):
        raise ValueError("records: expected a list")
    thetas = set(cfg.thetas)
    checked = []
    for i, r in enumerate(rows):
        try:
            theta, port, basis = r["theta_deg"], r["port"], r["basis"]
            counts = r["n_plus"], r["n_minus"], r["intensity"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"records[{i}]: malformed record") from exc
        theta = _json_number(theta, f"records[{i}].theta_deg")
        # 1.0 and True equal 1, so the membership test below needs this.
        if type(port) is not int:
            raise ValueError(f"records[{i}].port: expected an integer, "
                             f"got {port!r}")
        for name, value, allowed in (("port", port, _PORTS), ("basis", basis, _BASES),
                                     ("theta_deg", theta, thetas)):
            if value not in allowed:
                raise ValueError(f"records[{i}].{name}: unexpected value "
                                 f"{value!r}")
        for name, value in zip(_FIELDS[3:], counts):
            _json_number(value, f"records[{i}].{name}", lo=0.0)
        checked.append((theta, port, basis, *counts))
    return SimulatedDataset(cfg, *(list(zip(*checked)) or [()] * len(_FIELDS)))

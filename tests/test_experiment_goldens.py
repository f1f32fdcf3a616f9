"""Pinned datasets and estimates of fixed experiment configs.

Each config's dataset is pinned by the sha256 of its JSON, so any change
to the seeded counts shows.  The estimates were recorded when the
target fit was a 1440-point scan plus Nelder-Mead (kept as the reference
fit in ``tests/test_target_fit.py``); the tolerances cover that search's
own convergence error.
"""

import hashlib
import math

import numpy as np
import pytest

from qtradeoff.experiment import (
    _branch_arrays,
    config_from_dict,
    dataset_to_json,
    estimate_tradeoff,
    simulate_dataset,
)
from test_target_fit import circular_distance_deg, sse


def alpha_for(gamma):
    return 0.5 * math.asin(gamma)


QUARTER = 0.5 * math.pi
DENSE = [float(t) for t in range(360)]

# name -> (config, dataset sha256, delta_hat, Delta_hat, theta0_deg, amplitude)
GOLDENS = {
    "paper-exact": (
        dict(alpha=alpha_for(0.5), phi=QUARTER, shots_per_basis="exact"),
        "adb88f66c0a446ed16ada212d6e8a84abb635c87e480202874a0471436fd3574",
        0.25000000000000006, 0.06698729810778059, 0.0, 0.5),
    "paper-1e6": (
        dict(alpha=alpha_for(0.5), phi=QUARTER, shots_per_basis=10**6, seed=7),
        "d7f368ea89ed42f172fe05671c387a9417d35a17b0ecf475a649d41a4f8aa4c2",
        0.25015640261653416, 0.06718064210235522, 0.03512199401855469,
        0.4998674086554875),
    "paper-1e3": (
        dict(alpha=alpha_for(0.2), phi=QUARTER, shots_per_basis=10**3, seed=3),
        "a5d447d702994552e19e235abf1c3ce15a684b9a2e79866b04c22884b42b3b03",
        0.40931840196137037, 0.03049238566990133, 357.56279572407533,
        0.20801699260430187),
    # The unconstrained least-squares amplitude exceeds 1: the fit sits
    # on the rim of the unit disk.
    "paper-1e3-rim": (
        dict(alpha=alpha_for(0.999), phi=QUARTER, shots_per_basis=10**3, seed=4),
        "390faf99d33b9047dbccbbb0dcc831b5f2e5074ff0bbb5cef5034e5ebc48f8f3",
        0.015527572812405466, 0.4862905902160542, 0.2654762625723378, 1.0),
    "paper-noise": (
        dict(alpha=alpha_for(0.5), phi=QUARTER, shots_per_basis=10**4, seed=5,
             intensity_noise=0.02),
        "0f006839775ce4f676d12cc99b9f66d471df3b70a3a940000ee137f0bbd86876",
        0.2560386984867207, 0.06874935368154222, 0.4576303839683532,
        0.49355135316097426),
    "paper-fit-amplitude": (
        dict(alpha=alpha_for(0.5), phi=QUARTER, shots_per_basis=10**5, seed=1,
             fit_amplitude=True),
        "65715a204a8df262130890fc834da6c122226066c9579d52e2e8e7e8297e5845",
        0.0023918409164400134, 0.06741080867988403, 0.1490821361541747,
        0.500112967621973),
    "paper-phase": (
        dict(alpha=0.4, phi=0.9, shots_per_basis=10**4, seed=21),
        "1e75c8cb22c96808e35b0cddcb000139603fc76c79c46c6d48de624ebfd9daf4",
        0.22542650207253379, 0.15909110191150963, 0.644630831480026,
        0.5614795680571546),
    "dense-exact": (
        dict(alpha=alpha_for(0.8), phi=QUARTER, shots_per_basis="exact",
             thetas=DENSE),
        "635ae84c39d213d29095463b499edbd01f7427cc96ace55a2ffe87bebeb3b217",
        0.09999999999999998, 0.20000000000000007, 0.0, 0.8),
    "dense-1e6": (
        dict(alpha=alpha_for(0.8), phi=QUARTER, shots_per_basis=10**6, seed=11,
             thetas=DENSE),
        "3d46b85c44ddc306f114823a4d23740270047d5b90f11ecad02ed455b5d68366",
        0.1001553659773774, 0.2003603471259676, 359.99124227118494,
        0.8000146007271989),
    "dense-1e3-rim": (
        dict(alpha=alpha_for(0.999), phi=QUARTER, shots_per_basis=10**3, seed=2,
             thetas=DENSE),
        "1bc00411bc45a7ecfb13905fff02bd229827aafa0f652625f5cf9a3e8c62459c",
        0.029245490107944416, 0.5012918738366593, 0.09206237792968755, 1.0),
    # Seeds of two and of five or more 32-bit words: the run entropy
    # spans two words, or runs past the four-word pool of the seed
    # sequence.  At phi = 0.001 the key of port 1 (1e9) fits in one word
    # and that of port 2 (about 3.1e12) needs two, so one dataset mixes
    # entropy lengths.
    "wide-seed": (
        dict(alpha=alpha_for(0.5), phi=QUARTER, shots_per_basis=10**4,
             seed=2**32 + 9),
        "8f6ac579fd86f5718d689bc7556b1e8b03077438316c4c4f2cee50438a1f800c",
        0.25190383545672784, 0.06849294025502704, 359.9796237212867,
        0.49813780132792224),
    "huge-seed": (
        dict(alpha=alpha_for(0.6), phi=QUARTER, shots_per_basis=10**5,
             seed=2**130 + 2**64 + 17),
        "004748bea5b5610dc2cd65a717e6a276eeba45976382017698bc697621c2c776",
        0.19901553166397593, 0.10062197540344116, 0.06242489908340878,
        0.5999178351505731),
    "small-phase": (
        dict(alpha=0.6, phi=0.001, shots_per_basis=10**4, seed=13),
        "310b74c031fd361a6cb15f3e4da0f438eb36f75457d22eae64d7a7c18f26651b",
        0.5036679239035513, 0.322666768395227, 71.03579207558789,
        0.00576897339981333),
    "small-phase-noise": (
        dict(alpha=0.6, phi=0.001, shots_per_basis=10**4, seed=2**40 + 3,
             intensity_noise=0.03),
        "e6af88cb7b8ef724dfd9e43388d0b2ba9a2e89d356a84459fe6f62aad82d2e22",
        0.4900607416376651, 0.32553892618875835, 298.82615070909515,
        0.011854102481094784),
    "dense-huge-seed": (
        dict(alpha=alpha_for(0.8), phi=QUARTER, shots_per_basis=10**3,
             seed=2**200 - 1, thetas=DENSE),
        "722bdba626414d2116b24d7219291aac2f7adeccb527a3773b3da2c471cd8967",
        0.12212229897298604, 0.21667028788643827, 359.76828999771004,
        0.7994538051021418),
}


@pytest.mark.parametrize("name", list(GOLDENS))
def test_golden_dataset_and_estimates(name):
    config, sha, delta_hat, Delta_hat, theta0, amplitude = GOLDENS[name]
    d = simulate_dataset(config_from_dict(config))
    assert hashlib.sha256(dataset_to_json(d).encode()).hexdigest() == sha

    est = estimate_tradeoff(d)
    diag = est.diagnostics["delta"]
    assert abs(est.Delta_hat - Delta_hat) <= 1e-12
    assert abs(est.delta_hat - delta_hat) <= 1e-8
    assert circular_distance_deg(diag["theta0_deg"], theta0) <= 1e-5
    assert abs(diag["amplitude"] - amplitude) <= 1e-8

    # The fit is at least as good as the recorded one.
    thetas = np.asarray(d.config.thetas)
    p1_hat = _branch_arrays(d)[1][:, 0]
    assert (sse(thetas, p1_hat, diag["theta0_deg"], diag["amplitude"])
            <= sse(thetas, p1_hat, theta0, amplitude) + 1e-15)

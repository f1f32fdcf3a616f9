"""Every CLI output, pinned by its sha256.

One test regenerates the outputs in process through ``cli.main`` and
compares each with its digest in ``MANIFEST``: the 20 ``sweep --steps
101`` CSVs, ``verify --level quick`` and ``--level full`` stdout (exit
code 3, criterion 4's known defect), ``eval`` JSON of every kind on three
instruments, and ``experiment`` stdout, ``dataset.json`` and
``estimate.json`` for five configs.  A change that moves a digit updates
the entries it moves and states the move and its bound where the change
is recorded.
"""

import hashlib
import json
import math

import numpy as np

from qtradeoff.cli import main
from qtradeoff.verification import _random_instrument

SCHEMES = ("optimal", "cloner", "swap", "diagonal")
KINDS = ("worst-case-trace-norm", "worst-case-hilbert-schmidt",
         "worst-case-infidelity", "state-averaged-trace-norm", "diamond")
QUARTER = 0.5 * math.pi


def _raw_descriptor(ins):
    def matrix(k):
        return [[[float(c.real), float(c.imag)] for c in row] for row in k]
    return {"family": "raw", "k1": matrix(ins.k1), "k2": matrix(ins.k2)}


INSTRUMENTS = {
    "optimal": {"family": "optimal", "gamma": 0.37, "beta": 0.21},
    "diagonal": {"family": "diagonal", "b1": 0.3, "b2": 0.55,
                 "beta1": 0.4, "beta2": -1.1},
    "raw": _raw_descriptor(_random_instrument(np.random.default_rng(3))),
}

CONFIGS = {
    "shots": {"alpha": 0.5 * math.asin(0.5), "phi": QUARTER,
              "shots_per_basis": 10**6, "seed": 7},
    "exact": {"alpha": 0.5 * math.asin(0.5), "phi": QUARTER,
              "shots_per_basis": "exact"},
    "dense-noise": {"alpha": 0.5 * math.asin(0.8), "phi": QUARTER,
                    "thetas": [float(t) for t in range(360)],
                    "intensity_noise": 0.02, "seed": 11},
    "fit-amplitude": {"alpha": 0.5 * math.asin(0.5), "phi": QUARTER,
                      "shots_per_basis": 10**5, "seed": 1,
                      "fit_amplitude": True},
    "rim": {"alpha": 0.25 * math.pi, "phi": QUARTER, "shots_per_basis": 200,
            "seed": 3},
}

MANIFEST = {
    "sweep/optimal/worst-case-trace-norm.csv": "4e14d42407e2e1401f9eed169e3c2aa3375646576adc205835600bfad12bcd03",
    "sweep/optimal/worst-case-hilbert-schmidt.csv": "6e275709e59ea3ea5d06ead14fda83c5352013a5511ecce20636942866670222",
    "sweep/optimal/worst-case-infidelity.csv": "ff06cbdcf0721b676ebced3345ac8362db938badf574a2ff421acb673c9bf2d6",
    "sweep/optimal/state-averaged-trace-norm.csv": "c60519c46625836c26737609822424d166776cc33a81537b812ad7f5f412e72a",
    "sweep/optimal/diamond.csv": "28bcde54ea050942a094670e0d97556afd7721ee9474406d2d30304e764f2c32",
    "sweep/cloner/worst-case-trace-norm.csv": "5ce441690fb317d9ef6a20f21ef16ad633ac9df0021f3fb9458b3de6b4b814e8",
    "sweep/cloner/worst-case-hilbert-schmidt.csv": "a8eb3cdabb8af7cddeb0614b565ab79e56dbfebd1ec5a59bb7ef6ea2ab9d2fa8",
    "sweep/cloner/worst-case-infidelity.csv": "7948ebda41a2df0c07d8e468712a34f4c5a6c845e81c5c1ed47337ad3b7a5f07",
    "sweep/cloner/state-averaged-trace-norm.csv": "5301a07187b9d79518c055c8b3af011b23ec8c7bfb575f3aacbbe21021fd083f",
    "sweep/cloner/diamond.csv": "a7202185c6b185a5bc29fc55eb192c71586aedb2cfeb3dab79c381a1bbe68ea8",
    "sweep/swap/worst-case-trace-norm.csv": "eb01a229ab41c6c8ea42dd9c329ba98b174bdecbfe83cc6a7f5a0247bb116dba",
    "sweep/swap/worst-case-hilbert-schmidt.csv": "8c176df51f1435407cfbb279a4abcc12671f2ab8c9f97013ef6c328a9300dad5",
    "sweep/swap/worst-case-infidelity.csv": "31a04194e9d417d61130e0d31f07aa10737fb808e4dd3cdb348c363d0ca46567",
    "sweep/swap/state-averaged-trace-norm.csv": "689ac3ec96acf73d28b124171feff3091ec8b8f1a40a159c6a0688560d23eb2e",
    "sweep/swap/diamond.csv": "ec9e2fe5e1418bbccbf57af59963f12ca7e5d683830306683fe86f0d661c500e",
    "sweep/diagonal/worst-case-trace-norm.csv": "f19ef7c93b4f2887256732f4d3705a9a979c4f6fe214c3bc830a0e66b00345c3",
    "sweep/diagonal/worst-case-hilbert-schmidt.csv": "ad1bc1ff53f2bebf00f20edaabfd52163f24ba66ad0dbf7af47461874b32177e",
    "sweep/diagonal/worst-case-infidelity.csv": "e2ca0c4f8cca6a7a7b240d617eb0fe5a9e322883d3acf436ac0eb0830804219d",
    "sweep/diagonal/state-averaged-trace-norm.csv": "036e3ea77e6f6e1e9159508a4418df1509de34b2e38482996b2855f7d616c975",
    "sweep/diagonal/diamond.csv": "58e9be7ab654a5bd9250b4e9b9b191978c1a7f0c3f1f935656880976e0858004",
    "verify/quick.stdout": "cc11616c00088744ba53d6265a24c57cba8692b97b8d32f36aceee121a21eda9",
    "verify/full.stdout": "d879a94779d0bc3c07b0eec74aa10101b55b46cd3a825736f4e02a51fcfd689a",
    "eval/optimal/worst-case-trace-norm.json": "0fc1c262402ce25c79e7ff511522dc38474bb73204cc2e32a86eced071ab92e8",
    "eval/optimal/worst-case-hilbert-schmidt.json": "616af7e33122bad6b0da014484f550ca84a18d795a01888c351425b43b37d975",
    "eval/optimal/worst-case-infidelity.json": "6d4184d1866d60575aa13ee071d2547451511446e89b497f33508fe4561ed6d6",
    "eval/optimal/state-averaged-trace-norm.json": "d4df3c6a1d2b8fb731352ace911e39746570821ffe08031c72ae6da77cf5cacb",
    "eval/optimal/diamond.json": "2bf10a338d9557f40e45796493fcfeabd437ee0c543c95f43a368db29e802b11",
    "eval/diagonal/worst-case-trace-norm.json": "e7ea7c0a44453c78e4cfff489bd7c8334e3bb96c72a2c83db8379df853002d2b",
    "eval/diagonal/worst-case-hilbert-schmidt.json": "6c82f2e448b35a438c20d63bd08ac8b26a944c2ec886620527e29aaa659816f9",
    "eval/diagonal/worst-case-infidelity.json": "a4074a2924a3ae6e40e6e2f68ee5c847d41577b85adc584bcdcc728fdb1d7ce6",
    "eval/diagonal/state-averaged-trace-norm.json": "01741b35fe0660b56df99b8ef6e379d6842eb5f19365c11d6d9af6a89b495038",
    "eval/diagonal/diamond.json": "d4864932aac1186ef8776af8aedded2b7f33cbd450c92b8a2c6f26695b004346",
    "eval/raw/worst-case-trace-norm.json": "5d1577964e473b85189be79a9a144886bb5fdeda73a9de01785ab67d579d0269",
    "eval/raw/worst-case-hilbert-schmidt.json": "f8e9706b06a58bfcf08a459808e39cb19a60c9f75fb9d36986216865aaa30771",
    "eval/raw/worst-case-infidelity.json": "930204bb2eac923f75a5092f814937ddb287f6f8573d7133c956d8dd6ab0baa6",
    "eval/raw/state-averaged-trace-norm.json": "7b18ace64039a1836b83c0c49479481ff89b6dae754d055b532cf578fc3127f7",
    "eval/raw/diamond.json": "e70bd32273e89f731817e47d8903a020cc96eb55473ea0e3948d060011f0db24",
    "experiment/shots.stdout": "ddde2d1e3d8cbf28287fe8f8aab07aefd73c8d50773b75ad4c1e448d1b74fb8b",
    "experiment/shots/dataset.json": "d7f368ea89ed42f172fe05671c387a9417d35a17b0ecf475a649d41a4f8aa4c2",
    "experiment/shots/estimate.json": "daa024cebfbebddc72257d5fee2464417e2caf9d0a94ee07cd728a32bc6781e5",
    "experiment/exact.stdout": "8f4c90f8436b95de6be682f4d4068cd277d7cb5b6dc674aed8977defd059e901",
    "experiment/exact/dataset.json": "adb88f66c0a446ed16ada212d6e8a84abb635c87e480202874a0471436fd3574",
    "experiment/exact/estimate.json": "69a3276f378b03dc4c1ff8a48ded72934fce5aa0f796d474d2f4709e0bd85ed0",
    "experiment/dense-noise.stdout": "2d19d7b17ed0ed70bd079ac50f5db7927fb28a6c573e81d393cbb34de8367ca0",
    "experiment/dense-noise/dataset.json": "6a30ce50d3d3f5cc79ecf05f648e8aad44fc0b15450aeecf09873141f9b03f75",
    "experiment/dense-noise/estimate.json": "54b30901d7dd11f5d0da14aee1959ad43ef8cbc02c1bb5c84a04b1c006b0dff6",
    "experiment/fit-amplitude.stdout": "cd3386a98f99a06959fce4a9313add71bbbb2b5f411ef2a4a189214a6fbda103",
    "experiment/fit-amplitude/dataset.json": "65715a204a8df262130890fc834da6c122226066c9579d52e2e8e7e8297e5845",
    "experiment/fit-amplitude/estimate.json": "74aca59c6ff6ed8ee48e00699b0aa412c1328521b563945a73b8ba4528971ee4",
    "experiment/rim.stdout": "59522433d171b9d1e4c487619e340b5007b4b8f664242a73ed608ca45afcbc25",
    "experiment/rim/dataset.json": "fdec41591b14cb3a19c8d6f001f9d8be5679635aacef6517c8ad71e53aae080e",
    "experiment/rim/estimate.json": "c0da3cf4111e4589dad95506536bdbd42efd5efd20a2ce9eae08caaa364e713a",
}


def outputs(tmp_path, capsys):
    """(name, bytes) of every pinned output."""
    def run(code, *argv):
        assert main(list(argv)) == code, argv
        return capsys.readouterr().out.encode()

    csv = tmp_path / "sweep.csv"
    for scheme in SCHEMES:
        for kind in KINDS:
            run(0, "sweep", "--scheme", scheme, "--steps", "101", "--kind",
                kind, "--out", str(csv))
            yield f"sweep/{scheme}/{kind}.csv", csv.read_bytes()
    for level in ("quick", "full"):
        yield f"verify/{level}.stdout", run(3, "verify", "--level", level)
    descriptor = tmp_path / "instrument.json"
    for name, obj in INSTRUMENTS.items():
        descriptor.write_text(json.dumps(obj))
        for kind in KINDS:
            yield f"eval/{name}/{kind}.json", run(
                0, "eval", "--instrument", str(descriptor), "--kind", kind)
    config = tmp_path / "config.json"
    for name, obj in CONFIGS.items():
        config.write_text(json.dumps(obj))
        out = tmp_path / name
        yield f"experiment/{name}.stdout", run(
            0, "experiment", "--config", str(config), "--out", str(out))
        for file in ("dataset.json", "estimate.json"):
            yield f"experiment/{name}/{file}", (out / file).read_bytes()


def test_every_output_matches_the_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QTRADEOFF_SEED", raising=False)
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in outputs(tmp_path, capsys)}
    moved = [f"    {name!r}: {digest!r}," for name, digest in got.items()
             if MANIFEST.get(name) != digest]
    missing = sorted(MANIFEST.keys() - got.keys())
    assert not moved and not missing, "\n".join(
        ["outputs off the manifest:", *moved, f"not produced: {missing}"])

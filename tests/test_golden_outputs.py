"""Seeded `qcpto run` outputs, pinned by digest.

Each digest is the sha256 of run.json followed by epochs.csv, as written by
``qcpto run --scheme S --seed N`` with the default configuration, with
``predictor.measurement_noise_std = 0.5`` for the noisy runs, or with
``predictor.coast_slots = 10`` for the coasting run. A change
that is meant to keep every reported number must keep these digests; a change
that moves one must say which output changed and why.
"""
import hashlib
import json

import pytest

from qcpto.cli import main

DIGESTS = {
    ("exact", 0):
        "f950590be54e950873e98ec88b634dbfaa062c11e74621ae6f2cec8089585af1",
    ("exact", 42):
        "ffd0a067164e617cda0099882d4deeacc3cfad6262152b07edf6b36b42cfdf30",
    ("heuristic", 0):
        "205f95d4e0c378c086c51f26b1dedcc0a93d4ba2d28e2e6a4a0cdf024794bdbe",
    ("heuristic", 42):
        "e49274c3639bb4fbfcc907757d4bea9d00bdd0b7caa439cf6c76441e91aeda51",
    ("go", 0):
        "507a2199910cc73e6a2369443c1c500c17ab1ae0189cbf6c670246b3c5dac27b",
    ("go", 42):
        "668409f3db51598fcf1b374aced099c20c06041c06c7c4955a02f7345a58bd9d",
    ("cpto", 0):
        "a7e1de02372e631f9a571882f2d5d16e08244e70fccb7b538096a3ee9522abd4",
    ("cpto", 42):
        "def775eadd452b9bf872caf6b01b89d06d7c05ebd92821ad03300f07e022457d",
}


# measurement noise is the one place where the predictor draws random numbers
NOISY_DIGESTS = {
    ("heuristic", 0):
        "c85e9a6c8b8c69b0f20d4537c8397970d6275c5ad4c7cd39001d3a07e304d4da",
    ("heuristic", 42):
        "ad992c98d0fbd42a14629597731822be75ba86af832554b04030606ee60128e1",
}


# at the default coast_slots of 3 no coasted filter is measured again; at 10,
# 43 rows of the seed-0 trace resume their filter after coasting, so this run
# pins the coast-then-update path end to end
COAST_DIGEST = "ce16e6f5b0ab4507509bccd443d9b5316ba0046e051b7a686a7e6c02c088ef49"


def run_digest(out, argv):
    assert main(["run", *argv, "--out", str(out)]) == 0
    h = hashlib.sha256()
    for name in ("run.json", "epochs.csv"):
        h.update((out / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("scheme, seed", sorted(DIGESTS))
def test_run_outputs_match_the_pinned_digest(tmp_path, scheme, seed):
    argv = ["--scheme", scheme, "--seed", str(seed)]
    assert run_digest(tmp_path / "run", argv) == DIGESTS[(scheme, seed)]


@pytest.mark.parametrize("scheme, seed", sorted(NOISY_DIGESTS))
def test_noisy_run_outputs_match_the_pinned_digest(tmp_path, scheme, seed):
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps({"predictor": {"measurement_noise_std": 0.5}}),
                      encoding="utf-8")
    argv = ["--config", str(config), "--scheme", scheme, "--seed", str(seed)]
    assert run_digest(tmp_path / "run", argv) == NOISY_DIGESTS[(scheme, seed)]


def test_coasting_run_outputs_match_the_pinned_digest(tmp_path):
    config = tmp_path / "coast.json"
    config.write_text(json.dumps({"predictor": {"coast_slots": 10}}), encoding="utf-8")
    argv = ["--config", str(config), "--scheme", "heuristic", "--seed", "0"]
    assert run_digest(tmp_path / "run", argv) == COAST_DIGEST

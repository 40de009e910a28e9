"""Seeded `qcpto run` outputs, pinned by digest.

Each digest is the sha256 of run.json followed by epochs.csv, as written by
``qcpto run --scheme S --seed N`` with the default configuration. A change
that is meant to keep every reported number must keep these digests; a change
that moves one must say which output changed and why.
"""
import hashlib

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


@pytest.mark.parametrize("scheme, seed", sorted(DIGESTS))
def test_run_outputs_match_the_pinned_digest(tmp_path, scheme, seed):
    out = tmp_path / "run"
    assert main(["run", "--scheme", scheme, "--seed", str(seed), "--out", str(out)]) == 0
    h = hashlib.sha256()
    for name in ("run.json", "epochs.csv"):
        h.update((out / name).read_bytes())
    assert h.hexdigest() == DIGESTS[(scheme, seed)]

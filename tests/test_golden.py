"""Byte-identity of the experiment outputs for small pinned configs.

The sha256 digests below were recorded for the outputs of three small
experiments (simulate, entropy-check and refine-study on a 16 x 16 base
grid with short end times).  A refactor that claims unchanged behaviour
must leave them unchanged; a change that moves numbers on purpose updates
them and says which outputs moved.  The digests hold for the numpy build
they were recorded with (numpy 2.4 on x86-64 Linux): another numpy or CPU
may round some reductions differently.
"""

import hashlib

import pytest

from logsense_ks.cli import run_experiment, validate_config

_MODEL = {"chi": 2.0, "n": 2, "eps": 0.01, "p": 0.2, "q": 0.35, "r": 1.1}
_INITIAL = {
    "u": {"kind": "gaussian", "amplitude": 1.5, "width": 0.12,
          "baseline": 0.2, "center": [0.45, 0.55]},
    "v": {"kind": "constant", "value": 1.0},
}


def _config(mode, **extra):
    return {
        "mode": mode,
        "grid": {"cells": [16, 16], "extents": [1.0, 1.0]},
        "model": dict(_MODEL),
        "initial": dict(_INITIAL),
        **extra,
    }


CASES = {
    "simulate": (_config("simulate", run={"T": 0.02, "sample_count": 40,
                                          "save_fields": "none"}),
                 ("record.csv", "steps.csv")),
    "entropy-check": (_config("entropy-check",
                              run={"T": 0.02, "sample_count": 60}),
                      ("residuals.json",)),
    "refine-study": (_config("refine-study",
                             refine={"T": 0.002, "levels": 2,
                                     "sample_count": 8}),
                     ("refine_study.csv",)),
}

DIGESTS = {
    "record.csv":
        "348a87d2df7885b986f53a63aa11acb2adfd59e2f5eaf52ba1041b4f447b099e",
    "steps.csv":
        "d5e9f5aad3a2eeeb31f9418a6ecd65022b65635b32d997ef2e50931ce5e81e60",
    "residuals.json":
        "9b9f1ebbb8db44e84d1c4b67baa1cf11662284e90b0dbb7a6dad8df76e112dae",
    "refine_study.csv":
        "481868b34e07cc58c1b7abde65ab6534d039113b395f2bf2c93398773d7f3e15",
}


@pytest.mark.parametrize("mode", sorted(CASES))
def test_output_digests(tmp_path, mode):
    raw, files = CASES[mode]
    # the digests pin outputs, not verdicts: refine-study is too coarse
    # here for its order assertions, so its exit code is not checked
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    assert "aborted" not in manifest
    for name in files:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[name], name

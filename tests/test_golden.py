"""Byte-identity of the experiment outputs for small pinned configs.

The sha256 digests below were recorded for the outputs of five small
experiments (simulate, entropy-check, refine-study, eps-study and oracle on
a 16 x 16 base grid with short end times and small ensembles), for the
assertions blocks of two of their manifests, for the whole eps-study
manifest and for the field files of a simulate run that saves every sample.  A
refactor that claims unchanged behaviour must leave them unchanged; a change
that moves numbers on purpose updates them and says which outputs moved.  The digests hold for the numpy build
they were recorded with (numpy 2.4 with its bundled OpenBLAS on x86-64
Linux): another numpy, BLAS or CPU may round some reductions, and the
solver's DCT matrix products, differently.
"""

import hashlib
import json

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
                 ("record.csv", "steps.csv", "summary.json")),
    "entropy-check": (_config("entropy-check",
                              run={"T": 0.02, "sample_count": 60}),
                      ("residuals.json",)),
    "refine-study": (_config("refine-study",
                             refine={"T": 0.002, "levels": 2,
                                     "sample_count": 8}),
                     ("refine_study.csv",)),
    "eps-study": (_config("eps-study", eps_ladder=[0.1, 0.05],
                          run={"T": 0.02, "sample_count": 10}),
                  ("eps_study.csv",)),
    "oracle": (_config("oracle", seed=5,
                       oracle={"square_trials": 20, "ode_cases": 2,
                               "include_riesz": True,
                               "ensemble": {"count": 8}}),
               ("oracle_reports.json",)),
}

DIGESTS = {
    "record.csv":
        "b3c22b18e19c32efca668d8e8368f408051ec491d788fb39abe83a3a432039a7",
    "steps.csv":
        "59b51f1c068a04972490b48b056eda3e0c7fed597058e311e4abcc32f344d826",
    "residuals.json":
        "e0b6505b64e0c4982ad256764fb0a53e8f657ebee55e9e4313157089f87c0551",
    "refine_study.csv":
        "2932612091e98c13272466eb68547987a9c90742a6e3c553f3bb1d50e57621b4",
    "eps_study.csv":
        "fe218c3b3f6b2d2ef5f2bf721c27a0a47c77ff342b8dbe42dbb78e411d685c7b",
    "oracle_reports.json":
        "d8cfa9a33e0d4475fa4b2040747e35a9e63041b85dedd1a62378d15595afed01",
    "summary.json":
        "eb5e4572154a06d48404476c9ef53eef6a7695a4aa4e7164decd31ba7d884fea",
}

# The manifests' assertions blocks, serialised with sorted keys: they hold
# the checks that read whole trajectories (u_lr_pointwise, v_floor_comparison,
# apriori_bounds, log_mass).
ASSERTION_DIGESTS = {
    "simulate":
        "c39a63e011c6b18421d698de291de4d1617a49040bd7df859955b1c9f338229e",
    "entropy-check":
        "56ad1dbda2a59ecf9cc171a38ce22ee38954dc301a165eed47c56049c69d13bc",
}

# The eps-study manifest, serialised with sorted keys, without its wall time
# and without the library versions, which describe the machine and not the
# run: it holds the per-rung summaries, the log-mass band, the monotonicity
# flags and the step counters.
EPS_STUDY_MANIFEST_DIGEST = \
    "5da0e46450906a04b7c09110c0eb2ecfa4b5bc43b709849a0f00b3e330678215"

# Every fields/*.bin of a simulate run that saves all samples, in name order.
ALL_FIELDS_CONFIG = _config("simulate", run={"T": 0.02, "sample_count": 40,
                                            "save_fields": "all"})
ALL_FIELDS_DIGEST = \
    "35ae167a68ca1a9831d0b93ef007b2aef8dc55a55be5d9ad745e7139f59b2bb2"


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


@pytest.mark.parametrize("mode", sorted(ASSERTION_DIGESTS))
def test_assertion_digests(tmp_path, mode):
    raw, _ = CASES[mode]
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    assert "aborted" not in manifest
    written = json.loads((tmp_path / "manifest.json").read_bytes())
    block = json.dumps(written["assertions"], sort_keys=True).encode()
    assert hashlib.sha256(block).hexdigest() == ASSERTION_DIGESTS[mode]


def test_eps_study_manifest_digest(tmp_path):
    raw, _ = CASES["eps-study"]
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    assert "aborted" not in manifest
    written = json.loads((tmp_path / "manifest.json").read_bytes())
    del written["wall_time_s"], written["versions"]
    block = json.dumps(written, sort_keys=True).encode()
    assert hashlib.sha256(block).hexdigest() == EPS_STUDY_MANIFEST_DIGEST


def test_all_fields_digest(tmp_path):
    _, manifest = run_experiment(validate_config(ALL_FIELDS_CONFIG,
                                                 out_override=tmp_path))
    assert "aborted" not in manifest
    paths = sorted((tmp_path / "fields").glob("*.bin"))
    assert len(paths) == 2 * 41
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == ALL_FIELDS_DIGEST

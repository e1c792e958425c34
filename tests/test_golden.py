"""Byte-identity of the experiment outputs for small pinned configs.

The sha256 digests below were recorded for the outputs of five small
experiments (simulate, entropy-check, refine-study, eps-study and oracle on
a 16 x 16 base grid with short end times and small ensembles), for the
assertions blocks of two of their manifests, for the whole eps-study
manifest, for the field files of a simulate run that saves every sample, for
the step reports and field files of an 8 x 8 x 8 simulate run, and for the
step reports, record and final fields of a 64-cell 1-D simulate run from
cosine initial data.  A refactor that claims unchanged behaviour must leave
them unchanged; a change that moves numbers on purpose updates them and says
which outputs moved.  The digests hold for the numpy build they were
recorded with (numpy 2.4 with its bundled OpenBLAS on x86-64 Linux): another
numpy, BLAS or CPU may round some reductions, and the solver's DCT matrix
products, differently.
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
        "a915410cf6d2e8de462b90da2ee5c72764ac27dc243419ac041f68e9e0d01088",
    "steps.csv":
        "59b51f1c068a04972490b48b056eda3e0c7fed597058e311e4abcc32f344d826",
    "residuals.json":
        "0f3cd799d3febc3fbe0690c8cd265396cd9c9ee6e7d2e6f64be5fe308c7bb418",
    "refine_study.csv":
        "2c3fd3eadc1e770b54a06a6c15a9c76ceefd072d6167f7236feef02c54283c0b",
    "eps_study.csv":
        "e939db6dec5bc574c3c504ba30599d44a2436840502274191da2cc7901d08758",
    "oracle_reports.json":
        "7dc02527df5d06c075597896e1d2470ecafb9dc6a15f84d8e1c547f958a9e049",
    "summary.json":
        "77cf37864937ffab05c1051c4b29d4240399e4ba5fd3e59ae14f4759855e2433",
}

# The manifests' assertions blocks, serialised with sorted keys: they hold
# the checks that read whole trajectories (u_lr_pointwise, v_floor_comparison,
# apriori_bounds, log_mass).
ASSERTION_DIGESTS = {
    "simulate":
        "837d837ac8d3b747ee9756b2d2678e33960a81a69270b1cd80284b250dc82086",
    "entropy-check":
        "9c466a0130271c700e826184f0e3b9d94fefa5db82b4429bc72e12d436874674",
}

# The eps-study manifest, serialised with sorted keys, without its wall time
# and without the library versions, which describe the machine and not the
# run: it holds the per-rung summaries, the log-mass band, the monotonicity
# flags and the step counters.
EPS_STUDY_MANIFEST_DIGEST = \
    "85b065ef183ad043681e4db497a6d643d1efadd5851c4003ff1499ca303b9ef7"

# Every fields/*.bin of a simulate run that saves all samples, in name order.
ALL_FIELDS_CONFIG = _config("simulate", run={"T": 0.02, "sample_count": 40,
                                            "save_fields": "all"})
ALL_FIELDS_DIGEST = \
    "35ae167a68ca1a9831d0b93ef007b2aef8dc55a55be5d9ad745e7139f59b2bb2"


# An 8 x 8 x 8 simulate run that saves every sample: its step reports and,
# as for ALL_FIELDS_CONFIG, every fields/*.bin in name order.
CONFIG_3D = {
    "mode": "simulate",
    "grid": {"cells": [8, 8, 8], "extents": [1.0, 1.0, 1.0]},
    "model": {**_MODEL, "n": 3},
    "initial": {"u": {**_INITIAL["u"], "center": [0.45, 0.55, 0.5]},
                "v": dict(_INITIAL["v"])},
    "run": {"T": 0.005, "sample_count": 10, "save_fields": "all"},
}
STEPS_3D_DIGEST = \
    "a34cdb88daeae0477995384a546fb9a88cd82f5a0badda5d27feb5ed6e9e3ea8"
FIELDS_3D_DIGEST = \
    "e9755d710bcda4c1b6e83165a9d6c25e2f93a3379241bad30c37a1bb21c0b9c2"


# A 64-cell 1-D simulate run from cosine initial data: its step reports,
# its record and, as for ALL_FIELDS_CONFIG, its final fields.
CONFIG_1D = {
    "mode": "simulate",
    "grid": {"cells": [64], "extents": [1.0]},
    "model": {**_MODEL, "n": 1},
    "initial": {"u": {"kind": "cosine", "baseline": 1.0, "amplitude": 0.5,
                      "cutoff": 8, "seed": 3},
                "v": {"kind": "constant", "value": 1.0}},
    "run": {"T": 0.01, "sample_count": 20, "save_fields": "final"},
}
DIGESTS_1D = {
    "steps.csv":
        "72f2640581ca79c5c2ea479a6dbfc3c6709b756b203fda9fea15948c95cc3833",
    "record.csv":
        "d5b319ba0d58c2ae08f22cc070e00acf28d759e2b48db4342feb0be8fbe0f9ff",
}
FIELDS_1D_DIGEST = \
    "218ecc05dfaff08267bc0d7a517cc3190fbe2cabb997087f278a1fce810737a1"


def _fields_digest(fields_dir):
    h = hashlib.sha256()
    for path in sorted(fields_dir.glob("*.bin")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", sorted(CASES))
def test_output_digests(tmp_path, mode):
    raw, files = CASES[mode]
    # the digests pin outputs, not verdicts: refine-study is too coarse
    # here for its order assertions, so its exit code is not checked
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    assert "aborted" not in manifest
    for name in files:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[name], (name, digest)


# Two runs whose outputs hold non-finite figures: the oracle case's log
# ensemble is degenerate (no included member, so no max ratio), and a narrow
# bump with no baseline leaves u at zero, whose log the summaries take.
STRICT_JSON_CASES = {
    "oracle": CASES["oracle"][0],
    "simulate-narrow-bump": _config(
        "simulate", grid={"cells": [32, 32], "extents": [1.0, 1.0]},
        initial={"u": {"kind": "gaussian", "amplitude": 1.5, "width": 0.05},
                 "v": dict(_INITIAL["v"])},
        run={"T": 0.002, "sample_count": 4, "save_fields": "none"}),
}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("case", sorted(STRICT_JSON_CASES))
def test_json_outputs_are_strict(tmp_path, case):
    run_experiment(validate_config(STRICT_JSON_CASES[case],
                                   out_override=tmp_path))
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) >= 2
    for path in written:
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("mode", sorted(ASSERTION_DIGESTS))
def test_assertion_digests(tmp_path, mode):
    raw, _ = CASES[mode]
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    assert "aborted" not in manifest
    written = json.loads((tmp_path / "manifest.json").read_bytes())
    block = json.dumps(written["assertions"], sort_keys=True).encode()
    digest = hashlib.sha256(block).hexdigest()
    assert digest == ASSERTION_DIGESTS[mode], (mode, digest)


def test_eps_study_manifest_digest(tmp_path):
    raw, _ = CASES["eps-study"]
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    assert "aborted" not in manifest
    written = json.loads((tmp_path / "manifest.json").read_bytes())
    del written["wall_time_s"], written["versions"]
    block = json.dumps(written, sort_keys=True).encode()
    digest = hashlib.sha256(block).hexdigest()
    assert digest == EPS_STUDY_MANIFEST_DIGEST, ("eps-study manifest", digest)


def test_all_fields_digest(tmp_path):
    _, manifest = run_experiment(validate_config(ALL_FIELDS_CONFIG,
                                                 out_override=tmp_path))
    assert "aborted" not in manifest
    assert len(list((tmp_path / "fields").glob("*.bin"))) == 2 * 41
    digest = _fields_digest(tmp_path / "fields")
    assert digest == ALL_FIELDS_DIGEST, ("all fields", digest)


def test_3d_digests(tmp_path):
    _, manifest = run_experiment(validate_config(CONFIG_3D,
                                                 out_override=tmp_path))
    assert "aborted" not in manifest
    steps = hashlib.sha256((tmp_path / "steps.csv").read_bytes()).hexdigest()
    assert steps == STEPS_3D_DIGEST, ("3-D steps.csv", steps)
    assert len(list((tmp_path / "fields").glob("*.bin"))) == 2 * 11
    digest = _fields_digest(tmp_path / "fields")
    assert digest == FIELDS_3D_DIGEST, ("3-D fields", digest)


def test_1d_cosine_digests(tmp_path):
    exit_code, manifest = run_experiment(validate_config(
        CONFIG_1D, out_override=tmp_path))
    assert exit_code == 0 and "aborted" not in manifest
    for name, expected in DIGESTS_1D.items():
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == expected, (f"1-D {name}", digest)
    assert len(list((tmp_path / "fields").glob("*.bin"))) == 2
    digest = _fields_digest(tmp_path / "fields")
    assert digest == FIELDS_1D_DIGEST, ("1-D fields", digest)

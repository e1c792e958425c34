"""The config table: every bad config exits 2 with its dotted path before any
compute, a runtime failure exits 1 with an aborted manifest, and no config
makes `main` raise."""

import copy
import itertools
import json
import math
import random
import re
import time
from pathlib import Path

import pytest

from logsense_ks import cli
from logsense_ks.cli import CONFIG_KEYS, main
from logsense_ks.oracles import verify_ode_comparison_batch

README = Path(__file__).resolve().parent.parent / "README.md"

_GRID = {"cells": [8, 8], "extents": [1.0, 1.0]}
_MODEL = {"chi": 2.0, "n": 2, "eps": 0.01, "p": 0.2, "q": 0.35, "r": 1.1}
_U = {"kind": "gaussian", "amplitude": 1.5, "width": 0.12, "baseline": 0.2}
_V = {"kind": "constant", "value": 1.0}

# one small valid config per mode, holding most of the keys that mode reads
VALID = {
    "simulate": {
        "mode": "simulate", "seed": 1, "grid": _GRID,
        "model": dict(_MODEL, s=1.0, margin=0.05),
        "initial": {"u": dict(_U, center=[0.5, 0.5]), "v": _V,
                    "v_floor": 1e-6},
        "run": {"T": 0.002, "sample_count": 4, "safety": 0.4,
                "max_dt": 0.001, "v_floor": 1e-12, "save_fields": "final"},
    },
    "entropy-check": {
        "mode": "entropy-check", "grid": _GRID, "model": _MODEL,
        "initial": {"u": _U, "v": {"kind": "cosine", "baseline": 1.0,
                                   "amplitude": 0.3, "cutoff": 2, "seed": 4}},
        "run": {"T": 0.002, "sample_count": 50},
        "checks": {"identity_tol_rel": 0.02},
    },
    "eps-study": {
        "mode": "eps-study", "grid": _GRID, "model": _MODEL,
        "initial": {"u": _U, "v": _V},
        "run": {"T": 0.002, "sample_count": 4},
        "eps_ladder": [0.1, 0.05],
    },
    "refine-study": {
        "mode": "refine-study", "grid": {"cells": [4, 4], "extents": [1.0, 1.0]},
        "model": _MODEL,
        "initial": {"u": {"kind": "cosine", "baseline": 1.0, "amplitude": 0.3},
                    "v": _V},
        "refine": {"T": 0.001, "levels": 2, "dt_factor": 0.0625,
                   "sample_count": 4, "power_r": 1.6},
    },
    "params": {
        "mode": "params", "model": {"chi": 0.5, "n": 2, "margin": 0.05},
        "params_query": {"export_region": True, "p_count": 5},
    },
    "oracle": {
        "mode": "oracle", "grid": _GRID, "model": {"chi": 2.0, "n": 2},
        "seed": 3,
        "oracle": {"square_trials": 2, "power_r": 1.6, "ode_cases": 1,
                   "p_norm": 2.0, "include_riesz": True,
                   "ensemble": {"count": 4, "seed": 1, "cutoff": 2,
                                "amplitude": [0.2, 1.0], "floor": 0.05,
                                "delta": 0.5, "eta": 0.05,
                                "b_selector": "threshold"}},
    },
}


DROP = object()


def _with(mode, path, value):
    """VALID[mode] with the dotted `path` set to `value`, or removed when
    `value` is the DROP marker."""
    raw = copy.deepcopy(VALID[mode])
    *parents, last = path.split(".")
    node = raw
    for part in parents:
        node = node.setdefault(part, {})
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return raw


def _main(tmp_path, mode, raw, name="run"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / name
    return main([mode, "--config", str(cfg_path), "--out", str(out)]), out


# 1e308 + 1e308 at the cell centre the bump sits on: infinite initial data,
# whose overflow numpy warns of
INFINITE_V = ("simulate", "initial.v",
              {"kind": "gaussian", "baseline": 1e308, "amplitude": 1e308,
               "width": 0.12, "center": [0.0625, 0.0625]}, "initial.v")

PROBES = [
    ("simulate", "initial.u.amplitude", DROP, "initial.u"),
    ("simulate", "initial.u", {"kind": "cosine", "amplitude": 0.3}, "initial.u"),
    ("simulate", "initial.u", {"kind": "constant", "value": -1.0}, "initial.u"),
    ("simulate", "initial.u", {"kind": "constant", "value": "a"},
     "initial.u.value"),
    ("simulate", "run.T", 1e400, "run.T"),
    ("simulate", "run.T", 0, "run.T"),
    ("entropy-check", "run.T", 0, "run.T"),
    ("simulate", "run.sample_count", 0, "run.sample_count"),
    # one interval leaves no sample between simulate's log-mass waiting time
    # and T, and holds refine-study's bump-in-time phi at zero on level 0
    ("simulate", "run.sample_count", 1, "run.sample_count"),
    ("refine-study", "refine.sample_count", 1, "refine.sample_count"),
    ("eps-study", "run.sample_count", 0, "run.sample_count"),
    ("entropy-check", "run.sample_count", 10, "run.sample_count"),
    ("simulate", "run.safety", "big", "run.safety"),
    ("simulate", "run.safety", -1, "run.safety"),
    ("simulate", "run.max_dt", 0, "run.max_dt"),
    ("simulate", "model.p", "x", "model.p"),
    ("simulate", "model.margin", "x", "model.margin"),
    ("simulate", "seed", "x", "seed"),
    ("params", "params_query.p_count", "x", "params_query.p_count"),
    ("refine-study", "refine.levels", "x", "refine.levels"),
    ("refine-study", "refine.dt_factor", 0, "refine.dt_factor"),
    ("refine-study", "refine.sample_count", 0, "refine.sample_count"),
    ("oracle", "oracle.ensemble", "x", "oracle.ensemble"),
    ("oracle", "oracle.ensemble.count", 0, "oracle.ensemble.count"),
    ("oracle", "oracle.ensemble.cutoff", 0, "oracle.ensemble.cutoff"),
    ("oracle", "oracle.ensemble.amplitude", [1.0], "oracle.ensemble"),
    ("oracle", "oracle.ensemble.delta", 5, "oracle.ensemble.delta"),
    ("oracle", "oracle.ensemble.b_selector", "x", "oracle.ensemble.b_selector"),
    ("oracle", "oracle.ode_cases", 0, "oracle.ode_cases"),
    ("oracle", "oracle.p_norm", 0.5, "oracle.p_norm"),
    # the power-identity ladder's 4x grid passes the cell limit
    ("oracle", "grid.cells", [2100, 2100], "grid"),
    ("simulate", "run.sampel_count", 100, "run.sampel_count"),
    ("oracle", "oracle.ensemble.amplitude", [0.2, 1000],
     "oracle.ensemble.amplitude"),
    # every count has a finite upper end
    ("simulate", "run.sample_count", 10**30, "run.sample_count"),
    ("simulate", "initial.u", {"kind": "cosine", "baseline": 1.0,
                               "amplitude": 0.3, "cutoff": 10**30},
     "initial.u.cutoff"),
    ("refine-study", "refine.levels", 10**30, "refine.levels"),
    ("refine-study", "refine.sample_count", 10**30, "refine.sample_count"),
    ("params", "params_query.p_count", 10**30, "params_query.p_count"),
    ("oracle", "oracle.square_trials", 10**30, "oracle.square_trials"),
    ("oracle", "oracle.ode_cases", 10**30, "oracle.ode_cases"),
    ("oracle", "oracle.ensemble.count", 10**30, "oracle.ensemble.count"),
    ("oracle", "oracle.ensemble.cutoff", 10**30, "oracle.ensemble.cutoff"),
    # an admissible chi with no exponent triple under the n = 2 cap
    ("params", "model.chi", 1e4, "model"),
    # the dense transforms of a long axis pass the memory limit: 74.5 GiB
    # here, and 2.0 GiB on refine-study's finest 16,384-cell level
    ("simulate", "grid", {"cells": [100000], "extents": [1.0]}, "grid.cells"),
    ("refine-study", "grid", {"cells": [8192], "extents": [1.0]},
     "refine.levels"),
    INFINITE_V,
]


@pytest.mark.parametrize(
    "mode, path, value, reported",
    [pytest.param(*probe, marks=pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning"))
     if probe is INFINITE_V else probe for probe in PROBES],
    ids=[f"{m}:{p}={v!r}" for m, p, v, _ in PROBES])
def test_bad_config_exits_two_with_its_path(tmp_path, capsys, mode, path,
                                            value, reported):
    code, out = _main(tmp_path, mode, _with(mode, path, value))
    assert code == 2
    assert f"config.{reported}:" in capsys.readouterr().err
    assert not out.exists()


def _huge_chi(mode, n=None, select=False):
    """VALID[mode] with chi = 1e200, whose square overflows; optionally in
    dimension n, or with p, q and r left to the selection."""
    raw = _with(mode, "model.chi", 1e200)
    if n is not None:
        raw["model"]["n"] = n
    if select:
        for name in "pqr":
            raw["model"].pop(name, None)
    return raw


HUGE_CHI = {
    "params-n2": ("params", _huge_chi("params")),
    "params-n3": ("params", _huge_chi("params", n=3)),
    "simulate-given": ("simulate", _huge_chi("simulate")),
    "simulate-selected": ("simulate", _huge_chi("simulate", select=True)),
    **{mode: (mode, _huge_chi(mode))
       for mode in ("entropy-check", "eps-study", "refine-study", "oracle")},
}


@pytest.mark.parametrize("case", sorted(HUGE_CHI))
def test_chi_with_an_overflowing_square_exits_two(tmp_path, capsys, case):
    mode, raw = HUGE_CHI[case]
    code, out = _main(tmp_path, mode, raw)
    assert code == 2
    assert "config.model.chi:" in capsys.readouterr().err
    assert not out.exists()


# chi = 1e-300 used to end in a ZeroDivisionError at 1 / chi^2 (simulate's
# admissibility test, params' exponent search), and q = 1e-300 at
# 4 (1 - q) / q^2 in entropy-check's grad v^{q/2} bound, after the run
TINY = {
    "simulate-chi": ("simulate", "model.chi"),
    "params-chi": ("params", "model.chi"),
    "entropy-check-q": ("entropy-check", "model.q"),
}


@pytest.mark.parametrize("case", sorted(TINY))
def test_chi_or_q_with_a_vanishing_square_exits_two(tmp_path, capsys, case):
    mode, path = TINY[case]
    code, out = _main(tmp_path, mode, _with(mode, path, 1e-300))
    assert code == 2
    assert f"config.{path}:" in capsys.readouterr().err
    assert not out.exists()


def test_entropy_check_on_a_tiny_box_runs(tmp_path, capsys):
    # on a 1e-8 box the built-in family's wall derivative is round-off times
    # k pi / 1e-8, which an absolute bound once rejected with a traceback
    raw = _with("entropy-check", "grid.extents", [1e-8, 1e-8])
    code, out = _main(tmp_path, "entropy-check", raw)
    assert code in (0, 1)
    assert "normal derivative" not in capsys.readouterr().err
    assert (out / "manifest.json").exists()


# initial data that pass the table but overflow the right-hand side: the
# Laplacian of u, or the drift speed of v
OVERFLOWING = {
    "u": {"kind": "constant", "value": 1e308},
    "v": {"kind": "gaussian", "amplitude": 1e308, "width": 0.12,
          "baseline": 1.0},
}


# numpy warns of the overflow before the run stops; the suite would raise it
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("field", sorted(OVERFLOWING))
@pytest.mark.parametrize("mode", ["simulate", "entropy-check", "eps-study",
                                  "refine-study"])
def test_overflowing_initial_data_abort_the_run(tmp_path, capsys, mode, field):
    code, out = _main(tmp_path, mode,
                      _with(mode, f"initial.{field}", OVERFLOWING[field]))
    assert code == 1
    assert "aborted" in capsys.readouterr().err
    aborted = json.loads((out / "manifest.json").read_text())["aborted"]
    assert "not finite (t = 0.0)" in aborted["message"]
    if mode == "eps-study":
        assert aborted["eps"] == 0.1
    else:
        assert aborted["time"] == 0.0


@pytest.mark.parametrize("mode", ["simulate", "eps-study"])
def test_a_run_past_the_step_budget_aborts(tmp_path, capsys, mode):
    # chi = 1e20 shrinks dt to about one ulp of t, so without the budget the
    # run would never reach T
    started = time.monotonic()
    code, out = _main(tmp_path, mode, _with(mode, "model.chi", 1e20))
    assert time.monotonic() - started < 5.0
    assert code == 1
    err = capsys.readouterr().err
    assert "aborted" in err and "Traceback" not in err
    aborted = json.loads((out / "manifest.json").read_text())["aborted"]
    assert "step budget" in aborted["message"]
    if mode == "eps-study":
        assert aborted["eps"] == 0.1


def test_runtime_singularity_writes_aborted_manifest(tmp_path, capsys):
    raw = _with("simulate", "run.v_floor", 1.0)
    raw["initial"]["v"] = {"kind": "constant", "value": 0.5}
    code, out = _main(tmp_path, "simulate", raw)
    assert code == 1
    assert "aborted" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert "mobility floor" in manifest["aborted"]["message"]
    assert manifest["aborted"]["time"] == 0.0


def test_eps_study_reports_singularity_with_its_rung(tmp_path, capsys):
    raw = _with("eps-study", "run.v_floor", 1.0)
    raw["initial"]["v"] = {"kind": "constant", "value": 0.5}
    code, out = _main(tmp_path, "eps-study", raw)
    assert code == 1
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aborted"]["eps"] == 0.1
    assert manifest["aborted"]["time"] == 0.0


def test_refine_study_reports_singularity_with_its_level(tmp_path, capsys):
    raw = _with("refine-study", "run.v_floor", 1.0)
    raw["initial"]["v"] = {"kind": "constant", "value": 0.5}
    code, out = _main(tmp_path, "refine-study", raw)
    assert code == 1
    assert "refine run failed at level=0" in capsys.readouterr().err
    aborted = json.loads((out / "manifest.json").read_text())["aborted"]
    assert "mobility floor" in aborted["message"]
    assert (aborted["level"], aborted["time"]) == (0, 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("path, integral", [
    ("initial.u.amplitude", "reaction_plus"),  # u^{p+1} v^{q-1} overflows
    ("model.r", "u_lr"),  # u^r overflows
])
def test_eps_study_aborts_on_a_non_finite_record_integral(tmp_path, capsys,
                                                          path, integral):
    code, out = _main(tmp_path, "eps-study", _with("eps-study", path, 1e300))
    assert code == 1
    err = capsys.readouterr().err
    assert "aborted" in err and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aborted"] == {
        "message": f"record integral {integral} is not finite at eps=0.1",
        "eps": 0.1}
    assert "eps_study" not in manifest


def test_eps_study_completes_when_u_reaches_zero(tmp_path, capsys):
    # a narrow gaussian on baseline 0 has corner cells that the stepper sets
    # to zero; grad_log_u_sq is then NaN as a marker, not an error
    raw = _with("eps-study", "initial.u.baseline", 0.0)
    raw["initial"]["u"]["width"] = 0.015
    code, out = _main(tmp_path, "eps-study", raw)
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "aborted" not in manifest
    study = manifest["eps_study"]
    assert study["min_log_u_band"] == {}
    for summary in study["summaries"]:
        accumulated = dict(summary["accumulated"])
        assert accumulated.pop("grad_log_u_sq") is None
        assert None not in accumulated.values()


def test_oracle_power_identities_pass_on_a_coarse_grid(tmp_path, capsys):
    # the 8 x 8 config grid is below the ladder's 16-cell base
    _, out = _main(tmp_path, "oracle", VALID["oracle"])
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    entry = next(e for e in manifest["assertions"]
                 if e["name"] == "power_identity_order")
    assert entry["passed"], entry["value"]


def test_oracle_constant_members_have_zero_mean_ratio(tmp_path, capsys):
    # amplitude [0, 0] makes every member the constant floor + 1; |B| = 0.4
    # takes 26 of the 64 cells, whose mean misses the constant by round-off
    raw = _with("oracle", "oracle.ensemble.amplitude", [0.0, 0.0])
    raw["oracle"]["ensemble"]["delta"] = 0.4
    code, out = _main(tmp_path, "oracle", raw)
    capsys.readouterr()
    assert code == 0
    reports = json.loads((out / "oracle_reports.json").read_text())
    assert reports["mean_poincare"]["max_ratio"] == 0.0
    assert [row["max_ratio"] for row in reports["mean_poincare_delta_trend"]] \
        == [0.0] * 3


def test_an_ensemble_that_never_meets_its_level_set_aborts(tmp_path, capsys):
    # every member is the constant floor + 1 = 1.05, so no draw has
    # {phi > 3} of positive measure, and the log ensemble gives up
    raw = {"mode": "oracle", "grid": {"cells": [16, 16], "extents": [2.0, 2.0]},
           "model": {"chi": 2.0, "n": 2},
           "oracle": {"ensemble": {"amplitude": [0.0, 0.0], "delta": 3.0,
                                   "eta": 0.5}}}
    code, out = _main(tmp_path, "oracle", raw)
    assert code == 1
    err = capsys.readouterr().err
    assert "aborted" in err and "Traceback" not in err
    aborted = json.loads((out / "manifest.json").read_text())["aborted"]
    assert aborted["message"].startswith("ensemble member 0 drew 64 fields")


def test_a_bad_finer_refine_level_exits_two_before_any_step(tmp_path,
                                                            monkeypatch, capsys):
    # the dip of u reaches below zero at the centre cells of the 32 x 32
    # level only; validation builds every level's initial data
    def no_run(*args, **kwargs):
        raise AssertionError("a level ran")
    monkeypatch.setattr(cli, "run", no_run)
    raw = _with("refine-study", "grid.cells", [16, 16])
    raw["initial"]["u"] = {"kind": "gaussian", "amplitude": -1.0, "width": 0.05,
                           "baseline": 0.9, "center": [0.5, 0.5]}
    code, out = _main(tmp_path, "refine-study", raw)
    assert code == 2
    assert "config.initial.u: u must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["eps-study", "refine-study"])
def test_an_underflowing_entropy_denominator_exits_two_before_any_step(
        mode, tmp_path, monkeypatch, capsys):
    # both values in range, but p q (p chi + 1 - q) underflows to 0.0, so
    # the entropy coefficients every trajectory's Accumulator needs do not
    # exist; validation forms them for each rung and level
    def no_run(*args, **kwargs):
        raise AssertionError("a trajectory ran")
    for name in ("run", "samples"):
        monkeypatch.setattr(cli, name, no_run)
    raw = _with(mode, "model.p", 1e-300)
    raw["model"]["q"] = 1.5000000000015e-154
    code, out = _main(tmp_path, mode, raw)
    assert code == 2
    assert "config.model: denominator p q (p chi + 1 - q) = 0.0 must be " \
           "positive" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_and_output_dir_errors(tmp_path, capsys):
    cfg_path = tmp_path / "params.json"
    cfg_path.write_text(json.dumps(VALID["params"]))
    assert main(["params", "--config", str(cfg_path), "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "config.seed:" in capsys.readouterr().err
    (tmp_path / "file").write_text("")
    assert main(["params", "--config", str(cfg_path),
                 "--out", str(tmp_path / "file" / "o")]) == 1
    assert "cannot write outputs" in capsys.readouterr().err


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def test_no_leaf_mutation_escapes_main(tmp_path, monkeypatch, capsys):
    """Every leaf of every VALID config set to each of null, "x", [], {}, -1,
    0, 1 and 1e400 (read back as infinity) exits 0, 1 or 2.  The Riccati oracle
    runs 100 RK4 substeps instead of 10^5 so that the sweep stays short."""
    monkeypatch.setattr(
        cli, "verify_ode_comparison_batch",
        lambda specs: verify_ode_comparison_batch(specs, substeps=100))
    started = time.monotonic()
    runs = 0
    for mode, valid in VALID.items():
        for leaf in _leaves(valid):
            for value in (None, "x", [], {}, -1, 0, 1, 1e400):
                raw = copy.deepcopy(valid)
                node = raw
                for part in leaf[:-1]:
                    node = node[part]
                node[leaf[-1]] = value
                code, _ = _main(tmp_path, mode, raw, name=f"m{runs}")
                assert code in (0, 1, 2), (mode, leaf, value)
                runs += 1
    capsys.readouterr()
    assert time.monotonic() - started < 20.0


def test_readme_lists_every_config_key():
    text = README.read_text()
    section = text.split("### Config reference", 1)[1].split("\n#", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert keys == set(CONFIG_KEYS)


def test_table_defaults_pass_their_own_checks():
    for path, key in CONFIG_KEYS.items():
        if key.default is not None:
            default = list(key.default) if key.kind.endswith("list") \
                else key.default
            assert cli._checked(default, path, key) == default, path


# extents and widths whose squares overflow once ended in an OverflowError
# out of main: ha**2 in the Laplacian, width**2 in the Gaussian and in the
# bump test function's second derivative
HUGE_LENGTH = {
    "simulate-extents": ("simulate", "grid.extents", [1e300, 1e300],
                         "grid.extents[0]"),
    "entropy-check-extents": ("entropy-check", "grid.extents", [1e300, 1e300],
                              "grid.extents[0]"),
    "simulate-width": ("simulate", "initial.u.width", 1e300,
                       "initial.u.width"),
}


@pytest.mark.parametrize("case", sorted(HUGE_LENGTH))
def test_a_length_with_an_overflowing_square_exits_two(tmp_path, capsys, case):
    mode, path, value, reported = HUGE_LENGTH[case]
    code, out = _main(tmp_path, mode, _with(mode, path, value))
    assert code == 2
    assert f"config.{reported}:" in capsys.readouterr().err
    assert not out.exists()


def test_q_with_an_overflowing_bound_coefficient_exits_two(tmp_path, capsys):
    # 4 (1 - q) / q^2 passes the largest double below q = 1.49e-154, and the
    # grad v^{q/2} bound then reported a null lhs after the whole run
    code, out = _main(tmp_path, "entropy-check",
                      _with("entropy-check", "model.q", 1.05e-154))
    assert code == 2
    assert "config.model.q:" in capsys.readouterr().err
    assert not out.exists()


def test_q_at_its_lower_end_has_a_finite_bound(tmp_path, capsys):
    low = float(CONFIG_KEYS["model.q"].range[1:-1].split(",")[0])
    code, out = _main(tmp_path, "entropy-check",
                      _with("entropy-check", "model.q", low * (1.0 + 1e-12)))
    capsys.readouterr()
    assert code in (0, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "aborted" not in manifest
    entry = next(e for e in manifest["assertions"] if e["name"] == "grad_vq")
    assert all(math.isfinite(entry["value"][side]) for side in ("lhs", "rhs"))


def test_an_arithmetic_error_writes_an_aborted_manifest(tmp_path, monkeypatch,
                                                        capsys):
    def overflow(cfg, outputs, asserts):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setitem(cli._MODE_RUNNERS, "simulate", overflow)
    code, out = _main(tmp_path, "simulate", VALID["simulate"])
    assert code == 1
    err = capsys.readouterr().err
    assert "aborted: OverflowError" in err and "Traceback" not in err
    aborted = json.loads((out / "manifest.json").read_text())["aborted"]
    assert aborted["message"].startswith("OverflowError:")


def _edge_values(key):
    """The sweep's values for a numeric key: each end of its range, a closed
    end as it is, an open end moved inward by 1e-12 relative (to 1e-300 at
    an open zero), an infinite end as 1e8 and 1e300 with its sign.
    An unranged number counts as (-inf, inf); an integer key takes the
    integers nearest these."""
    interval = key.range or "(-inf, inf)"
    values = []
    for end, is_open, inward in (
            (interval[1:-1].split(",")[0], interval[0] == "(", 1.0),
            (interval[1:-1].split(",")[1], interval[-1] == ")", -1.0)):
        end = float(end)
        if math.isinf(end):
            values += [math.copysign(1e8, end), math.copysign(1e300, end)]
        elif not is_open:
            values.append(end)
        elif end == 0.0:
            values.append(inward * 1e-300)
        else:
            values.append(end + inward * 1e-12 * abs(end))
    if key.kind.startswith("int"):
        values = [int(v) for v in values]
    return values


def _swept_leaves(valid):
    """(dotted path, leaf path, key) of each numeric leaf of a VALID config
    that is not a count: lists count as one leaf, their entries set alike."""
    for leaf in _leaves(valid):
        if isinstance(leaf[-1], int):
            leaf = leaf[:-1]
        path = ".".join(leaf)
        key = CONFIG_KEYS.get(path)
        if key is None or not key.kind.startswith(("number", "int")):
            continue
        if key.kind.startswith("int") and not path.endswith("seed"):
            continue
        yield path, leaf, key


def _set_leaf(raw, leaf, value):
    """Set the leaf at path `leaf` of `raw` to `value`; a list leaf has each
    of its entries set to it."""
    node = raw
    for part in leaf[:-1]:
        node = node[part]
    node[leaf[-1]] = [value] * len(node[leaf[-1]]) \
        if isinstance(node[leaf[-1]], list) else value


# numpy warns of an overflow or an invalid value in 33 of these 192 runs
# before the run stops or fails an assertion; main prints such a warning and
# goes on, so it is not an escape, but the suite would raise it
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_range_edges_exit_cleanly(tmp_path, monkeypatch, capsys):
    """Every numeric leaf of every VALID config, counts aside, set to the
    ends of its CONFIG_KEYS range (_edge_values) runs through main without
    an exception escaping and exits 0, 1 or 2.  The Riccati oracle runs 100
    RK4 substeps instead of 10^5."""
    monkeypatch.setattr(
        cli, "verify_ode_comparison_batch",
        lambda specs: verify_ode_comparison_batch(specs, substeps=100))
    started = time.monotonic()
    escaped, runs = [], 0
    for mode, valid in VALID.items():
        seen = set()
        for path, leaf, key in _swept_leaves(valid):
            if leaf in seen:
                continue
            seen.add(leaf)
            for value in _edge_values(key):
                raw = copy.deepcopy(valid)
                _set_leaf(raw, leaf, value)
                try:
                    code, _ = _main(tmp_path, mode, raw, name=f"e{runs}")
                except Exception as exc:  # what the test looks for
                    escaped.append((mode, path, value, repr(exc)))
                else:
                    if code not in (0, 1, 2):
                        escaped.append((mode, path, value, code))
                runs += 1
    capsys.readouterr()
    assert not escaped, escaped
    assert runs == 192
    assert time.monotonic() - started < 30.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_pairs_of_range_edges_exit_cleanly(tmp_path, monkeypatch, capsys):
    """Every pair of swept leaves of every VALID config (_swept_leaves) runs
    through main once with both leaves at ends of their ranges, each drawn
    from its _edge_values by a seeded generator: no exception escapes, no
    traceback is printed and the exit code is 0, 1 or 2.  Faults that need
    two keys at once go unseen by the one-key sweep above.  The Riccati
    oracle runs 100 RK4 substeps instead of 10^5."""
    monkeypatch.setattr(
        cli, "verify_ode_comparison_batch",
        lambda specs: verify_ode_comparison_batch(specs, substeps=100))
    rng = random.Random(27)
    started = time.monotonic()
    escaped, runs = [], 0
    for mode, valid in VALID.items():
        swept = {leaf: key for _, leaf, key in _swept_leaves(valid)}
        for (a, key_a), (b, key_b) in itertools.combinations(swept.items(), 2):
            raw = copy.deepcopy(valid)
            values = rng.choice(_edge_values(key_a)), \
                rng.choice(_edge_values(key_b))
            _set_leaf(raw, a, values[0])
            _set_leaf(raw, b, values[1])
            case = (mode, ".".join(a), ".".join(b), values)
            try:
                code, _ = _main(tmp_path, mode, raw, name=f"p{runs}")
            except Exception as exc:  # what the test looks for
                escaped.append(case + (repr(exc),))
            else:
                if code not in (0, 1, 2):
                    escaped.append(case + (code,))
            if "Traceback" in capsys.readouterr().err:
                escaped.append(case + ("traceback printed",))
            runs += 1
    assert not escaped, escaped
    assert runs == 440
    assert time.monotonic() - started < 20.0

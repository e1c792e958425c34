"""The config table: every bad config exits 2 with its dotted path before any
compute, a runtime failure exits 1 with an aborted manifest, and no config
makes `main` raise."""

import copy
import json
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

import json
import tracemalloc

import numpy as np
import pytest

from logsense_ks import cli, oracles
from logsense_ks.cli import (
    ConfigError,
    StudyError,
    _observed_order,
    _order_ok,
    _restrict_to_coarse,
    main,
    run_experiment,
    validate_config,
)
from logsense_ks.grid import DEFAULT_MAX_CELLS
from logsense_ks.simulator import SimulationError


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate_config(**over):
    cfg = {
        "mode": "simulate",
        "grid": {"cells": [8, 8], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2, "eps": 0.01,
                  "p": 0.2, "q": 0.35, "r": 1.1},
        "initial": {
            "u": {"kind": "gaussian", "amplitude": 1.5, "width": 0.12,
                  "baseline": 0.2},
            "v": {"kind": "constant", "value": 1.0},
        },
        "run": {"T": 0.05, "sample_count": 100},
    }
    cfg.update(over)
    return cfg


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


# config validation -----------------------------------------------------------------

def test_validate_config_reports_field_paths():
    cases = [
        ({}, "mode"),
        ({"mode": "warp"}, "mode"),
        ({"mode": "simulate", "model": {"chi": 1.0, "n": 2}}, "grid.cells"),
        (simulate_config(grid={"cells": [8, 8], "extents": [1.0]}),
         "grid.extents"),
        (simulate_config(grid={"cells": [8, 8.5], "extents": [1.0, 1.0]}),
         "grid.cells[1]"),
        (simulate_config(initial={"u": {"kind": "vortex"},
                                  "v": {"kind": "constant", "value": 1.0}}),
         "initial.u.kind"),
        (simulate_config(run={"T": -1.0}), "run.T"),
        (simulate_config(run={"T": 0.1, "save_fields": "some"}),
         "run.save_fields"),
        (simulate_config(model={"chi": 2.0, "n": 2, "eps": 1.5}),
         "model.eps"),
        (simulate_config(grid={"cells": [2, 2], "extents": [1.0, 1.0]}),
         "grid"),
        (simulate_config(grid={"cells": [8, 8, 8, 8],
                               "extents": [1.0, 1.0, 1.0, 1.0]}), "grid"),
        (simulate_config(model={"chi": 5.0, "n": 3}), "model"),
        (simulate_config(run={"T": 0.1, "upwind": False}), "run.upwind"),
    ]
    for raw, path in cases:
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.path == path
        assert str(err.value).startswith(f"config.{path}:")


def test_validate_eps_ladder():
    base = simulate_config(mode="eps-study")
    for ladder, path in [
        ([], "eps_ladder"),
        ([0.1, 0.1], "eps_ladder"),
        ([0.05, 0.1], "eps_ladder"),
        ([0.1, -0.01], "eps_ladder[1]"),
        ([1.0, 0.5], "eps_ladder[0]"),
    ]:
        raw = dict(base, eps_ladder=ladder)
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert err.value.path == path
    ok = validate_config(dict(base, eps_ladder=[0.1, 0.05]))
    assert ok.mode == "eps-study"
    single = validate_config(dict(base, eps_ladder=[0.5]))
    assert single.raw["eps_ladder"] == [0.5]


def test_eps_study_rung_cap(tmp_path, capsys):
    # 512^2 cells a rung: the rungs of one 2^24-cell run make 64
    cap = DEFAULT_MAX_CELLS // 512**2
    assert cap == 64

    def raw(rungs):
        return simulate_config(mode="eps-study",
                               grid={"cells": [512, 512], "extents": [1.0, 1.0]},
                               eps_ladder=[0.5 * (1.0 - k / rungs)
                                           for k in range(rungs)])
    validate_config(raw(cap))
    with pytest.raises(ConfigError) as err:
        validate_config(raw(cap + 1))
    assert err.value.path == "eps_ladder"
    out = tmp_path / "out"
    path = write_config(tmp_path, raw(cap + 1))
    assert main(["eps-study", "--config", path, "--out", str(out)]) == 2
    assert "config.eps_ladder:" in capsys.readouterr().err
    assert not out.exists()


def test_validate_refine_and_oracle_sections():
    refine = {
        "mode": "refine-study",
        "grid": {"cells": [8, 8], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2},
        "initial": {"u": {"kind": "constant", "value": 1.0},
                    "v": {"kind": "constant", "value": 1.0}},
    }
    with pytest.raises(ConfigError) as err:
        validate_config(refine)
    assert err.value.path == "refine.T"
    with pytest.raises(ConfigError) as err:
        validate_config(dict(refine, refine={"T": 0.1, "levels": 1}))
    assert err.value.path == "refine.levels"

    oracle = {"mode": "oracle",
              "grid": {"cells": [8, 8], "extents": [1.0, 1.0]},
              "model": {"chi": 2.0, "n": 2}}
    with pytest.raises(ConfigError) as err:
        validate_config(oracle)
    assert err.value.path == "oracle"


def test_out_dir_resolution(tmp_path, monkeypatch):
    raw = simulate_config()
    monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)
    assert str(validate_config(raw).out_dir) == "."
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "env"))
    assert validate_config(raw).out_dir == tmp_path / "env"
    raw_with_out = simulate_config(out=str(tmp_path / "cfg"))
    assert validate_config(raw_with_out).out_dir == tmp_path / "cfg"
    cfg = validate_config(raw_with_out, out_override=str(tmp_path / "cli"))
    assert cfg.out_dir == tmp_path / "cli"


def test_seed_resolution():
    raw = simulate_config(seed=7)
    assert validate_config(raw).seed == 7
    assert validate_config(raw, seed_override=11).seed == 11
    assert validate_config(simulate_config()).seed == 0


# main() entry ----------------------------------------------------------------------

def test_main_rejects_unreadable_configs(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["simulate", "--config", str(listy)]) == 2
    capsys.readouterr()
    assert not (tmp_path / "manifest.json").exists()


def test_main_rejects_mode_mismatch(tmp_path, capsys):
    path = write_config(tmp_path, simulate_config())
    code = main(["params", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "does not match" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_config_error_exit(tmp_path, capsys):
    path = write_config(tmp_path, simulate_config(run={"T": -2.0}))
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config.run.T" in capsys.readouterr().err


def test_params_mode_end_to_end(tmp_path, capsys):
    cfg = {
        "mode": "params",
        "model": {"chi": 0.5, "n": 2},
        "params_query": {"export_region": True, "p_count": 40},
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["params", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    result = manifest["params"]
    assert result["admissible"] is True
    assert result["infimum"] == 1.0
    assert abs(result["infimum_bruteforce"] - 1.0) <= 1e-3
    sel = result["selected"]
    assert 0.0 < sel["p"] < 1.0
    assert sel["q_minus"] < sel["q"] < sel["q_plus"]
    assert sel["c1"] > 0.0
    assert (out / "exponent_region.csv").exists()
    assert "exponent_region.csv" in manifest["outputs"]
    names = [e["name"] for e in manifest["assertions"]]
    assert "infimum_bruteforce_agreement" in names
    assert "selection_predicates" in names
    assert all(e["passed"] for e in manifest["assertions"])


def test_params_mode_inadmissible_is_not_an_error(tmp_path, capsys):
    cfg = {"mode": "params", "model": {"chi": 3.0, "n": 3}}
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["params", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    assert manifest["params"]["admissible"] is False
    assert "selected" not in manifest["params"]


def test_simulate_mode_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, simulate_config(run={
        "T": 0.05, "sample_count": 100, "save_fields": "final"}))
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    assert manifest["mode"] == "simulate"
    assert set(manifest["versions"]) == {"artifact", "numpy", "python"}
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert "record.csv" in manifest["outputs"]
    assert "steps.csv" in manifest["outputs"]
    assert "summary.json" in manifest["outputs"]
    field_files = [n for n in manifest["outputs"] if n.startswith("fields/")]
    assert len(field_files) == 2  # final u and v only
    assert manifest["summary"]["mass_drift_rel"] <= 1e-12
    names = [e["name"] for e in manifest["assertions"]]
    for expected in ("mass_conservation", "v_floor_comparison",
                     "trace_positivity", "u_lr_pointwise", "grad_vq",
                     "apriori_bounds", "log_mass"):
        assert expected in names
    assert all(e["passed"] for e in manifest["assertions"])


def test_simulate_zero_mass_conserves_it(tmp_path):
    # u = 0 keeps mass 0: its relative drift reads 0, never 0/0
    raw = simulate_config(initial={"u": {"kind": "constant", "value": 0.0},
                                   "v": {"kind": "constant", "value": 1.0}})
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    checks = {e["name"]: e for e in manifest["assertions"]}
    assert checks["mass_conservation"]["passed"]
    assert checks["mass_conservation"]["value"] == 0.0
    assert not checks["trace_positivity"]["passed"]


def test_simulate_save_fields_all_and_none(tmp_path, capsys):
    out_all = tmp_path / "all"
    path = write_config(tmp_path, simulate_config(run={
        "T": 0.02, "sample_count": 51, "save_fields": "all"}), "all.json")
    assert main(["simulate", "--config", path, "--out", str(out_all)]) == 0
    manifest = read_manifest(out_all)
    field_files = [n for n in manifest["outputs"] if n.startswith("fields/")]
    assert len(field_files) == 2 * 52

    out_none = tmp_path / "none"
    path = write_config(tmp_path, simulate_config(run={
        "T": 0.02, "sample_count": 51, "save_fields": "none"}), "none.json")
    assert main(["simulate", "--config", path, "--out", str(out_none)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out_none)
    assert not any(n.startswith("fields/") for n in manifest["outputs"])
    assert not (out_none / "fields").exists()


def test_entropy_check_mode(tmp_path, capsys):
    cfg = simulate_config(mode="entropy-check",
                          grid={"cells": [32, 32], "extents": [1.0, 1.0]},
                          run={"T": 0.2, "sample_count": 200})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["entropy-check", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    residuals = manifest["residuals"]
    assert {"identity_constant", "identity_cosine_rampdown",
            "identity_bump_bump", "v_weak"} <= set(residuals)
    assert sum(1 for k in residuals if k.startswith("supersolution_")) == 5
    assert (out / "residuals.json").exists()
    assert all(e["passed"] for e in manifest["assertions"])


def test_eps_study_mode(tmp_path, capsys):
    cfg = simulate_config(mode="eps-study", eps_ladder=[0.1, 0.05],
                          run={"T": 0.1, "sample_count": 100})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["eps-study", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    study = manifest["eps_study"]
    assert study["ladder"] == [0.1, 0.05]
    assert len(study["u_diffs"]) == 1
    assert study["u_diffs"][0] > 0.0
    assert set(study["monotone_flags"]) == {"v", "grad_vq", "entropy_density"}
    assert "min" in study["min_log_u_band"]
    lines = (out / "eps_study.csv").read_text().strip().splitlines()
    assert lines[0].startswith("eps_hi,eps_lo,")
    assert len(lines) == 2


def test_eps_study_one_rung(tmp_path, capsys):
    # a one-rung ladder has no pair: a header-only table and an empty check
    cfg = simulate_config(mode="eps-study", eps_ladder=[0.1],
                          run={"T": 0.01, "sample_count": 10})
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["eps-study", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    assert (out / "eps_study.csv").read_text() == \
        "eps_hi,eps_lo,u_l1,v_l1,grad_vq_l1,entropy_density_l1\n"
    (entry,) = [e for e in manifest["assertions"]
                if e["name"] == "eps_u_diffs_monotone"]
    assert entry["passed"] is True and entry["value"] == []
    assert [c["eps"] for c in manifest["counters"]] == [0.1]
    assert manifest["eps_study"]["u_diffs"] == []


def test_solver_manifests_count_steps_per_trajectory(tmp_path):
    cases = {
        "simulate": (simulate_config(), [{}]),
        "eps-study": (simulate_config(mode="eps-study", eps_ladder=[0.1, 0.05]),
                      [{"eps": 0.1}, {"eps": 0.05}]),
        "refine-study": (simulate_config(mode="refine-study",
                                         refine={"T": 0.01, "levels": 2}),
                         [{"level": 0}, {"level": 1}]),
    }
    for mode, (raw, labels) in cases.items():
        _, manifest = run_experiment(
            validate_config(raw, out_override=tmp_path / mode))
        counters = manifest["counters"]
        assert [{k: c[k] for k in label} for c, label in
                zip(counters, labels)] == labels, mode
        assert len(counters) == len(labels), mode
        for c in counters:
            assert c["steps"] == sum(c["set_by"].values()) > 0
            assert 0.0 < c["dt_min"] <= c["dt_max"]
            assert c["rejected"] == 0


def test_refine_study_constant_state_is_exact(tmp_path, capsys):
    c, eps = 0.7, 0.1
    cfg = {
        "mode": "refine-study",
        "grid": {"cells": [8, 8], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2, "eps": eps,
                  "p": 0.2, "q": 0.35, "r": 1.1},
        "initial": {"u": {"kind": "constant", "value": c},
                    "v": {"kind": "constant", "value": c / (1.0 + eps * c)}},
        "refine": {"T": 0.1, "levels": 2, "sample_count": 40},
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["refine-study", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    orders = manifest["refine"]["orders"]
    # a stationary state leaves nothing to refine on the time-constant phi
    assert orders["identity_constant"] == ["exact"]
    assert orders["final_u_l1_error"] == []
    rows = manifest["refine"]["rows"]
    assert [row["level"] for row in rows] == [0, 1]
    assert rows[0]["final_u_l1_error"] == 0.0
    lines = (out / "refine_study.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert all(e["passed"] for e in manifest["assertions"])


def test_oracle_mode(tmp_path, capsys):
    cfg = {
        "mode": "oracle",
        "grid": {"cells": [16, 16], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2},
        "seed": 3,
        "oracle": {"square_trials": 40, "ode_cases": 5,
                   "include_riesz": True,
                   "ensemble": {"count": 40}},
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, cfg)
    assert main(["oracle", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    reports = manifest["oracle"]
    assert reports["square_completion"]["worst_rel"] <= 1e-10
    assert reports["ode_comparison"]["all_passed"] is True
    assert reports["log_poincare"]["included"] + \
        reports["log_poincare"]["alternative"] + \
        reports["log_poincare"]["excluded"] == 40
    assert "riesz" in reports["mean_poincare"]
    assert len(reports["mean_poincare_delta_trend"]) == 3
    assert (out / "oracle_reports.json").exists()
    names = [e["name"] for e in manifest["assertions"]]
    assert "riesz_kernel_bound" in names
    assert all(e["passed"] for e in manifest["assertions"])


def test_oracle_draws_one_mean_ensemble(tmp_path, monkeypatch):
    # the mean-deviation report and its |B| trend share one ensemble
    ensemble = oracles._mean_ensemble
    calls = []  # each call's list of |B|

    def counted(*args, **kwargs):
        calls.append(args[3])
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(oracles, "_mean_ensemble", counted)
    raw = {"mode": "oracle", "grid": {"cells": [16, 16], "extents": [1.0, 1.0]},
           "model": {"chi": 2.0, "n": 2},
           "oracle": {"square_trials": 4, "ode_cases": 2,
                      "ensemble": {"count": 20}}}
    _, manifest = run_experiment(validate_config(raw, out_override=tmp_path))
    assert len(calls) == 1
    trend = manifest["oracle"]["mean_poincare_delta_trend"]
    assert [row["delta"] for row in trend] == calls[0][1:]


# failure wiring ---------------------------------------------------------------------

def test_failed_assertion_gives_exit_one(tmp_path, monkeypatch, capsys):
    def stub(cfg, outputs, asserts):
        asserts.add("always_fails", False, tolerance=0.5, value=1.0)
        return {}

    monkeypatch.setitem(cli._MODE_RUNNERS, "params", stub)
    path = write_config(tmp_path, {"mode": "params",
                                   "model": {"chi": 1.0, "n": 2}})
    code = main(["params", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "always_fails" in capsys.readouterr().err
    manifest = read_manifest(tmp_path / "o")
    assert manifest["assertions"][0]["passed"] is False


def test_study_abort_is_recorded(tmp_path, monkeypatch, capsys):
    def stub(cfg, outputs, asserts):
        raise StudyError("ladder failed", eps=0.05)

    monkeypatch.setitem(cli._MODE_RUNNERS, "params", stub)
    path = write_config(tmp_path, {"mode": "params",
                                   "model": {"chi": 1.0, "n": 2}})
    code = main(["params", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "aborted" in capsys.readouterr().err
    manifest = read_manifest(tmp_path / "o")
    assert manifest["aborted"]["eps"] == 0.05


def test_simulation_abort_is_recorded(tmp_path, monkeypatch, capsys):
    def stub(cfg, outputs, asserts):
        raise SimulationError("blow-up", time=0.3)

    monkeypatch.setitem(cli._MODE_RUNNERS, "params", stub)
    path = write_config(tmp_path, {"mode": "params",
                                   "model": {"chi": 1.0, "n": 2}})
    code = main(["params", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    capsys.readouterr()
    manifest = read_manifest(tmp_path / "o")
    assert manifest["aborted"]["time"] == 0.3
    assert "blow-up" in manifest["aborted"]["message"]


# helpers ----------------------------------------------------------------------------

def test_restrict_to_coarse():
    fine = np.arange(16, dtype=float).reshape(4, 4)
    coarse = _restrict_to_coarse(fine, 2)
    assert coarse.shape == (2, 2)
    assert coarse[0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4.0)


def test_observed_order_sentinels():
    assert _observed_order(1e-16, 1e-16) == "exact"
    assert _observed_order(1.0, 0.0) == "exact"
    assert _observed_order(4.0, 1.0) == pytest.approx(2.0)
    # only the finest pair is gated, and no pair passes
    assert _order_ok([], 1.5)
    assert _order_ok(["exact"], 1.5)
    assert not _order_ok([1.49], 1.5)
    assert _order_ok([0.2, "exact", 1.5], 1.5)
    assert not _order_ok([2.0, "exact", 1.49], 1.5)


# determinism ------------------------------------------------------------------------

def test_simulate_determinism(tmp_path, capsys):
    path = write_config(tmp_path, simulate_config())
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["simulate", "--config", path, "--out", str(out),
                     "--seed", "5"]) == 0
    capsys.readouterr()
    for name in ("record.csv", "steps.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    manifests = [read_manifest(o) for o in outs]
    for m in manifests:
        m.pop("wall_time_s")
    assert manifests[0] == manifests[1]


# streamed samples ---------------------------------------------------------------------

def _traced_peak(out, raw):
    cfg = validate_config(raw, out_override=out)
    tracemalloc.start()
    try:
        _, manifest = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "aborted" not in manifest
    return peak


def test_entropy_check_memory_does_not_grow_with_samples(tmp_path):
    def raw(samples):
        return simulate_config(mode="entropy-check",
                               grid={"cells": [32, 32], "extents": [1.0, 1.0]},
                               run={"T": 0.02, "sample_count": samples})
    run_experiment(validate_config(raw(100), out_override=tmp_path / "warm"))
    few = _traced_peak(tmp_path / "few", raw(100))
    many = _traced_peak(tmp_path / "many", raw(400))
    # storing the 300 extra samples of u and v would take 4.7 MiB
    assert many - few < 2**20


def test_eps_study_memory_does_not_grow_with_samples(tmp_path):
    def raw(samples):
        return simulate_config(mode="eps-study", eps_ladder=[0.1, 0.05],
                               grid={"cells": [32, 32], "extents": [1.0, 1.0]},
                               run={"T": 0.02, "sample_count": samples})
    run_experiment(validate_config(raw(100), out_override=tmp_path / "warm"))
    few = _traced_peak(tmp_path / "few", raw(100))
    many = _traced_peak(tmp_path / "many", raw(400))
    # storing the 300 extra samples of both rungs would take 9.4 MiB
    assert many - few < 2**20


def test_oracle_experiment_memory(tmp_path):
    # the bench's oracle-32 experiment; its ensembles go a block of members
    # at a time, and the Riesz probe holds at most 2**17 |Du| floats (1 MiB)
    # of a group of blocks (2.6 MiB peak, 2.1 MiB before the probe held any)
    raw = {"mode": "oracle", "seed": 11,
           "grid": {"cells": [32, 32], "extents": [1.0, 1.0]},
           "model": {"chi": 2.0, "n": 2},
           "oracle": {"square_trials": 1000, "ode_cases": 100,
                      "include_riesz": True, "ensemble": {"count": 200}}}
    run_experiment(validate_config(raw, out_override=tmp_path / "warm"))
    # 4.22 MiB when every member's field and gradient were held to the end
    assert _traced_peak(tmp_path / "run", raw) <= 5.22 * 2**20


PROGRESS_CASES = {
    "simulate": simulate_config(run={"T": 0.02, "sample_count": 20,
                                     "save_fields": "all"}),
    "entropy-check": simulate_config(mode="entropy-check",
                                     run={"T": 0.02, "sample_count": 50}),
    "eps-study": simulate_config(mode="eps-study", eps_ladder=[0.1, 0.05],
                                 run={"T": 0.02, "sample_count": 10}),
    "refine-study": simulate_config(mode="refine-study",
                                    refine={"T": 0.002, "levels": 2,
                                            "sample_count": 8}),
}


def _run_by_run(*runs):
    """The progress lines of runs made one after another: (label, intervals)."""
    return [f"{label}: sample {k}/{n}" for label, n in runs for k in range(n + 1)]


def _in_lockstep(n, *labels):
    """The progress lines of runs stepped together, interleaved by sample."""
    return [f"{label}: sample {k}/{n}" for k in range(n + 1) for label in labels]


# the progress lines of each mode, up to " t = "
PROGRESS_RUNS = {
    "simulate": _run_by_run(("simulate", 20)),
    "entropy-check": _run_by_run(("entropy-check", 50)),
    "eps-study": _in_lockstep(10, "eps-study eps=0.1", "eps-study eps=0.05"),
    "refine-study": _run_by_run(("refine-study level 0", 8),
                                ("refine-study level 1", 16)),
}


@pytest.mark.parametrize("mode", sorted(PROGRESS_CASES))
def test_progress_reports_samples_and_changes_no_output(tmp_path, capsys, mode):
    path = write_config(tmp_path, PROGRESS_CASES[mode])
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    code = main([mode, "--config", path, "--out", str(quiet)])
    assert ": sample " not in capsys.readouterr().err
    assert main([mode, "--config", path, "--out", str(loud), "--progress"]) == code
    lines = [line for line in capsys.readouterr().err.splitlines()
             if ": sample " in line]
    assert [line.split(" t = ")[0] for line in lines] == PROGRESS_RUNS[mode]
    assert lines[0].endswith(" t = 0")

    names = sorted(p.relative_to(quiet) for p in quiet.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(loud) for p in loud.rglob("*")
                           if p.is_file())
    for name in names:
        if name.name != "manifest.json":
            assert (quiet / name).read_bytes() == (loud / name).read_bytes(), name
    manifests = [read_manifest(out) for out in (quiet, loud)]
    for manifest in manifests:
        manifest.pop("wall_time_s")
    assert manifests[0] == manifests[1]

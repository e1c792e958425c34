"""Experiment orchestration: config parsing, studies, manifests.

Modes:

* simulate      - one trajectory with full diagnostics and bound checks
* params        - exponent algebra queries (admissibility, infimum, selection)
* entropy-check - weak-form residuals against the built-in test functions
* eps-study     - regularization ladder with pairwise Cauchy differences
* refine-study  - (h, h/2, h/4) refinement with observed convergence orders
* oracle        - standalone analytic verifiers and Monte-Carlo constants

Configs are JSON; validation reports dotted field paths before any compute.
Every mode writes a manifest JSON holding the config echo, library versions,
seeds, wall time, and one entry per evaluated assertion; the process exit
status is nonzero exactly when an assertion failed.  All outputs except the
manifest's wall-time entry are bit-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    BumpSpatial,
    BumpTemporal,
    ConstantSpatial,
    CosineSpatial,
    OneTemporal,
    RampDownTemporal,
    TestFunction,
    apriori_bounds_check,
    builtin_supersolution_family,
    collect,
    entropy_balances,
    entropy_identity_residual,
    grad_vq_bound,
    log_mass_check,
    trace_positivity_check,
    u_lr_bound,
    v_weak_residual,
)
from .grid import Field, Grid, GridError, face_grad_values, write_field_binary
from .oracles import (
    EnsembleSpec,
    OdeComparison,
    check_power_identities,
    check_square_completion,
    log_poincare_ratio,
    mean_poincare_delta_trend,
    mean_poincare_ratio,
    synth_positive_field,
    verify_ode_comparison_batch,
)
from .params import (
    ModelParams,
    chi_admissible,
    entropy_coefficients,
    exponent_infimum,
    exponent_infimum_bruteforce,
    export_exponent_region,
    q_bounds,
    select_exponents,
)
from .simulator import (DEFAULT_SAFETY, DEFAULT_SAMPLE_COUNT, DEFAULT_V_FLOOR,
                        SimulationError, initial_state, run)

OUT_ENV_VAR = "LOGSENSE_KS_OUT"
MODES = ("simulate", "params", "entropy-check", "eps-study", "refine-study",
         "oracle")


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted field path."""

    def __init__(self, path, message):
        super().__init__(f"config.{path}: {message}")
        self.path = path


class StudyError(RuntimeError):
    """A study aborted mid-way; carries the failing ladder value."""

    def __init__(self, message, eps=None):
        super().__init__(message)
        self.eps = eps


# ---------------------------------------------------------------------------
# config access helpers
# ---------------------------------------------------------------------------

def _get(cfg, path, default=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _require(cfg, path, kind):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(path, "required field is missing")
        node = node[part]
    return _typed(node, path, kind)


def _typed(value, path, kind):
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(path, f"expected a boolean, got {value!r}")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        return value
    if kind == "list":
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return value
    if kind == "dict":
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected an object, got {value!r}")
        return value
    raise AssertionError(kind)


@dataclass
class ExperimentConfig:
    mode: str
    raw: dict
    out_dir: Path
    seed: int


def validate_config(raw, out_override=None, seed_override=None):
    """Validation, including building the grid and the model parameters a
    mode needs, before any compute; raises ConfigError with a field path."""
    mode = _require(raw, "mode", "str")
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {', '.join(MODES)}")

    needs_grid = mode != "params"
    if needs_grid:
        cells = _require(raw, "grid.cells", "list")
        extents = _require(raw, "grid.extents", "list")
        if len(cells) != len(extents):
            raise ConfigError("grid.extents",
                              "must have one extent per cell axis")
        for i, c in enumerate(cells):
            _typed(c, f"grid.cells[{i}]", "int")
        for i, e in enumerate(extents):
            _typed(e, f"grid.extents[{i}]", "number")
        try:
            _build_grid(raw)
        except GridError as exc:
            raise ConfigError("grid", str(exc)) from exc

    _require(raw, "model.chi", "number")
    _require(raw, "model.n", "int")
    eps = _get(raw, "model.eps")
    if eps is not None and not 0.0 <= _typed(eps, "model.eps", "number") < 1.0:
        raise ConfigError("model.eps", "must lie in [0, 1)")

    if mode in ("simulate", "entropy-check", "eps-study", "refine-study"):
        _build_params(raw)
        for name in ("u", "v"):
            spec = _require(raw, f"initial.{name}", "dict")
            kind = _typed(spec.get("kind"), f"initial.{name}.kind", "str")
            if kind not in ("constant", "gaussian", "cosine"):
                raise ConfigError(f"initial.{name}.kind",
                                  f"unknown initial data kind {kind!r}")
    if mode in ("simulate", "entropy-check", "eps-study"):
        T = _require(raw, "run.T", "number")
        if T < 0.0:
            raise ConfigError("run.T", "must be nonnegative")
    if _get(raw, "run.upwind") is not None:
        raise ConfigError("run.upwind",
                          "removed: the chemotactic flux is always upwind")
    if mode == "simulate":
        save = _get(raw, "run.save_fields", "final")
        if save not in ("none", "final", "all"):
            raise ConfigError("run.save_fields", "must be none, final, or all")
    if mode == "eps-study":
        ladder = _require(raw, "eps_ladder", "list")
        if not ladder:
            raise ConfigError("eps_ladder", "must not be empty")
        for i, e in enumerate(ladder):
            ei = _typed(e, f"eps_ladder[{i}]", "number")
            if ei < 0.0 or ei >= 1.0:
                raise ConfigError(f"eps_ladder[{i}]", "must lie in [0, 1)")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("eps_ladder", "must be strictly decreasing")
    if mode == "refine-study":
        T = _require(raw, "refine.T", "number")
        if T <= 0.0:
            raise ConfigError("refine.T", "must be positive")
        levels = int(_get(raw, "refine.levels", 3))
        if levels < 2:
            raise ConfigError("refine.levels", "need at least 2 levels")
    if mode == "oracle":
        _require(raw, "oracle", "dict")

    out_dir = out_override or _get(raw, "out") or os.environ.get(OUT_ENV_VAR) or "."
    seed = seed_override if seed_override is not None else int(_get(raw, "seed", 0))
    return ExperimentConfig(mode=mode, raw=raw, out_dir=Path(out_dir),
                            seed=seed)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------

def _build_grid(raw):
    return Grid(cells=_get(raw, "grid.cells"), extents=_get(raw, "grid.extents"))


def _build_params(raw, eps=None):
    chi = _get(raw, "model.chi")
    n = _get(raw, "model.n")
    p = _get(raw, "model.p")
    q = _get(raw, "model.q")
    r = _get(raw, "model.r")
    try:
        if p is None or q is None or r is None:
            margin = _get(raw, "model.margin", 0.05)
            sel_p, sel_q, sel_r = select_exponents(chi, n, margin=margin)
            p = sel_p if p is None else p
            q = sel_q if q is None else q
            r = sel_r if r is None else r
        return ModelParams(
            chi=chi, n=n,
            eps=_get(raw, "model.eps", 0.0) if eps is None else eps,
            p=p, q=q, r=r, s=_get(raw, "model.s", 1.0),
        )
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc


def _build_state(raw, grid, params):
    return initial_state(
        grid, params,
        u_spec=_get(raw, "initial.u"),
        v_spec=_get(raw, "initial.v"),
        v_min_floor=_get(raw, "initial.v_floor", 1e-6),
    )


def _sample_times(raw, T):
    count = int(_get(raw, "run.sample_count", DEFAULT_SAMPLE_COUNT))
    if count < 1:
        raise ConfigError("run.sample_count", "must be at least 1")
    return np.linspace(0.0, T, count + 1) if T > 0 else [0.0]


def _run_trajectory(raw, grid, params, T=None, sample_times=None, max_dt=None):
    state = _build_state(raw, grid, params)
    T = _get(raw, "run.T") if T is None else T
    if sample_times is None:
        sample_times = _sample_times(raw, T)
    return run(
        state, T,
        sample_times=sample_times,
        safety=_get(raw, "run.safety", DEFAULT_SAFETY),
        max_dt=max_dt if max_dt is not None else _get(raw, "run.max_dt"),
        v_floor=_get(raw, "run.v_floor", DEFAULT_V_FLOOR),
    )


class Assertions:
    """Accumulates named pass/fail entries for the manifest."""

    def __init__(self):
        self.entries = []

    def add(self, name, passed, tolerance=None, value=None):
        entry = {"name": name, "passed": bool(passed)}
        if tolerance is not None:
            entry["tolerance"] = float(tolerance)
        if value is not None:
            entry["value"] = value
        self.entries.append(entry)
        return bool(passed)

    def add_report(self, report):
        return self.add(report.name, report.passed, report.tolerance,
                        {"lhs": report.lhs, "rhs": report.rhs})

    @property
    def all_passed(self):
        return all(e["passed"] for e in self.entries)


def _float_list(values):
    return [float(x) for x in values]


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


# ---------------------------------------------------------------------------
# mode: params
# ---------------------------------------------------------------------------

def _mode_params(cfg, outputs, asserts):
    raw = cfg.raw
    chi = _get(raw, "model.chi")
    n = _get(raw, "model.n")
    margin = _get(raw, "model.margin", 0.05)
    admissible = chi_admissible(chi, n)
    result = {"chi": chi, "n": n, "admissible": admissible}

    infimum = exponent_infimum(chi)
    brute = exponent_infimum_bruteforce(chi, grid_size=10**6)
    result["infimum"] = infimum
    result["infimum_bruteforce"] = brute
    asserts.add("infimum_bruteforce_agreement",
                -1e-6 <= brute - infimum <= 1e-3,
                tolerance=1e-3, value={"closed": infimum, "brute": brute})

    if admissible:
        p, q, r = select_exponents(chi, n, margin=margin)
        qm, qp = q_bounds(p, chi)
        coef = entropy_coefficients(p, q, chi)
        result["selected"] = {"p": p, "q": q, "r": r,
                              "q_minus": qm, "q_plus": qp,
                              "c1": coef.c1, "c2": coef.c2,
                              "kappa": coef.kappa}
        model = ModelParams(chi=chi, n=n, p=p, q=q, r=r)
        asserts.add("selection_predicates",
                    model.entropy_exponents_ok() and coef.c1 > 0.0
                    and r > 1.0 and p + 1.0 - r > 0.0,
                    value=result["selected"])

    if _get(raw, "params_query.export_region", False):
        path = cfg.out_dir / "exponent_region.csv"
        export_exponent_region(chi, n, path,
                               p_count=int(_get(raw, "params_query.p_count", 200)))
        outputs.append(path.name)
    return {"params": result}


# ---------------------------------------------------------------------------
# mode: simulate
# ---------------------------------------------------------------------------

def _standard_checks(record, trajectory, params, asserts, disc=None):
    """Bound checks every simulate-style run evaluates."""
    grid = trajectory.grid
    mass = record.mass
    drift = float(np.abs(mass - mass[0]).max() / abs(mass[0]))
    asserts.add("mass_conservation", drift <= 1e-12, tolerance=1e-12,
                value=drift)

    h_sq = max(grid.h) ** 2
    floor_curve = record.v_min[0] * np.exp(-record.times) - 10.0 * h_sq
    worst = float((record.v_min - floor_curve).min())
    asserts.add("v_floor_comparison", worst >= 0.0, tolerance=10.0 * h_sq,
                value=worst)

    asserts.add_report(trace_positivity_check(record))
    asserts.add_report(u_lr_bound(record, trajectory, params))
    asserts.add_report(grad_vq_bound(record, params))
    if params.entropy_exponents_ok():
        # the bound rearranges the phi == 1 balance, so that residual is the
        # measured discretization allowance; the sampling guard is moot here
        # because the residual is evaluated at whatever sampling the run used;
        # a caller that has already assembled it passes it as `disc`
        if disc is None:
            phi_one = TestFunction(ConstantSpatial(1.0), OneTemporal())
            disc = entropy_identity_residual(
                record, trajectory, params, phi_one,
                max_sample_dt=float(np.diff(trajectory.times).max()))
        asserts.add_report(apriori_bounds_check(record, params, rel_tol=1e-6,
                                                disc_estimate=disc))
    if not np.isnan(record.log_u).any():
        asserts.add_report(log_mass_check(record, trajectory, params))
    return drift


def _mode_simulate(cfg, outputs, asserts):
    raw = cfg.raw
    grid = _build_grid(raw)
    params = _build_params(raw)
    trajectory = _run_trajectory(raw, grid, params)
    record = collect(trajectory, params)

    record_path = cfg.out_dir / "record.csv"
    record.to_csv(record_path)
    outputs.append(record_path.name)
    steps_path = cfg.out_dir / "steps.csv"
    trajectory.write_step_reports_csv(steps_path)
    outputs.append(steps_path.name)

    save = _get(raw, "run.save_fields", "final")  # validated up front
    if save != "none":
        fields_dir = cfg.out_dir / "fields"
        fields_dir.mkdir(exist_ok=True)
        indices = (range(len(trajectory.times)) if save == "all"
                   else [len(trajectory.times) - 1])
        for k in indices:
            for name, snap in (("u", trajectory.u_snapshots[k]),
                               ("v", trajectory.v_snapshots[k])):
                path = fields_dir / f"{name}_{k:04d}.bin"
                write_field_binary(Field(grid, snap), path)
                outputs.append(f"fields/{path.name}")

    _standard_checks(record, trajectory, params, asserts)
    summary_path = cfg.out_dir / "summary.json"
    _dump_json({"record": record.summary(), "checks": asserts.entries},
               summary_path)
    outputs.append(summary_path.name)
    return {"summary": record.summary()}


# ---------------------------------------------------------------------------
# mode: entropy-check
# ---------------------------------------------------------------------------

def _residual_test_functions(grid, T):
    """phi = 1 plus two nontrivial space-time shapes for the identity."""
    k1 = tuple([1] + [0] * (grid.dim - 1))
    center = [0.5 * L for L in grid.extents]
    width = [0.4 * L for L in grid.extents]
    return [
        ("constant", TestFunction(ConstantSpatial(1.0), OneTemporal())),
        ("cosine_rampdown",
         TestFunction(CosineSpatial(k1, amplitude=0.5, offset=1.0),
                      RampDownTemporal(0.9 * T))),
        ("bump_bump",
         TestFunction(BumpSpatial(center, width),
                      BumpTemporal(0.05 * T, 0.85 * T))),
    ]


def _mode_entropy_check(cfg, outputs, asserts):
    raw = cfg.raw
    grid = _build_grid(raw)
    params = _build_params(raw)
    trajectory = _run_trajectory(raw, grid, params)
    record = collect(trajectory, params)
    T = trajectory.final_time
    tol_rel = _get(raw, "checks.identity_tol_rel", 0.02)

    named = _residual_test_functions(grid, T)
    family = builtin_supersolution_family(grid, T)
    for phi in family:
        phi.check_one_sided(grid, T)
    balances = entropy_balances(trajectory, params,
                                [phi for _, phi in named] + family)

    residuals = {}
    for (name, _), balance in zip(named, balances):
        resid, info = balance.identity()
        residuals[f"identity_{name}"] = resid
        asserts.add(f"entropy_identity_{name}",
                    resid <= tol_rel * info["scale"],
                    tolerance=tol_rel, value={"residual": resid,
                                              "scale": info["scale"]})

    for i, balance in enumerate(balances[len(named):]):
        signed = balance.supersolution()
        ident, info = balance.identity()
        tol = 1e-6 * info["scale"] + ident
        residuals[f"supersolution_{i}"] = signed
        asserts.add(f"supersolution_direction_{i}", signed >= -tol,
                    tolerance=tol, value=signed)

    phi_v = TestFunction(
        CosineSpatial(tuple([1] * grid.dim), amplitude=0.5, offset=1.0),
        RampDownTemporal(0.9 * T))
    vres = v_weak_residual(trajectory, phi_v)
    v_scale = max(float(np.abs(record.v_lq).max()), 1.0)
    residuals["v_weak"] = vres
    asserts.add("v_weak_residual", vres <= tol_rel * v_scale,
                tolerance=tol_rel, value=vres)

    _standard_checks(record, trajectory, params, asserts,
                     disc=residuals["identity_constant"])
    path = cfg.out_dir / "residuals.json"
    _dump_json(residuals, path)
    outputs.append(path.name)
    return {"residuals": residuals}


# ---------------------------------------------------------------------------
# mode: eps-study
# ---------------------------------------------------------------------------

@dataclass
class EpsStudyResult:
    ladder: list
    u_diffs: list = dc_field(default_factory=list)
    v_diffs: list = dc_field(default_factory=list)
    grad_vq_diffs: list = dc_field(default_factory=list)
    entropy_density_diffs: list = dc_field(default_factory=list)
    summaries: list = dc_field(default_factory=list)

    def monotone_within(self, seq, slack=1.2):
        return all(b <= slack * a for a, b in zip(seq, seq[1:]))


def _pairwise_l1(traj_a, traj_b, params):
    """L1(domain x (0,T)) differences of u, v, grad v^{q/2}, u^p v^q."""
    grid = traj_a.grid
    times = np.asarray(traj_a.times)
    if len(traj_a.times) != len(traj_b.times) or not np.allclose(
            traj_a.times, traj_b.times, rtol=0.0, atol=1e-12):
        raise StudyError("ladder trajectories have mismatched sample times")
    vol = grid.cell_volume
    p, q = params.p, params.q
    series = {"u": [], "v": [], "grad_vq": [], "upq": []}
    for k in range(len(times)):
        ua, va = traj_a.u_snapshots[k], traj_a.v_snapshots[k]
        ub, vb = traj_b.u_snapshots[k], traj_b.v_snapshots[k]
        series["u"].append(np.abs(ua - ub).sum() * vol)
        series["v"].append(np.abs(va - vb).sum() * vol)
        g = 0.0
        for ax in range(grid.dim):
            ga = face_grad_values(va ** (q / 2.0), grid.h, ax)
            gb = face_grad_values(vb ** (q / 2.0), grid.h, ax)
            g += float(np.abs(ga - gb).sum()) * vol
        series["grad_vq"].append(g)
        series["upq"].append(
            float(np.abs(ua**p * va**q - ub**p * vb**q).sum()) * vol)
    return {key: float(np.trapezoid(vals, times)) for key, vals in series.items()}


def eps_convergence_study(raw):
    """Run the ladder and assemble pairwise Cauchy differences.

    The u-difference monotonicity (within 1.2x slack) is the hard assertion;
    the v, gradient, and entropy-density sequences are reported with flags
    only, since the underlying compactness argument guarantees subsequential
    convergence rather than monotonicity.
    """
    grid = _build_grid(raw)
    ladder = [float(e) for e in _get(raw, "eps_ladder")]
    T = _get(raw, "run.T")
    sample_times = _sample_times(raw, T)

    results = []
    for eps in ladder:
        params = _build_params(raw, eps=eps)
        try:
            trajectory = _run_trajectory(raw, grid, params, T=T,
                                         sample_times=sample_times)
        except SimulationError as exc:
            raise StudyError(f"ladder run failed at eps={eps}: {exc}",
                             eps=eps) from exc
        results.append((trajectory, collect(trajectory, params)))

    study = EpsStudyResult(ladder=ladder)
    params = _build_params(raw, eps=0.0)
    for k in range(len(ladder) - 1):
        diffs = _pairwise_l1(results[k][0], results[k + 1][0], params)
        study.u_diffs.append(diffs["u"])
        study.v_diffs.append(diffs["v"])
        study.grad_vq_diffs.append(diffs["grad_vq"])
        study.entropy_density_diffs.append(diffs["upq"])
    study.summaries = [rec.summary() for _, rec in results]
    return study, results


def _mode_eps_study(cfg, outputs, asserts):
    study, results = eps_convergence_study(cfg.raw)

    csv_path = cfg.out_dir / "eps_study.csv"
    with open(csv_path, "w") as fh:
        fh.write("eps_hi,eps_lo,u_l1,v_l1,grad_vq_l1,entropy_density_l1\n")
        for k in range(len(study.u_diffs)):
            fh.write(",".join([
                format(study.ladder[k], ".17g"),
                format(study.ladder[k + 1], ".17g"),
                format(study.u_diffs[k], ".17g"),
                format(study.v_diffs[k], ".17g"),
                format(study.grad_vq_diffs[k], ".17g"),
                format(study.entropy_density_diffs[k], ".17g"),
            ]) + "\n")
    outputs.append(csv_path.name)

    asserts.add("eps_u_diffs_monotone",
                study.monotone_within(study.u_diffs),
                tolerance=1.2, value=_float_list(study.u_diffs))
    flags = {
        "v": study.monotone_within(study.v_diffs),
        "grad_vq": study.monotone_within(study.grad_vq_diffs),
        "entropy_density": study.monotone_within(study.entropy_density_diffs),
    }

    band = _log_mass_band(results)
    return {
        "eps_study": {
            "ladder": study.ladder,
            "u_diffs": _float_list(study.u_diffs),
            "v_diffs": _float_list(study.v_diffs),
            "grad_vq_diffs": _float_list(study.grad_vq_diffs),
            "entropy_density_diffs": _float_list(study.entropy_density_diffs),
            "monotone_flags": flags,
            "min_log_u_band": band,
            "summaries": study.summaries,
        }
    }


def _log_mass_band(results):
    values = []
    for _, rec in results:
        if not np.isnan(rec.log_u).any():
            values.append(float(rec.log_u.min()))
    if not values:
        return {}
    return {"min": min(values), "max": max(values)}


# ---------------------------------------------------------------------------
# mode: refine-study
# ---------------------------------------------------------------------------

def _restrict_to_coarse(values, factor):
    """Block-average a fine cell array onto a coarser grid (factor per axis)."""
    shape = values.shape
    if any(n % factor for n in shape):
        raise StudyError(
            f"grid shape {shape} is not a {factor}x refinement of the target")
    out = values
    for ax in range(values.ndim):
        n = out.shape[ax]
        new_shape = out.shape[:ax] + (n // factor, factor) + out.shape[ax + 1:]
        out = out.reshape(new_shape).mean(axis=ax + 1)
    return out


def _observed_order(coarse, fine, tiny=1e-13):
    if coarse <= tiny and fine <= tiny:
        return "exact"
    if fine <= 0.0:
        return "exact"
    return float(np.log2(coarse / fine))


def refine_study(raw):
    """Run (h, h/2, h/4), compute errors and observed convergence orders."""
    base_cells = [int(c) for c in _get(raw, "grid.cells")]
    extents = [float(e) for e in _get(raw, "grid.extents")]
    levels = int(_get(raw, "refine.levels", 3))
    T = _get(raw, "refine.T")
    dt_factor = _get(raw, "refine.dt_factor", 1.0 / 16.0)
    base_samples = int(_get(raw, "refine.sample_count", 40))
    power_r = _get(raw, "refine.power_r", 1.6)

    rows = []
    trajectories = []
    for level in range(levels):
        factor = 2**level
        grid = Grid(cells=[c * factor for c in base_cells], extents=extents)
        params = _build_params(raw)
        h_min = min(grid.h)
        sample_times = np.linspace(0.0, T, base_samples * factor + 1)
        trajectory = _run_trajectory(raw, grid, params, T=T,
                                     sample_times=sample_times,
                                     max_dt=dt_factor * h_min**2)
        named = _residual_test_functions(grid, T)
        # the configured sample count overrides the default T/50 spacing rule
        balances = entropy_balances(trajectory, params,
                                    [phi for _, phi in named],
                                    max_sample_dt=float(T) / base_samples)
        resids = {name: balance.identity()[0]
                  for (name, _), balance in zip(named, balances)}
        v_final = Field(grid, trajectory.v_snapshots[-1],
                        strictly_positive=True)
        p_half, p_full = check_power_identities(v_final, power_r)
        rows.append({
            "level": level,
            "h_min": h_min,
            "identity_constant": resids["constant"],
            "identity_cosine": resids["cosine_rampdown"],
            "identity_bump": resids["bump_bump"],
            "power_half": p_half,
            "power_full": p_full,
        })
        trajectories.append((grid, trajectory))

    fine_grid, fine_traj = trajectories[-1]
    vol_ratio = fine_grid.cell_volume
    for level in range(levels - 1):
        grid, trajectory = trajectories[level]
        factor = 2 ** (levels - 1 - level)
        restricted_u = _restrict_to_coarse(fine_traj.u_snapshots[-1], factor)
        diff = np.abs(trajectory.u_snapshots[-1] - restricted_u)
        rows[level]["final_u_l1_error"] = float(diff.sum()) * grid.cell_volume
    rows[-1]["final_u_l1_error"] = 0.0

    orders = {}
    for key in ("identity_constant", "identity_cosine", "identity_bump",
                "power_half", "power_full"):
        seq = [row[key] for row in rows]
        orders[key] = [_observed_order(a, b) for a, b in zip(seq, seq[1:])]
    err_seq = [rows[k]["final_u_l1_error"] for k in range(levels - 1)]
    orders["final_u_l1_error"] = [
        _observed_order(a, b) for a, b in zip(err_seq, err_seq[1:])]
    return rows, orders


def _final_order(order_list):
    """Order of the finest pair; coarser pairs are often pre-asymptotic."""
    if not order_list:
        return "exact"
    return order_list[-1]


def _mode_refine_study(cfg, outputs, asserts):
    rows, orders = refine_study(cfg.raw)

    csv_path = cfg.out_dir / "refine_study.csv"
    keys = ["level", "h_min", "final_u_l1_error", "identity_constant",
            "identity_cosine", "identity_bump", "power_half", "power_full"]
    with open(csv_path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(
                format(row[k], ".17g") if isinstance(row[k], float)
                else str(row[k]) for k in keys) + "\n")
    outputs.append(csv_path.name)

    for key in ("identity_constant", "identity_cosine", "identity_bump"):
        last = _final_order(orders[key])
        asserts.add(f"order_{key}",
                    last == "exact" or last >= 1.5,
                    tolerance=1.5, value=orders[key])
    u_order = _final_order(orders["final_u_l1_error"])
    asserts.add("order_final_u_l1",
                u_order == "exact" or u_order >= 1.5,
                tolerance=1.5, value=orders["final_u_l1_error"])
    return {"refine": {"rows": rows, "orders": orders}}


# ---------------------------------------------------------------------------
# mode: oracle
# ---------------------------------------------------------------------------

def _ensemble_from_config(raw, seed):
    section = _get(raw, "oracle.ensemble", {}) or {}
    amplitude = section.get("amplitude", [0.2, 1.0])
    return EnsembleSpec(
        count=int(section.get("count", 200)),
        seed=int(section.get("seed", seed)),
        cutoff=int(section.get("cutoff", 4)),
        amplitude=(float(amplitude[0]), float(amplitude[1])),
        floor=float(section.get("floor", 0.05)),
        delta=float(section.get("delta", 0.5)),
        eta=float(section.get("eta", 0.05)),
        b_selector=section.get("b_selector", "threshold"),
    )


def _mode_oracle(cfg, outputs, asserts):
    raw = cfg.raw
    grid = _build_grid(raw)
    rng = np.random.default_rng(cfg.seed)
    reports = {}

    # square completion on random positive fields and exponents
    trials = int(_get(raw, "oracle.square_trials", 1000))
    spec = _ensemble_from_config(raw, cfg.seed)
    worst_rel = 0.0
    for i in range(trials):
        member = np.random.default_rng([cfg.seed, 7, i])
        u = Field(grid, _synth(grid, member, spec), strictly_positive=True)
        v = Field(grid, _synth(grid, member, spec), strictly_positive=True)
        chi = float(member.uniform(0.3, 3.0))
        p = float(member.uniform(0.05, 0.95)) * min(1.0, 1.0 / chi**2)
        qm, qp = q_bounds(p, chi)
        q = float(member.uniform(qm + 1e-6, qp - 1e-6)) if qp - qm > 2e-6 \
            else 0.5 * (qm + qp)
        rep = check_square_completion(u, v, p, q, chi)
        if rep.scale > 0:
            worst_rel = max(worst_rel, float(rep.residual / rep.scale))
    reports["square_completion"] = {"trials": trials, "worst_rel": worst_rel}
    asserts.add("square_completion_roundoff", worst_rel <= 1e-10,
                tolerance=1e-10, value=worst_rel)

    # power identities at three resolutions of a fixed smooth field
    r_power = _get(raw, "oracle.power_r", 1.6)
    shape = CosineSpatial(tuple([1] * grid.dim), amplitude=0.5, offset=1.5)
    res = []
    for factor in (1, 2, 4):
        fine = Grid(cells=[c * factor for c in grid.cells],
                    extents=list(grid.extents))
        w = Field(fine, shape.values(fine), strictly_positive=True)
        res.append(check_power_identities(w, r_power))
    orders_half = [_observed_order(a[0], b[0]) for a, b in zip(res, res[1:])]
    orders_full = [_observed_order(a[1], b[1]) for a, b in zip(res, res[1:])]
    reports["power_identities"] = {
        "residuals": [list(pair) for pair in res],
        "orders_half": orders_half, "orders_full": orders_full,
    }
    oh, of = _final_order(orders_half), _final_order(orders_full)
    asserts.add("power_identity_order",
                (oh == "exact" or oh >= 1.9) and (of == "exact" or of >= 1.9),
                tolerance=1.9, value=reports["power_identities"])

    # Riccati comparison on random parameter boxes
    cases = int(_get(raw, "oracle.ode_cases", 100))
    specs = [OdeComparison(a=float(rng.uniform(0.1, 10.0)),
                           b=float(rng.uniform(0.1, 10.0)),
                           y0=float(rng.uniform(0.1, 10.0)), T=1.0)
             for _ in range(cases)]
    ode_reports = verify_ode_comparison_batch(specs)
    worst_excess = max(float(r.max_excess) for r in ode_reports)
    reports["ode_comparison"] = {
        "cases": cases, "worst_excess": worst_excess,
        "all_passed": all(r.passed for r in ode_reports),
    }
    asserts.add("ode_comparison_bound", all(r.passed for r in ode_reports),
                tolerance=1e-6, value=worst_excess)

    # Poincare-type ensembles (empirical constants, reported)
    log_report = log_poincare_ratio(spec, grid)
    reports["log_poincare"] = log_report.as_dict()
    asserts.add("log_poincare_finite",
                log_report.degenerate or np.isfinite(log_report.max_ratio),
                value=reports["log_poincare"])

    p_norm = _get(raw, "oracle.p_norm", 2.0)
    mean_report = mean_poincare_ratio(
        spec, grid, p_norm,
        include_riesz=_get(raw, "oracle.include_riesz", False))
    reports["mean_poincare"] = mean_report.as_dict()
    reports["mean_poincare_delta_trend"] = mean_poincare_delta_trend(
        spec, grid, p_norm)
    asserts.add("mean_poincare_finite", np.isfinite(mean_report.max_ratio),
                value=mean_report.max_ratio)
    if mean_report.riesz:
        asserts.add("riesz_kernel_bound", mean_report.riesz["passed"],
                    tolerance=mean_report.riesz["headroom"],
                    value=mean_report.riesz)

    path = cfg.out_dir / "oracle_reports.json"
    _dump_json(reports, path)
    outputs.append(path.name)
    return {"oracle": reports}


def _synth(grid, rng, spec):
    return synth_positive_field(grid, rng, spec.cutoff, spec.amplitude,
                                spec.floor)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_MODE_RUNNERS = {
    "params": _mode_params,
    "simulate": _mode_simulate,
    "entropy-check": _mode_entropy_check,
    "eps-study": _mode_eps_study,
    "refine-study": _mode_refine_study,
    "oracle": _mode_oracle,
}


def run_experiment(cfg):
    """Execute a validated config; returns (exit_code, manifest dict)."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    asserts = Assertions()
    started = time.monotonic()
    manifest = {
        "mode": cfg.mode,
        "config": cfg.raw,
        "seed": cfg.seed,
        "versions": {
            "artifact": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    aborted = None
    try:
        extra = _MODE_RUNNERS[cfg.mode](cfg, outputs, asserts)
        manifest.update(extra)
    except StudyError as exc:
        aborted = {"message": str(exc)}
        if exc.eps is not None:
            aborted["eps"] = exc.eps
    except SimulationError as exc:
        aborted = {"message": str(exc), "time": exc.time}

    manifest["assertions"] = asserts.entries
    manifest["outputs"] = outputs
    if aborted:
        manifest["aborted"] = aborted
    manifest["wall_time_s"] = time.monotonic() - started
    _dump_json(manifest, cfg.out_dir / "manifest.json")

    failed = aborted is not None or not asserts.all_passed
    return (1 if failed else 0), manifest


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="logsense-ks",
        description="Numerical laboratory for a regularized logarithmic-"
                    "sensitivity chemotaxis system.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True,
                        help="path to the JSON experiment configuration")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: config value, then "
                             f"${OUT_ENV_VAR}, then the working directory)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(raw, dict):
        print("config root must be a JSON object", file=sys.stderr)
        return 2
    raw["mode"] = raw.get("mode", args.mode)
    if raw["mode"] != args.mode:
        print(f"config mode {raw['mode']!r} does not match the requested "
              f"mode {args.mode!r}", file=sys.stderr)
        return 2

    try:
        cfg = validate_config(raw, out_override=args.out,
                              seed_override=args.seed)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    code, manifest = run_experiment(cfg)
    failed = [e["name"] for e in manifest["assertions"] if not e["passed"]]
    if failed:
        print("failed assertions: " + ", ".join(failed), file=sys.stderr)
    if "aborted" in manifest:
        print("aborted: " + manifest["aborted"]["message"], file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

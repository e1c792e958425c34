"""Experiment orchestration: config parsing, studies, manifests.

Modes:

* simulate      - one trajectory with full diagnostics and bound checks
* params        - exponent algebra queries (admissibility, infimum, selection)
* entropy-check - weak-form residuals against the built-in test functions
* eps-study     - regularization ladder with pairwise Cauchy differences,
                  its rungs stepped in lockstep
* refine-study  - (h, h/2, h/4) refinement with observed convergence orders
* oracle        - standalone analytic verifiers and Monte-Carlo constants

Configs are JSON, checked against one table of keys (CONFIG_KEYS); validation
reports dotted field paths before any compute.  No mode stores its samples:
each hands them to its diagnostics as the run reaches them.
Every mode writes a manifest JSON holding the config echo, library versions,
seeds, wall time, one entry per evaluated assertion and, in the solver modes,
step counters per trajectory; the process exit
status is nonzero exactly when an assertion failed.  All outputs except the
manifest's wall-time entry are bit-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import platform
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    Accumulator,
    BumpSpatial,
    BumpTemporal,
    ConstantSpatial,
    CosineSpatial,
    MIN_SAMPLE_COUNT,
    OneTemporal,
    RampDownTemporal,
    TestFunction,
    apriori_bounds_check,
    builtin_supersolution_family,
    grad_vq_bound,
    log_mass_check,
    trace_positivity_check,
)
from .grid import DEFAULT_MAX_CELLS, Grid, write_field_binary
from .oracles import (
    DELTA_TREND_FRACTIONS,
    EnsembleSpec,
    OdeComparison,
    check_power_identities,
    check_synth_amplitude,
    log_poincare_ratio,
    mean_poincare_ratio,
    verify_ode_comparison_batch,
    worst_square_completion,
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
                        INITIAL_KINDS, SimulationError, Trajectory,
                        dense_transform_bytes,
                        initial_state, make_initial_field, run, samples)

OUT_ENV_VAR = "LOGSENSE_KS_OUT"
MODES = ("simulate", "params", "entropy-check", "eps-study", "refine-study",
         "oracle")
GRID_MODES = tuple(m for m in MODES if m != "params")
SOLVER_MODES = ("simulate", "entropy-check", "eps-study", "refine-study")
RUN_MODES = ("simulate", "entropy-check", "eps-study")  # the modes reading run.T
POWER_BASE_CELLS = 16
# bytes the solver modes' dense transforms may hold on their finest grid
# (simulator.dense_transform_bytes): 1.38 GiB on the largest 2-D grid,
# 4096^2, so the bound bites on long 1-D axes, above 16,379 cells
DENSE_MEMORY_LIMIT = 2**31


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
# the config table
# ---------------------------------------------------------------------------

# kind: int, number, bool, str, object, int list or number list; range: an interval
# such as "(0, 1]" holding every number (or list entry), or the allowed strings;
# default: the value of an absent or null key; required: the modes needing the key.
Key = namedtuple("Key", "kind range default required", defaults=(None, None, ()))


def _default(fn, name):
    """Default of a parameter of `fn`, the function that receives the value."""
    return inspect.signature(fn).parameters[name].default


# Every key a config may hold.  An initial data key left out defaults to the
# kind's builder (simulator.INITIAL_KINDS), oracle.ensemble.seed to seed.
CONFIG_KEYS = {
    "mode": Key("str", MODES, required=MODES),
    "out": Key("str"),
    "seed": Key("int", "[0, inf)", 0),
    "grid.cells": Key("int list", required=GRID_MODES),
    # chi^2, the extents and widths squared, and 4 / q^2 finite and nonzero
    "grid.extents": Key("number list", "(1e-154, 1e154)", required=GRID_MODES),
    "model.chi": Key("number", "(1e-154, 1e154)", required=MODES),
    "model.n": Key("int", "[1, inf)", required=MODES),
    "model.eps": Key("number", "[0, 1)", _default(ModelParams, "eps")),
    "model.p": Key("number", "(0, 1)"),
    "model.q": Key("number", "(1.5e-154, 1)"),
    "model.r": Key("number", "(1, inf)"),
    "model.s": Key("number", "[1, inf)", _default(ModelParams, "s")),
    "model.margin": Key("number", "(0, 1)", _default(select_exponents, "margin")),
    **{f"initial.{field}.{name}": key for field in "uv" for name, key in (
        ("kind", Key("str", tuple(INITIAL_KINDS), required=SOLVER_MODES)),
        ("value", Key("number")), ("amplitude", Key("number")),
        ("width", Key("number", "(1e-154, 1e154)")),
        ("center", Key("number list")),
        ("baseline", Key("number")), ("cutoff", Key("int", "[0, 16]")),
        ("seed", Key("int", "[0, inf)")))},
    "initial.v_floor": Key("number", "(0, inf)",
                           _default(initial_state, "v_min_floor")),
    "run.T": Key("number", "(0, inf)", required=RUN_MODES),
    "run.sample_count": Key("int", "[1, 100000]", DEFAULT_SAMPLE_COUNT),
    "run.safety": Key("number", "(0, inf)", DEFAULT_SAFETY),
    "run.max_dt": Key("number", "(0, inf)"),
    "run.v_floor": Key("number", "[0, inf)", DEFAULT_V_FLOOR),
    "run.save_fields": Key("str", ("none", "final", "all"), "final"),
    "checks.identity_tol_rel": Key("number", "[0, inf)", 0.02),
    "eps_ladder": Key("number list", "[0, 1)", required=("eps-study",)),
    "refine.T": Key("number", "(0, inf)", required=("refine-study",)),
    "refine.levels": Key("int", "[2, 24]", 3),
    "refine.dt_factor": Key("number", "(0, inf)", 1.0 / 16.0),
    "refine.sample_count": Key("int", "[2, 100000]", 40),
    "refine.power_r": Key("number", "(0, inf)", 1.6),
    "params_query.export_region": Key("bool", None, False),
    "params_query.p_count": Key("int", "[1, 1000000]",
                                _default(export_exponent_region, "p_count")),
    "oracle": Key("object", required=("oracle",)),
    "oracle.square_trials": Key("int", "[0, 1000000]", 1000),
    "oracle.power_r": Key("number", "(0, inf)", 1.6),
    "oracle.ode_cases": Key("int", "[1, 10000]", 100),
    "oracle.p_norm": Key("number", "[1, inf)", 2.0),
    "oracle.include_riesz": Key("bool", None,
                                _default(mean_poincare_ratio, "include_riesz")),
    "oracle.ensemble.seed": Key("int", "[0, inf)"),
    **{f"oracle.ensemble.{name}": Key(kind, valid, _default(EnsembleSpec, name))
       for name, kind, valid in (
           ("count", "int", "[1, 100000]"), ("cutoff", "int", "[1, 16]"),
           ("amplitude", "number list", "[0, inf)"), ("floor", "number", "(0, inf)"),
           ("delta", "number", "(0, inf)"), ("eta", "number", "(0, inf)"),
           ("b_selector", "str", ("threshold", "random")))},
}
_SECTIONS = {path.rsplit(".", k)[0] for path in CONFIG_KEYS
             for k in range(1, path.count(".") + 1)}
_TYPES = {"int": (int, "an integer"), "number": ((int, float), "a number"),
          "bool": (bool, "a boolean"), "str": (str, "a string"),
          "object": (dict, "an object")}


def _within(x, interval):
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo < x if interval[0] == "(" else lo <= x) and \
        (x < hi if interval[-1] == ")" else x <= hi)


def _checked(value, path, key, kind=None):
    """`value` checked against the key's kind and range; numbers become floats."""
    kind = kind or key.kind
    if kind.endswith(" list"):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return [_checked(v, f"{path}[{i}]", key, kind.split()[0])
                for i, v in enumerate(value)]
    types, name = _TYPES[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        raise ConfigError(path, f"expected {name}, got {value!r}")
    if kind == "number":
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(path, f"must be a finite number, got {value!r}")
        value = float(value)
    if isinstance(key.range, str) and not _within(value, key.range):
        raise ConfigError(path, f"must lie in {key.range}")
    if isinstance(key.range, tuple) and value not in key.range:
        raise ConfigError(path, f"must be one of {', '.join(key.range)}")
    return value


def _walk(node, prefix, values):
    """Check the keys of `node` against the table; null counts as absent."""
    for name, value in node.items():
        path = f"{prefix}{name}"
        if path not in CONFIG_KEYS and path not in _SECTIONS:
            raise ConfigError(path, "unknown key")
        if value is not None:
            values[path] = _checked(value, path, CONFIG_KEYS.get(path, Key("object")))
            if isinstance(value, dict):
                _walk(value, path + ".", values)


def _section(values, prefix):
    """The given keys under `prefix`, with the prefix stripped."""
    return {path[len(prefix):]: value for path, value in values.items()
            if path.startswith(prefix) and value is not None}


@dataclass
class ExperimentConfig:
    mode: str
    raw: dict      # the config as given, echoed into the manifest
    values: dict   # every CONFIG_KEYS path: the given value or its default
    out_dir: Path
    seed: int
    state: object = None  # the solver modes' initial SimState on the config grid
    progress: bool = False  # print one stderr line per sample of each run


def validate_config(raw, out_override=None, seed_override=None):
    """Check a config against CONFIG_KEYS and the cross-field rules and build what
    its mode needs (grid, model parameters, initial fields, ensemble), all before
    any compute; raises ConfigError with a field path."""
    values = {}
    _walk(raw, "", values)
    mode = values.get("mode")
    for path, key in CONFIG_KEYS.items():
        if path not in values:
            if key.required and (mode is None or mode in key.required):
                raise ConfigError(path, "required field is missing")
            values[path] = key.default
    if seed_override is not None:
        values["seed"] = _checked(seed_override, "seed", CONFIG_KEYS["seed"])

    grid = _build_grid(values) if mode in GRID_MODES else None
    if mode in SOLVER_MODES:
        _check_dense_memory(grid, "grid.cells")
    state = None
    if mode == "params" and _mapped("model", chi_admissible, values["model.chi"],
                                    values["model.n"]):
        # the mode reports the exponents selected for an admissible chi
        _mapped("model", select_exponents, values["model.chi"], values["model.n"],
                margin=values["model.margin"])
    if mode in SOLVER_MODES:
        params = _build_params(values)
        if mode in ("simulate", "entropy-check") and not params.r < params.p + 1:
            raise ConfigError("model", "the u^r splitting check needs r < p + 1, "
                                       f"got r = {params.r}, p = {params.p}")
        state = _initial_state(values, grid, params)
    # simulate's log-mass check starts after a waiting time, so it needs a
    # sample strictly inside (0, T)
    least = {"simulate": 2, "entropy-check": MIN_SAMPLE_COUNT}.get(mode, 1)
    if values["run.sample_count"] < least:
        raise ConfigError("run.sample_count", f"{mode} needs at least {least}")
    if mode == "eps-study":
        ladder = values["eps_ladder"]
        if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("eps_ladder", "must be nonempty and strictly decreasing")
        # the rungs step together, so together they may hold one run of the
        # largest grid
        cells = int(np.prod(grid.shape))
        if len(ladder) * cells > DEFAULT_MAX_CELLS:
            raise ConfigError("eps_ladder",
                              f"{len(ladder)} rungs of {cells} cells pass the "
                              f"{DEFAULT_MAX_CELLS}-cell limit of one run")
    if mode == "refine-study":
        finest = _build_grid(values, 2 ** (values["refine.levels"] - 1))
        _check_dense_memory(finest, "refine.levels")
    if mode == "oracle":
        _mapped("grid", _power_grids, grid)
        _ensemble(values, grid)

    out_dir = out_override or values["out"] or os.environ.get(OUT_ENV_VAR) or "."
    return ExperimentConfig(mode=mode, raw=raw, values=values, out_dir=Path(out_dir),
                            seed=values["seed"], state=state)


# ---------------------------------------------------------------------------
# shared assembly
# ---------------------------------------------------------------------------

def _build_grid(values, factor=1):
    """The config grid with `factor` times the cells along each axis."""
    cells, extents = values["grid.cells"], values["grid.extents"]
    if len(cells) != len(extents):
        raise ConfigError("grid.extents", "must have one extent per cell axis")
    return _mapped("grid", Grid, cells=[c * factor for c in cells], extents=extents)


def _check_dense_memory(grid, path):
    """Raise ConfigError at `path` when the stepper's dense transforms on
    `grid` would pass DENSE_MEMORY_LIMIT; they are N x N per axis."""
    need = dense_transform_bytes(grid.cells)
    if need > DENSE_MEMORY_LIMIT:
        shape = "x".join(str(n) for n in grid.cells)
        raise ConfigError(path, f"the dense transforms of a {shape} grid take "
                                f"{need / 2**30:.3g} GiB, above the "
                                f"{DENSE_MEMORY_LIMIT / 2**30:g} GiB limit")


def _mapped(path, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError turned into a ConfigError at `path`."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_params(values, eps=None):
    chi, n = values["model.chi"], values["model.n"]
    p, q, r = given = (values["model.p"], values["model.q"], values["model.r"])
    if None in given:
        selected = _mapped("model", select_exponents, chi, n,
                           margin=values["model.margin"])
        p, q, r = (s if g is None else g for g, s in zip(given, selected))
    return _mapped("model", ModelParams, chi=chi, n=n, p=p, q=q, r=r,
                   eps=values["model.eps"] if eps is None else eps, s=values["model.s"])


def _initial_state(values, grid, params):
    """The initial SimState on `grid`; a ConfigError names initial.u or initial.v."""
    u, v = (_mapped(f"initial.{name}", make_initial_field, grid,
                    _section(values, f"initial.{name}.")) for name in "uv")
    return _mapped("initial.u", initial_state, params, grid, u, v,
                   values["initial.v_floor"])


def _run_args(values, T, intervals, max_dt):
    """`run`'s and `samples`' keyword arguments: T, `intervals` equal sample
    spacings, the step cap and the run section's other stepping options."""
    return {"T": T, "sample_times": np.linspace(0.0, T, intervals + 1),
            "safety": values["run.safety"], "max_dt": max_dt,
            "v_floor": values["run.v_floor"]}


def _standard_args(values):
    """_run_args of the run section."""
    return _run_args(values, values["run.T"], values["run.sample_count"],
                     values["run.max_dt"])


def _chain(*hooks):
    """One sample hook calling the given ones in turn; None entries are skipped."""
    hooks = [hook for hook in hooks if hook is not None]

    def on_sample(t, u, v):
        for hook in hooks:
            hook(t, u, v)
    return on_sample


def _progress(enabled, label, intervals):
    """A sample hook printing `label: sample k/intervals t = ...` to stderr,
    or None when progress is off."""
    if not enabled:
        return None
    counter = itertools.count()

    def report(t, u, v):
        print(f"{label}: sample {next(counter)}/{intervals} t = {t:.6g}",
              file=sys.stderr, flush=True)
    return report


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


def _jsonable(obj):
    """obj with numpy values made Python ones and every non-finite float
    made None, so that it dumps as strict JSON (RFC 8259 has no NaN or
    Infinity)."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# mode: params
# ---------------------------------------------------------------------------

def _mode_params(cfg, outputs, asserts):
    values = cfg.values
    chi, n = values["model.chi"], values["model.n"]
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
        p, q, r = select_exponents(chi, n, margin=values["model.margin"])
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

    if values["params_query.export_region"]:
        path = cfg.out_dir / "exponent_region.csv"
        export_exponent_region(chi, n, path,
                               p_count=values["params_query.p_count"])
        outputs.append(path.name)
    return {"params": result}


# ---------------------------------------------------------------------------
# mode: simulate
# ---------------------------------------------------------------------------

def _standard_checks(result, grid, asserts, disc):
    """Bound checks every simulate-style run evaluates, on the Accumulated
    pass over its samples; `disc`, the phi == 1 identity residual, is the a
    priori bound's measured discretization allowance."""
    record, params = result.record, result.params
    drift = record.summary()["mass_drift_rel"]
    asserts.add("mass_conservation", drift <= 1e-12, tolerance=1e-12,
                value=drift)

    h_sq = max(grid.h) ** 2
    floor_curve = record.v_min[0] * np.exp(-record.times) - 10.0 * h_sq
    worst = float((record.v_min - floor_curve).min())
    asserts.add("v_floor_comparison", worst >= 0.0, tolerance=10.0 * h_sq,
                value=worst)

    asserts.add_report(trace_positivity_check(record))
    asserts.add_report(result.u_lr_bound())
    asserts.add_report(grad_vq_bound(record, params))
    if params.entropy_exponents_ok():
        asserts.add_report(apriori_bounds_check(record, params,
                                                disc_estimate=disc))
    if not np.isnan(record.log_u).any():
        asserts.add_report(log_mass_check(record, grid, params))


def _write_fields(out_dir, grid, k, u, v):
    """Write sample k's fields/u_<k>.bin and fields/v_<k>.bin; returns their
    output names."""
    fields_dir = out_dir / "fields"
    fields_dir.mkdir(exist_ok=True)
    names = []
    for name, values in (("u", u), ("v", v)):
        path = fields_dir / f"{name}_{k:04d}.bin"
        write_field_binary(values, grid, path)
        names.append(f"fields/{path.name}")
    return names


def _mode_simulate(cfg, outputs, asserts):
    values = cfg.values
    grid, params = cfg.state.grid, cfg.state.params
    # the a priori bound rearranges the phi == 1 balance, whose residual is
    # its discretization allowance
    phis = ([TestFunction(ConstantSpatial(1.0), OneTemporal())]
            if params.entropy_exponents_ok() else [])
    # record.csv is the only output that holds the v norms
    accumulator = Accumulator(grid, params, phis, v_norms=True)
    save = values["run.save_fields"]
    fields = []
    index = itertools.count()

    def save_all(t, u, v):
        fields.extend(_write_fields(cfg.out_dir, grid, next(index), u, v))

    trajectory = run(cfg.state, **_standard_args(values), on_sample=_chain(
        accumulator.add, save_all if save == "all" else None,
        _progress(cfg.progress, cfg.mode, values["run.sample_count"])))
    # the sampling guard is moot here: the residual is evaluated at whatever
    # sampling the run used
    result = accumulator.finish(
        max_sample_dt=float(np.diff(trajectory.times).max()))
    record = result.record

    record_path = cfg.out_dir / "record.csv"
    record.to_csv(record_path)
    outputs.append(record_path.name)
    steps_path = cfg.out_dir / "steps.csv"
    trajectory.write_step_reports_csv(steps_path)
    outputs.append(steps_path.name)
    if save == "final":
        fields = _write_fields(cfg.out_dir, grid, len(trajectory.times) - 1,
                               trajectory.u_snapshots[-1],
                               trajectory.v_snapshots[-1])
    outputs.extend(fields)

    disc = result.balances[0].identity()[0] if phis else None
    _standard_checks(result, grid, asserts, disc)
    summary_path = cfg.out_dir / "summary.json"
    _dump_json({"record": record.summary(), "checks": asserts.entries},
               summary_path)
    outputs.append(summary_path.name)
    return {"summary": record.summary(), "counters": [trajectory.counters()]}


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
    values = cfg.values
    grid, params = cfg.state.grid, cfg.state.params
    T = values["run.T"]  # the run lands on it exactly
    tol_rel = values["checks.identity_tol_rel"]

    named = _residual_test_functions(grid, T)
    family = builtin_supersolution_family(grid, T)
    for phi in family:
        phi.check_one_sided(grid, T)
    phi_v = TestFunction(
        CosineSpatial(tuple([1] * grid.dim), amplitude=0.5, offset=1.0),
        RampDownTemporal(0.9 * T))
    accumulator = Accumulator(grid, params, [phi for _, phi in named] + family,
                              phi_v)
    trajectory = run(cfg.state, **_standard_args(values), on_sample=_chain(
        accumulator.add,
        _progress(cfg.progress, cfg.mode, values["run.sample_count"])))
    result = accumulator.finish()
    record, balances = result.record, result.balances

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

    vres = result.v_weak
    v_scale = max(float(np.abs(record.v_lq).max()), 1.0)
    residuals["v_weak"] = vres
    asserts.add("v_weak_residual", vres <= tol_rel * v_scale,
                tolerance=tol_rel, value=vres)

    _standard_checks(result, grid, asserts,
                     disc=residuals["identity_constant"])
    path = cfg.out_dir / "residuals.json"
    _dump_json(residuals, path)
    outputs.append(path.name)
    return {"residuals": residuals, "counters": [trajectory.counters()]}


# ---------------------------------------------------------------------------
# mode: eps-study
# ---------------------------------------------------------------------------

def _l1_integrands(a, b, da, db):
    """Spatial L1 differences of u, v, grad v^{q/2} and u^p v^q between two
    rungs' states `a` and `b` at one sample; the last two are read from the
    rungs' densities `da` and `db` (p and q do not depend on the rung)."""
    vol = a.grid.cell_volume
    g = sum(float(np.abs(ga - gb).sum()) * vol
            for ga, gb in zip(da.grad_vq, db.grad_vq))
    return (np.abs(a.u - b.u).sum() * vol, np.abs(a.v - b.v).sum() * vol, g,
            float(np.abs(da.upq - db.upq).sum()) * vol)


def _rung(values, state, eps, reports):
    """The run section's samples from `state` at one ladder rung; a failure
    names the rung."""
    try:
        yield from samples(state, reports=reports, **_standard_args(values))
    except SimulationError as exc:
        raise StudyError(f"ladder run failed at eps={eps}: {exc}",
                         eps=eps) from exc


def _mode_eps_study(cfg, outputs, asserts):
    """Run the ladder and report pairwise Cauchy differences.

    The rungs step in lockstep, one sample at a time: each sample feeds every
    rung's Accumulator, and each adjacent pair's L1 integrands read the two
    rungs' densities, so the study holds one state per rung.  The
    u-difference contraction (within a 1.2x slack) is the hard assertion;
    the v, gradient and entropy-density sequences are reported with flags
    only, since the underlying compactness argument guarantees subsequential
    convergence rather than monotonicity.
    """
    values, ladder = cfg.values, cfg.values["eps_ladder"]
    grid = cfg.state.grid
    trajectories = [Trajectory(grid, _build_params(values, eps)) for eps in ladder]
    accumulators = [Accumulator(grid, tr.params) for tr in trajectories]
    reports = [_chain(_progress(cfg.progress, f"eps-study eps={eps:g}",
                                values["run.sample_count"])) for eps in ladder]
    streams = [_rung(values, replace(cfg.state, params=tr.params), eps,
                     tr.reports) for eps, tr in zip(ladder, trajectories)]
    integrands = [[] for _ in ladder[1:]]  # per pair, per sample
    for states in zip(*streams):
        densities = []
        for state, accumulator, report in zip(states, accumulators, reports):
            densities.append(accumulator.add(state.t, state.u, state.v))
            report(state.t, state.u, state.v)
        for pair, a, b, da, db in zip(integrands, states, states[1:],
                                      densities, densities[1:]):
            pair.append(_l1_integrands(a, b, da, db))

    diffs = {name: [] for name in ("u", "v", "grad_vq", "entropy_density")}
    for pair in integrands:
        for column, series in zip(diffs.values(), zip(*pair)):
            column.append(float(np.trapezoid(series, accumulators[0].times)))
    records = [accumulator.finish().record for accumulator in accumulators]
    for eps, record in zip(ladder, records):
        for name, integral in record.accumulated.items():
            # grad_log_u_sq is NaN on purpose once a u cell reaches zero
            if name != "grad_log_u_sq" and not np.isfinite(integral[-1]):
                raise StudyError(f"record integral {name} is not finite at "
                                 f"eps={eps}", eps=eps)

    csv_path = cfg.out_dir / "eps_study.csv"
    with open(csv_path, "w") as fh:
        fh.write("eps_hi,eps_lo,u_l1,v_l1,grad_vq_l1,entropy_density_l1\n")
        for row in zip(ladder, ladder[1:], *diffs.values()):
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
    outputs.append(csv_path.name)

    slack = 1.2
    contracts = {name: all(b <= slack * a for a, b in zip(seq, seq[1:]))
                 for name, seq in diffs.items()}
    asserts.add("eps_u_diffs_monotone", contracts.pop("u"), tolerance=slack,
                value=diffs["u"])
    mins = [float(rec.log_u.min()) for rec in records
            if not np.isnan(rec.log_u).any()]
    return {
        "eps_study": {
            "ladder": ladder,
            **{f"{name}_diffs": seq for name, seq in diffs.items()},
            "monotone_flags": contracts,
            "min_log_u_band": {"min": min(mins), "max": max(mins)} if mins else {},
            "summaries": [rec.summary() for rec in records],
        },
        "counters": [dict(eps=eps, **tr.counters())
                     for eps, tr in zip(ladder, trajectories)],
    }


# ---------------------------------------------------------------------------
# mode: refine-study
# ---------------------------------------------------------------------------

def _restrict_to_coarse(values, factor):
    """Block-average a fine cell array onto the grid with `factor` times
    fewer cells along each axis."""
    out = values
    for ax in range(values.ndim):
        n = out.shape[ax]
        new_shape = out.shape[:ax] + (n // factor, factor) + out.shape[ax + 1:]
        out = out.reshape(new_shape).mean(axis=ax + 1)
    return out


def _observed_order(coarse, fine):
    if fine <= 0.0 or (coarse <= 1e-13 and fine <= 1e-13):
        return "exact"
    return float(np.log2(coarse / fine))


def _final_order(order_list):
    """Order of the finest pair; coarser pairs are often pre-asymptotic."""
    return order_list[-1] if order_list else "exact"


def _mode_refine_study(cfg, outputs, asserts):
    """Run (h, h/2, h/4, ...), tabulate errors and observed convergence
    orders, and assert the finest pair's orders.

    Each level's three entropy balances are accumulated as the run samples,
    and only its final fields are kept.  Level k has 2^k times the config
    cells along each axis, so the finest level restricts onto every other."""
    values = cfg.values
    levels = values["refine.levels"]
    T = values["refine.T"]
    base_samples = values["refine.sample_count"]
    params = cfg.state.params

    rows = []
    trajectories = []
    for level in range(levels):
        factor = 2**level
        state = cfg.state if level == 0 else _initial_state(
            values, _build_grid(values, factor), params)
        grid = state.grid
        h_min = min(grid.h)
        named = _residual_test_functions(grid, T)
        accumulator = Accumulator(grid, params, [phi for _, phi in named])
        report = _progress(cfg.progress, f"refine-study level {level}",
                           base_samples * factor)
        trajectory = run(state, **_run_args(
            values, T, base_samples * factor,
            values["refine.dt_factor"] * h_min**2),
            on_sample=_chain(accumulator.add, report))
        # the configured sample count overrides the default T/50 spacing rule
        balances = accumulator.finish(
            max_sample_dt=float(T) / base_samples).balances
        resids = {name: balance.identity()[0]
                  for (name, _), balance in zip(named, balances)}
        p_half, p_full = check_power_identities(
            trajectory.v_snapshots[-1], grid, values["refine.power_r"])
        rows.append({
            "level": level,
            "h_min": h_min,
            "identity_constant": resids["constant"],
            "identity_cosine": resids["cosine_rampdown"],
            "identity_bump": resids["bump_bump"],
            "power_half": p_half,
            "power_full": p_full,
        })
        trajectories.append(trajectory)

    fine_u = trajectories[-1].u_snapshots[-1]
    for level, (row, trajectory) in enumerate(zip(rows, trajectories[:-1])):
        restricted_u = _restrict_to_coarse(fine_u, 2 ** (levels - 1 - level))
        diff = np.abs(trajectory.u_snapshots[-1] - restricted_u)
        row["final_u_l1_error"] = float(diff.sum()) * trajectory.grid.cell_volume
    rows[-1]["final_u_l1_error"] = 0.0

    orders = {}
    for key in ("identity_constant", "identity_cosine", "identity_bump",
                "power_half", "power_full", "final_u_l1_error"):
        # the finest level's u error is 0 by construction
        seq = [row[key] for row in
               (rows[:-1] if key == "final_u_l1_error" else rows)]
        orders[key] = [_observed_order(a, b) for a, b in zip(seq, seq[1:])]

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
    counters = [dict(level=level, **trajectory.counters())
                for level, trajectory in enumerate(trajectories)]
    return {"refine": {"rows": rows, "orders": orders}, "counters": counters}


# ---------------------------------------------------------------------------
# mode: oracle
# ---------------------------------------------------------------------------

def _power_grids(grid):
    """The oracle's power-identity ladder: 1x, 2x and 4x a base grid of at
    least POWER_BASE_CELLS per axis, as coarser grids are pre-asymptotic."""
    base = [max(c, POWER_BASE_CELLS) for c in grid.cells]
    return [Grid(cells=[c * factor for c in base], extents=list(grid.extents))
            for factor in (1, 2, 4)]


def _ensemble(values, grid):
    """The EnsembleSpec of oracle.ensemble (its seed the run's unless given),
    checked against the grid."""
    spec = _mapped("oracle.ensemble", EnsembleSpec, **{
        "seed": values["seed"], **_section(values, "oracle.ensemble.")})
    _mapped("oracle.ensemble.amplitude", check_synth_amplitude, grid.dim,
            spec.cutoff, spec.amplitude)
    if not grid.cell_volume <= spec.delta <= grid.volume:
        raise ConfigError("oracle.ensemble.delta",
                          "must lie between the cell and the domain volume")
    if spec.eta >= grid.volume:
        raise ConfigError("oracle.ensemble.eta", "must be below the domain volume")
    smallest = min(DELTA_TREND_FRACTIONS)
    if smallest * grid.volume < grid.cell_volume:
        raise ConfigError("grid.cells", f"the oracle's smallest |B|, {smallest} of "
                                        "the domain, is below one cell")
    return spec


def _mode_oracle(cfg, outputs, asserts):
    values = cfg.values
    grid = _build_grid(values)
    rng = np.random.default_rng(cfg.seed)
    reports = {}

    # square completion on random positive fields and exponents
    trials = values["oracle.square_trials"]
    spec = _ensemble(values, grid)
    worst_rel = worst_square_completion(grid, spec, cfg.seed, trials)
    reports["square_completion"] = {"trials": trials, "worst_rel": worst_rel}
    asserts.add("square_completion_roundoff", worst_rel <= 1e-10,
                tolerance=1e-10, value=worst_rel)

    # power identities at three resolutions of a fixed smooth field
    shape = CosineSpatial(tuple([1] * grid.dim), amplitude=0.5, offset=1.5)
    res = []
    for fine in _power_grids(grid):
        res.append(check_power_identities(shape.values(fine), fine,
                                          values["oracle.power_r"]))
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
    cases = values["oracle.ode_cases"]
    specs = [OdeComparison(a=float(rng.uniform(0.1, 10.0)),
                           b=float(rng.uniform(0.1, 10.0)),
                           y0=float(rng.uniform(0.1, 10.0)), T=1.0)
             for _ in range(cases)]
    ode_reports = verify_ode_comparison_batch(specs)
    worst_excess = max(float(r.max_excess) for r in ode_reports)
    reports["ode_comparison"] = {
        "cases": cases, "worst_excess": worst_excess,
        "worst_error_estimate": max(r.error_estimate for r in ode_reports),
        "substeps": ode_reports[0].substeps,
        "all_passed": all(r.passed for r in ode_reports),
    }
    asserts.add("ode_comparison_bound", all(r.passed for r in ode_reports),
                tolerance=ode_reports[0].tolerance, value=worst_excess)

    # Poincare-type ensembles (empirical constants, reported)
    log_report = log_poincare_ratio(spec, grid)
    reports["log_poincare"] = asdict(log_report)
    asserts.add("log_poincare_finite",
                log_report.degenerate or np.isfinite(log_report.max_ratio),
                value=reports["log_poincare"])

    mean_report = mean_poincare_ratio(
        spec, grid, values["oracle.p_norm"],
        include_riesz=values["oracle.include_riesz"])
    reports["mean_poincare"] = mean_report.as_dict()
    reports["mean_poincare_delta_trend"] = mean_report.delta_trend
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
    except ArithmeticError as exc:
        # a last resort for an overflow or a division by zero that the
        # config table does not rule out
        aborted = {"message": f"{type(exc).__name__}: {exc}"}

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
    parser.add_argument("--progress", action="store_true",
                        help="print one stderr line per sample of each run: "
                             "mode, sample k/N and t")
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
    cfg.progress = args.progress

    try:
        code, manifest = run_experiment(cfg)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
    failed = [e["name"] for e in manifest["assertions"] if not e["passed"]]
    if failed:
        print("failed assertions: " + ", ".join(failed), file=sys.stderr)
    if "aborted" in manifest:
        print("aborted: " + manifest["aborted"]["message"], file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

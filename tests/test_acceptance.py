"""End-to-end acceptance checks, one printed verdict line per criterion."""

import json
import time

import numpy as np
import pytest

from logsense_ks import diagnostics
from logsense_ks.cli import main, run_experiment, validate_config
from logsense_ks.diagnostics import (
    Accumulator,
    apriori_bounds_check,
    builtin_supersolution_family,
    log_mass_check,
)
from logsense_ks.grid import Grid
from logsense_ks.oracles import (
    OdeComparison,
    check_power_identities,
    check_square_completion,
    coth_bound,
    synth_positive_field,
    verify_ode_comparison_batch,
)
from logsense_ks.params import (
    ModelParams,
    chi_admissible,
    entropy_coefficients,
    exponent_infimum,
    exponent_infimum_bruteforce,
    q_bounds,
)
from logsense_ks.simulator import SimState, gaussian_bump, run


def _verdict(num, label, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}")
    return ok


def _phi_one():
    return diagnostics.TestFunction(diagnostics.ConstantSpatial(1.0),
                                    diagnostics.OneTemporal())


def _gaussian_run(cells, T, eps, sample_count=200):
    """The run and its one diagnostics pass, against phi = 1 and then the
    built-in supersolution family."""
    grid = Grid(cells=[cells, cells], extents=[1.0, 1.0])
    params = ModelParams(chi=2.0, n=2, eps=eps, p=0.2, q=0.35, r=1.1)
    u0 = gaussian_bump(grid, amplitude=1.5, width=0.12, baseline=0.2)
    v0 = np.ones(grid.shape)
    state = SimState(t=0.0, grid=grid, u=u0, v=v0, params=params)
    times = np.linspace(0.0, T, sample_count + 1)
    accumulator = Accumulator(
        grid, params, [_phi_one()] + builtin_supersolution_family(grid, T))
    trajectory = run(state, T, sample_times=times, on_sample=accumulator.add)
    return trajectory, accumulator.finish(), params


@pytest.fixture(scope="module")
def std_run():
    t0 = time.monotonic()
    trajectory, result, params = _gaussian_run(64, 1.0, 0.01)
    wall = time.monotonic() - t0
    return trajectory, result, params, wall


@pytest.fixture(scope="module")
def super_runs():
    return {eps: _gaussian_run(32, 0.5, eps) for eps in (0.0, 0.01, 0.1)}


@pytest.fixture(scope="module")
def eps_ensemble():
    return {eps: _gaussian_run(48, 0.5, eps) for eps in (0.1, 0.01, 0.001)}


def test_criterion_01_infimum_matches_bruteforce():
    t0 = time.monotonic()
    lo, hi = np.inf, -np.inf
    for i in range(1, 51):
        chi = 0.05 + 3.95 * i / 50.0
        diff = exponent_infimum_bruteforce(chi, grid_size=10**6) \
            - exponent_infimum(chi)
        lo, hi = min(lo, diff), max(hi, diff)
    elapsed = time.monotonic() - t0
    ok = lo >= -1e-6 and hi <= 1e-3 and elapsed < 10.0
    assert _verdict(1, "closed-form infimum vs brute force", ok), \
        f"diff range [{lo:.3e}, {hi:.3e}], elapsed {elapsed:.1f}s"


def test_criterion_02_c1_positive_inside_window():
    interior_ok = True
    endpoint_worst = 0.0
    for chi in (0.5, 1.0, 2.0, 2.8):
        p_max = min(1.0, 1.0 / chi**2)
        for j in range(100):
            p = (j + 0.5) / 100.0 * p_max
            qm, qp = q_bounds(p, chi)
            for k in range(100):
                q = qm + (k + 0.5) / 100.0 * (qp - qm)
                coef = entropy_coefficients(p, q, chi)
                interior_ok = interior_ok and coef.c1 > 0.0
            for q_end in (qm, qp):
                coef = entropy_coefficients(p, q_end, chi)
                endpoint_worst = max(endpoint_worst, abs(coef.c1))
    ok = interior_ok and endpoint_worst <= 1e-12
    assert _verdict(2, "entropy weight positive inside the exponent window",
                    ok), f"endpoint worst |c1| = {endpoint_worst:.3e}"


def test_criterion_03_admissibility_table():
    table_ok = (chi_admissible(100.0, 2)
                and chi_admissible(2.82, 3)
                and not chi_admissible(2.83, 3)
                and not chi_admissible(2.0, 4))
    threshold = exponent_infimum(np.sqrt(8.0))
    ok = table_ok and abs(threshold - 3.0) <= 1e-12
    assert _verdict(3, "chi admissibility table and threshold value", ok), \
        f"infimum at sqrt(8) = {threshold!r}"


def test_criterion_04_mass_conservation(std_run):
    _, result, _, wall = std_run
    record = result.record
    drift = float(np.abs(record.mass - record.mass[0]).max() / record.mass[0])
    ok = drift <= 1e-12 and wall < 60.0
    assert _verdict(4, "relative mass drift on the standard run", ok), \
        f"drift {drift:.3e}, wall {wall:.1f}s"


def test_criterion_05_v_exponential_floor(std_run):
    trajectory, result, _, _ = std_run
    record = result.record
    h = max(trajectory.grid.h)
    t = record.times
    floor = record.v_min[0] * np.exp(-t) - 10.0 * h**2
    margin = float((record.v_min - floor).min())
    ok = margin >= 0.0
    assert _verdict(5, "pointwise v minimum above the decay floor", ok), \
        f"worst margin {margin:.3e}"


@pytest.mark.slow  # about two thirds of the suite's time
def test_criterion_06_entropy_identity_refinement(tmp_path):
    raw = {
        "grid": {"cells": [32, 32], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2, "eps": 0.01,
                  "p": 0.2, "q": 0.35, "r": 1.1},
        "initial": {
            "u": {"kind": "gaussian", "amplitude": 1.5, "width": 0.12,
                  "baseline": 0.2},
            "v": {"kind": "constant", "value": 1.0},
        },
        "refine": {"T": 0.1, "levels": 3},
    }
    _, manifest = run_experiment(validate_config(
        dict(raw, mode="refine-study"), out_override=tmp_path))
    orders = manifest["refine"]["orders"]
    finest = {key: orders[key][-1] for key in
              ("identity_constant", "identity_cosine", "identity_bump")}
    order_ok = all(o == "exact" or o >= 1.5 for o in finest.values())

    c, eps = 0.7, 0.1
    grid = Grid(cells=[16, 16], extents=[1.0, 1.0])
    params = ModelParams(chi=2.0, n=2, eps=eps, p=0.2, q=0.35, r=1.1)
    state = SimState(
        t=0.0,
        grid=grid,
        u=np.full(grid.shape, c),
        v=np.full(grid.shape, c / (1.0 + eps * c)),
        params=params)
    accumulator = Accumulator(grid, params, [
        _phi_one(),
        diagnostics.TestFunction(
            diagnostics.CosineSpatial((1, 1), amplitude=0.5, offset=1.0),
            diagnostics.OneTemporal())])
    run(state, 0.2, sample_times=np.linspace(0.0, 0.2, 201),
        on_sample=accumulator.add)
    residuals = [balance.identity()[0]
                 for balance in accumulator.finish().balances]
    const_ok = max(residuals) <= 1e-10
    ok = order_ok and const_ok
    assert _verdict(6, "entropy identity refinement orders", ok), \
        f"finest orders {finest}, steady-state residuals {residuals}"


def test_criterion_07_supersolution_direction(super_runs):
    worst = np.inf
    for eps, (trajectory, result, params) in super_runs.items():
        T = trajectory.times[-1]
        family = builtin_supersolution_family(trajectory.grid, T)
        for phi, balance in zip(family, result.balances[1:], strict=True):
            phi.check_one_sided(trajectory.grid, T)
            ident, info = balance.identity()
            slack = balance.supersolution()
            margin = slack + 1e-6 * info["scale"] + ident
            worst = min(worst, margin)
    ok = worst >= 0.0
    assert _verdict(7, "one-sided inequality across eps and directions", ok), \
        f"worst margin {worst:.3e}"


def _apriori_with_measured_disc(result):
    # the bound rearranges the phi == 1 balance; that identity's residual is
    # the measured discretization allowance the tolerance admits
    disc = result.balances[0].identity()[0]
    return apriori_bounds_check(result.record, result.params,
                                disc_estimate=disc)


def test_criterion_08_apriori_band(std_run, eps_ensemble):
    reports = [_apriori_with_measured_disc(result)
               for _, result, _ in eps_ensemble.values()]
    reports.append(_apriori_with_measured_disc(std_run[1]))
    apriori_ok = all(rep.passed for rep in reports)

    keys = ("diss_grad_u", "grad_up_sq", "c2_diss_square", "reaction_plus")
    band_ok = True
    finite_ok = True
    for key in keys:
        vals = [rep.extras["integrals"][key] for rep in reports[:3]]
        finite_ok = finite_ok and all(np.isfinite(vals))
        band_ok = band_ok and max(vals) <= 3.0 * min(vals)
    raw_finals = [float(result.record.accumulated["reaction_raw"][-1])
                  for _, result, _ in eps_ensemble.values()]
    finite_ok = finite_ok and all(np.isfinite(raw_finals))
    band_ok = band_ok and max(raw_finals) <= 3.0 * min(raw_finals)
    ok = apriori_ok and finite_ok and band_ok
    assert _verdict(8, "a priori bound and integral band across eps", ok), \
        f"apriori {apriori_ok}, finite {finite_ok}, band {band_ok}"


def test_criterion_09_pointwise_young_split(std_run, super_runs,
                                            eps_ensemble):
    runs = [std_run[:3]] + list(super_runs.values()) \
        + list(eps_ensemble.values())
    worst = -np.inf
    for _, result, _ in runs:
        worst = max(worst, result.u_lr_bound().lhs)
    ok = worst <= 1e-12
    assert _verdict(9, "pointwise power splitting on every snapshot", ok), \
        f"worst relative violation {worst:.3e}"


def test_criterion_10_ode_comparison():
    rng = np.random.default_rng(17)
    specs = [OdeComparison(a=float(rng.uniform(0.1, 10.0)),
                           b=float(rng.uniform(0.1, 10.0)),
                           y0=float(rng.uniform(0.1, 10.0)),
                           T=1.0)
             for _ in range(100)]
    reports = verify_ode_comparison_batch(specs, substeps=2 * 10**4)
    batch_ok = all(rep.passed for rep in reports)
    closed = 2.0 * np.cosh(2.0) / np.sinh(2.0)
    value_ok = abs(coth_bound(1.0, 4.0, 1.0) - closed) <= 1e-12
    ok = batch_ok and value_ok
    assert _verdict(10, "Riccati comparison bound", ok), \
        f"batch {batch_ok}, closed-form agreement {value_ok}"


def test_criterion_11_square_completion_and_power_orders():
    grids = [
        Grid(cells=[64], extents=[1.0]),
        Grid(cells=[16, 16], extents=[1.0, 2.0]),
        Grid(cells=[8, 8, 8], extents=[1.0, 1.0, 1.0]),
    ]
    worst = 0.0
    for trial in range(1000):
        gi = trial % len(grids)
        grid = grids[gi]
        rng = np.random.default_rng([11, gi, trial])
        u = synth_positive_field(grid, rng, 3, (0.2, 1.0), 0.05)
        v = synth_positive_field(grid, rng, 3, (0.2, 1.0), 0.05)
        chi = float(rng.uniform(0.3, 3.0))
        p = float(rng.uniform(0.05, 0.95) * min(1.0, 1.0 / chi**2))
        qm, qp = q_bounds(p, chi)
        q = float(rng.uniform(qm + 1e-6, qp - 1e-6)) if qp - qm > 2e-6 \
            else 0.5 * (qm + qp)
        rep = check_square_completion(u, v, grid, p, q, chi)
        worst = max(worst, rep.residual / rep.scale)
    square_ok = worst <= 1e-10

    orders = []
    residuals = []
    for n in (64, 128, 256):
        grid = Grid(cells=[n], extents=[1.0])
        w = np.exp(grid.meshgrid()[0])
        residuals.append(check_power_identities(w, grid, 1.7))
    for n in (16, 32, 64):
        grid = Grid(cells=[n, n], extents=[1.0, 1.0])
        x, y = grid.meshgrid()
        w = 1.5 + 0.5 * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        residuals.append(check_power_identities(w, grid, 1.7))
    for seq in (residuals[:3], residuals[3:]):
        for side in (0, 1):
            orders.append(np.log2(seq[-2][side] / seq[-1][side]))
    power_ok = min(orders) >= 1.9
    ok = square_ok and power_ok
    assert _verdict(11, "square completion round-off and power orders", ok), \
        f"worst rel {worst:.3e}, min order {min(orders):.3f}"


def test_criterion_12_eps_ladder_contraction(tmp_path):
    t0 = time.monotonic()
    raw = {
        "grid": {"cells": [64, 64], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2, "p": 0.2, "q": 0.35, "r": 1.1},
        "initial": {
            "u": {"kind": "gaussian", "amplitude": 1.5, "width": 0.12,
                  "baseline": 0.2},
            "v": {"kind": "constant", "value": 1.0},
        },
        "run": {"T": 1.0, "sample_count": 200},
        "eps_ladder": [0.1, 0.05, 0.025, 0.0125],
    }
    _, manifest = run_experiment(validate_config(
        dict(raw, mode="eps-study"), out_override=tmp_path))
    elapsed = time.monotonic() - t0
    u_diffs = manifest["eps_study"]["u_diffs"]
    mono_ok = all(b <= 1.2 * a for a, b in zip(u_diffs, u_diffs[1:]))
    ok = mono_ok and elapsed < 300.0
    assert _verdict(12, "eps ladder u-differences contract", ok), \
        f"u diffs {u_diffs}, elapsed {elapsed:.0f}s"


def test_criterion_13_log_mass_band(eps_ensemble):
    reports = [log_mass_check(result.record, trajectory.grid, params)
               for trajectory, result, params in eps_ensemble.values()]
    passed_ok = all(rep.passed for rep in reports)
    mins = [rep.extras["min_log_u"] for rep in reports]
    finite_ok = all(np.isfinite(mins))
    scales = [abs(m) for m in mins]
    band_ok = max(scales) <= 2.0 * min(scales)
    ok = passed_ok and finite_ok and band_ok
    assert _verdict(13, "log-mass functional finite within a band", ok), \
        f"passed {passed_ok}, min log-mass values {mins}"


def test_criterion_14_determinism(tmp_path):
    grid = Grid(cells=[16, 16], extents=[1.0, 1.0])
    params = ModelParams(chi=2.0, n=2, eps=0.01, p=0.2, q=0.35, r=1.1)
    snapshots = []
    for _ in range(2):
        state = SimState(
            t=0.0,
            grid=grid,
            u=gaussian_bump(grid, amplitude=1.5, width=0.12, baseline=0.2),
            v=np.ones(grid.shape),
            params=params)
        us, vs = [], []

        def keep(s):
            us.append(s.u.copy())
            vs.append(s.v.copy())

        run(state, 0.05, sample_times=np.linspace(0.0, 0.05, 51),
            on_sample=keep)
        snapshots.append((np.stack(us), np.stack(vs)))
    direct_ok = (np.array_equal(snapshots[0][0], snapshots[1][0])
                 and np.array_equal(snapshots[0][1], snapshots[1][1]))

    cfg = {
        "mode": "simulate",
        "grid": {"cells": [16, 16], "extents": [1.0, 1.0]},
        "model": {"chi": 2.0, "n": 2, "eps": 0.01,
                  "p": 0.2, "q": 0.35, "r": 1.1},
        "initial": {
            "u": {"kind": "gaussian", "amplitude": 1.5, "width": 0.12,
                  "baseline": 0.2},
            "v": {"kind": "constant", "value": 1.0},
        },
        "run": {"T": 0.05, "sample_count": 50, "save_fields": "all"},
        "seed": 9,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / "a", tmp_path / "b"]
    codes = [main(["simulate", "--config", str(cfg_path), "--out", str(out)])
             for out in outs]
    manifests = []
    for out in outs:
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        manifest.pop("wall_time_s")
        manifests.append(manifest)
    files_ok = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in manifests[0]["outputs"])
    cli_ok = codes == [0, 0] and manifests[0] == manifests[1] and files_ok
    ok = direct_ok and cli_ok
    assert _verdict(14, "bit-identical reruns from one config and seed", ok), \
        f"direct {direct_ok}, cli {cli_ok}"

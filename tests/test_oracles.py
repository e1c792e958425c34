import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from logsense_ks.grid import (
    Grid,
    cosine_tables as _cosine_table,
    face_grad_values,
    faces_to_cells,
    gradient_cell_magnitude,
)
from logsense_ks import oracles
from logsense_ks.oracles import (
    _ENSEMBLE_BLOCK,
    _ODE_CHUNK,
    _ODE_TOLERANCE,
    _RIESZ_BLOCK,
    _SQUARE_STACK_CELLS,
    _mean_ensemble,
    _riesz_ratios,
    _series_coefficients,
    _square_buffers,
    _synthesize,
    EnsembleSpec,
    OdeComparison,
    check_power_identities,
    check_square_completion,
    coth_bound,
    DELTA_TREND_FRACTIONS,
    log_poincare_ratio,
    mean_poincare_ratio,
    synth_positive_field,
    verify_ode_comparison_batch,
    worst_square_completion,
)
from logsense_ks.params import entropy_coefficients, q_bounds

# frozen reference: coth_bound(1, 4, 1) = 2 cosh(2)/sinh(2)
COTH_BOUND_1_4_1 = 2.0746294414550963


# power identities ------------------------------------------------------------------

def test_power_identities_constant_field():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    w = np.full(g.shape, 2.5)
    res_half, res_full = check_power_identities(w, g, r=1.7)
    assert res_half == 0.0
    assert res_full == 0.0


def test_power_identity_half_exact_at_r_two():
    # r = 2 collapses the half-power identity to w lap w = w lap w
    g = Grid(cells=[48], extents=[1.0])
    (x,) = g.meshgrid()
    w = np.exp(x)
    res_half, res_full = check_power_identities(w, g, r=2.0)
    assert res_half == 0.0
    assert res_full > 0.0


def test_power_identity_refinement_exponential():
    residuals = []
    for N in (32, 64, 128):
        g = Grid(cells=[N], extents=[1.0])
        (x,) = g.meshgrid()
        w = np.exp(x)
        residuals.append(check_power_identities(w, g, r=2.0)[1])
    orders = [np.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 1.9


@pytest.mark.parametrize("r", [1.3, 2.7])
def test_power_identity_refinement_cosine(r):
    halves, fulls = [], []
    for N in (32, 64, 128):
        g = Grid(cells=[N, N], extents=[1.0, 1.0])
        X, Y = g.meshgrid()
        w = 1.5 + 0.5 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        rh, rf = check_power_identities(w, g, r)
        halves.append(rh)
        fulls.append(rf)
    for seq in (halves, fulls):
        order = np.log2(seq[-2] / seq[-1])
        assert order >= 1.9


def test_power_identity_validation():
    g = Grid(cells=[8], extents=[1.0])
    w = np.ones(8)
    with pytest.raises(ValueError):
        check_power_identities(w, g, r=0.0)
    flat = np.zeros(8)
    with pytest.raises(ValueError):
        check_power_identities(flat, g, r=1.5)


# square completion ------------------------------------------------------------------

def grids_for_trials():
    return [
        Grid(cells=[64], extents=[1.0]),
        Grid(cells=[16, 16], extents=[1.0, 2.0]),
        Grid(cells=[8, 8, 8], extents=[1.0, 1.0, 1.0]),
    ]


def test_square_completion_roundoff_across_grids():
    worst = 0.0
    for gi, g in enumerate(grids_for_trials()):
        for trial in range(60):
            rng = np.random.default_rng([11, gi, trial])
            u = synth_positive_field(g, rng, 3, (0.2, 1.0), 0.05)
            v = synth_positive_field(g, rng, 3, (0.2, 1.0), 0.05)
            chi = float(rng.uniform(0.3, 3.0))
            p = float(rng.uniform(0.05, 0.95) * min(1.0, 1.0 / chi**2))
            qm, qp = q_bounds(p, chi)
            q = float(rng.uniform(qm + 1e-6, qp - 1e-6)) if qp - qm > 2e-6 \
                else 0.5 * (qm + qp)
            rep = check_square_completion(u, v, g, p, q, chi)
            worst = max(worst, rep.residual / rep.scale)
    assert worst <= 1e-10


def test_square_completion_constant_u_reduces():
    # constant u kills B = v^{q/2} grad u^{p/2}; both arrangements collapse
    g = Grid(cells=[24, 24], extents=[1.0, 1.0])
    rng = np.random.default_rng(3)
    u = np.full(g.shape, 1.3)
    v = synth_positive_field(g, rng, 3, (0.2, 1.0), 0.05)
    rep = check_square_completion(u, v, g, p=0.5, q=0.25, chi=1.0)
    assert rep.residual == 0.0


def test_square_completion_at_window_endpoint():
    # q = q_plus zeroes c1; the identity must still close to round-off
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    rng = np.random.default_rng(4)
    u = synth_positive_field(g, rng, 3, (0.2, 1.0), 0.05)
    v = synth_positive_field(g, rng, 3, (0.2, 1.0), 0.05)
    p, chi = 0.5, 1.0
    _, qp = q_bounds(p, chi)
    rep = check_square_completion(u, v, g, p, qp, chi)
    assert rep.residual <= 1e-10 * rep.scale


def test_square_completion_rejects_nonpositive():
    g = Grid(cells=[8], extents=[1.0])
    pos = np.ones(8)
    zero = np.zeros(8)
    with pytest.raises(ValueError):
        check_square_completion(zero, pos, g, 0.5, 0.25, 1.0)


# Riccati comparison -----------------------------------------------------------------

def test_coth_bound_frozen_value():
    assert coth_bound(1.0, 4.0, 1.0) == pytest.approx(COTH_BOUND_1_4_1,
                                                      abs=1e-12)
    # a = b = 1 is plain coth(t)
    assert coth_bound(1.0, 1.0, 0.7) == pytest.approx(
        np.cosh(0.7) / np.sinh(0.7), rel=1e-14)
    # long-time limit is the equilibrium sqrt(b/a)
    assert coth_bound(4.0, 1.0, 50.0) == pytest.approx(0.5, abs=1e-12)


def test_coth_bound_domain():
    for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            coth_bound(*bad)


def test_ode_comparison_spec_validation():
    with pytest.raises(ValueError):
        OdeComparison(a=0.0, b=1.0, y0=1.0, T=1.0)
    with pytest.raises(ValueError):
        OdeComparison(a=1.0, b=1.0, y0=1.0, T=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["a", "b", "y0", "T"])
def test_ode_comparison_rejects_non_finite_spec(name, bad):
    fields = {"a": 1.0, "b": 4.0, "y0": 1.0, "T": 1.0, name: bad}
    with pytest.raises(ValueError, match="finite"):
        OdeComparison(**fields)


def test_ode_comparison_single_case():
    (rep,) = verify_ode_comparison_batch(
        [OdeComparison(a=1.0, b=4.0, y0=1000.0, T=1.0)])
    assert rep.passed
    # equilibrium start and both approach directions are always exercised
    assert len(rep.y0_variants) == 3
    assert rep.max_excess <= rep.tolerance


def test_ode_comparison_equilibrium_stays_below():
    (rep,) = verify_ode_comparison_batch(
        [OdeComparison(a=2.0, b=2.0, y0=1.0, T=2.0)])
    assert rep.passed
    assert rep.max_excess < 0.0  # coth factor keeps the bound strictly above


def test_ode_comparison_random_batch():
    rng = np.random.default_rng(17)
    specs = [OdeComparison(a=float(rng.uniform(0.1, 10.0)),
                           b=float(rng.uniform(0.1, 10.0)),
                           y0=float(rng.uniform(0.1, 10.0)),
                           T=1.0)
             for _ in range(100)]
    reports = verify_ode_comparison_batch(specs, substeps=2 * 10**4)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("substeps", [0, -3, 1, 1037])
def test_ode_comparison_rejects_no_substeps(substeps):
    # the step-doubling companion runs at substeps // 2, so the count is even
    spec = OdeComparison(a=1.0, b=4.0, y0=1.0, T=1.0)
    with pytest.raises(ValueError, match="substeps"):
        verify_ode_comparison_batch([spec], substeps=substeps)


def test_ode_error_estimate_is_fourth_order():
    spec = OdeComparison(a=1.0, b=1.0, y0=3.0, T=1.0)
    coarse, fine = (verify_ode_comparison_batch([spec], substeps=n)[0]
                    for n in (128, 256))
    assert 12.0 <= coarse.error_estimate / fine.error_estimate <= 20.0


def test_ode_coarse_count_fails_on_its_error_estimate():
    spec = OdeComparison(a=2.0, b=2.0, y0=1.0, T=2.0)
    (rep,) = verify_ode_comparison_batch([spec], substeps=8)
    assert rep.max_excess <= rep.tolerance  # the bare excess would pass
    assert rep.max_excess + rep.error_estimate > rep.tolerance
    assert not rep.passed
    assert verify_ode_comparison_batch([spec])[0].passed


def test_ode_unstable_count_is_not_certified():
    # sqrt(ab) dt = 5 throws every row below the freeze floor at once, which
    # would leave no shared point for the estimate
    spec = OdeComparison(a=1.0, b=1e4, y0=1.0, T=1.0)
    (rep,) = verify_ode_comparison_batch([spec], substeps=20)
    assert rep.max_excess < 0.0
    assert rep.error_estimate == np.inf
    assert not rep.passed
    assert verify_ode_comparison_batch([spec])[0].passed


def test_ode_floor_freeze_case_passes():
    # from y0 < -sqrt(b/a) the solution blows down and its row freezes below
    # the floor; the frozen points stay out of the error estimate
    (rep,) = verify_ode_comparison_batch(
        [OdeComparison(a=1.0, b=1.0, y0=-3.0, T=1.0)])
    assert rep.passed
    assert np.isfinite(rep.error_estimate)
    assert rep.max_excess + rep.error_estimate <= rep.tolerance


def test_ode_default_agrees_with_a_fine_run_within_its_estimate():
    # criterion 10's cases.  The 10^5-step run carries its own rounding, up
    # to one ulp of the largest |y| per step, which the 2,000-step estimate
    # does not see
    rng = np.random.default_rng(17)
    specs = [OdeComparison(a=float(rng.uniform(0.1, 10.0)),
                           b=float(rng.uniform(0.1, 10.0)),
                           y0=float(rng.uniform(0.1, 10.0)),
                           T=1.0)
             for _ in range(100)]
    fine_steps = 10**5
    default = verify_ode_comparison_batch(specs)
    fine = verify_ode_comparison_batch(specs, substeps=fine_steps)
    assert all(r.passed for r in default)
    for d, f in zip(default, fine):
        rounding = fine_steps * np.finfo(np.float64).eps * max(
            abs(y) for y in d.y0_variants)
        assert abs(d.max_excess - f.max_excess) <= d.error_estimate + rounding


# random-field ensembles -------------------------------------------------------------

def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(count=0)
    with pytest.raises(ValueError):
        EnsembleSpec(cutoff=0)
    with pytest.raises(ValueError):
        EnsembleSpec(floor=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec(delta=-1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(amplitude=(1.0, 0.2))
    with pytest.raises(ValueError):
        EnsembleSpec(b_selector="entropy")


def test_synth_field_positive_and_deterministic():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    a = synth_positive_field(g, np.random.default_rng(5), 4, (0.2, 1.0), 0.05)
    b = synth_positive_field(g, np.random.default_rng(5), 4, (0.2, 1.0), 0.05)
    c = synth_positive_field(g, np.random.default_rng(6), 4, (0.2, 1.0), 0.05)
    assert a.min() > 0.05
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_log_poincare_trivial_levels():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    spec = EnsembleSpec(count=3, seed=0, delta=0.5)
    at_level = log_poincare_ratio(spec, g,
                                  field_source=lambda i: np.full(g.shape, 0.5))
    assert at_level.excluded == 3
    assert at_level.degenerate
    assert np.isnan(at_level.max_ratio)
    above = log_poincare_ratio(spec, g,
                               field_source=lambda i: np.full(g.shape, 1.0))
    assert above.alternative == 3
    assert above.included == 0
    with pytest.raises(ValueError):
        log_poincare_ratio(spec, g, field_source=lambda i: np.zeros(g.shape))


def test_log_poincare_branches_partition_ensemble():
    g = Grid(cells=[32, 32], extents=[1.0, 1.0])
    spec = EnsembleSpec(count=200, seed=1)
    rep = log_poincare_ratio(spec, g)
    assert rep.included + rep.alternative + rep.excluded == 200
    assert rep.included > 0  # the global log-offset populates both branches
    assert rep.alternative > 0
    assert np.isfinite(rep.max_ratio) and rep.max_ratio > 0.0


def test_log_poincare_stability_under_doubling():
    g = Grid(cells=[32, 32], extents=[1.0, 1.0])
    base = log_poincare_ratio(EnsembleSpec(count=1000, seed=1), g)
    double = log_poincare_ratio(EnsembleSpec(count=2000, seed=1), g)
    assert not base.degenerate
    change = abs(double.max_ratio - base.max_ratio) / base.max_ratio
    assert change <= 0.2


def test_log_poincare_eta_guard():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    with pytest.raises(ValueError):
        log_poincare_ratio(EnsembleSpec(eta=2.0), g)


def test_log_poincare_determinism_and_threading():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    spec = EnsembleSpec(count=64, seed=9)
    serial = log_poincare_ratio(spec, g)
    again = log_poincare_ratio(spec, g)
    assert serial == again


def test_mean_poincare_closed_form_linear():
    # u = x on [0, 1], B = left half: ratios 5/16 (p = 1), sqrt(7/48) (p = 2)
    g = Grid(cells=[64], extents=[1.0])
    (x,) = g.meshgrid()
    spec = EnsembleSpec(count=1, seed=0, delta=0.5, b_selector="threshold")
    rep1 = mean_poincare_ratio(spec, g, p=1.0, field_source=lambda i: x)
    assert rep1.max_ratio == pytest.approx(5.0 / 16.0, rel=0.05)
    rep2 = mean_poincare_ratio(spec, g, p=2.0, field_source=lambda i: x)
    assert rep2.max_ratio == pytest.approx(np.sqrt(7.0 / 48.0), rel=0.05)


def test_mean_poincare_validation():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    spec = EnsembleSpec(count=4, seed=0, delta=0.25)
    with pytest.raises(ValueError):
        mean_poincare_ratio(spec, g, p=0.5)
    with pytest.raises(ValueError):
        mean_poincare_ratio(EnsembleSpec(count=4, delta=2.0), g, p=1.0)


def test_mean_poincare_selectors_and_riesz():
    g = Grid(cells=[24, 24], extents=[1.0, 1.0])
    spec = EnsembleSpec(count=40, seed=2, delta=0.25)
    thresh = mean_poincare_ratio(spec, g, p=2.0)
    assert thresh.count == 40
    assert 0.0 < thresh.mean_ratio <= thresh.max_ratio

    rand_spec = EnsembleSpec(count=40, seed=2, delta=0.25, b_selector="random")
    rand = mean_poincare_ratio(rand_spec, g, p=2.0)
    assert rand.max_ratio > 0.0
    assert rand.b_selector == "random"

    probed = mean_poincare_ratio(spec, g, p=2.0, include_riesz=True,
                                 riesz_probes=20)
    assert probed.riesz["passed"]
    assert probed.riesz["fitted_constant"] > 0.0
    assert probed.riesz["headroom"] == 1.5
    assert "riesz" in probed.as_dict()


def test_mean_poincare_delta_trend_grows():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    spec = EnsembleSpec(count=50, seed=3)
    trend = mean_poincare_ratio(spec, g, p=2.0).delta_trend
    ratios = [row["max_ratio"] for row in trend]
    deltas = [row["delta"] for row in trend]
    assert deltas == sorted(deltas, reverse=True)
    # smaller reference sets can only loosen the constant (small slack for ties)
    for a, b in zip(ratios, ratios[1:]):
        assert b >= a * 0.95


# reference loops --------------------------------------------------------------------
# The kernels as first written: one mode, one RK4 step and one probe cell at a
# time.  The buffered kernels keep every floating-point operation and its
# order, so they must match these byte for byte.

def _synth_reference(grid, rng, cutoff, amplitude, floor):
    amp = rng.uniform(*amplitude)
    coords = grid.meshgrid()
    series = np.zeros(grid.shape)
    for k in itertools.product(range(cutoff + 1), repeat=grid.dim):
        coeff = rng.uniform(-1.0, 1.0) * amp / (1.0 + sum(ki * ki for ki in k))
        if not any(k):
            series += coeff
            continue
        term = np.ones(grid.shape)
        for ax, ki in enumerate(k):
            if ki:
                term = term * np.cos(ki * np.pi * coords[ax] / grid.extents[ax])
        series += coeff * term
    return floor + np.exp(series)


def _ode_reference(specs, substeps):
    """Per spec, (max excess, error estimate, passed) over its three y0
    variants, from a main run and a step-doubling companion each stepped
    one step at a time; and whether any row reached the floor freeze."""
    rows = []
    for s in specs:
        eq = np.sqrt(s.b / s.a)
        rows += [(s.a, s.b, y0, s.T) for y0 in (s.y0, 0.5 * eq, 2.0 * eq)]
    a, b, y0, T = (np.array(col, dtype=np.float64) for col in zip(*rows))
    dt = T / substeps
    eq = np.sqrt(b / a)
    w = np.sqrt(a * b)
    floor = -10.0 * (eq + 1.0)

    def rk4(y, dt):
        k1 = b - a * y * y
        y2 = y + 0.5 * dt * k1
        k2 = b - a * y2 * y2
        y3 = y + 0.5 * dt * k2
        k3 = b - a * y3 * y3
        y4 = y + dt * k3
        k4 = b - a * y4 * y4
        y_next = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return np.where(y > floor, y_next, y)

    y = companion = y0
    max_excess = np.full(len(rows), -np.inf)
    certified = np.full(len(rows), -np.inf)
    error_at = np.zeros(len(rows))
    froze = False
    for n in range(1, substeps + 1):
        froze |= bool((y <= floor).any())
        y = rk4(y, dt)
        excess = y - eq / np.tanh(w * (n * dt))
        np.maximum(max_excess, excess, out=max_excess)
        if n % 2 == 0:
            companion = rk4(companion, 2.0 * dt)
            err = np.abs(y - companion) / 15.0
            score = np.where((y <= floor) | (companion <= floor), -np.inf,
                             excess + err)
            assert not np.isnan(score).any()
            better = score > certified
            certified[better] = score[better]
            error_at[better] = err[better]
    thrown = ((y <= floor) | (companion <= floor)) & (y0 > -eq)
    certified[thrown] = error_at[thrown] = np.inf
    expected = []
    for i in range(0, len(rows), 3):
        excess = float(max_excess[i:i + 3].max())
        estimate = float(error_at[i + certified[i:i + 3].argmax()])
        expected.append((excess, estimate, bool(
            np.isfinite(estimate) and excess + estimate <= _ODE_TOLERANCE)))
    return expected, froze


def _riesz_reference(grid, values, u_b, grad_mag, cells):
    coords = np.stack([c.ravel() for c in grid.meshgrid()], axis=1)
    flat = values.ravel()
    gm = grad_mag.ravel()
    power = grid.dim - 1
    out = np.empty(len(cells))
    for j, cell in enumerate(cells):
        dist = np.linalg.norm(coords - coords[cell], axis=1)
        np.maximum(dist, 0.5 * min(grid.h), out=dist)
        kernel = dist**-power if power else np.ones_like(dist)
        bound = float((gm * kernel).sum()) * grid.cell_volume
        out[j] = abs(flat[cell] - u_b) / bound if bound > 0 else 0.0
    return out


def _square_reference(u, v, grid, p, q, chi):
    """check_square_completion one trial at a time in fresh arrays, as
    (residual, scale)."""
    coef = entropy_coefficients(p, q, chi)
    up = u ** (p / 2.0)
    vq = v ** (q / 2.0)
    a2 = np.zeros(grid.shape)
    b2 = np.zeros(grid.shape)
    ab = np.zeros(grid.shape)
    for ax in range(grid.dim):
        gu = faces_to_cells(face_grad_values(up, grid.h, ax), ax)
        gv = faces_to_cells(face_grad_values(vq, grid.h, ax), ax)
        a = up * gv
        b = vq * gu
        a2 += a * a
        b2 += b * b
        ab += a * b
    cross = 4.0 * ((1.0 - p) * chi + 2.0 * q) / q
    raw = 4.0 * (1.0 - p) / p * b2 - cross * ab + coef.c2 * a2
    completed = coef.c1 * b2 + coef.c2 * (a2 - 2.0 * coef.kappa * ab
                                          + coef.kappa**2 * b2)
    scale_field = (4.0 * (1.0 - p) / p * b2 + cross * np.abs(ab)
                   + coef.c2 * a2 + np.abs(coef.c1) * b2)
    return float(np.abs(raw - completed).max()), float(scale_field.max())


UNEQUAL_GRIDS = [
    Grid(cells=[37], extents=[1.7]),
    Grid(cells=[12, 9], extents=[1.0, 2.5]),
    Grid(cells=[6, 5, 7], extents=[0.7, 1.3, 2.1]),
]


@pytest.mark.parametrize("grid", UNEQUAL_GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
def test_synth_matches_reference_loop(grid, cutoff):
    for seed in range(3):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        a = synth_positive_field(grid, fast, cutoff, (0.2, 1.0), 0.05)
        b = _synth_reference(grid, slow, cutoff, (0.2, 1.0), 0.05)
        assert a.tobytes() == b.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state


def test_ode_batch_matches_reference_loop():
    # short horizons from far-off starts: the max excess falls mid-transient,
    # where a reordered sum moves the last bits instead of settling at the
    # equilibrium
    rng = np.random.default_rng(23)
    specs = [OdeComparison(a=float(rng.uniform(0.1, 10.0)),
                           b=float(rng.uniform(0.1, 10.0)),
                           y0=float(rng.uniform(0.1, 1000.0)),
                           T=float(rng.uniform(0.01, 0.1)))
             for _ in range(12)]
    specs.append(OdeComparison(a=1.0, b=1.0, y0=-3.0, T=1.0))  # y0 < -eq
    substeps = 1000 + 38
    assert substeps % _ODE_CHUNK
    expected, froze = _ode_reference(specs, substeps)
    assert froze
    reports = verify_ode_comparison_batch(specs, substeps=substeps)
    assert [(r.max_excess, r.error_estimate, r.passed)
            for r in reports] == expected


@pytest.mark.parametrize("spec, substeps", [
    (OdeComparison(a=2.0, b=2.0, y0=1.0, T=2.0), 8),  # fails on its estimate
    (OdeComparison(a=1.0, b=1e4, y0=1.0, T=1.0), 20),  # thrown below the floor
    (OdeComparison(a=1.0, b=1.0, y0=-3.0, T=1.0), 2 * _ODE_CHUNK + 6),
], ids=["coarse", "unstable", "freeze"])
def test_ode_batch_verdicts_match_reference_loop(spec, substeps):
    expected, _ = _ode_reference([spec], substeps)
    (rep,) = verify_ode_comparison_batch([spec], substeps=substeps)
    assert [(rep.max_excess, rep.error_estimate, rep.passed)] == expected


# (grid, cutoff) by "cutoff-dim" id.  The 2-D and 3-D tables at cutoffs 16
# and 4 pass the per-call budget and are contracted in slabs of axis-0
# layers (12 slabs of 9 cells, 6 of 35); a 4-cell 1-D grid is the fewest
# cells a contraction can span.
STACKED_CASES = {
    **{f"{cutoff}-{grid.dim}d": (grid, cutoff)
       for grid in UNEQUAL_GRIDS for cutoff in (1, 4)},
    "16-2d": (UNEQUAL_GRIDS[1], 16),
    "4-1d-4cells": (Grid(cells=[4], extents=[0.9]), 4),
}


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_synthesis_matches_reference_loop(case):
    # members drawn one by one, synthesized as one block, in blocks of 5 and
    # of 2 _ENSEMBLE_BLOCK rows (a square-completion block)
    grid, cutoff = STACKED_CASES[case]
    _, denominators = _cosine_table(grid.cells, grid.extents, cutoff)
    for rows in (5, 2 * _ENSEMBLE_BLOCK):
        fast = [np.random.default_rng([seed, 5]) for seed in range(rows)]
        slow = [np.random.default_rng([seed, 5]) for seed in range(rows)]
        block = _synthesize(grid, cutoff, 0.05, [
            _series_coefficients(rng, (0.2, 1.0), denominators) for rng in fast])
        assert block.shape == (rows,) + grid.shape
        for row, rng, ref_rng in zip(block, fast, slow):
            ref = _synth_reference(grid, ref_rng, cutoff, (0.2, 1.0), 0.05)
            assert row.tobytes() == ref.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("grid", UNEQUAL_GRIDS, ids=lambda g: f"{g.dim}d")
def test_riesz_ratios_match_reference_loop(grid):
    rng = np.random.default_rng(31)
    members = 3
    values = np.stack([synth_positive_field(grid, rng, 3, (0.2, 1.0), 0.05)
                       for _ in range(members)])
    grad_mag = gradient_cell_magnitude(values, grid)
    u_b = values.reshape(members, -1).min(axis=1)
    # more probes than cells, so cells repeat within and across members, and
    # neither the probe count nor the distinct cells fill whole blocks
    probes = values[0].size + 2 * _RIESZ_BLOCK + 5
    cells = rng.integers(0, values[0].size, size=(members, probes))
    assert len(np.unique(cells)) < cells.size
    assert len(np.unique(cells)) % _RIESZ_BLOCK
    fast = _riesz_ratios(
        grid, np.abs(np.take_along_axis(values.reshape(members, -1), cells, axis=1)
                     - u_b[:, None]), grad_mag, cells)
    for m in range(members):
        slow = _riesz_reference(grid, values[m], u_b[m], grad_mag[m], cells[m])
        assert fast[m].tobytes() == slow.tobytes()


def _mean_reference(spec, grid, p, probes=0):
    """mean_poincare_ratio one member at a time: each member's ratio, and
    with probes the Riesz probe's fitted constant and worst evaluation."""
    vol = grid.cell_volume
    b_count = max(1, int(round(spec.delta / vol)))
    probe_rng = np.random.default_rng([spec.seed, 10**9])
    ratios, calibration, evaluation = [], [], []
    for i in range(spec.count):
        rng = np.random.default_rng([spec.seed, i])
        values = _synth_reference(grid, rng, spec.cutoff, spec.amplitude,
                                  spec.floor)
        flat = values.ravel()
        if spec.b_selector == "threshold":
            b_idx = np.argsort(flat, kind="stable")[:b_count]
        else:
            b_idx = rng.choice(flat.size, size=b_count, replace=False)
        u_b = float(flat[b_idx].mean())
        num = (np.abs(values - u_b) ** p).sum() * vol
        grad_mag = gradient_cell_magnitude(values, grid)
        den = (grad_mag**p).sum() * vol
        ratios.append((num ** (1.0 / p)) / (den ** (1.0 / p)))
        if probes:
            cells = probe_rng.integers(0, flat.size, size=probes)
            side = calibration if i < max(1, spec.count // 2) else evaluation
            side.append(_riesz_reference(grid, values, u_b, grad_mag, cells))
    fitted = float(np.concatenate(calibration).max()) if probes else None
    worst = float(np.concatenate(evaluation).max()) if evaluation else 0.0
    return np.array(ratios), fitted, worst


MEAN_CASES = {
    "threshold-2d": (Grid(cells=[12, 9], extents=[1.0, 2.5]),
                     dict(b_selector="threshold"), 2.0),
    "random-3d": (Grid(cells=[6, 5, 7], extents=[0.7, 1.3, 2.1]),
                  dict(b_selector="random", cutoff=2), 1.5),
    "random-1d": (Grid(cells=[37], extents=[1.7]),
                  dict(b_selector="random", cutoff=6), 2.0),
}


# each MEAN_CASES case as one Riesz group (these grids hold the whole
# ensemble), and with the hold cut to one or two blocks of members
MEAN_RUNS = {
    **{case: (case, None) for case in MEAN_CASES},
    **{f"{case}-hold{blocks}": (case, blocks)
       for case in MEAN_CASES for blocks in (1, 2)},
}


@pytest.mark.parametrize("case", sorted(MEAN_RUNS))
def test_mean_poincare_matches_reference_loop(case, monkeypatch):
    name, hold_blocks = MEAN_RUNS[case]
    grid, knobs, p = MEAN_CASES[name]
    count = 2 * _ENSEMBLE_BLOCK + 3  # a partial last block
    # the calibration half, 17 members, ends inside a group of one block
    # (16 + 16 + 3 members) and of two (32 + 3)
    groups = []

    def spy(grid, gap, grad_mag, cells):
        groups.append(len(gap))
        return _riesz_ratios(grid, gap, grad_mag, cells)

    monkeypatch.setattr(oracles, "_riesz_ratios", spy)
    if hold_blocks:
        monkeypatch.setattr(oracles, "_RIESZ_HOLD_FLOATS",
                            hold_blocks * _ENSEMBLE_BLOCK * int(np.prod(grid.cells)))
    spec = EnsembleSpec(count=count, seed=4, delta=0.3 * grid.volume, **knobs)
    ratios, fitted, worst = _mean_reference(spec, grid, p, probes=23)
    rep = mean_poincare_ratio(spec, grid, p, include_riesz=True, riesz_probes=23)
    assert groups == {None: [35], 1: [16, 16, 3], 2: [32, 3]}[hold_blocks]
    assert rep.max_ratio == float(ratios.max())
    assert rep.mean_ratio == float(ratios.mean())
    assert rep.riesz["fitted_constant"] == fitted
    assert rep.riesz["eval_worst"] == worst


def test_riesz_hold_is_bounded(monkeypatch):
    # an ensemble may have up to 100,000 members, whose |Du| alone would
    # take 13 GB at 128 x 128; a hold of one block keeps the probe's memory
    # from growing with the count
    monkeypatch.setattr(oracles, "_RIESZ_HOLD_FLOATS", 1)
    g = Grid(cells=[32, 32], extents=[1.0, 1.0])

    def peak(count):
        spec = EnsembleSpec(count=count, seed=3)
        tracemalloc.start()
        try:
            _mean_ensemble(spec, g, 2.0, [spec.delta], probes=100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(48)  # warm the caches
    block_gm_bytes = _ENSEMBLE_BLOCK * 32 * 32 * 8
    assert peak(96) - peak(48) < block_gm_bytes


@pytest.mark.parametrize("selector", ["threshold", "random"])
def test_delta_trend_matches_per_delta_calls(selector):
    # the trend shares the report's ensemble; each row is what a report at
    # that |B| alone gives
    g = Grid(cells=[12, 9], extents=[1.0, 2.5])
    spec = EnsembleSpec(count=_ENSEMBLE_BLOCK + 5, seed=6, b_selector=selector)
    trend = mean_poincare_ratio(spec, g, 2.0).delta_trend
    assert len(trend) == len(DELTA_TREND_FRACTIONS)
    for row, frac in zip(trend, DELTA_TREND_FRACTIONS):
        alone = mean_poincare_ratio(replace(spec, delta=frac * g.volume), g, 2.0)
        assert row == {"delta": alone.delta, "max_ratio": alone.max_ratio}


def _log_reference(spec, grid):
    """log_poincare_ratio one member at a time, as (kind, ratio, regenerated)."""
    vol = grid.cell_volume
    outcomes = []
    for i in range(spec.count):
        rng = np.random.default_rng([spec.seed, i])
        regenerated = 0
        while True:
            phi = _synth_reference(grid, rng, spec.cutoff, spec.amplitude,
                                   spec.floor)
            if float((phi > spec.delta).sum()) * vol > spec.eta:
                break
            regenerated += 1
        num = float(np.log(spec.delta / phi).sum()) * vol
        den = float((gradient_cell_magnitude(phi, grid) ** 2 / phi**2).sum()) * vol
        scale = max(abs(np.log(spec.delta / phi)).max() * grid.volume, 1.0)
        if abs(num) <= 1e-14 * scale and den <= 1e-14 * scale:
            outcomes.append(("excluded", 0.0, regenerated))
        elif num < 0.0:
            outcomes.append(("alternative", 0.0, regenerated))
        else:
            outcomes.append(("included", num * num / den, regenerated))
    return outcomes


def test_log_ensemble_with_regeneration_matches_reference_loop():
    g = Grid(cells=[12, 9], extents=[1.0, 2.5])
    # a high eta sends many first draws back for another
    spec = EnsembleSpec(count=2 * _ENSEMBLE_BLOCK + 3, seed=8, delta=1.0, eta=1.2)
    outcomes = _log_reference(spec, g)
    rep = log_poincare_ratio(spec, g)
    ratios = [r for kind, r, _ in outcomes if kind == "included"]
    assert rep.regenerated == sum(reg for _, _, reg in outcomes)
    assert max(reg for _, _, reg in outcomes) >= 2  # several rounds ran
    assert rep.max_ratio == max(ratios)
    assert rep.included == len(ratios)
    assert rep.alternative == sum(kind == "alternative" for kind, _, _ in outcomes)


def test_square_completion_trials_match_reference_loop(monkeypatch):
    # a full and a partial block; on 40 x 40 cells, past _SQUARE_STACK_CELLS,
    # in stacks of 10, 6 and 5 trials.  Every trial's residual and scale are
    # compared, in trial order, as well as the worst ratio.
    assert _SQUARE_STACK_CELLS // (40 * 40) == 10
    spec = EnsembleSpec(cutoff=3)
    trials = _ENSEMBLE_BLOCK + 5
    checked = []

    def spy(*args):
        rep = check_square_completion(*args)
        checked.extend(zip(rep.residual, rep.scale))
        return rep

    monkeypatch.setattr(oracles, "check_square_completion", spy)
    for g in (Grid(cells=[12, 9], extents=[1.0, 2.5]),
              Grid(cells=[40, 40], extents=[1.0, 1.0])):
        expected = []
        for i in range(trials):
            rng = np.random.default_rng([17, 7, i])
            u, v = (_synth_reference(g, rng, 3, spec.amplitude, spec.floor)
                    for _ in range(2))
            chi = float(rng.uniform(0.3, 3.0))
            p = float(rng.uniform(0.05, 0.95)) * min(1.0, 1.0 / chi**2)
            qm, qp = q_bounds(p, chi)
            q = float(rng.uniform(qm + 1e-6, qp - 1e-6)) if qp - qm > 2e-6 \
                else 0.5 * (qm + qp)
            expected.append(_square_reference(u, v, g, p, q, chi))
        checked.clear()
        worst = worst_square_completion(g, spec, 17, trials)
        assert checked == expected
        assert worst == max(residual / scale for residual, scale in expected)


def _square_draws_reference(seed, i, amplitude, denominators):
    """Trial i of worst_square_completion drawn call by call from its own
    stream: u's and v's coefficient rows, chi, p and q."""
    rng = np.random.default_rng([seed, 7, i])
    u = _series_coefficients(rng, amplitude, denominators)
    v = _series_coefficients(rng, amplitude, denominators)
    chi = float(rng.uniform(0.3, 3.0))
    p = float(rng.uniform(0.05, 0.95)) * min(1.0, 1.0 / chi**2)
    qm, qp = q_bounds(p, chi)
    q = float(rng.uniform(qm + 1e-6, qp - 1e-6)) if qp - qm > 2e-6 \
        else 0.5 * (qm + qp)
    return u, v, chi, p, q


def test_square_trials_match_reference_loop():
    # 20,000 trials: Python's chi**2 and a numpy square differ in about 1 of
    # 1,000 draws, so a block that squared chi in numpy would show here
    amplitude = (0.2, 1.0)
    _, denominators = _cosine_table((32, 32), (1.0, 1.0), 4)
    draws = np.empty((_ENSEMBLE_BLOCK, 2 * len(denominators) + 5))
    squares_split = 0
    for lo in range(0, 20_000, _ENSEMBLE_BLOCK):
        block = range(lo, lo + _ENSEMBLE_BLOCK)
        coefficients, chi, p, q = oracles._square_trials(
            11, block, amplitude, denominators, draws)
        assert coefficients.shape == (2 * len(block), len(denominators))
        for j, i in enumerate(block):
            u, v, *scalars = _square_draws_reference(11, i, amplitude,
                                                     denominators)
            assert coefficients[j].tobytes() == u.tobytes()
            assert coefficients[len(block) + j].tobytes() == v.tobytes()
            assert [chi[j], p[j], q[j]] == scalars
            assert all(type(x) is float for x in (chi[j], p[j], q[j]))
            squares_split += chi[j] ** 2 != np.square(np.float64(chi[j]))
    assert squares_split > 0


def _square_rows(grid, rows, seed):
    """A stack of `rows` trials with their own p, q and chi; the last row
    of a stack of more than one sits at its window's upper end."""
    rng = np.random.default_rng([seed, rows])
    u, v = (np.stack([_synth_reference(grid, rng, 3, (0.2, 1.0), 0.05)
                      for _ in range(rows)]) for _ in range(2))
    p, q, chi = [], [], []
    for row in range(rows):
        chi.append(float(rng.uniform(0.3, 3.0)))
        p.append(float(rng.uniform(0.05, 0.95)) * min(1.0, 1.0 / chi[-1]**2))
        qm, qp = q_bounds(p[-1], chi[-1])
        q.append(qp if rows > 1 and row == rows - 1
                 else float(rng.uniform(qm + 1e-6, qp - 1e-6)))
    return u, v, p, q, chi


@pytest.mark.parametrize("grid", UNEQUAL_GRIDS, ids=lambda g: f"{g.dim}d")
def test_stacked_square_completion_matches_reference(grid):
    work = _square_buffers(grid, _ENSEMBLE_BLOCK)
    for rows in (1, 5, _ENSEMBLE_BLOCK):
        u, v, p, q, chi = _square_rows(grid, rows, 29)
        assert len(set(p)) == len(set(q)) == len(set(chi)) == rows
        expected = [_square_reference(*trial, grid, *coefs)
                    for trial, coefs in zip(zip(u, v), zip(p, q, chi))]
        for buffers in (work, None):  # shared buffers, wider than a short stack
            rep = check_square_completion(u, v, grid, p, q, chi, buffers)
            assert rep.residual.shape == rep.scale.shape == (rows,)
            assert list(zip(rep.residual, rep.scale)) == expected
        one = check_square_completion(u[0], v[0], grid, p[0], q[0], chi[0])
        assert (one.residual, one.scale) == expected[0]
        assert type(one.residual) is float and type(one.scale) is float


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [500.0, 1000.0])
def test_mean_ensemble_large_p_ratios_are_scaled(p):
    # |u - u_B|^p and |Du|^p under- or overflow here; each p-norm is taken
    # relative to its row's max instead
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    spec = EnsembleSpec(count=4, cutoff=2, seed=1, delta=0.5)
    (ratios,), _ = _mean_ensemble(spec, g, p, [spec.delta])
    b_count = int(round(spec.delta / g.cell_volume))

    def norm(x):
        peak = x.max()
        return peak * (((x / peak) ** p).sum() * g.cell_volume) ** (1.0 / p)

    for i, got in enumerate(ratios):
        values = _synth_reference(g, np.random.default_rng([spec.seed, i]),
                                  spec.cutoff, spec.amplitude, spec.floor)
        flat = values.ravel()
        u_b = flat[np.argsort(flat, kind="stable")[:b_count]].mean()
        expected = (norm(np.abs(values - u_b))
                    / norm(gradient_cell_magnitude(values, g)))
        assert np.isfinite(got) and got > 0.0
        assert abs(got - expected) <= 1e-9 * expected

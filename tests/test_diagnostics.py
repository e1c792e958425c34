import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logsense_ks import diagnostics, simulator
from logsense_ks.diagnostics import (
    ACC_FIELDS,
    Accumulator,
    BumpSpatial,
    BumpTemporal,
    ConstantSpatial,
    CosineSpatial,
    OneTemporal,
    RampDownTemporal,
    SamplingError,
    apriori_bounds_check,
    builtin_supersolution_family,
    grad_vq_bound,
    log_mass_check,
    trace_positivity_check,
)
from logsense_ks.cli import _residual_test_functions
from logsense_ks.grid import (
    Grid,
    end_slabs,
    face_cell_magnitude,
    face_grad_values,
    face_mean_values,
    lap_values,
)
from logsense_ks.params import ModelParams
from logsense_ks.simulator import (
    SimState,
    constant_field,
    gaussian_bump,
    run,
)


def default_params(**kw):
    base = dict(chi=2.0, n=2, eps=0.1, p=0.2, q=0.35, r=1.1)
    base.update(kw)
    return ModelParams(**base)


def streamed(state, T, sample_times=None, phis=(), phi_v=None):
    """The run of `state` and the Accumulated pass over its samples."""
    accumulator = Accumulator(state.grid, state.params, phis, phi_v)
    traj = run(state, T=T, sample_times=sample_times,
               on_sample=accumulator.add)
    return traj, accumulator.finish()


def steady_pass(phis=(), cells=12, c=0.7, eps=0.1, T=0.2):
    g = Grid(cells=[cells, cells], extents=[1.0, 1.0])
    params = default_params(eps=eps)
    u = constant_field(g, c)
    v = np.full(g.shape, c / (1.0 + eps * c))
    state = SimState(t=0.0, grid=g, u=u, v=v, params=params)
    return streamed(state, T, np.linspace(T / 100, T, 100), phis)[1]


SMOOTH_T = 0.5


@pytest.fixture(scope="module")
def smooth_pass():
    """A 24^2 Gaussian run to T = 0.5; its pass holds a cosine ramp-down
    phi, then the built-in supersolution family, and a v test function."""
    g = Grid(cells=[24, 24], extents=[1.0, 1.0])
    params = default_params()
    u0 = gaussian_bump(g, amplitude=1.5, width=0.12, baseline=0.2)
    v0 = np.ones(g.shape)
    state = SimState(t=0.0, grid=g, u=u0, v=v0, params=params)
    phis = [diagnostics.TestFunction(
        CosineSpatial((1, 0), amplitude=0.5, offset=1.0),
        RampDownTemporal(0.45))] + builtin_supersolution_family(g, SMOOTH_T)
    phi_v = diagnostics.TestFunction(
        CosineSpatial((1, 0), amplitude=0.5, offset=1.0),
        RampDownTemporal(0.9 * SMOOTH_T))
    traj, result = streamed(state, SMOOTH_T, phis=phis, phi_v=phi_v)
    return traj, result, params, phis


@pytest.fixture(scope="module")
def smooth_run(smooth_pass):
    traj, result, params, _ = smooth_pass
    return traj, result.record, params


# spatial / temporal test-function parts -------------------------------------------

def test_cosine_spatial_derivatives_match_finite_differences():
    g = Grid(cells=[64, 64], extents=[1.0, 1.5])
    psi = CosineSpatial((2, 1), amplitude=0.7, offset=1.2)
    vals = psi.values(g)
    h = g.h
    for ax in range(2):
        fd = face_grad_values(vals, h, ax)
        an = _interior(_dense_grad(psi, g, ax), ax)
        scale = np.abs(an).max()
        assert np.abs(fd - an).max() < 0.005 * scale
    lap_fd = lap_values(vals, h)
    lap_an = _dense_laplacian(psi, g)
    assert np.abs(lap_fd - lap_an).max() < 0.005 * np.abs(lap_an).max()


def test_bump_spatial_support_and_derivatives():
    g = Grid(cells=[64, 64], extents=[1.0, 1.0])
    psi = BumpSpatial(center=(0.5, 0.5), width=(0.3, 0.3))
    vals = psi.values(g)
    assert vals.min() == 0.0
    assert vals.max() <= 1.0
    # identically zero outside the support box
    X, Y = g.meshgrid()
    outside = (np.abs(X - 0.5) >= 0.3) | (np.abs(Y - 0.5) >= 0.3)
    assert np.all(vals[outside] == 0.0)
    lap_fd = lap_values(vals, g.h)
    lap_an = _dense_laplacian(psi, g)
    # the narrow support inflates the fourth derivative; stay relative
    assert np.abs(lap_fd - lap_an).max() < 0.02 * np.abs(lap_an).max()


# separable weights ------------------------------------------------------------------

SEPARABLE_GRIDS = {
    1: Grid(cells=[12], extents=[1.3]),
    2: Grid(cells=[12, 10], extents=[1.3, 0.9]),
    3: Grid(cells=[8, 10, 12], extents=[1.0, 1.3, 0.7]),
}


def _shapes(dim):
    """Every kind of spatial shape on a dim-dimensional grid."""
    grid = SEPARABLE_GRIDS[dim]
    return [
        CosineSpatial((2, 1, 3)[:dim], amplitude=0.7, offset=1.2),
        CosineSpatial((0, 1, 0)[:dim], amplitude=-0.4, offset=0.3),
        CosineSpatial((0,) * dim, amplitude=0.5, offset=1.0),
        # support closing inside the box, then one crossing the boundary
        BumpSpatial([0.45 * L for L in grid.extents],
                    [0.3 * L for L in grid.extents], amplitude=1.7),
        BumpSpatial([0.1 * L for L in grid.extents],
                    [0.5 * L for L in grid.extents]),
    ]


def _outer(vecs):
    return functools.reduce(np.multiply.outer, vecs)


def _swap(vecs, ax, vec):
    return vecs[:ax] + (vec,) + vecs[ax + 1:]


def _dense_grad(shape, grid, ax):
    """d_ax psi on the ax-faces, the outer product of the Separable factors
    with f_ax' in place of f_ax; `shape` is a spatial shape or a phi."""
    factors = shape.separable(grid).factors
    if not factors:
        cells = list(grid.shape)
        cells[ax] += 1
        return np.zeros(cells)
    f, df, _ = zip(*factors)
    return _outer(_swap(f, ax, df[ax]))


def _interior(faces, ax):
    """The interior faces of an array on all n_ax + 1 faces of axis ax."""
    return faces.take(range(1, faces.shape[ax] - 1), axis=ax)


def _dense_laplacian(shape, grid):
    """lap psi at the cell centres: the sum over axes a of the outer product
    of the Separable factors with f_a'' in place of f_a."""
    out = np.zeros(grid.shape)
    factors = shape.separable(grid).factors
    if factors:
        f, _, d2f = zip(*factors)
        for ax in range(grid.dim):
            out += _outer(_swap(f, ax, d2f[ax]))
    return out


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("dim", sorted(SEPARABLE_GRIDS))
@pytest.mark.parametrize("index", range(5))
def test_separable_factors_reproduce_the_dense_weights(dim, index):
    grid = SEPARABLE_GRIDS[dim]
    shape = _shapes(dim)[index]
    sep = shape.separable(grid)
    f, _, _ = zip(*sep.factors)
    values = shape.values(grid)
    _close(sep.offset + _outer(f), values)
    for ax in range(dim):
        _close(sep.offset + _outer(_swap(f, ax, face_mean_values(f[ax], 0))),
               face_mean_values(values, ax))


@pytest.mark.parametrize("dim", sorted(SEPARABLE_GRIDS))
@pytest.mark.parametrize("index", range(5))
def test_separable_derivatives_match_finite_differences(dim, index):
    """Each factor's f' (at faces) and f'' (at centres) against the
    differences of its f on a fine mesh of the same box."""
    coarse = SEPARABLE_GRIDS[dim]
    n = 2000
    fine = Grid(cells=[n] * dim, extents=coarse.extents, max_cells=n**dim)
    for ax, (f, df, d2f) in enumerate(_shapes(dim)[index].separable(fine).factors):
        h = fine.h[ax]
        assert df.shape == (n + 1,) and d2f.shape == (n,)
        first = np.diff(f) / h  # at the interior faces
        second = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
        assert np.abs(first - df[1:-1]).max() <= 1e-5 * np.abs(df).max()
        assert np.abs(second - d2f[1:-1]).max() <= 1e-4 * np.abs(d2f).max()


@pytest.mark.parametrize("dim", sorted(SEPARABLE_GRIDS))
@pytest.mark.parametrize("index", range(6))
def test_boundary_normal_derivative_is_the_dense_boundary_maximum(dim, index):
    grid = SEPARABLE_GRIDS[dim]
    shape = (_shapes(dim) + [ConstantSpatial(0.7)])[index]
    want = max(float(np.abs(slab).max()) for ax in range(dim)
               for slab in end_slabs(_dense_grad(shape, grid, ax), ax))
    got = diagnostics.TestFunction(shape, OneTemporal()) \
        .boundary_normal_derivative(grid)
    assert got == want


@pytest.mark.parametrize("dim", sorted(SEPARABLE_GRIDS))
def test_constant_shape_is_its_offset(dim):
    grid = SEPARABLE_GRIDS[dim]
    sep = ConstantSpatial(0.7).separable(grid)
    assert sep.offset == 0.7 and sep.factors == ()
    assert np.all(ConstantSpatial(0.7).values(grid) == sep.offset)


def _entropy_check_phis(grid, T):
    """entropy-check's eight test functions and its phi_v."""
    named = [phi for _, phi in _residual_test_functions(grid, T)]
    phi_v = diagnostics.TestFunction(
        CosineSpatial((1,) * grid.dim, amplitude=0.5, offset=1.0),
        RampDownTemporal(0.9 * T))
    return named + builtin_supersolution_family(grid, T), phi_v


def test_accumulator_integrals_match_the_dense_formulas():
    g = SEPARABLE_GRIDS[3]
    params = default_params(n=3, eps=0.05)
    u = gaussian_bump(g, amplitude=1.5, width=0.2, baseline=0.2)
    v = 1.0 + 0.3 * CosineSpatial((1, 2, 1)).values(g)
    phis, phi_v = _entropy_check_phis(g, 1.0)
    accumulator = Accumulator(g, params, phis, phi_v)
    accumulator.add(SimState(t=0.0, grid=g, u=u, v=v, params=params))
    got = accumulator._series[0]
    d = diagnostics._densities(u, v, params, accumulator.coef.kappa, g)
    vol = g.cell_volume

    def integral(pairs):
        """(sum of density * weight, sum of |density * weight|) times vol."""
        terms = [density * weight for density, weight in pairs]
        return (sum(float(t.sum()) for t in terms) * vol,
                sum(float(np.abs(t).sum()) for t in terms) * vol)

    for i, phi in enumerate(phis):
        psi = phi.spatial.values(g)
        psi_face = [face_mean_values(psi, ax) for ax in range(g.dim)]
        grad_psi = [_interior(_dense_grad(phi, g, ax), ax)
                    for ax in range(g.dim)]
        want = [
            integral([(d.upq, psi)]),
            integral((0.5 * a, w) for a, w in zip(d.diss_grad_u_x2, psi_face)),
            integral((0.25 * a, w) for a, w in zip(d.diss_square_x4, psi_face)),
            integral((0.5 * a, w) for a, w in zip(d.grad_phi_x2, grad_psi)),
            integral([(d.upq, _dense_laplacian(phi, g))]),
            integral([(d.gain, psi)]),
            integral([(d.gain_raw, psi)]),
        ]
        for k, (value, magnitude) in enumerate(want):
            assert abs(got[k, i] - value) <= 1e-12 * magnitude, (i, k)

    psi = phi_v.spatial.values(g)
    want = [integral([(v, psi)]),
            integral((face_grad_values(v, g.h, ax),
                      _interior(_dense_grad(phi_v, g, ax), ax))
                     for ax in range(g.dim)),
            integral([(u / (1.0 + params.eps * u), psi)])]
    for value, (ref, magnitude) in zip(accumulator._v_series[0], want):
        assert abs(value - ref) <= 1e-12 * magnitude


def test_accumulator_weights_are_one_dimensional():
    g = Grid(cells=[48, 48, 48], extents=[1.0, 1.0, 1.0])
    params = default_params(n=3)
    phis, phi_v = _entropy_check_phis(g, 1.0)
    assert len(phis) == 8
    tracemalloc.start()
    try:
        Accumulator(g, params, phis, phi_v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 48^3 weight alone is 0.84 MiB
    assert peak < 2**20


def test_temporal_profiles():
    ramp = RampDownTemporal(2.0)
    assert ramp.value(0.0) == 1.0
    assert ramp.value(2.0) == 0.0
    assert ramp.value(3.0) == 0.0
    assert ramp.derivative(0.0) == 0.0
    assert ramp.derivative(2.0) == 0.0
    # derivative consistent with a centered difference in the interior
    t, dt = 0.7, 1e-6
    fd = (ramp.value(t + dt) - ramp.value(t - dt)) / (2.0 * dt)
    assert ramp.derivative(t) == pytest.approx(fd, rel=1e-7)

    bump = BumpTemporal(0.5, 1.5)
    assert bump.value(0.5) == 0.0
    assert bump.value(1.5) == 0.0
    assert bump.value(1.0) == pytest.approx(1.0)
    fd = (bump.value(t + dt) - bump.value(t - dt)) / (2.0 * dt)
    assert bump.derivative(t) == pytest.approx(fd, rel=1e-7)

    with pytest.raises(ValueError):
        RampDownTemporal(0.0)
    with pytest.raises(ValueError):
        BumpTemporal(1.0, 1.0)


def test_test_function_predicates():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    phi = diagnostics.TestFunction(CosineSpatial((1, 0), amplitude=0.5, offset=1.0),
                       RampDownTemporal(0.9))
    assert phi.is_nonnegative(g, 1.0)
    assert phi.is_compact_in_time(1.0)
    assert phi.boundary_normal_derivative(g) <= 1e-12

    neg = diagnostics.TestFunction(CosineSpatial((1, 0), amplitude=2.0, offset=0.0),
                       OneTemporal())
    assert not neg.is_nonnegative(g, 1.0)
    assert not neg.is_compact_in_time(1.0)

    # support crossing the boundary leaves a nonzero normal derivative
    lopsided = diagnostics.TestFunction(BumpSpatial(center=(0.2, 0.5), width=(0.5, 0.4)),
                            OneTemporal())
    assert lopsided.boundary_normal_derivative(g) > 1e-6


def test_builtin_family_is_admissible():
    g = Grid(cells=[16, 16], extents=[1.0, 1.0])
    family = builtin_supersolution_family(g, T=1.0)
    assert len(family) == 5
    for phi in family:
        assert phi.is_nonnegative(g, 1.0)
        assert phi.is_compact_in_time(1.0)
        assert phi.boundary_normal_derivative(g) <= 1e-10
        phi.check_one_sided(g, 1.0)


# record columns --------------------------------------------------------------------

def test_constant_state_record_values():
    c, eps, T = 0.7, 0.1, 0.2
    params = default_params(eps=eps)
    rec = steady_pass(c=c, eps=eps, T=T).record
    vw = c / (1.0 + eps * c)
    vol = 1.0  # unit box

    assert_allclose(rec.mass, c * vol, rtol=1e-13)
    assert_allclose(rec.v_min, vw, rtol=1e-13)
    assert_allclose(rec.entropy, c**params.p * vw**params.q * vol, rtol=1e-13)
    assert_allclose(rec.u_lr, c**params.r * vol, rtol=1e-13)
    assert_allclose(rec.log_u, np.log(c) * vol, rtol=1e-13)
    # gradients vanish identically at a constant state
    assert np.all(rec.diss_grad_u == 0.0)
    assert np.all(rec.diss_square == 0.0)
    assert np.all(rec.grad_vq_sq == 0.0)
    assert np.all(rec.grad_log_u_sq == 0.0)
    # saturated versus raw reaction gain differ by exactly (1 + eps u)
    assert_allclose(rec.reaction_raw, rec.reaction_plus * (1.0 + eps * c),
                    rtol=1e-13)

    summ = rec.summary()
    assert summ["mass_drift_rel"] <= 1e-15
    assert set(summ["accumulated"]) == set(ACC_FIELDS)


def test_accumulated_running_integrals(smooth_run):
    traj, rec, params = smooth_run
    for name in ACC_FIELDS:
        col = rec.accumulated[name]
        assert col[0] == 0.0
        assert np.all(np.diff(col) >= -1e-15)
        assert col[-1] == pytest.approx(
            float(np.trapezoid(getattr(rec, name), rec.times)), rel=1e-12)


def test_reaction_saturation_ordering(smooth_run):
    traj, rec, params = smooth_run
    assert np.all(rec.reaction_plus <= rec.reaction_raw + 1e-15)


def test_record_csv_roundtrip(tmp_path, smooth_run):
    traj, rec, params = smooth_run
    path = tmp_path / "record.csv"
    rec.to_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "time"
    assert "entropy" in header and "acc_diss_grad_u" in header
    assert len(lines) == len(rec.times) + 1
    i = header.index("mass")
    got = np.array([float(ln.split(",")[i]) for ln in lines[1:]])
    assert np.array_equal(got, rec.mass)


# entropy identity -------------------------------------------------------------------

def test_identity_residual_constant_state_time_constant_phi():
    phis = [diagnostics.TestFunction(spatial, OneTemporal())
            for spatial in (ConstantSpatial(1.0),
                            CosineSpatial((1, 1), amplitude=0.5, offset=1.0))]
    for balance in steady_pass(phis).balances:
        resid, _ = balance.identity()
        assert resid <= 1e-10


def test_identity_residual_small_on_smooth_run(smooth_pass):
    _, result, _, _ = smooth_pass
    resid, info = result.balances[0].identity()
    assert resid <= 0.02 * info["scale"]
    assert set(info["terms"]) == {
        "diss_grad_u", "diss_square", "grad_phi", "lap_phi",
        "reaction_minus", "reaction_plus",
    }


def test_identity_requires_dense_sampling():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    params = default_params()
    state = SimState(t=0.0, grid=g, u=constant_field(g, 1.0),
                     v=np.ones(g.shape), params=params)
    phi = diagnostics.TestFunction(ConstantSpatial(1.0), OneTemporal())
    for T, times in ((0.2, [0.1, 0.2]), (0.0, None)):
        # the record alone takes any sampling; a time integral does not
        streamed(state, T, times)
        with pytest.raises(SamplingError):
            streamed(state, T, times, phis=[phi])


def test_supersolution_residual_nonnegative(smooth_pass):
    traj, result, _, phis = smooth_pass
    for phi, balance in zip(phis[1:], result.balances[1:]):
        phi.check_one_sided(traj.grid, traj.times[-1])
        resid = balance.supersolution()
        ident, info = balance.identity()
        assert resid >= -(1e-6 * info["scale"] + ident)


def test_supersolution_rejects_bad_phi(smooth_run):
    traj, rec, params = smooth_run
    T = traj.times[-1]
    with pytest.raises(ValueError):  # not compact in time
        diagnostics.TestFunction(ConstantSpatial(1.0), OneTemporal()) \
            .check_one_sided(traj.grid, T)
    with pytest.raises(ValueError):  # negative spatial part
        diagnostics.TestFunction(
            CosineSpatial((1, 0), amplitude=2.0, offset=0.0),
            RampDownTemporal(0.5 * T)).check_one_sided(traj.grid, T)
    with pytest.raises(ValueError):  # nonzero boundary normal derivative
        diagnostics.TestFunction(
            BumpSpatial(center=(0.2, 0.5), width=(0.5, 0.4)),
            RampDownTemporal(0.5 * T)).check_one_sided(traj.grid, T)


def test_v_weak_residual_small(smooth_pass):
    _, result, _, _ = smooth_pass
    scale = max(float(result.record.v_lq.max()), 1.0)
    assert result.v_weak <= 0.02 * scale
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    state = SimState(t=0.0, grid=g, u=constant_field(g, 1.0),
                     v=np.ones(g.shape), params=default_params())
    not_compact = diagnostics.TestFunction(ConstantSpatial(1.0), OneTemporal())
    with pytest.raises(ValueError, match="compact"):
        streamed(state, 0.1, np.linspace(0.001, 0.1, 100), phi_v=not_compact)


# integrated bound checks -----------------------------------------------------------

def test_apriori_bounds_on_smooth_run(smooth_run):
    traj, rec, params = smooth_run
    report = apriori_bounds_check(rec, params)
    assert report.passed
    ints = report.extras["integrals"]
    assert set(ints) == {"diss_grad_u", "grad_up_sq", "c2_diss_square",
                         "reaction_plus"}
    assert all(np.isfinite(v) for v in ints.values())
    bad = default_params(q=0.9)  # outside the admissible window, c1 < 0
    with pytest.raises(ValueError):
        apriori_bounds_check(rec, bad)


def test_u_lr_bound(smooth_pass):
    _, result, params, _ = smooth_pass
    report = result.u_lr_bound()
    assert report.passed
    assert report.lhs <= 1e-12
    with pytest.raises(ValueError):  # r >= p + 1: no splitting
        dataclasses.replace(
            result, params=dataclasses.replace(params, r=1.3)).u_lr_bound()


def test_grad_vq_bound(smooth_run):
    traj, rec, params = smooth_run
    report = grad_vq_bound(rec, params)
    assert report.passed
    assert not report.extras["degenerate"]
    nearly_one = dataclasses.replace(params, q=1.0 - 1e-9)
    flagged = grad_vq_bound(rec, nearly_one)
    assert flagged.extras["degenerate"]
    assert flagged.passed


def test_log_mass_check(smooth_run):
    traj, rec, params = smooth_run
    report = log_mass_check(rec, traj.grid, params)
    assert report.passed
    assert np.isfinite(report.extras["min_log_u"])
    assert report.extras["tau0"] > 0.0


def test_log_mass_undefined_on_vanishing_u():
    g = Grid(cells=[8, 8], extents=[1.0, 1.0])
    params = default_params()
    state = SimState(t=0.0, grid=g, u=constant_field(g, 0.0),
                     v=np.ones(g.shape), params=params)
    rec = streamed(state, 0.1, np.linspace(0.001, 0.1, 100))[1].record
    assert np.isnan(rec.log_u).all()
    report = log_mass_check(rec, g, params)
    assert not report.passed
    assert report.extras["undefined_from"] == 0.0


def test_trace_positivity(smooth_run):
    traj, rec, params = smooth_run
    assert trace_positivity_check(rec).passed


# one streamed pass ------------------------------------------------------------------

@pytest.mark.parametrize("g", [
    Grid(cells=[40], extents=[1.0]),
    Grid(cells=[16, 16], extents=[1.0, 1.0]),
    Grid(cells=[8, 6, 5], extents=[1.0, 0.8, 0.6]),
], ids=lambda g: f"{g.dim}d")
def test_a_phis_figures_do_not_depend_on_the_other_phis(g):
    # what lets one pass serve many criteria: a pass with eight phis gives
    # each phi the balance a pass with that phi alone gives it, and the same
    # record and v weak form as a pass without phis.  A contraction stacked
    # over the phis may round a phi's figures differently with the stack's
    # width, so this holds only while each phi is contracted alone.
    params = default_params(eps=0.01)
    u0 = gaussian_bump(g, amplitude=1.5, width=0.12, baseline=0.2)
    state = SimState(t=0.0, grid=g, u=u0, v=constant_field(g, 1.0),
                     params=params)
    T = 0.02
    times = np.linspace(0.0, T, 61)
    k1 = (1,) + (0,) * (g.dim - 1)
    phis = [diagnostics.TestFunction(ConstantSpatial(1.0), OneTemporal()),
            diagnostics.TestFunction(CosineSpatial(k1, 0.5, 1.0),
                                     RampDownTemporal(0.9 * T)),
            diagnostics.TestFunction(
                BumpSpatial([0.5 * L for L in g.extents],
                            [0.4 * L for L in g.extents]),
                BumpTemporal(0.05 * T, 0.85 * T)),
            ] + builtin_supersolution_family(g, T)
    assert len(phis) == 8
    phi_v = diagnostics.TestFunction(CosineSpatial((1,) * g.dim, 0.5, 1.0),
                                     RampDownTemporal(0.9 * T))

    full = Accumulator(g, params, phis, phi_v)
    singles = [Accumulator(g, params, [phi]) for phi in phis]
    bare = Accumulator(g, params)
    v_only = Accumulator(g, params, phi_v=phi_v)
    passes = [full, bare, v_only] + singles

    def feed(s):
        for accumulator in passes:
            accumulator.add(s)

    run(state, T, sample_times=times, on_sample=feed)
    full, bare, v_only, *singles = [a.finish() for a in passes]

    for balance, single in zip(full.balances, singles):
        assert balance == single.balances[0]
    assert full.v_weak == v_only.v_weak
    assert np.array_equal(full.record.times, bare.record.times)
    for name in bare.record._columns:
        assert np.array_equal(getattr(full.record, name),
                              getattr(bare.record, name), equal_nan=True), name
    for name in ACC_FIELDS:
        assert np.array_equal(full.record.accumulated[name],
                              bare.record.accumulated[name],
                              equal_nan=True), name
    assert full.u_lr_bound() == bare.u_lr_bound()


def _figures(result):
    """Every figure of an Accumulated pass, as exact text."""
    record = result.record
    arrays = [record.times] + [getattr(record, name)
                               for name in record._columns]
    arrays += [record.accumulated[name] for name in ACC_FIELDS]
    return ([a.tobytes() for a in arrays],
            [repr(dataclasses.asdict(b)) for b in result.balances],
            result.u_lr_worst.hex())


@pytest.mark.parametrize("g", [
    Grid(cells=[40], extents=[1.0]),
    Grid(cells=[16, 12], extents=[1.0, 0.8]),
    Grid(cells=[8, 6, 5], extents=[1.0, 0.8, 0.6]),
], ids=lambda g: f"{g.dim}d")
def test_grad_phi_densities_are_formed_only_for_a_factored_column(
        g, monkeypatch):
    # simulate's pass (constant phis only) and eps-study's (none) read no
    # grad-phi density, so none is formed; their figures are those of a
    # pass that forms it.  A pass with a cosine phi still forms it.
    params = default_params(eps=0.01)
    u0 = gaussian_bump(g, amplitude=1.5, width=0.12, baseline=0.2)
    state = SimState(t=0.0, grid=g, u=u0, v=constant_field(g, 1.0),
                     params=params)
    T = 0.02
    times = np.linspace(0.0, T, 51)
    k1 = (1,) + (0,) * (g.dim - 1)
    constants = [diagnostics.TestFunction(ConstantSpatial(1.0), OneTemporal()),
                 diagnostics.TestFunction(ConstantSpatial(0.5),
                                          RampDownTemporal(0.9 * T))]
    cosine = diagnostics.TestFunction(CosineSpatial(k1, 0.5, 1.0),
                                      RampDownTemporal(0.9 * T))
    cases = {"constant": constants, "none": [], "mixed": constants + [cosine]}

    def one_pass():
        passes = {name: Accumulator(g, params, phis)
                  for name, phis in cases.items()}
        formed = {name: set() for name in cases}

        def feed(s):
            for name, accumulator in passes.items():
                d = accumulator.add(s)
                formed[name].add(d.grad_phi_x2 is not None)

        run(state, T, sample_times=times, on_sample=feed)
        return formed, {name: _figures(a.finish())
                        for name, a in passes.items()}

    formed, figures = one_pass()
    assert formed == {"constant": {False}, "none": {False}, "mixed": {True}}
    densities = diagnostics._densities
    monkeypatch.setattr(diagnostics, "_densities",
                        lambda *args, grad_phi: densities(*args))
    reference_formed, reference = one_pass()
    assert set().union(*reference_formed.values()) == {True}
    assert figures == reference


def test_a_sample_state_is_read_once_by_the_pass_and_the_stepper(monkeypatch):
    # simulate's pass: its v norms and the next step's drift share one face
    # gradient of v per axis, and its constant phi takes no contraction;
    # its figures equal those of a pass fed a copy of each sample, which
    # holds nothing for the stepper, and the run equals one without a hook
    g = Grid(cells=[16, 12], extents=[1.0, 1.2])
    params = default_params(eps=0.01, s=1.5)
    u0 = gaussian_bump(g, amplitude=1.5, width=0.2, baseline=0.2)
    v0 = 1.0 + 0.3 * CosineSpatial((1, 2)).values(g)
    state = SimState(t=0.0, grid=g, u=u0, v=v0, params=params)
    T, times = 0.01, np.linspace(0.0, 0.01, 51)
    phis = [diagnostics.TestFunction(ConstantSpatial(1.0), OneTemporal())]
    shared = Accumulator(g, params, phis, v_norms=True)
    copied = Accumulator(g, params, phis, v_norms=True)
    samples, formed, contractions = [], [], []

    def counting(a, h, axis):
        formed.append((a, axis))
        return face_grad_values(a, h, axis)

    monkeypatch.setattr(simulator, "face_grad_values", counting)
    monkeypatch.setattr(diagnostics._Weights, "contract",
                        lambda *args: contractions.append(args))

    def feed(s):
        samples.append(s)
        shared.add(s)
        copied.add(SimState(t=s.t, grid=g, u=s.u.copy(), v=s.v.copy(),
                            params=params))

    traj = run(state, T, sample_times=times, on_sample=feed)
    assert len(samples) == len(times)
    for s in samples:
        assert sorted(ax for a, ax in formed if a is s.v) == list(range(g.dim))
    assert contractions == []
    assert _figures(shared.finish()) == _figures(copied.finish())
    plain = run(state, T, sample_times=times)
    assert traj.u_snapshots[0].tobytes() == plain.u_snapshots[0].tobytes()
    assert traj.v_snapshots[0].tobytes() == plain.v_snapshots[0].tobytes()
    assert traj.reports == plain.reports


def _chain_reference(density, vecs):
    """A phi's mat-vec chain, one axis at a time from the last, as the
    contraction was before the batch tables."""
    for vec in reversed(vecs):
        density = density @ vec
    return float(density)


@pytest.mark.parametrize("g", [
    Grid(cells=[40], extents=[1.0]),
    Grid(cells=[33, 20], extents=[1.0, 1.5]),
    Grid(cells=[8, 6, 5], extents=[1.0, 0.8, 0.6]),
], ids=lambda g: f"{g.dim}d")
def test_batched_contraction_is_each_phis_own_chain(g):
    # every kind of weight on every axis, bit for bit: a batch item is the
    # gemv (or dot) the phi's own chain makes
    phis, _ = _entropy_check_phis(g, 1.0)
    weights = diagnostics._Weights(phis, g)
    rng = np.random.default_rng(7)
    for kinds in itertools.product(range(4), repeat=g.dim):
        shape = [n - (kind in (diagnostics._DF, diagnostics._M))
                 for n, kind in zip(g.shape, kinds)]
        density = rng.uniform(-1.0, 1.0, shape)
        got = weights.contract(density, kinds, {})
        for phi, column in zip(phis, weights.columns):
            quads = [(f, df[1:-1], d2f, face_mean_values(f, 0))
                     for f, df, d2f in phi.separable(g).factors]
            want = _chain_reference(
                density, [quad[k] for quad, k in zip(quads, kinds)]) \
                if quads else 0.0
            assert got[column] == want, (kinds, column)


def test_equal_shapes_share_one_column():
    # entropy-check's cosine_rampdown and the family's second member are the
    # same shape; the constants are offsets only and take the zero column
    g = Grid(cells=[16, 12], extents=[1.0, 1.5])
    phis, _ = _entropy_check_phis(g, 1.0)
    weights = diagnostics._Weights(phis, g)
    assert weights.width == 5
    assert weights.columns == [5, 0, 1, 5, 0, 2, 3, 4]
    assert weights.contract(np.ones(g.shape), (diagnostics._F,) * 2)[5] == 0.0
    assert diagnostics._Weights(phis[:1], g).contract(
        np.ones(g.shape), (diagnostics._F,) * 2) == [0.0]


def test_v_norms_are_taken_only_when_asked(tmp_path):
    # simulate's record.csv keeps the parent's v_lr and grad_v_ls bit for
    # bit; a pass without them has no such columns, not placeholders
    g = Grid(cells=[12, 10], extents=[1.0, 1.2])
    params = default_params(eps=0.01, s=1.5)
    u0 = gaussian_bump(g, amplitude=1.5, width=0.2, baseline=0.2)
    v0 = 1.0 + 0.3 * CosineSpatial((1, 2)).values(g)
    state = SimState(t=0.0, grid=g, u=u0, v=v0, params=params)
    with_norms = Accumulator(g, params, v_norms=True)
    without = Accumulator(g, params)
    want = {"v_lr": [], "grad_v_ls": []}

    def feed(s):
        v = s.v
        with_norms.add(s)
        without.add(s)
        grad_v = [face_grad_values(v, g.h, ax) for ax in range(g.dim)]
        want["v_lr"].append((v**params.r).sum() * g.cell_volume)
        want["grad_v_ls"].append(
            (face_cell_magnitude(grad_v, g) ** params.s).sum()
            * g.cell_volume)

    run(state, 0.01, sample_times=np.linspace(0.0, 0.01, 6), on_sample=feed)
    full, bare = with_norms.finish().record, without.finish().record
    for name, values in want.items():
        assert getattr(full, name).tobytes() == np.array(values).tobytes()
        assert getattr(bare, name) is None
    assert full._columns == diagnostics.RECORD_COLUMNS
    assert set(full._columns) - set(bare._columns) == {"v_lr", "grad_v_ls"}

    def table(record, name):
        path = tmp_path / name
        record.to_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        return {column: tuple(values) for column, *values in zip(*rows)}

    full_csv, bare_csv = table(full, "full.csv"), table(bare, "bare.csv")
    assert list(full_csv)[1:3] == ["mass", "v_min"]
    assert list(full_csv)[3:5] == ["v_lr", "grad_v_ls"]
    assert full_csv["v_lr"] == tuple(format(x, ".17g") for x in want["v_lr"])
    assert "v_lr" not in bare_csv and "grad_v_ls" not in bare_csv
    assert {k: v for k, v in full_csv.items()
            if k not in ("v_lr", "grad_v_ls")} == bare_csv


@pytest.mark.parametrize("extent", [1e-8, 1.0, 1e3])
def test_one_sided_tolerances_scale_with_the_phi(extent):
    # the family's wall derivative is round-off times w = k pi / L, so an
    # absolute bound rejected it on a 1e-8 box; a support crossing a wall
    # still fails at every scale
    g = Grid(cells=[16, 16], extents=[extent, extent])
    for phi in builtin_supersolution_family(g, 1.0):
        phi.check_one_sided(g, 1.0)
    lopsided = diagnostics.TestFunction(
        BumpSpatial(center=(0.2 * extent, 0.5 * extent),
                    width=(0.5 * extent, 0.4 * extent)),
        RampDownTemporal(0.5))
    with pytest.raises(ValueError, match="normal derivative"):
        lopsided.check_one_sided(g, 1.0)
    small = diagnostics.TestFunction(
        CosineSpatial((1, 0), amplitude=1e-20, offset=1e-20),
        RampDownTemporal(0.5))
    small.check_one_sided(g, 1.0)
    negative = diagnostics.TestFunction(
        CosineSpatial((1, 0), amplitude=2e-20, offset=1e-20),
        RampDownTemporal(0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        negative.check_one_sided(g, 1.0)


# the densities from fewer array passes -------------------------------------------

@pytest.mark.parametrize("dim", sorted(SEPARABLE_GRIDS))
def test_v_gradient_term_by_parts_is_the_face_form(dim):
    # I grad v . grad psi as v against f' summed by parts onto the cells:
    # equal to the face gradient of v against f' at the interior faces up to
    # round-off, for every shape, including a bump whose support crosses the
    # wall (its f' is nonzero there, and the face form never reads it)
    g = SEPARABLE_GRIDS[dim]
    v = np.random.default_rng(3).uniform(0.5, 1.5, g.shape)
    phis = [diagnostics.TestFunction(shape, OneTemporal())
            for shape in _shapes(dim)]
    weights = diagnostics._Weights(phis, g)
    f = (diagnostics._F,) * dim
    for phi, column in zip(phis, weights.columns):
        for ax in range(dim):
            got = weights.contract(
                v, diagnostics._with(f, ax, diagnostics._SBP))[column]
            face = face_grad_values(v, g.h, ax) \
                * _interior(_dense_grad(phi, g, ax), ax)
            cell = v * _outer(_swap(
                tuple(sep[0] for sep in phi.separable(g).factors), ax,
                weights.tables[ax][diagnostics._SBP][column].ravel()))
            magnitude = max(float(np.abs(face).sum()),
                            float(np.abs(cell).sum()))
            assert abs(got - float(face.sum())) <= 1e-14 * magnitude, \
                (ax, column)


@pytest.mark.parametrize("p, q", [(0.2, 0.35), (0.9, 0.05), (0.01, 0.99)])
def test_four_power_densities_are_within_a_few_ulp_of_the_powers(p, q):
    g = Grid(cells=[24, 20], extents=[1.0, 1.0])
    rng = np.random.default_rng(11)
    u = rng.uniform(0.0, 3.0, g.shape)
    u[3, 4] = 0.0
    v = rng.uniform(1e-3, 2.0, g.shape)
    params = default_params(p=p, q=q, eps=0.05)
    d = diagnostics._densities(u, v, params, 0.3, g)
    upq = u**p * v**q
    gain_raw = u ** (p + 1.0) * v ** (q - 1.0)
    # squaring u^{p/2} doubles its error; 30 seeds at p = 0.9 reached 7.0
    ulp = np.finfo(np.float64).eps
    for got, want in ((d.upq, upq), (d.gain_raw, gain_raw),
                      (d.gain, gain_raw / (1.0 + params.eps * u)),
                      (d.vq_sum, (v**q).sum())):
        assert np.all(np.abs(got - want) <= 8 * ulp * np.abs(want))
    assert d.upq[3, 4] == d.gain_raw[3, 4] == 0.0


def _face_mean_densities(up2, vq2, vq, kappa, grid):
    """The face densities as they were formed with the face means' 1/2:
    per axis, diss_grad_u, diss_square and grad_phi."""
    w = up2 * vq
    out = []
    for ax in range(grid.dim):
        gu = face_grad_values(up2, grid.h, ax)
        gv = face_grad_values(vq2, grid.h, ax)
        cross = face_mean_values(up2, ax) * gv \
            - kappa * face_mean_values(vq2, ax) * gu
        out.append((face_mean_values(vq, ax) * gu * gu, cross * cross,
                    face_mean_values(w, ax) * gu))
    return out


@pytest.mark.parametrize("dim", sorted(SEPARABLE_GRIDS))
def test_deferred_halves_give_the_face_mean_densities_bit_for_bit(dim):
    g = SEPARABLE_GRIDS[dim]
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 3.0, g.shape)
    v = rng.uniform(0.1, 2.0, g.shape)
    params = default_params(n=dim)
    phis, _ = _entropy_check_phis(g, 1.0)
    accumulator = Accumulator(g, params, phis)
    kappa = accumulator.coef.kappa
    d = diagnostics._densities(u, v, params, kappa, g)
    up2, vq2 = u ** (params.p / 2.0), v ** (params.q / 2.0)
    old = _face_mean_densities(up2, vq2, vq2 * vq2, kappa, g)
    weights = accumulator._weights
    f = (diagnostics._F,) * dim
    for ax, (diss_grad_u, diss_square, grad_phi) in enumerate(old):
        # a power-of-two scale is exact
        assert np.array_equal(0.5 * d.diss_grad_u_x2[ax], diss_grad_u)
        assert np.array_equal(0.25 * d.diss_square_x4[ax], diss_square)
        assert np.array_equal(0.5 * d.grad_phi_x2[ax], grad_phi)
        assert d.diss_grad_u_sums[ax] == float(diss_grad_u.sum())
        assert d.diss_square_sums[ax] == float(diss_square.sum())
        mean = diagnostics._with(f, ax, diagnostics._M)
        grad = diagnostics._with(f, ax, diagnostics._DF)
        for x2, scale, want, kinds in (
                (d.diss_grad_u_x2, 0.5, diss_grad_u, mean),
                (d.diss_square_x4, 0.25, diss_square, mean),
                (d.grad_phi_x2, 0.5, grad_phi, grad)):
            assert [scale * c for c in weights.contract(x2[ax], kinds)] \
                == weights.contract(want, kinds)

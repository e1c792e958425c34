"""The per-sample kernels against the one-expression forms they compute.

The kernels write their intermediates in place (`out=` and in-place
operators) instead of into a fresh temporary per operator.  Each reference
below is the plain expression: the same operators on the same operands in
the same order, so the two must agree bit for bit on any CPU path.  Unlike
the digests of tests/test_golden.py, these comparisons do not depend on
which SIMD loops or BLAS kernels the machine picks, as both sides run on
the same ones.  The fields are random in 1-D, 2-D and 3-D, and one of each
holds exact zeros (of both signs, where the kernel allows them).
"""

import dataclasses

import numpy as np
import pytest

from logsense_ks import diagnostics
from logsense_ks.diagnostics import Accumulator
from logsense_ks.grid import (
    Grid,
    dct_modes,
    dct_values,
    face_cell_magnitude,
    face_div_values,
    face_grad_values,
    faces_to_cells,
    lap_values,
)
from logsense_ks.params import ModelParams, entropy_coefficients
from logsense_ks.simulator import SimState, _etd_factors, _tendency, cfl_dt, step

GRIDS = {
    1: Grid(cells=[11], extents=[1.3]),
    2: Grid(cells=[9, 7], extents=[1.0, 0.8]),
    3: Grid(cells=[5, 4, 6], extents=[0.9, 1.1, 0.7]),
}
CASES = [(dim, zeros) for dim in sorted(GRIDS) for zeros in (False, True)]
IDS = [f"{dim}d-{'zeros' if zeros else 'random'}" for dim, zeros in CASES]


def _fields(grid, zeros, seed=0):
    """(u, v): u uniform in [0, 2] and v in [0.2, 2]; with `zeros`, u is
    exactly 0.0 in the first 80% of its cells (C order) and in every third
    cell of the rest."""
    rng = np.random.default_rng(seed + grid.dim)
    u = rng.uniform(0.0, 2.0, grid.shape)
    v = rng.uniform(0.2, 2.0, grid.shape)
    if zeros:
        flat = u.reshape(-1)
        flat[::3] = 0.0
        flat[: 4 * flat.size // 5] = 0.0
    return u, v


def _signed_zeros(grid, seed=0):
    """A random field whose cells are +0.0, -0.0 or small of either sign."""
    rng = np.random.default_rng(seed + 10 * grid.dim)
    a = rng.choice([0.0, -0.0, 1e-3, -1e-3], p=[0.35, 0.35, 0.15, 0.15],
                   size=grid.shape)
    return a * rng.uniform(0.5, 1.5, grid.shape)


def _sl(a, axis, start, stop):
    """The entries start:stop of `a` along `axis`."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    return a[tuple(index)]


def _face_sum(a, axis):
    return _sl(a, axis, 0, -1) + _sl(a, axis, 1, None)


def _bytes_equal(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# the one-expression forms ----------------------------------------------------

def _lap_reference(a, h):
    out = np.zeros_like(a)
    for ax, ha in enumerate(h):
        padded = np.concatenate([_sl(a, ax, 0, 1), a, _sl(a, ax, -1, None)],
                                axis=ax)
        n = a.shape[ax]
        out += (_sl(padded, ax, 2, n + 2) - 2.0 * a
                + _sl(padded, ax, 0, n)) / ha**2
    return out


def _div_reference(fluxes, h, shape):
    out = np.zeros(shape)
    for ax, (flux, ha) in enumerate(zip(fluxes, h)):
        interior = _sl(out, ax, 1, -1)
        interior += np.diff(flux, axis=ax) / ha
        first, last = _sl(out, ax, 0, 1), _sl(out, ax, -1, None)
        first += _sl(flux, ax, 0, 1) / ha
        last -= _sl(flux, ax, -1, None) / ha
    return out


def _magnitude_reference(face_arrays, dim):
    cells = [faces_to_cells(g, ax - dim) for ax, g in enumerate(face_arrays)]
    return np.sqrt(sum(c * c for c in cells))


def _tendency_reference(u, v, h, chi, eps):
    fluxes, worst = [], 0.0
    for ax in range(u.ndim):
        g = np.diff(v, axis=ax) / h[ax]
        v_sum = _face_sum(v, ax)
        worst = max(worst, 2.0 * float(np.abs(g / v_sum).max()))
        donor = np.where(g > 0.0, _sl(u, ax, 0, -1), _sl(u, ax, 1, None))
        fluxes.append(2.0 * chi * donor / v_sum * g)
    source = u / (1.0 + eps * u) if eps > 0.0 else u
    du = _lap_reference(u, h) - _div_reference(fluxes, h, u.shape)
    dv = _lap_reference(v, h) - v + source
    return np.stack([du, dv]), chi * worst


def _step_reference(u, v, rates, grid, dt):
    """(u', v', clamped) of one exponential-Euler step from `rates`."""
    mats, _ = dct_modes(grid.cells, grid.h)
    modes = dct_values(rates, mats)
    du, dv = dct_values(_etd_factors(grid.cells, grid.h, dt) * modes, mats,
                        inverse=True)
    u_new = u + dt * du
    v_new = v + dt * dv
    low = u_new.min()
    clamped = False
    if low < 0.0:
        roundoff = (np.finfo(np.float64).eps * sum(grid.cells) * dt
                    * np.abs(rates[0]).max())
        assert low >= -roundoff, "the reference step would be rejected"
        u_new = np.maximum(u_new, 0.0)
        clamped = True
    return u_new, v_new, clamped


def _densities_reference(u, v, params, kappa, h):
    p, q = params.p, params.q
    up2 = u ** (p / 2.0)
    vq2 = v ** (q / 2.0)
    vq = vq2 * vq2
    w = up2 * vq
    gain_raw = up2 * up2 * u * (vq / v)
    upq = up2 * up2 * vq
    grad_up, grad_vq, diss_grad_u, diss_square, grad_phi = [], [], [], [], []
    for ax in range(u.ndim):
        gu = np.diff(up2, axis=ax) / h[ax]
        gv = np.diff(vq2, axis=ax) / h[ax]
        cross = _face_sum(up2, ax) * gv - kappa * _face_sum(vq2, ax) * gu
        grad_up.append(gu)
        grad_vq.append(gv)
        diss_grad_u.append(_face_sum(vq, ax) * gu * gu)
        diss_square.append(cross * cross)
        grad_phi.append(_face_sum(w, ax) * gu)
    saturation = 1.0 + params.eps * u
    gain = gain_raw / saturation
    return dict(
        upq=upq, gain_raw=gain_raw, gain=gain, saturation=saturation,
        grad_up=grad_up, grad_vq=grad_vq, diss_grad_u_x2=diss_grad_u,
        diss_square_x4=diss_square, grad_phi_x2=grad_phi,
        upq_sum=float(upq.sum()), gain_raw_sum=float(gain_raw.sum()),
        gain_sum=float(gain.sum()), vq_sum=float(vq.sum()),
        diss_grad_u_sums=[0.5 * float(a.sum()) for a in diss_grad_u],
        diss_square_sums=[0.25 * float(a.sum()) for a in diss_square])


def _params(dim, **kw):
    base = dict(chi=2.0, n=max(dim, 2), eps=0.01, p=0.2, q=0.35, r=1.1)
    base.update(kw)
    return ModelParams(**base)


# the tests --------------------------------------------------------------------

@pytest.mark.parametrize("dim, zeros", CASES, ids=IDS)
def test_lap_values_matches_its_expression(dim, zeros):
    g = GRIDS[dim]
    for a in (_fields(g, zeros)[0], _signed_zeros(g)):
        want = _lap_reference(a, g.h)
        _bytes_equal(lap_values(a, g.h), want)
        out = np.full(g.shape, np.nan)
        assert lap_values(a, g.h, out=out) is out
        _bytes_equal(out, want)


@pytest.mark.parametrize("dim, zeros", CASES, ids=IDS)
def test_face_kernels_match_their_expressions(dim, zeros):
    # a face of two signed zeros is -0.0 or +0.0, and the divergence's
    # zeroed output turns a -0.0 difference into +0.0
    g = GRIDS[dim]
    for a in (_fields(g, zeros)[0], _signed_zeros(g)):
        faces = [face_grad_values(a, g.h, ax) for ax in range(dim)]
        for ax, face in enumerate(faces):
            _bytes_equal(face, np.diff(a, axis=ax) / g.h[ax])
        _bytes_equal(face_div_values(faces, g.h, g.shape),
                     _div_reference(faces, g.h, g.shape))


@pytest.mark.parametrize("dim, zeros", CASES, ids=IDS)
def test_face_cell_magnitude_matches_its_expression(dim, zeros):
    g = GRIDS[dim]
    u, v = _fields(g, zeros)
    stack = np.stack([u, v, _signed_zeros(g)])
    for a in (u, _signed_zeros(g), stack):
        faces = [face_grad_values(a, g.h, ax - dim) for ax in range(dim)]
        _bytes_equal(face_cell_magnitude(faces, g),
                     _magnitude_reference(faces, dim))


@pytest.mark.parametrize("eps", [0.0, 0.01])
@pytest.mark.parametrize("dim, zeros", CASES, ids=IDS)
def test_tendency_matches_its_expression(dim, zeros, eps):
    g = GRIDS[dim]
    u, v = _fields(g, zeros)
    params = _params(dim, chi=1.7, eps=eps)
    state = SimState(t=0.0, grid=g, u=u, v=v, params=params)
    rates, drift = _tendency_reference(u, v, g.h, params.chi, eps)
    got = _tendency(state, 1e-12)
    _bytes_equal(got.rates, rates)
    assert got.drift.hex() == drift.hex()


@pytest.mark.parametrize("dim, zeros", CASES, ids=IDS)
def test_step_matches_its_expression(dim, zeros):
    g = GRIDS[dim]
    u, v = _fields(g, zeros)
    state = SimState(t=0.25, grid=g, u=u, v=v, params=_params(dim))
    # short enough that diffusion leaves u's far zeros at round-off level
    dt = 1e-3 * cfl_dt(state)
    u_new, v_new, clamped = _step_reference(
        u, v, _tendency(state, 1e-12).rates, g, dt)
    u_before, v_before = u.copy(), v.copy()
    new, report = step(state, dt)
    _bytes_equal(new.u, u_new)
    _bytes_equal(new.v, v_new)
    assert (report.t, report.dt_used) == (0.25 + dt, dt)
    assert report.max_u.hex() == float(u_new.max()).hex()
    assert report.min_v.hex() == float(v_new.min()).hex()
    assert new.t == 0.25 + dt
    # the step reads the state it starts from and writes only its own
    _bytes_equal(state.u, u_before)
    _bytes_equal(state.v, v_before)
    assert not np.shares_memory(new.u, u) and not np.shares_memory(new.v, v)
    if zeros:  # the cells held at zero come back as round-off of either sign
        assert clamped


@pytest.mark.parametrize("dim, zeros", CASES, ids=IDS)
def test_densities_match_their_expressions(dim, zeros):
    g = GRIDS[dim]
    u, v = _fields(g, zeros)
    params = _params(dim)
    kappa = entropy_coefficients(params.p, params.q, params.chi).kappa
    d = diagnostics._densities(u, v, params, kappa, g)
    want = _densities_reference(u, v, params, kappa, g.h)
    names = [f.name for f in dataclasses.fields(d)]
    assert sorted(names) == sorted(want)
    for name in names:
        got = getattr(d, name)
        if isinstance(got, float):
            assert got.hex() == want[name].hex(), name
        elif isinstance(got, list):
            assert len(got) == len(want[name]) == dim, name
            for a, b in zip(got, want[name]):
                if isinstance(a, float):
                    assert a.hex() == b.hex(), name
                else:
                    _bytes_equal(a, b)
        else:
            _bytes_equal(got, want[name])


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim, zeros", CASES, ids=IDS)
def test_record_norms_and_splitting_check_match_their_expressions(dim, zeros,
                                                                    s):
    """The record columns that _add_v_norms and _add_record form in place,
    and the worst u^r splitting violation."""
    g = GRIDS[dim]
    u, v = _fields(g, zeros)
    params = _params(dim, s=s)
    phi = diagnostics.TestFunction(diagnostics.ConstantSpatial(),
                                   diagnostics.OneTemporal())
    acc = Accumulator(g, params, [phi], v_norms=True)
    u_before, v_before = u.copy(), v.copy()
    acc.add(SimState(t=0.0, grid=g, u=u, v=v, params=params))
    _bytes_equal(u, u_before)
    _bytes_equal(v, v_before)
    vol = g.cell_volume
    grad_v = [np.diff(v, axis=ax) / g.h[ax] for ax in range(dim)]
    want = {
        "v_lr": (v**params.r).sum() * vol,
        "grad_v_ls": (_magnitude_reference(grad_v, dim) ** s).sum() * vol,
    }
    up2, vq2 = u ** (params.p / 2.0), v ** (params.q / 2.0)
    gup = gvq = gl = 0.0
    for ax in range(dim):
        gu = np.diff(up2, axis=ax) / g.h[ax]
        gv = np.diff(vq2, axis=ax) / g.h[ax]
        gup += float((gu * gu).sum())
        gvq += float((gv * gv).sum())
    want["grad_up_sq"], want["grad_vq_sq"] = gup * vol, gvq * vol
    if u.min() > 0.0:
        for ax in range(dim):
            gu = np.diff(np.log(u), axis=ax) / g.h[ax]
            gl += float((gu * gu).sum())
        want["grad_log_u_sq"] = gl * vol
    else:
        assert np.isnan(acc._cols["grad_log_u_sq"][-1])
    for name, value in want.items():
        assert float(acc._cols[name][-1]).hex() == float(value).hex(), name
    gain_raw = up2 * up2 * u * (vq2 * vq2 / v)
    rhs = gain_raw + v ** diagnostics._u_lr_exponent(params)
    violation = float(((u**params.r - rhs) / np.maximum(rhs, 1e-300)).max())
    assert acc.u_lr_worst.hex() == violation.hex()

"""Entropy and norm diagnostics evaluated along simulated trajectories.

The central object is the entropy functional integral(u^p v^q) and its
production identity: for smooth space-time test functions phi,

    - II u^p v^q phi_t + [I u^p v^q phi]_0^T
      = c1 II v^q |grad u^{p/2}|^2 phi
      + c2 II |u^{p/2} grad v^{q/2} - kappa v^{q/2} grad u^{p/2}|^2 phi
      - (2 p chi / q) II u^{p/2} v^q grad u^{p/2} . grad phi
      + (1 - p chi / q) II u^p v^q lap phi
      - q II u^p v^q phi + q II (u^{p+1} v^{q-1} / (1 + eps u)) phi

with (c1, c2, kappa) from params.entropy_coefficients.  All space integrals
use midpoint quadrature, gradients are face differences of the power fields
(powers taken at cell values first), face products use arithmetic face means,
and time integrals are trapezoid sums over the trajectory samples.  The
residual of the identity measures pure discretization error and shrinks at
second order when dt scales like h^2 and the sampling interval like h.

Dropping the saturation from the reaction gain term turns the identity into
the one-sided inequality a limit solution must satisfy; its signed residual
(gain side minus time side) equals the nonnegative saturation gap up to the
same discretization error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field, fields as dc_fields

import numpy as np

from .grid import (
    cosine_tables,
    end_slabs,
    face_cell_magnitude,
    face_grad_values,
    face_mean_values,
    face_sum_values,
)
from .params import ModelParams, entropy_coefficients

ACC_FIELDS = (
    "diss_grad_u", "diss_square", "reaction_plus", "reaction_raw", "u_lr",
    "grad_vq_sq", "grad_up_sq", "grad_log_u_sq",
)
V_NORM_COLUMNS = ("v_lr", "grad_v_ls")
# A time integral over (0, T) needs samples at most T / MIN_SAMPLE_COUNT
# apart unless its caller allows a wider spacing.
MIN_SAMPLE_COUNT = 50
# relative tolerances of the integrated bound checks and of the pointwise
# u^r splitting, which holds to round-off
_BOUND_REL_TOL = 1e-6
_U_LR_REL_TOL = 1e-12


class SamplingError(ValueError):
    """Trajectory samples are too sparse for the requested diagnostic."""


# ---------------------------------------------------------------------------
# test functions phi(x, t) = psi(x) * zeta(t)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Separable:
    """psi = offset + prod_a f_a(x_a) on a grid, held as 1-D factors.

    `factors` holds one triple per axis a: f_a at the cell centres, its
    analytic derivative f_a' at all n_a + 1 faces (boundary_normal_derivative
    reads the ends) and f_a'' at the cell centres; the amplitude sits in axis
    0's triple only.  No factors means psi is the constant `offset`.  The
    dense weights are outer products: d_a psi on a-faces is f_a' times the
    other f_b, lap psi sums f_a'' times the other f_b over a, and psi's face
    mean along a is the offset plus the face mean of f_a times the other f_b.
    """

    offset: float
    factors: tuple = ()


def _scaled(offset, amplitude, factors):
    """The Separable with `amplitude` folded into axis 0's triple."""
    (f, df, d2f), *rest = factors
    return Separable(offset, ((amplitude * f, amplitude * df, amplitude * d2f),
                              *rest))


class ConstantSpatial:
    """psi identically equal to `value`; its Separable form is the offset
    alone, so its gradient and Laplacian terms are exactly zero."""

    def __init__(self, value=1.0):
        self.value = float(value)

    def separable(self, grid):
        return Separable(self.value)

    def values(self, grid):
        return np.full(grid.shape, self.value)


class CosineSpatial:
    """psi = offset + amplitude * prod_a cos(k_a pi x_a / L_a).

    Zero-flux compatible for integer wavenumbers: the analytic normal
    derivative vanishes on every boundary face, and cell-centered samples are
    mirror symmetric across the boundary.  Separable with factors
    cos(k_a pi x_a / L_a); a zero wavenumber gives a factor of ones.
    """

    def __init__(self, wavenumbers, amplitude=1.0, offset=0.0):
        self.wavenumbers = tuple(int(k) for k in wavenumbers)
        self.amplitude = float(amplitude)
        self.offset = float(offset)

    def separable(self, grid):
        factors = []
        for ax, k in enumerate(self.wavenumbers):
            w = k * np.pi / grid.extents[ax]
            x = grid.axis_centers(ax)
            factors.append((np.cos(w * x),
                            -w * np.sin(w * grid.axis_faces(ax)),
                            -w * w * np.cos(w * x)))
        return _scaled(self.offset, self.amplitude, factors)

    def values(self, grid):
        tables, _ = cosine_tables(grid.cells, grid.extents, max(self.wavenumbers))
        term = functools.reduce(np.multiply.outer, [
            table[k] for table, k in zip(tables, self.wavenumbers)])
        return self.offset + self.amplitude * term


class BumpSpatial:
    """Compactly supported polynomial bump prod_a (1 - s_a^2)^4, s = (x-c)/w.

    C^3 smooth and identically zero outside the support box, so both the
    function and its normal derivative vanish near the boundary when the
    support stays inside the domain.  Separable with factors (1 - s_a^2)^4
    and offset 0.
    """

    def __init__(self, center, width, amplitude=1.0):
        self.center = tuple(float(c) for c in center)
        self.width = tuple(float(w) for w in (width if np.iterable(width) else [width] * len(self.center)))
        self.amplitude = float(amplitude)

    @staticmethod
    def _profile(s):
        """(1 - s^2)^4 and its first two derivatives in s, all zero outside
        |s| < 1."""
        inside = np.abs(s) < 1.0
        core = np.where(inside, 1.0 - s * s, 0.0)
        return core**4, -8.0 * s * core**3, core**2 * (56.0 * s * s - 8.0) * inside

    def separable(self, grid):
        factors = []
        for ax, (c, w) in enumerate(zip(self.center, self.width)):
            b, _, d2b = self._profile((grid.axis_centers(ax) - c) / w)
            _, db, _ = self._profile((grid.axis_faces(ax) - c) / w)
            factors.append((b, db / w, d2b / w**2))
        return _scaled(0.0, self.amplitude, factors)

    def values(self, grid):
        out = np.full(grid.shape, self.amplitude)
        for x, c, w in zip(grid.meshgrid(), self.center, self.width):
            out = out * self._profile((x - c) / w)[0]
        return out


class OneTemporal:
    """zeta identically 1 (admissible for the two-sided identity only)."""

    def value(self, t):
        return 1.0

    def derivative(self, t):
        return 0.0


class RampDownTemporal:
    """Quintic smoothstep from 1 at t = 0 to 0 at t = t1, zero afterwards (C^2)."""

    def __init__(self, t1):
        if t1 <= 0.0:
            raise ValueError("t1 must be positive")
        self.t1 = float(t1)

    def value(self, t):
        s = 1.0 - t / self.t1
        if s <= 0.0:
            return 0.0
        if s >= 1.0:
            return 1.0
        return s**3 * (10.0 - 15.0 * s + 6.0 * s * s)

    def derivative(self, t):
        s = 1.0 - t / self.t1
        if s <= 0.0 or s >= 1.0:
            return 0.0
        return -(30.0 * s * s - 60.0 * s**3 + 30.0 * s**4) / self.t1


class BumpTemporal:
    """64 s^3 (1-s)^3 on (t0, t1), zero outside (C^2, peak value 1)."""

    def __init__(self, t0, t1):
        if not t0 < t1:
            raise ValueError("need t0 < t1")
        self.t0 = float(t0)
        self.t1 = float(t1)

    def value(self, t):
        s = (t - self.t0) / (self.t1 - self.t0)
        if s <= 0.0 or s >= 1.0:
            return 0.0
        return 64.0 * s**3 * (1.0 - s) ** 3

    def derivative(self, t):
        s = (t - self.t0) / (self.t1 - self.t0)
        if s <= 0.0 or s >= 1.0:
            return 0.0
        return 64.0 * 3.0 * s * s * (1.0 - s) ** 2 * (1.0 - 2.0 * s) / (self.t1 - self.t0)


class TestFunction:
    """Separable space-time test function phi(x, t) = psi(x) zeta(t)."""

    def __init__(self, spatial, temporal):
        self.spatial = spatial
        self.temporal = temporal

    def separable(self, grid):
        return self.spatial.separable(grid)

    def zeta(self, t):
        return self.temporal.value(t)

    def zeta_dt(self, t):
        return self.temporal.derivative(t)

    def boundary_normal_derivative(self, grid):
        """Largest |analytic normal derivative| over boundary faces: on the
        axis-a faces, |f_a'| at either end times the largest |f_b| of every
        other axis, multiplied in axis order as the outer product would."""
        return _derivative_peak(self.spatial.separable(grid).factors,
                                lambda df: max(abs(df[0]), abs(df[-1])))

    def is_compact_in_time(self, T):
        return abs(self.zeta(T)) <= 1e-12

    def is_nonnegative(self, grid, T):
        """psi and zeta are nonnegative up to 1e-12 of their largest |value|."""
        psi = self.spatial.values(grid)
        if psi.min() < -1e-12 * np.abs(psi).max():
            return False
        zeta = [self.zeta(t) for t in np.linspace(0.0, T, 33)]
        return min(zeta) >= -1e-12 * max(abs(z) for z in zeta)

    def check_one_sided(self, grid, T):
        """Raise ValueError unless phi is admissible for the one-sided form:
        nonnegative, zero-flux compatible and compactly supported in time.
        The boundary normal derivative may reach 1e-10 of psi's gradient
        scale, its largest |f_a'| times the largest |f_b| of the other axes:
        a cosine's wall derivative is round-off times its k pi / L."""
        if not self.is_compact_in_time(T):
            raise ValueError("phi must vanish at the final time (compact support)")
        if not self.is_nonnegative(grid, T):
            raise ValueError("phi must be nonnegative")
        scale = _derivative_peak(self.spatial.separable(grid).factors,
                                 lambda df: np.abs(df).max())
        if self.boundary_normal_derivative(grid) > 1e-10 * scale:
            raise ValueError("phi must have vanishing normal derivative")


def _derivative_peak(factors, peak):
    """Largest over axes a of peak(f_a') times the largest |f_b| of every
    other axis, multiplied in axis order; 0.0 without factors."""
    peaks = [np.abs(f).max() for f, _, _ in factors]
    worst = 0.0
    for ax, (_, df, _) in enumerate(factors):
        worst = max(worst, float(functools.reduce(
            np.multiply, peaks[:ax] + [peak(df)] + peaks[ax + 1:])))
    return worst


def builtin_supersolution_family(grid, T):
    """Five nonnegative zero-flux test functions spanning the built-in menu."""
    dim = grid.dim
    k1 = tuple([1] + [0] * (dim - 1))
    k2 = tuple([0] * (dim - 1) + [1])
    k3 = tuple([1] * dim)
    center = [0.5 * L for L in grid.extents]
    width = [0.35 * L for L in grid.extents]
    return [
        TestFunction(ConstantSpatial(1.0), RampDownTemporal(0.8 * T)),
        TestFunction(CosineSpatial(k1, amplitude=0.5, offset=1.0), RampDownTemporal(0.9 * T)),
        TestFunction(CosineSpatial(k2, amplitude=0.5, offset=1.0), BumpTemporal(0.1 * T, 0.9 * T)),
        TestFunction(CosineSpatial(k3, amplitude=0.25, offset=1.0), RampDownTemporal(T)),
        TestFunction(BumpSpatial(center, width), BumpTemporal(0.05 * T, 0.8 * T)),
    ]


# ---------------------------------------------------------------------------
# per-trajectory record
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class DiagnosticsRecord:
    """Per-sample-time functionals of a trajectory plus running time integrals.

    Lebesgue-type entries use the exponents carried by the params the record
    was collected with.  log_u, log_v and grad_log_u_sq are NaN at any sample
    where u has a nonpositive cell; accumulations involving them stay NaN
    from that time on (markers, never clipped).  v_lr and grad_v_ls are
    None, and to_csv leaves them out, unless the pass took them
    (Accumulator's v_norms).
    """

    times: np.ndarray
    mass: np.ndarray
    v_min: np.ndarray
    v_lr: np.ndarray | None = None       # I v^r, from a pass with v_norms
    grad_v_ls: np.ndarray | None = None  # I |grad v|^s, likewise
    entropy: np.ndarray
    diss_grad_u: np.ndarray      # I v^q |grad u^{p/2}|^2
    diss_square: np.ndarray      # I |u^{p/2} grad v^{q/2} - kappa v^{q/2} grad u^{p/2}|^2
    reaction_minus: np.ndarray   # I u^p v^q
    reaction_plus: np.ndarray    # I u^{p+1} v^{q-1} / (1 + eps u)
    reaction_raw: np.ndarray     # I u^{p+1} v^{q-1}
    u_lr: np.ndarray             # I u^r
    grad_vq_sq: np.ndarray       # I |grad v^{q/2}|^2
    grad_up_sq: np.ndarray       # I |grad u^{p/2}|^2
    v_lq: np.ndarray             # I v^q
    log_u: np.ndarray
    log_v: np.ndarray
    grad_log_u_sq: np.ndarray    # I |grad log u|^2
    boundary_min_upq: np.ndarray
    accumulated: dict = dc_field(default_factory=dict)

    @property
    def _columns(self):
        """The record's columns in RECORD_COLUMNS order, without the v norms
        of a pass that did not take them."""
        return tuple(name for name in RECORD_COLUMNS
                     if getattr(self, name) is not None)

    def to_csv(self, path):
        names = ["time", *self._columns, *(f"acc_{k}" for k in ACC_FIELDS)]
        table = np.column_stack(
            [self.times, *(getattr(self, c) for c in self._columns),
             *(self.accumulated[k] for k in ACC_FIELDS)])
        # csv.writer's dialect: ',' between fields, '\r\n' after each row
        row = ",".join(["%.17g"] * len(names)) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(names) + "\r\n")
            for values in table:
                fh.write(row % tuple(values.tolist()))

    def summary(self):
        out = {
            "final_time": float(self.times[-1]),
            "mass_initial": float(self.mass[0]),
            "mass_final": float(self.mass[-1]),
            "mass_drift_rel": float(
                np.abs(self.mass - self.mass[0]).max() / abs(self.mass[0])
            ) if self.mass[0] != 0.0 else 0.0,
            "v_min_overall": float(self.v_min.min()),
            "entropy_initial": float(self.entropy[0]),
            "entropy_final": float(self.entropy[-1]),
            "min_log_u": float(np.nanmin(self.log_u)) if not np.isnan(self.log_u).all() else float("nan"),
            "accumulated": {k: float(v[-1]) for k, v in self.accumulated.items()},
        }
        return out


# the record's per-sample columns, in record.csv order; the v norms are
# taken only by a pass that writes them
RECORD_COLUMNS = tuple(f.name for f in dc_fields(DiagnosticsRecord)
                       if f.name not in ("times", "accumulated"))


def _cumtrapz(y, t):
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(inc)])


def _trapz(y, t):
    return float(np.trapezoid(y, t))


@dataclass
class _Densities:
    """Entropy densities of one sample.

    Cell arrays: upq = u^p v^q, gain_raw = u^{p+1} v^{q-1}, the saturation
    1 + eps u and the saturated gain = gain_raw / saturation.  Per-axis
    interior-face arrays: grad_up and grad_vq (face gradients of u^{p/2}
    and v^{q/2}), diss_grad_u (v^q |grad u^{p/2}|^2), diss_square (the
    completed square) and grad_phi (u^{p/2} v^q grad u^{p/2}, to be dotted
    with grad phi; None unless a test function has a factored column to
    read it).  The record is the phi == 1 contraction of these
    densities and every weak-form residual contracts them against its
    test-function weights.  The plain sums, which the record and every
    phi's offset share, are taken once: of upq, gain, gain_raw and v^q, and
    per axis of diss_grad_u and diss_square.

    The last three face densities are held as their face-sum forms, with
    each face mean's 1/2 left out: diss_grad_u_x2, diss_square_x4 (the
    cross term is squared) and grad_phi_x2.  Their readers scale the
    finished sums and contractions instead, which gives the same bytes,
    since scaling by a power of two commutes with rounding.
    """

    upq: np.ndarray
    gain_raw: np.ndarray
    gain: np.ndarray
    saturation: np.ndarray
    grad_up: list
    grad_vq: list
    diss_grad_u_x2: list
    diss_square_x4: list
    grad_phi_x2: list | None
    upq_sum: float
    gain_raw_sum: float
    gain_sum: float
    vq_sum: float
    diss_grad_u_sums: list
    diss_square_sums: list


def _densities(u, v, params, kappa, grid, grad_phi=True):
    """Densities of one (u, v) sample; face products use arithmetic face
    means.  Two powers are transcendental, u^{p/2} and v^{q/2}; u^p, v^q,
    u^{p+1} and v^{q-1} are products and a quotient of them.  The saturated
    gain is formed after the face densities, so that fewer arrays are alive
    at once.  Without `grad_phi`, which only a test function with a
    factored column reads, grad_phi_x2 is None and u^{p/2} v^q is not
    formed."""
    up2 = u ** (params.p / 2.0)
    vq2 = v ** (params.q / 2.0)
    vq = vq2 * vq2
    gain_raw = up2 * up2  # u^p, then u^{p+1} v^{q-1} in place
    upq = gain_raw * vq
    gain_raw *= u
    gain_raw *= vq / v
    grad_up, grad_vq, diss_grad_u, diss_square = [], [], [], []
    for ax in range(grid.dim):
        gu = face_grad_values(up2, grid.h, ax)
        gv = face_grad_values(vq2, grid.h, ax)
        # each face sum takes its products in place, left to right; the
        # cross term's square overwrites it
        cross = face_sum_values(up2, ax)
        cross *= gv
        kappa_gu = face_sum_values(vq2, ax)
        kappa_gu *= kappa
        kappa_gu *= gu
        cross -= kappa_gu
        cross *= cross
        diss = face_sum_values(vq, ax)
        diss *= gu
        diss *= gu
        grad_up.append(gu)
        grad_vq.append(gv)
        diss_grad_u.append(diss)
        diss_square.append(cross)
    grad_phi_x2 = None
    if grad_phi:
        w = up2 * vq
        grad_phi_x2 = []
        for ax, gu in enumerate(grad_up):
            phi_face = face_sum_values(w, ax)
            phi_face *= gu
            grad_phi_x2.append(phi_face)
    saturation = params.eps * u
    saturation += 1.0
    gain = gain_raw / saturation
    return _Densities(
        upq, gain_raw, gain, saturation, grad_up, grad_vq, diss_grad_u,
        diss_square, grad_phi_x2, upq_sum=float(upq.sum()),
        gain_raw_sum=float(gain_raw.sum()), gain_sum=float(gain.sum()),
        vq_sum=float(vq.sum()),
        diss_grad_u_sums=[0.5 * float(a.sum()) for a in diss_grad_u],
        diss_square_sums=[0.25 * float(a.sum()) for a in diss_square])


# the five kinds of per-axis weight in a _Weights table, in table order
_F, _DF, _D2F, _M, _SBP = range(5)


def _by_parts(df, h):
    """The cell vector (g_{i-1} - g_i) / h, with g = df at the interior faces
    and 0 at both walls: the face gradient's adjoint applied to g, so that a
    cell field contracted with it equals its face gradient contracted with
    g (summation by parts)."""
    g = np.concatenate([[0.0], df[1:-1], [0.0]])
    return (g[:-1] - g[1:]) / h


def _with(kinds, axis, kind):
    """`kinds` with axis `axis`'s entry replaced by `kind`."""
    return kinds[:axis] + (kind,) + kinds[axis + 1:]


class _Weights:
    """The spatial weights of a list of test functions as batch tables.

    Each phi is its offset plus a column, the index of its factored shape
    among the K distinct ones: phis with equal Separable factors share a
    column, and an offset-only phi takes column K, whose integrals are 0.0.
    tables[a] holds axis a's five weights of every column, in the order f,
    f' at the interior faces, f'', the interior face mean of f and f'
    summed by parts onto the cells (_by_parts), each stacked
    (K, 1, ..., 1, n, 1) with max(a - 1, 0) ones, so that a density
    contracted down to axes 0..a is one np.matmul with it.
    """

    def __init__(self, phis, grid):
        seps = [phi.separable(grid) for phi in phis]
        keys = [b"".join(a.tobytes() for triple in sep.factors for a in triple)
                for sep in seps]
        # factor bytes -> factors, in first-seen order
        shapes = {key: sep.factors for key, sep in zip(keys, seps)
                  if sep.factors}
        index = {key: i for i, key in enumerate(shapes)}
        self.width = len(shapes)
        self.offsets = [sep.offset for sep in seps]
        self.columns = [index.get(key, self.width) for key in keys]
        self.tables = []
        for a in range(grid.dim):
            rows = [(f, df[1:-1], d2f, face_mean_values(f, 0),
                     _by_parts(df, grid.h[a]))
                    for f, df, d2f in (factors[a] for factors
                                       in shapes.values())]
            self.tables.append([
                np.stack(kind).reshape(
                    (self.width,) + (1,) * max(a - 1, 0) + (-1, 1))
                for kind in zip(*rows)])

    def contract(self, density, kinds, memo=None):
        """density against table kinds[a] of every axis a, per column, with
        0.0 appended for the offset-only column K.

        One matmul per axis from the last, over the batch of columns: each
        batch item is the gemv (or, on axis 0, the dot) that a chain of
        mat-vecs with that column's own vectors makes, so a column's
        figures do not depend on the other columns.  `memo`, a dict kept for
        one density, holds its partial contractions by the kinds they have
        taken, so a prefix that two integrals share is formed once.
        """
        if not self.width:
            return [0.0]
        memo = {} if memo is None else memo
        x = density
        for a in range(len(kinds) - 1, 0, -1):
            part = memo.get(kinds[a:])
            if part is None:
                part = memo[kinds[a:]] = (x @ self.tables[a][kinds[a]])[..., 0]
            x = part
        last = x[..., None, :] @ self.tables[0][kinds[0]]
        return last.ravel().tolist() + [0.0]


class Accumulator:
    """The diagnostics of a run, fed one sample at a time.

    add(state) takes a sample's simulator.SimState, computes its densities
    once and appends its spatial integrals: the record columns, the seven
    per-phi series of the entropy balances against `phis`, the v weak
    form's series against `phi_v` when one is given, and the worst relative
    violation of the pointwise u^r splitting (when r < p + 1).  Only these
    scalars outlive the sample, so a run can hand its samples over as it
    reaches them (simulator.run's on_sample) and never store them; add
    returns the densities to a caller that reads them before the next
    sample.  What the stepper reads too, v's minimum, u's minimum and v's
    face gradient, add takes from the state, which forms each once.  The
    test functions' weights are held as _Weights batch tables of their
    Separable factors, 1-D vectors per axis, never as grids: an integral is
    the offset times the density's sum plus the density contracted with its
    column's vectors, one batched matmul per axis for all columns.  The
    record's v norms v_lr and grad_v_ls are taken only with `v_norms`;
    without it the record has no such columns.  finish() integrates the
    series in time with the trapezoid rule.
    """

    def __init__(self, grid, params, phis=(), phi_v=None, v_norms=False):
        self.grid = grid
        self.params = params
        self.coef = entropy_coefficients(params.p, params.q, params.chi)
        self.phis = list(phis)
        self.phi_v = phi_v
        self.v_norms = v_norms
        self.times = []
        self._cols = {name: [] for name in RECORD_COLUMNS
                      if v_norms or name not in V_NORM_COLUMNS}
        self._weights = _Weights(self.phis, grid)
        self._series = []  # per sample, the (7, len(phis)) integrals
        if phi_v is not None:
            self._v_weights = _Weights([phi_v], grid)
        self._v_series = []  # per sample, (V, B, F) of _v_weak
        try:
            self._u_lr_expo = _u_lr_exponent(params)
        except ValueError:
            self._u_lr_expo = None  # the splitting does not hold; not checked
        self.u_lr_worst = -np.inf

    def add(self, state):
        """Take the sample `state` (a simulator.SimState) and return its
        _Densities; its arrays are read, never kept."""
        u, v = state.u, state.v
        if self.v_norms:
            self._add_v_norms(state)
        d = _densities(u, v, self.params, self.coef.kappa, self.grid,
                       grad_phi=self._weights.width > 0)
        self.times.append(state.t)
        self._add_record(state, d)
        if self.phis:
            self._series.append(self._contract(d))
        if self.phi_v is not None:
            self._v_series.append(self._v_terms(u, v, d))
        # u^r after the integrals, so that it is not alive beside their
        # temporaries
        u_r = u**self.params.r
        self._cols["u_lr"].append(u_r.sum() * self.grid.cell_volume)
        if self._u_lr_expo is not None:
            # (u^r - rhs) / max(rhs, 1e-300), in u_r and rhs in place
            rhs = v**self._u_lr_expo
            rhs += d.gain_raw
            u_r -= rhs
            u_r /= np.maximum(rhs, 1e-300, out=rhs)
            self.u_lr_worst = max(self.u_lr_worst, float(u_r.max()))
        return d

    def _add_v_norms(self, state):
        """The record's I v^r and I |grad v|^s, taken before the densities
        are formed, so that their temporaries are not alive beside them.
        v's face gradient is the state's, which its tendency reads again."""
        grid, params = self.grid, self.params
        self._cols["v_lr"].append((state.v**params.r).sum() * grid.cell_volume)
        magnitude = face_cell_magnitude(state.v_face_grad(), grid)
        magnitude **= params.s
        self._cols["grad_v_ls"].append(magnitude.sum() * grid.cell_volume)

    def _add_record(self, state, d):
        u, v = state.u, state.v
        grid = self.grid
        vol = grid.cell_volume
        cols = self._cols
        cols["mass"].append(u.sum() * vol)
        cols["v_min"].append(state.v_min())
        cols["entropy"].append(d.upq_sum * vol)
        cols["reaction_minus"].append(cols["entropy"][-1])
        cols["reaction_plus"].append(d.gain_sum * vol)
        cols["reaction_raw"].append(d.gain_raw_sum * vol)
        cols["v_lq"].append(d.vq_sum * vol)
        cols["boundary_min_upq"].append(min(
            float(slab.min()) for ax in range(grid.dim)
            for slab in end_slabs(d.upq, ax)))

        d1 = d2 = gup = gvq = 0.0
        for ax in range(grid.dim):
            gu, gv = d.grad_up[ax], d.grad_vq[ax]
            d1 += d.diss_grad_u_sums[ax]
            d2 += d.diss_square_sums[ax]
            gup += float((gu * gu).sum())
            gvq += float((gv * gv).sum())
        cols["diss_grad_u"].append(d1 * vol)
        cols["diss_square"].append(d2 * vol)
        cols["grad_up_sq"].append(gup * vol)
        cols["grad_vq_sq"].append(gvq * vol)

        if state.u_min() > 0.0:
            log_u = np.log(u)
            cols["log_u"].append(log_u.sum() * vol)
            gl = 0.0
            for ax in range(grid.dim):
                g = face_grad_values(log_u, grid.h, ax)
                g *= g
                gl += float(g.sum())
                del g  # before the next axis's is formed
            cols["grad_log_u_sq"].append(gl * vol)
        else:
            cols["log_u"].append(np.nan)
            cols["grad_log_u_sq"].append(np.nan)
        cols["log_v"].append(np.log(v).sum() * vol)

    def _contract(self, d):
        """Per phi: I u^p v^q psi, I v^q |grad u^{p/2}|^2 psi, the completed
        square against psi, I u^{p/2} v^q grad u^{p/2} . grad psi,
        I u^p v^q lap psi, and the saturated and unsaturated gains against
        psi; psi's face means weight the face densities.  Each integral is
        the offset times the density's sum plus the density's contraction
        with the phi's column (_Weights.contract), summed over the axes in
        axis order; the contractions of u^p v^q share their prefixes.  The
        face-sum densities' contractions take their 1/2 (1/4) here."""
        w, dim = self._weights, self.grid.dim
        vol = self.grid.cell_volume
        if w.width:
            f = (_F,) * dim
            upq = {}
            E = w.contract(d.upq, f, upq)
            RP = w.contract(d.gain, f)
            RR = w.contract(d.gain_raw, f)
            D1, D2, GT, LT = [], [], [], []
            for ax in range(dim):
                mean, grad, lap = (_with(f, ax, kind)
                                   for kind in (_M, _DF, _D2F))
                D1.append(w.contract(d.diss_grad_u_x2[ax], mean))
                D2.append(w.contract(d.diss_square_x4[ax], mean))
                GT.append(w.contract(d.grad_phi_x2[ax], grad))
                LT.append(w.contract(d.upq, lap, upq))
        else:
            # every contraction is the offset-only column's 0.0, still
            # added below; grad_phi_x2 is not formed
            E = RP = RR = [0.0]
            D1 = D2 = GT = LT = [[0.0]] * dim
        out = np.empty((7, len(self.phis)))
        for i, (c, j) in enumerate(zip(w.offsets, w.columns)):
            d1 = d2 = gt = lt = 0.0
            for ax in range(dim):
                d1 += c * d.diss_grad_u_sums[ax] + 0.5 * D1[ax][j]
                d2 += c * d.diss_square_sums[ax] + 0.25 * D2[ax][j]
                gt += 0.5 * GT[ax][j]
                lt += LT[ax][j]
            out[:, i] = (
                (c * d.upq_sum + E[j]) * vol,
                d1 * vol, d2 * vol, gt * vol, lt * vol,
                (c * d.gain_sum + RP[j]) * vol,
                (c * d.gain_raw_sum + RR[j]) * vol)
        return out

    def _v_terms(self, u, v, d):
        """I v psi, I grad v . grad psi and I (u / (1 + eps u)) psi.  The
        gradient term is v contracted with psi's factors with axis a's f'
        summed by parts (_SBP), so no face gradient of v is formed; its
        contractions share their prefixes with I v psi's."""
        w, dim = self._v_weights, self.grid.dim
        vol = self.grid.cell_volume
        (c,), (j,) = w.offsets, w.columns
        f = (_F,) * dim
        src = u / d.saturation
        memo = {}
        mass = w.contract(v, f, memo)[j]
        acc = 0.0
        for ax in range(dim):
            acc += w.contract(v, _with(f, ax, _SBP), memo)[j]
        return ((c * float(v.sum()) + mass) * vol,
                acc * vol,
                (c * float(src.sum()) + w.contract(src, f)[j]) * vol)

    def finish(self, max_sample_dt=None):
        """Integrate the series in time.

        With test functions the samples must be at most max_sample_dt apart
        (by default T / MIN_SAMPLE_COUNT), else SamplingError; phi_v must
        vanish at the final time, else ValueError.
        """
        times = np.asarray(self.times, dtype=np.float64)
        if self.phis or self.phi_v is not None:
            _check_sampling(times, max_sample_dt)
        cols = {name: np.array(vals, dtype=np.float64)
                for name, vals in self._cols.items()}
        acc = {name: _cumtrapz(cols[name], times) for name in ACC_FIELDS}
        record = DiagnosticsRecord(times=times, accumulated=acc, **cols)
        return Accumulated(record, self._balances(times), self._v_weak(times),
                           self.u_lr_worst, self.params)

    def _balances(self, times):
        if not self.phis:
            return []
        p, q, chi = self.params.p, self.params.q, self.params.chi
        coef = self.coef
        E, D1, D2, GT, LT, RP, RR = np.stack(self._series, axis=-1)
        balances = []
        for i, phi in enumerate(self.phis):
            zeta = np.array([phi.zeta(t) for t in times])
            zeta_dt = np.array([phi.zeta_dt(t) for t in times])
            balances.append(EntropyBalance(
                time_side=-_trapz(E[i] * zeta_dt, times),
                boundary_0=E[i, 0] * zeta[0],
                boundary_T=E[i, -1] * zeta[-1],
                terms={
                    "diss_grad_u": coef.c1 * _trapz(D1[i] * zeta, times),
                    "diss_square": coef.c2 * _trapz(D2[i] * zeta, times),
                    "grad_phi": -(2.0 * p * chi / q) * _trapz(GT[i] * zeta, times),
                    "lap_phi": (1.0 - p * chi / q) * _trapz(LT[i] * zeta, times),
                    "reaction_minus": -q * _trapz(E[i] * zeta, times),
                    "reaction_plus": q * _trapz(RP[i] * zeta, times),
                },
                reaction_unsaturated=q * _trapz(RR[i] * zeta, times),
            ))
        return balances

    def _v_weak(self, times):
        """|weak-form mismatch| of the v equation against phi_v:
        - II v phi_t - I v0 phi(0) + II grad v . grad phi + II v phi
        - II (u / (1 + eps u)) phi, which tends to 0 under refinement."""
        phi = self.phi_v
        if phi is None:
            return None
        if not phi.is_compact_in_time(float(times[-1])):
            raise ValueError("phi must vanish at the final time (compact support)")
        V, B, F = np.array(self._v_series).T
        zeta = np.array([phi.zeta(t) for t in times])
        zeta_dt = np.array([phi.zeta_dt(t) for t in times])
        resid = (-_trapz(V * zeta_dt, times) - V[0] * zeta[0]
                 + _trapz(B * zeta, times) + _trapz(V * zeta, times)
                 - _trapz(F * zeta, times))
        return abs(resid)


@dataclass
class Accumulated:
    """What one pass of an Accumulator yields."""

    record: DiagnosticsRecord
    balances: list         # one EntropyBalance per phi, in order
    v_weak: float | None   # |v weak-form mismatch| against phi_v, if given
    u_lr_worst: float      # worst relative violation of the u^r splitting
    params: ModelParams

    def u_lr_bound(self):
        """Pointwise splitting u^r <= u^{p+1} v^{q-1} + v^{(1-q) r / (p+1-r)},
        checked cell by cell on every sample (relative to the dominating
        side, to _U_LR_REL_TOL): the worst relative violation and the final
        accumulated II u^r.
        """
        expo = _u_lr_exponent(self.params)
        return BoundReport(
            "u_lr_pointwise", self.u_lr_worst, 0.0, _U_LR_REL_TOL,
            self.u_lr_worst <= _U_LR_REL_TOL,
            extras={"u_lr_total": float(self.record.accumulated["u_lr"][-1]),
                    "norm_exponent": expo})


# ---------------------------------------------------------------------------
# weak-form residuals
# ---------------------------------------------------------------------------

def _check_sampling(times, max_sample_dt):
    if len(times) < 2:
        raise SamplingError("need at least two samples for time integrals")
    gap = float(np.diff(times).max())
    if max_sample_dt is None:
        max_sample_dt = max(float(times[-1]), 1e-300) / MIN_SAMPLE_COUNT
    if gap > max_sample_dt * (1.0 + 1e-9):
        raise SamplingError(
            f"sampling interval {gap} exceeds the allowed {max_sample_dt}")


@dataclass
class EntropyBalance:
    """Both sides of the entropy identity against one test function phi.

    time_side is - II u^p v^q phi_t and boundary_0 / boundary_T the values
    of I u^p v^q phi at the end times; terms are the individually scaled
    production-side integrals with the saturated reaction gain, and
    reaction_unsaturated is the reaction_plus term with the saturation
    dropped, which turns the identity into the one-sided inequality.
    """

    time_side: float
    boundary_0: float
    boundary_T: float
    terms: dict
    reaction_unsaturated: float

    def identity(self):
        """(|two-sided mismatch|, {"lhs", "terms", "scale"})."""
        lhs = self.time_side + self.boundary_T - self.boundary_0
        rhs = sum(self.terms.values())
        scale = max([abs(lhs)] + [abs(v) for v in self.terms.values()] + [1e-300])
        return abs(lhs - rhs), {"lhs": lhs, "terms": self.terms, "scale": scale}

    def supersolution(self):
        """Signed residual of the one-sided (supersolution) inequality:
        production side minus time side with the unsaturated gain.

        For a saturated trajectory this equals the nonnegative saturation gap
        q II u^{p+1} v^{q-1} (1 - 1/(1 + eps u)) phi plus discretization
        error, so values at or above a small negative tolerance confirm the
        inequality direction.  It holds only for a phi that passes
        TestFunction.check_one_sided.
        """
        terms = {**self.terms, "reaction_plus": self.reaction_unsaturated}
        return sum(terms.values()) - (self.time_side - self.boundary_0)


# ---------------------------------------------------------------------------
# integrated bound checks
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    extras: dict = dc_field(default_factory=dict)


def apriori_bounds_check(record, params, disc_estimate=0.0):
    """Integrated entropy balance rearranged into the a priori bound.

    Checks  c1 (min_t min_x v)^q II |grad u^{p/2}|^2 + c2 II square-term
    + q II reaction_plus <= entropy(T) - entropy(0) + q II reaction_minus
    up to _BOUND_REL_TOL * scale + disc_estimate, and reports the four accumulated
    integrals the bound controls.  Requires exponents strictly inside the
    admissible region (c1 > 0).
    """
    coef = entropy_coefficients(params.p, params.q, params.chi)
    if coef.c1 <= 0.0:
        raise ValueError(f"a priori bound needs c1 > 0, got c1 = {coef.c1}")
    t = record.times
    v_floor_q = float(record.v_min.min()) ** params.q
    lhs = (coef.c1 * v_floor_q * record.accumulated["grad_up_sq"][-1]
           + coef.c2 * record.accumulated["diss_square"][-1]
           + params.q * record.accumulated["reaction_plus"][-1])
    rhs = (record.entropy[-1] - record.entropy[0]
           + params.q * _trapz(record.reaction_minus, t))
    integrals = {
        "diss_grad_u": float(record.accumulated["diss_grad_u"][-1]),
        "grad_up_sq": float(record.accumulated["grad_up_sq"][-1]),
        "c2_diss_square": float(coef.c2 * record.accumulated["diss_square"][-1]),
        "reaction_plus": float(record.accumulated["reaction_plus"][-1]),
    }
    scale = max(abs(lhs), abs(rhs), 1e-300)
    tol = _BOUND_REL_TOL * scale + disc_estimate
    passed = lhs <= rhs + tol and all(np.isfinite(list(integrals.values())))
    return BoundReport("apriori_bounds", lhs, rhs, tol, passed,
                       extras={"integrals": integrals})


def _u_lr_exponent(params):
    """(1 - q) r / (p + 1 - r), the v exponent of the u^r splitting."""
    p, q, r = params.p, params.q, params.r
    if not p + 1.0 - r > 0.0:
        raise ValueError(f"need r < p + 1, got r = {r}, p = {p}")
    return (1.0 - q) * r / (p + 1.0 - r)


def grad_vq_bound(record, params):
    """(4(1-q)/q^2) II |grad v^{q/2}|^2 <= (1/q) I v^q(T) + II v^q + tau,
    with tau = _BOUND_REL_TOL times the larger side.

    Degenerates as q -> 1 (the left coefficient vanishes); that case is
    flagged, never failed.
    """
    q = params.q
    t = record.times
    lhs = 4.0 * (1.0 - q) / q**2 * record.accumulated["grad_vq_sq"][-1]
    rhs = record.v_lq[-1] / q + _trapz(record.v_lq, t)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    tol = _BOUND_REL_TOL * scale
    degenerate = (1.0 - q) < 1e-6
    passed = degenerate or lhs <= rhs + tol
    return BoundReport("grad_vq", lhs, rhs, tol, passed,
                       extras={"degenerate": degenerate})


def log_mass_check(record, grid, params):
    """Log-mass functional control after an initial waiting time.

    With tau0 the first sample after 0.05 T, checks for every
    later sample t:

        -I log u(t) + (1/2) II_{tau0}^t |grad log u|^2
          <= -I log u(tau0) + chi^2 I log(v(t)/v(tau0))
             + chi^2 |O| (t - tau0) + (chi^2 / min v0) e^T I u0 (t - tau0) + tau

    with tau = _BOUND_REL_TOL times the largest of the two sides and 1, and
    reports min_t I log u plus the accumulated gradient integral.
    Undefined (NaN) log entries short-circuit into an 'undefined from' report.
    """
    t = record.times
    T = t[-1]
    chi = params.chi
    if np.isnan(record.log_u).any():
        bad = float(t[np.isnan(record.log_u)][0])
        return BoundReport("log_mass", np.nan, np.nan, np.nan, False,
                           extras={"undefined_from": bad})
    after = np.nonzero(t > 0.05 * T)[0]
    if len(after) == 0 or after[0] == len(t) - 1:
        raise SamplingError("no samples after the waiting time tau0")
    i0 = int(after[0])
    tau0 = float(t[i0])
    volume = np.prod(grid.extents)
    min_v0 = float(record.v_min[0])
    mass0 = float(record.mass[0])
    seg = record.accumulated["grad_log_u_sq"] - record.accumulated["grad_log_u_sq"][i0]

    worst_margin = np.inf
    ok = True
    for k in range(i0 + 1, len(t)):
        dt = t[k] - tau0
        lhs = -record.log_u[k] + 0.5 * seg[k]
        rhs = (-record.log_u[i0]
               + chi**2 * (record.log_v[k] - record.log_v[i0])
               + chi**2 * volume * dt
               + chi**2 / min_v0 * np.exp(T) * mass0 * dt)
        tol = _BOUND_REL_TOL * max(abs(lhs), abs(rhs), 1.0)
        margin = rhs + tol - lhs
        worst_margin = min(worst_margin, margin)
        ok = ok and (lhs <= rhs + tol)
    min_log_u = float(record.log_u.min())
    return BoundReport("log_mass", min_log_u, worst_margin, _BOUND_REL_TOL, ok,
                       extras={
                           "tau0": tau0,
                           "min_log_u": min_log_u,
                           "grad_log_u_total": float(record.accumulated["grad_log_u_sq"][-1]),
                       })


def trace_positivity_check(record):
    """Positivity of the boundary trace of u^p v^q at every sample."""
    worst = float(record.boundary_min_upq.min())
    return BoundReport("trace_positivity", worst, 0.0, 0.0, worst > 0.0)

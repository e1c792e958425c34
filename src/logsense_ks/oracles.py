"""Independent verifiers for the standalone analytic facts the solver relies on.

Four groups:

* pointwise chain-rule identities for powers of a positive field, checked
  with the same discrete operators the solver uses;
* the algebraic square completion behind the entropy production, checked to
  round-off (it is exact algebra in three computed quadratic quantities);
* the Riccati comparison bound sqrt(b/a) * coth(sqrt(ab) t) for
  y' = -a y^2 + b, checked at every step of an RK4 integration whose error
  a step-doubling estimate bounds;
* Monte-Carlo estimates of the constants in two Poincare-type inequalities
  (logarithmic and mean-deviation forms) over ensembles of random smooth
  positive fields.

Ensemble members draw their seeds deterministically from a master seed, so
reports are reproducible bit-for-bit; empirical constants are reported, never
asserted against theoretical values (none are given in closed form).  The
ensembles synthesize and reduce their members a block at a time, and a
member's figures do not depend on the block it falls in.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    _span,
    cosine_modes,
    cosine_series,
    cosine_tables,
    gradient_cell_magnitude,
    interior_max_abs,
    lap_values,
)
from .params import entropy_coefficients, q_bounds

# RK4 steps over [0, T]; the step-doubling estimate certifies the verdict
DEFAULT_ODE_SUBSTEPS = 2000
# a case passes when its excess over the bound plus that estimate is at most this
_ODE_TOLERANCE = 1e-6
# RK4 steps held before the comparison bound is formed for all of them at once
_ODE_CHUNK = 64
# distinct probe cells whose kernel rows are formed at once; keeps each
# (block, cells) temporary near 128 KiB on a 32 x 32 grid
_RIESZ_BLOCK = 16
# |Du| floats the Riesz probe holds for one pass, at most: whole
# _ENSEMBLE_BLOCKs of members (at least one), 128 members on a 32 x 32 grid
_RIESZ_HOLD_FLOATS = 2**17
# ensemble members synthesized and reduced together; keeps each
# (block, cells) array near 128 KiB on a 32 x 32 grid, where wider blocks
# ran no faster and held more memory
_ENSEMBLE_BLOCK = 16
# the mean-deviation trend's |B|, as fractions of the domain volume
DELTA_TREND_FRACTIONS = (0.4, 0.2, 0.1)
# cells of the trials checked per stacked square-completion call, at most:
# a block of trials on 32 x 32 cells.  Finer grids take fewer trials per call
# (at least one), so a work buffer holds at most 128 KiB or one field
_SQUARE_STACK_CELLS = _ENSEMBLE_BLOCK * 32 * 32


# ---------------------------------------------------------------------------
# pointwise power identities
# ---------------------------------------------------------------------------

def check_power_identities(vals, grid, r):
    """Residuals of the two power chain-rule identities for a positive field
    `vals` on `grid`.

    half-power:  w^{r/2} lap(w^{r/2}) = ((r-2)/r) |grad w^{r/2}|^2
                                         + (r/2) w^{r-1} lap(w)
    full-power:  lap(w^r) = (4(r-1)/r) |grad w^{r/2}|^2 + r w^{r-1} lap(w)

    Both are evaluated with the discrete Neumann Laplacian and face-mean
    gradients, so the residuals are O(h^2), not zero.  The max runs over
    interior cells only: the mirrored-ghost Laplacian encodes a zero normal
    derivative that a generic analytic field violates, which would pollute
    boundary-adjacent cells at O(1).

    Returns (res_half, res_full).
    """
    if r <= 0.0:
        raise ValueError(f"power must be positive, got r = {r}")
    if vals.min() <= 0.0:
        raise ValueError("field must be strictly positive")
    half = vals ** (r / 2.0)
    lap_w = lap_values(vals, grid.h)
    lap_half = lap_values(half, grid.h)
    lap_full = lap_values(vals**r, grid.h)
    grad_sq = gradient_cell_magnitude(half, grid) ** 2
    wr1 = vals ** (r - 1.0)

    res_half = interior_max_abs(
        half * lap_half - (r - 2.0) / r * grad_sq - 0.5 * r * wr1 * lap_w)
    res_full = interior_max_abs(
        lap_full - 4.0 * (r - 1.0) / r * grad_sq - r * wr1 * lap_w)
    return res_half, res_full


# ---------------------------------------------------------------------------
# square completion
# ---------------------------------------------------------------------------

@dataclass
class SquareCompletionReport:
    """Max-cell residual and term scale: floats for one trial, (B,) arrays
    for a stack of B trials."""

    residual: float
    scale: float


def _square_buffers(grid, rows):
    """Work buffers for check_square_completion on stacks of up to `rows`
    trials: eight (rows, *shape) arrays and an interior-face array per axis."""
    stack = (rows,) + grid.shape
    faces = []
    for ax in range(grid.dim):
        shape = list(stack)
        shape[ax + 1] -= 1
        faces.append(np.empty(shape))
    return [np.empty(stack) for _ in range(8)], faces


def _cell_gradient(vals, h, axis, face, out):
    """faces_to_cells(face_grad_values(vals, h, axis), axis) through the
    face buffer into `out`, with the same operations in the same order.
    Copying the faces where faces_to_cells adds them to zero can change only
    the sign of a zero, which the squares and the zero-started sums of
    check_square_completion drop."""
    np.subtract(vals[_span(axis, 1, None)], vals[_span(axis, 0, -1)], out=face)
    face /= h
    out[_span(axis, -1, None)] = 0.0
    out[_span(axis, 0, -1)] = face
    out[_span(axis, 1, None)] += face
    out *= 0.5


def check_square_completion(u, v, grid, p, q, chi, work=None):
    """Max-cell mismatch between the raw entropy production quadratic form
    and its completed-square arrangement, for positive fields u and v on
    `grid`.

    With the per-cell vectors A = u^{p/2} grad v^{q/2} and
    B = v^{q/2} grad u^{p/2} (components from face means), the claim is

        (4(1-p)/p) |B|^2 - (4((1-p)chi + 2q)/q) A.B + (4(p chi+1-q)/q) |A|^2
          = c1 |B|^2 + c2 |A - kappa B|^2.

    This is exact algebra in (|A|^2, A.B, |B|^2), so the residual must be
    round-off relative to the reported term scale, independent of h.

    u and v may also be (B, *shape) stacks of B trials, with p, q and chi
    sequences of one value per row; the report then holds each row's
    residual and scale.  One trial is the B = 1 case.  Every cell takes the
    operations of the one-trial arithmetic in its order, with each row's
    coefficients formed as Python scalars, and each row's maxima reduce over
    its own cells, so a trial's figures do not depend on its stack.  `work`
    (from _square_buffers, at least B rows) lets a caller reuse the buffers
    across calls; by default the call allocates its own.
    """
    stacked = u.ndim > grid.dim
    if not stacked:
        u, v, p, q, chi = u[None], v[None], [p], [q], [chi]
    if u.min() <= 0.0 or v.min() <= 0.0:
        raise ValueError("fields must be strictly positive")
    rows = len(u)
    cells, faces = work if work is not None else _square_buffers(grid, rows)
    up, vq, a2, b2, ab, ga, gb, tmp = (buf[:rows] for buf in cells)
    coefs = []
    for pi, qi, ci in zip(p, q, chi):
        coef = entropy_coefficients(pi, qi, ci)
        coefs.append((pi / 2.0, qi / 2.0, 4.0 * (1.0 - pi) / pi,
                      4.0 * ((1.0 - pi) * ci + 2.0 * qi) / qi, coef.c1, coef.c2,
                      2.0 * coef.kappa, coef.kappa**2, np.abs(coef.c1)))
    # one (rows, 1, ..., 1) column per coefficient
    half_p, half_q, c_bb, cross, c1, c2, two_kappa, kappa_sq, abs_c1 = (
        np.array(coefs).T.reshape((9, rows) + (1,) * grid.dim))

    np.power(u, half_p, out=up)
    np.power(v, half_q, out=vq)
    for acc in (a2, b2, ab):
        acc.fill(0.0)
    for ax in range(grid.dim):
        axis = ax - grid.dim
        _cell_gradient(up, grid.h[ax], axis, faces[ax][:rows], gb)
        gb *= vq  # B
        _cell_gradient(vq, grid.h[ax], axis, faces[ax][:rows], ga)
        ga *= up  # A
        np.multiply(ga, ga, out=tmp)
        a2 += tmp
        np.multiply(gb, gb, out=tmp)
        b2 += tmp
        np.multiply(ga, gb, out=tmp)
        ab += tmp

    # raw = (4(1-p)/p)|B|^2 - cross A.B + c2|A|^2, and completed =
    # c2(|A|^2 - 2 kappa A.B + kappa^2|B|^2) + c1|B|^2 (the last sum commutes)
    raw, completed = up, vq
    np.multiply(c_bb, b2, out=raw)
    np.multiply(cross, ab, out=tmp)
    raw -= tmp
    np.multiply(c2, a2, out=tmp)
    raw += tmp
    np.multiply(two_kappa, ab, out=completed)
    np.subtract(a2, completed, out=completed)
    np.multiply(kappa_sq, b2, out=tmp)
    completed += tmp
    completed *= c2
    np.multiply(c1, b2, out=tmp)
    completed += tmp
    raw -= completed
    np.abs(raw, out=raw)
    residual = raw.reshape(rows, -1).max(axis=1)

    # the scale field, |A.B|, c2 |A|^2 and |c1| |B|^2 overwrite their inputs
    np.multiply(c_bb, b2, out=tmp)
    np.abs(ab, out=ab)
    ab *= cross
    tmp += ab
    a2 *= c2
    tmp += a2
    b2 *= abs_c1
    tmp += b2
    scale = tmp.reshape(rows, -1).max(axis=1)
    if stacked:
        return SquareCompletionReport(residual=residual, scale=scale)
    return SquareCompletionReport(residual=float(residual[0]), scale=float(scale[0]))


def _square_trials(seed, block, amplitude, denominators, draws):
    """Trials `block` of worst_square_completion: the (2B, K) series
    coefficients, u's rows then v's, and chi, p and q per trial.

    Trial i draws its 2K + 5 doubles at once from default_rng([seed, 7, i])
    into a row of `draws`, and each value is numpy's uniform
    low + (high - low) d of its double, in draw order: u's amplitude and K
    modes, v's, then chi, p and q, so every value is the one the calls of
    rng.uniform would draw.  chi, p and q are Python floats formed one trial
    at a time: Python's chi**2 is libm's pow, and a numpy square, a
    multiply, rounds differently in about 1 of 1,000 draws.
    """
    modes = len(denominators)
    draws = draws[:len(block)]
    for row, i in zip(draws, block):
        np.random.default_rng([seed, 7, i]).random(out=row)
    lo, hi = (float(x) for x in amplitude)
    # (2, B, 1 + K): per field and trial, the amplitude's double, then the modes'
    fields = draws[:, :2 * (modes + 1)].reshape(len(block), 2, modes + 1)
    fields = fields.transpose(1, 0, 2)
    amp = lo + (hi - lo) * fields[..., :1]
    coefficients = (-1.0 + 2.0 * fields[..., 1:]) * amp / denominators
    chi, p, q = [], [], []
    for d_chi, d_p, d_q in draws[:, 2 * modes + 2:].tolist():
        chi.append(0.3 + (3.0 - 0.3) * d_chi)
        p.append((0.05 + (0.95 - 0.05) * d_p) * min(1.0, 1.0 / chi[-1]**2))
        qm, qp = q_bounds(p[-1], chi[-1])
        low, high = qm + 1e-6, qp - 1e-6
        q.append(float(low + (high - low) * d_q))
    return coefficients.reshape(2 * len(block), modes), chi, p, q


def worst_square_completion(grid, spec, seed, trials):
    """Worst residual / scale of check_square_completion over random trials.

    Trial i draws from default_rng([seed, 7, i]), in order: u's series, v's
    series, chi in [0.3, 3], p in [0.05, 0.95] * min(1, 1/chi^2) and q inside
    its window shrunk by 1e-6 at each end (p <= 0.95 and p chi^2 <= 0.95 keep
    the window at least 0.05 sqrt(0.05) wide).  The fields take spec's
    cutoff, amplitude and floor; a block of trials is drawn and synthesized
    at once (see _square_trials) and checked in stacked calls of up to
    _SQUARE_STACK_CELLS cells (one call per block up to 32 x 32 cells).  The
    draws, the fields and the checks use work buffers held for the whole run.
    """
    _, denominators = cosine_tables(grid.cells, grid.extents, spec.cutoff)
    cell_count = int(np.prod(grid.shape))
    rows = min(_ENSEMBLE_BLOCK, max(1, _SQUARE_STACK_CELLS // cell_count))
    work = _square_buffers(grid, rows)
    series = np.empty((2 * _ENSEMBLE_BLOCK, cell_count))
    draws = np.empty((_ENSEMBLE_BLOCK, 2 * len(denominators) + 5))
    worst = 0.0
    for block in _blocks(trials):
        count = len(block)
        coefficients, chi, p, q = _square_trials(
            seed, block, spec.amplitude, denominators, draws)
        fields = _synthesize(grid, spec.cutoff, spec.floor, coefficients,
                             out=series[:2 * count])
        for lo in range(0, count, rows):
            hi = min(count, lo + rows)
            rep = check_square_completion(
                fields[lo:hi], fields[count + lo:count + hi], grid,
                p[lo:hi], q[lo:hi], chi[lo:hi], work)
            for residual, scale in zip(rep.residual, rep.scale):
                if scale > 0:
                    worst = max(worst, float(residual / scale))
    return worst


# ---------------------------------------------------------------------------
# Riccati comparison bound
# ---------------------------------------------------------------------------

@dataclass
class OdeComparison:
    a: float
    b: float
    y0: float
    T: float

    def __post_init__(self):
        if not np.isfinite([self.a, self.b, self.y0, self.T]).all():
            raise ValueError("a, b, y0 and T must be finite")
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("a and b must be positive")
        if self.T <= 0.0:
            raise ValueError("T must be positive")


@dataclass
class OdeComparisonReport:
    """One case's verdict: passed iff max_excess + error_estimate <= tolerance.

    max_excess is the largest y - bound over every step of the main run;
    error_estimate is the step-doubling error estimate at the shared mesh
    point where excess plus estimate is largest.
    """

    spec: OdeComparison
    passed: bool
    max_excess: float
    error_estimate: float
    y0_variants: list
    substeps: int
    tolerance: float


def coth_bound(a, b, t):
    """The comparison value sqrt(b/a) * coth(sqrt(ab) * t) for t > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return np.sqrt(b / a) / np.tanh(np.sqrt(a * b) * t)


def _riccati_rhs(a, b, y, out):
    """out = b - a y^2, formed as b - (a * y) * y."""
    np.multiply(a, y, out=out)
    out *= y
    return np.subtract(b, out, out=out)


class _Rk4:
    """Classical RK4 for y' = b - a y^2 on every row, in preallocated buffers,
    each row with its own dt.

    A row at or below `floor` is frozen: its state no longer changes.
    """

    def __init__(self, a, b, y0, dt, floor):
        self.a, self.b, self.floor = a, b, floor
        self.y = np.array(y0, dtype=np.float64)
        self.dt, self.half_dt, self.sixth_dt = dt, 0.5 * dt, dt / 6.0
        self.k1, self.k2, self.k3, self.k4, self.stage = (
            np.empty(len(self.y)) for _ in range(5))
        self.moving = np.empty(len(self.y), dtype=bool)

    def head(self, rows):
        """An _Rk4 over the first `rows` rows, stepping them in this one's
        buffers."""
        view = object.__new__(_Rk4)
        for name, value in vars(self).items():
            setattr(view, name, value[:rows])
        return view

    def step(self, out):
        """Advance every row by one step and copy the new states into out."""
        a, b, y, stage = self.a, self.b, self.y, self.stage
        k1, k2, k3, k4 = self.k1, self.k2, self.k3, self.k4
        _riccati_rhs(a, b, y, k1)
        np.multiply(self.half_dt, k1, out=stage)
        stage += y
        _riccati_rhs(a, b, stage, k2)
        np.multiply(self.half_dt, k2, out=stage)
        stage += y
        _riccati_rhs(a, b, stage, k3)
        np.multiply(self.dt, k3, out=stage)
        stage += y
        _riccati_rhs(a, b, stage, k4)
        # y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), accumulated in k2
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= self.sixth_dt
        k2 += y
        np.greater(y, self.floor, out=self.moving)
        np.copyto(y, k2, where=self.moving)
        out[...] = y


def verify_ode_comparison_batch(specs, substeps=DEFAULT_ODE_SUBSTEPS):
    """Check y(t) <= coth bound at every positive mesh point of an RK4 run,
    one report per case.

    Each case integrates y' = -a y^2 + b from its y0 and from variants
    seated below and above the equilibrium sqrt(b/a), so both approach
    directions are exercised regardless of where y0 sits.  Every case and
    y0 variant is one row of a classical RK4 integration run in
    preallocated buffers.  The states of up to _ODE_CHUNK consecutive steps
    are held and compared with the bound in one pass over the chunk.

    The verdict is certified by step doubling (Richardson extrapolation): a
    companion run at substeps // 2 advances in lockstep, one step per two
    main steps: its rows follow the main rows in one batch, which steps the
    main rows alone on the first of each pair of main steps and every row on
    the second.  At each shared mesh point err = |y_N - y_{N/2}| / 15
    estimates the main run's error (RK4 is fourth order, 2^4 - 1 = 15).
    Points where either run sits at or below the freeze floor are left out
    of the estimate; a row that starts above -sqrt(b/a) can reach the floor
    only through an unstable step, and its estimate is then infinite.  A
    case passes iff its estimate is finite and
    max_excess + error_estimate <= _ODE_TOLERANCE, which bounds excess + err at
    every shared point.  No trajectory is held beyond one chunk.
    """
    if substeps < 1 or substeps % 2:
        raise ValueError(f"substeps must be a positive even count, got {substeps}")
    if not specs:
        return []
    rows = []
    variants = []
    for s in specs:
        eq = np.sqrt(s.b / s.a)
        var = [s.y0, 0.5 * eq, 2.0 * eq]
        variants.append(var)
        for y0 in var:
            rows.append((s.a, s.b, y0, s.T))
    a = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows])
    y0 = np.array([r[2] for r in rows], dtype=np.float64)
    T = np.array([r[3] for r in rows])
    dt = T / substeps
    eq = np.sqrt(b / a)
    w = np.sqrt(a * b)
    # solutions from y0 < -eq blow down in finite time; freeze them once they
    # are far below the equilibrium (the bound is positive, so they pass)
    floor = -10.0 * (eq + 1.0)
    count = len(rows)
    # the main rows at dt, then the companion's at 2 dt: the first of each
    # pair of main steps advances the head, the second every row
    both = _Rk4(*(np.concatenate(pair) for pair in (
        (a, a), (b, b), (y0, y0), (dt, 2.0 * dt), (floor, floor))))
    main = both.head(count)
    max_excess = np.full(count, -np.inf)
    # per row: the largest excess + err over the shared points, and its err
    certified = np.full(count, -np.inf)
    error_at = np.zeros(count)
    columns = np.arange(count)
    # per pair of main steps: the first step's main states, then the
    # second's, then the companion's (one row of slots)
    pairs = np.empty((min(_ODE_CHUNK, substeps) // 2, 3, count))
    slots = pairs.reshape(len(pairs), 3 * count)
    # per-chunk work buffers, one row per pair
    err, total = (np.empty((len(pairs), count)) for _ in range(2))
    frozen, paired_frozen = (np.empty(err.shape, dtype=bool) for _ in range(2))
    row_max = np.empty(count)

    for start in range(0, substeps, 2 * len(pairs)):
        m = min(len(pairs), (substeps - start) // 2)
        for slot in slots[:m]:
            main.step(slot[:count])
            both.step(slot[count:])
        held = pairs[:m, :2]
        shared, coarse = held[:, 1], pairs[:m, 2]  # at the companion's mesh points
        e, t, f = err[:m], total[:m], frozen[:m]
        np.subtract(shared, coarse, out=e)
        np.abs(e, out=e)
        e /= 15.0
        np.less_equal(shared, floor, out=f)
        f |= np.less_equal(coarse, floor, out=paired_frozen[:m])
        # held -= eq / tanh(w * (step * dt)), the bound formed in t for the
        # first, then the second step of each pair
        for parity in (0, 1):
            np.multiply(np.arange(start + 1 + parity, start + 2 * m + 1, 2)[:, None],
                        dt, out=t)
            t *= w
            np.tanh(t, out=t)
            np.divide(eq, t, out=t)
            held[:, parity] -= t
        np.maximum(max_excess, held.max(axis=(0, 1), out=row_max), out=max_excess)
        np.add(shared, e, out=t)
        t[f] = -np.inf
        at = t.argmax(axis=0)  # a NaN wins, so a non-finite err is kept
        best = t[at, columns]
        better = (best > certified) | np.isnan(best)
        certified[better] = best[better]
        error_at[better] = e[at, columns][better]
    # a solution from y0 > -eq stays above -eq, so such a row that froze was
    # thrown down by an unstable step and its estimate is unbounded
    thrown = ((both.y[:count] <= floor) | (both.y[count:] <= floor)) & (y0 > -eq)
    certified[thrown] = error_at[thrown] = np.inf

    reports = []
    idx = 0
    for s, var in zip(specs, variants):
        span = slice(idx, idx + len(var))
        excess = float(max_excess[span].max())
        estimate = float(error_at[idx + certified[span].argmax()])
        idx += len(var)
        passed = np.isfinite(estimate) and excess + estimate <= _ODE_TOLERANCE
        reports.append(OdeComparisonReport(
            spec=s, passed=bool(passed), max_excess=excess,
            error_estimate=estimate, y0_variants=[float(x) for x in var],
            substeps=substeps, tolerance=_ODE_TOLERANCE,
        ))
    return reports


# ---------------------------------------------------------------------------
# random field ensembles
# ---------------------------------------------------------------------------

@dataclass
class EnsembleSpec:
    """Knobs for the random positive field ensembles.

    delta doubles as the level in the log inequality and as the measure |B|
    in the mean-deviation inequality; eta is the minimum measure of the
    super-level set {phi > delta} a sample must have.
    """

    count: int = 200
    seed: int = 0
    cutoff: int = 4
    amplitude: tuple = (0.2, 1.0)
    floor: float = 0.05
    delta: float = 0.5
    eta: float = 0.05
    b_selector: str = "threshold"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if self.floor <= 0.0:
            raise ValueError("floor must be positive")
        if self.delta <= 0.0 or self.eta <= 0.0:
            raise ValueError("delta and eta must be positive")
        if len(self.amplitude) != 2 or \
                not 0.0 <= self.amplitude[0] <= self.amplitude[1]:
            raise ValueError("amplitude range must be a pair 0 <= lo <= hi")
        if self.b_selector not in ("threshold", "random"):
            raise ValueError(f"unknown B selector: {self.b_selector!r}")


# a quarter of ln(largest float): a series of at most this magnitude keeps a
# synthesized field, its square and its squared gradient finite
MAX_SERIES_MAGNITUDE = float(np.log(np.finfo(np.float64).max)) / 4.0


def check_synth_amplitude(dim, cutoff, amplitude):
    """Raise ValueError unless every series synth_positive_field can draw on a
    dim-dimensional grid stays within MAX_SERIES_MAGNITUDE.

    |series| <= amplitude[1] * sum_k 1/(1 + |k|^2) over the (cutoff + 1)^dim
    modes, since every draw lies in [-1, 1] and every cosine in [-1, 1].
    """
    bound = amplitude[1] * sum(1.0 / d for _, d in cosine_modes(dim, cutoff))
    if bound > MAX_SERIES_MAGNITUDE:
        raise ValueError(
            f"the upper amplitude {amplitude[1]:g} lets the log-field series "
            f"reach {bound:.4g}, above {MAX_SERIES_MAGNITUDE:.4g}, where the "
            "fields overflow")


def _series_coefficients(rng, amplitude, denominators):
    """One field's series coefficients, drawn from rng in mode order."""
    amp = rng.uniform(*amplitude)
    return rng.uniform(-1.0, 1.0, size=len(denominators)) * amp / denominators


def _synthesize(grid, cutoff, floor, coefficients, out=None):
    """floor + exp(series) for each row of coefficients, stacked on a leading
    axis; `out` is grid.cosine_series's."""
    series = cosine_series(grid, cutoff, coefficients, out=out)
    np.exp(series, out=series)
    series += floor
    return series


def synth_positive_field(grid, rng, cutoff, amplitude, floor):
    """floor + exp(random cosine series): smooth, zero-flux, >= floor strictly.

    Coefficients decay like 1/(1+|k|^2) and are drawn in a fixed lexicographic
    mode order, so a given rng state maps to exactly one field.  The k = 0
    mode acts as a global log-offset; without it every sample would sit above
    any level delta < 1 on average and the small-field branch of the level-set
    inequalities could never occur.

    The series is grid.cosine_series over the modes of grid.cosine_modes.
    Ensembles synthesize their members in blocks of _ENSEMBLE_BLOCK with the
    same kernel, so a member's field is this function's field for its rng.
    """
    _, denominators = cosine_tables(grid.cells, grid.extents, cutoff)
    coefficients = _series_coefficients(rng, amplitude, denominators)
    return _synthesize(grid, cutoff, floor, [coefficients])[0]


def _member_rng(seed, index):
    return np.random.default_rng([seed, index])


def _blocks(count):
    """Consecutive index ranges of at most _ENSEMBLE_BLOCK members."""
    for lo in range(0, count, _ENSEMBLE_BLOCK):
        yield range(lo, min(count, lo + _ENSEMBLE_BLOCK))


def _injected(field_source, members):
    """The field_source samples of `members`, stacked as float64."""
    return np.stack([np.asarray(field_source(i), dtype=np.float64)
                     for i in members])


@dataclass
class LogPoincareReport:
    max_ratio: float
    included: int
    alternative: int
    excluded: int
    regenerated: int
    degenerate: bool
    delta: float
    eta: float
    seed: int
    grid_cells: list
    grid_extents: list


def _level_set_fields(spec, grid, members):
    """Each member's first field whose super-level set {phi > delta} has
    measure above eta, and how many draws it discarded.  Every round draws
    the next field of each member still short of it, from its own rng."""
    _, denominators = cosine_tables(grid.cells, grid.extents, spec.cutoff)
    rngs = [_member_rng(spec.seed, i) for i in members]
    fields = np.empty((len(members),) + grid.shape)
    regenerated = np.zeros(len(members), dtype=int)
    pending = np.arange(len(members))
    for _attempt in range(64):
        drawn = _synthesize(grid, spec.cutoff, spec.floor, [
            _series_coefficients(rngs[j], spec.amplitude, denominators)
            for j in pending])
        above = (drawn > spec.delta).reshape(len(pending), -1).sum(axis=1)
        met = above * grid.cell_volume > spec.eta
        fields[pending[met]] = drawn[met]
        pending = pending[~met]
        if not len(pending):
            return fields, regenerated
        regenerated[pending] += 1
    raise RuntimeError(f"sample {members[pending[0]]} kept violating the "
                       "level-set measure requirement")


def log_poincare_ratio(spec, grid, field_source=None):
    """Empirical constant for the logarithmic Poincare alternative.

    For each sample phi with integral(ln(delta/phi)) >= 0 the ratio

        R = (integral ln(delta/phi))^2 / integral |grad phi|^2 / phi^2

    is recorded; samples with a negative integral fall into the alternative
    branch and 0/0 samples (phi identically at the level) are excluded.  The
    report carries max R (an empirical reciprocal constant), never a pass or
    fail against a theoretical value.

    field_source(i) may override sample generation (used by closed-form
    tests); injected samples must be strictly positive and are exempt from
    the level-set measure requirement.
    """
    volume = grid.volume
    if spec.eta >= volume:
        raise ValueError(f"eta = {spec.eta} must be below the domain volume {volume}")
    vol = grid.cell_volume

    outcomes = []
    for members in _blocks(spec.count):
        if field_source is not None:
            phi = _injected(field_source, members)
            if phi.min() <= 0.0:
                raise ValueError("injected sample must be strictly positive")
            regenerated = np.zeros(len(members), dtype=int)
        else:
            phi, regenerated = _level_set_fields(spec, grid, members)
        logs = np.log(spec.delta / phi).reshape(len(members), -1)
        nums = logs.sum(axis=1)
        dens = (gradient_cell_magnitude(phi, grid) ** 2 / phi**2).reshape(
            len(members), -1).sum(axis=1)
        peaks = np.abs(logs).max(axis=1)
        for log_sum, grad_sum, peak, reg in zip(nums, dens, peaks, regenerated):
            num = float(log_sum) * vol
            den = float(grad_sum) * vol
            if _round_off_pair(num, den, max(peak * volume, 1.0)):
                outcomes.append(("excluded", 0.0, int(reg)))
            elif num < 0.0:
                outcomes.append(("alternative", 0.0, int(reg)))
            else:
                outcomes.append(("included", num * num / den, int(reg)))

    ratios = [r for kind, r, _ in outcomes if kind == "included"]
    return LogPoincareReport(
        max_ratio=float(max(ratios)) if ratios else float("nan"),
        included=len(ratios),
        alternative=sum(1 for kind, _, _ in outcomes if kind == "alternative"),
        excluded=sum(1 for kind, _, _ in outcomes if kind == "excluded"),
        regenerated=sum(reg for _, _, reg in outcomes),
        degenerate=not ratios,
        delta=spec.delta,
        eta=spec.eta,
        seed=spec.seed,
        grid_cells=list(grid.cells),
        grid_extents=list(grid.extents),
    )


@dataclass
class MeanPoincareReport:
    max_ratio: float
    mean_ratio: float
    count: int
    p: float
    delta: float
    b_selector: str
    seed: int
    grid_cells: list
    grid_extents: list
    riesz: dict = dc_field(default_factory=dict)
    # per fraction of DELTA_TREND_FRACTIONS: {"delta", "max_ratio"}
    delta_trend: list = dc_field(default_factory=list)

    def as_dict(self):
        out = {k: getattr(self, k) for k in (
            "max_ratio", "mean_ratio", "count", "p", "delta", "b_selector",
            "seed", "grid_cells", "grid_extents")}
        if self.riesz:
            out["riesz"] = self.riesz
        return out


def _mean_ensemble(spec, grid, p, deltas, field_source=None, probes=0):
    """Every member's mean-deviation ratio at each |B| in deltas, from one
    ensemble, and with probes > 0 the Riesz probe ratios' maxima over the
    first and the second half of the ensemble (u_B taken at deltas[0]).

    Members go in blocks of _ENSEMBLE_BLOCK: a block's fields, gradient
    magnitudes, gradient integrals and threshold sort orders are formed once
    and shared by every delta, the fields in one buffer held for the run.
    The random selector draws each delta's B from the member's rng as left
    after its synthesis draws.  As in log_poincare_ratio, a member whose two
    p-norms both sit within round-off of its scale max(max|u| |domain|^(1/p),
    1), such as a constant field, is a 0/0 and counts as ratio 0.

    The Riesz probe holds a group of blocks: each member's |Du| row, probe
    cells and |u(x) - u_B| at them, in buffers of up to _RIESZ_HOLD_FLOATS
    |Du| floats.  When the group is full or the ensemble ends, one
    _riesz_ratios pass takes the group's probes, and each ratio counts
    towards the calibration half when its member's index in the ensemble is
    below half.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    vol = grid.cell_volume
    for delta in deltas:
        if not vol <= delta <= grid.volume:
            raise ValueError(
                f"delta = {delta} must lie in [cell volume, domain volume]")
    cell_count = int(np.prod(grid.shape))
    b_counts = [max(1, int(round(delta / vol))) for delta in deltas]
    _, denominators = cosine_tables(grid.cells, grid.extents, spec.cutoff)
    series = np.empty((_ENSEMBLE_BLOCK, cell_count))
    probe_rng = np.random.default_rng([spec.seed, 10**9])
    half = max(1, spec.count // 2)
    # the calibration and the evaluation half (0 when the second is empty)
    probe_max = [-np.inf, 0.0]
    ratios = np.empty((len(deltas), spec.count))
    if probes:
        hold = _ENSEMBLE_BLOCK * max(
            1, _RIESZ_HOLD_FLOATS // (_ENSEMBLE_BLOCK * cell_count))
        held_gm = np.empty((hold, cell_count))
        held_gap = np.empty((hold, probes))
        held_cells = np.empty((hold, probes), dtype=np.intp)
        first = held = 0  # the group's first member, and its size so far

    for members in _blocks(spec.count):
        rngs = [_member_rng(spec.seed, i) for i in members]
        if field_source is not None:
            values = _injected(field_source, members)
        else:
            values = _synthesize(grid, spec.cutoff, spec.floor, [
                _series_coefficients(rng, spec.amplitude, denominators)
                for rng in rngs], out=series[:len(members)])
        flat = values.reshape(len(members), -1)
        grad_mag = gradient_cell_magnitude(values, grid)
        dens = _p_norms(grad_mag.reshape(len(members), -1), p, vol)
        scales = np.maximum(
            np.abs(flat).max(axis=1) * grid.volume ** (1.0 / p), 1.0)
        if spec.b_selector == "threshold":
            order = np.argsort(flat, axis=1, kind="stable")
        else:
            synthesized = [rng.bit_generator.state for rng in rngs]
        for d, b_count in enumerate(b_counts):
            if spec.b_selector == "threshold":
                b_idx = order[:, :b_count]
            else:
                for rng, state in zip(rngs, synthesized):
                    rng.bit_generator.state = state
                b_idx = np.stack([rng.choice(cell_count, size=b_count, replace=False)
                                  for rng in rngs])
            u_b = np.take_along_axis(flat, b_idx, axis=1).mean(axis=1)
            nums = _p_norms(np.abs(flat - u_b[:, None]), p, vol)
            for i, num, den, scale in zip(members, nums, dens, scales):
                ratios[d, i] = _ratio(num, den, scale)
            if probes and d == 0:
                at = slice(held, held + len(members))
                held_cells[at] = np.stack([
                    probe_rng.integers(0, cell_count, size=probes)
                    for _ in members])
                held_gap[at] = np.abs(np.take_along_axis(
                    flat, held_cells[at], axis=1) - u_b[:, None])
                held_gm[at] = grad_mag.reshape(len(members), -1)
                held += len(members)
        if probes and (held == hold or members[-1] == spec.count - 1):
            probed = _riesz_ratios(grid, held_gap[:held], held_gm[:held],
                                   held_cells[:held])
            calibrating = np.arange(first, first + held) < half
            for side, rows in enumerate((probed[calibrating],
                                         probed[~calibrating])):
                if len(rows):
                    probe_max[side] = np.maximum(probe_max[side], rows.max())
            first += held
            held = 0
    return ratios, [float(m) for m in probe_max]


def _round_off_pair(num, den, scale):
    """Whether num and den both sit within 1e-14 of a member's scale: a
    0/0 member, such as a constant field, whose numerator round-off leaves
    off zero."""
    return abs(num) <= 1e-14 * scale and den <= 1e-14 * scale


def _p_norms(mags, p, vol):
    """Each row's p-norm (sum |x|^p vol)^(1/p) of the nonnegative rows
    `mags`.  A row whose sum of p-th powers overflows, or underflows to zero
    while its max is not zero (a large p), is summed as (|x| / max)^p instead
    and its max multiplied back in; every other row keeps the plain sum."""
    with np.errstate(over="ignore"):
        sums = (mags**p).sum(axis=1) * vol
    peaks = mags.max(axis=1)
    norms = []
    for row, total, peak in zip(mags, sums, peaks):
        if np.isfinite(total) and (total > 0.0 or peak == 0.0):
            norms.append(total ** (1.0 / p))
        else:
            scaled = ((row / peak) ** p).sum() * vol
            norms.append(peak * scaled ** (1.0 / p))
    return norms


def _ratio(num, den, scale):
    """num / den for a pair of p-norms, with a 0/0 pair at scale counted as 0."""
    if _round_off_pair(num, den, scale):
        return 0.0
    if den == 0.0:
        return float("inf")
    return num / den


def mean_poincare_ratio(spec, grid, p, include_riesz=False,
                        riesz_probes=100, field_source=None):
    """Empirical constant in (I |u - u_B|^p)^{1/p} <= C (I |Du|^p)^{1/p}.

    B is a sublevel set of measure delta (threshold selector) or a seeded
    random cell mask of the same measure; u_B is the mean of u over B.  The
    max ratio over the ensemble estimates C(domain, delta, p).  The same
    ensemble gives delta_trend, the max ratio as |B| shrinks through
    DELTA_TREND_FRACTIONS of the domain (reported, not asserted).  With
    include_riesz, the pointwise kernel bound |u(x) - u_B| <= C_K I |Du(y)| /
    |x-y|^{dim-1} dy is probed at random cells: the constant is fitted on the
    first half of the ensemble and checked with 1.5x headroom on the second
    (the kernel distance is floored at half the min spacing).

    field_source(i) may override sample generation (used by closed-form
    tests); it must return a values array.
    """
    trend_deltas = [frac * grid.volume for frac in DELTA_TREND_FRACTIONS]
    (ratios, *trend), (fitted, worst) = _mean_ensemble(
        spec, grid, p, [spec.delta, *trend_deltas], field_source,
        riesz_probes if include_riesz else 0)
    report = MeanPoincareReport(
        max_ratio=float(ratios.max()),
        mean_ratio=float(ratios.mean()),
        count=spec.count,
        p=p,
        delta=spec.delta,
        b_selector=spec.b_selector,
        seed=spec.seed,
        grid_cells=list(grid.cells),
        grid_extents=list(grid.extents),
        delta_trend=[{"delta": delta, "max_ratio": float(row.max())}
                     for delta, row in zip(trend_deltas, trend)],
    )
    if include_riesz:
        report.riesz = {
            "fitted_constant": fitted,
            "eval_worst": worst,
            "headroom": 1.5,
            "passed": bool(worst <= 1.5 * fitted),
            "probes": riesz_probes,
        }
    return report


def _riesz_ratios(grid, gap, grad_mag, cells):
    """|u(x) - u_B| over the kernel bound at each probe cell x: row m of
    cells holds member m's probe cells, of gap its |u(x) - u_B| at them and
    of grad_mag its |Du|.

    The bound is vol * sum_y |Du(y)| / d(x, y)^(dim-1), with the distance d
    floored at half the min spacing.  The probes of every member are grouped
    by cell, so each distinct cell's kernel row is formed once per call,
    _RIESZ_BLOCK rows at a time: d^2 sums the per-axis squared coordinate
    differences in axis order (what a Euclidean norm over the axes reduces),
    each looked up in a per-axis table.  Each probe then takes the row sum
    of its member's |Du| times its cell's kernel row, the row broadcast over
    the cell's probes.
    """
    squares = []
    for ax in range(grid.dim):
        x = grid.axis_centers(ax)
        diff = x - x[:, None]  # row c: x - x[c]
        diff *= diff
        squares.append(diff)
    h_min = min(grid.h)
    power = grid.dim - 1
    gm = grad_mag.reshape(len(grad_mag), -1)
    hit_cells = cells.ravel()
    hit_members = np.repeat(np.arange(len(cells)), cells.shape[1])
    by_cell = np.argsort(hit_cells, kind="stable")
    distinct, counts = np.unique(hit_cells, return_counts=True)
    ends = np.cumsum(counts)
    bound = np.empty(len(hit_cells))
    for lo in range(0, len(distinct), _RIESZ_BLOCK):
        block = distinct[lo:lo + _RIESZ_BLOCK]
        dist = 0.0
        for ax, index in enumerate(np.unravel_index(block, grid.shape)):
            shape = [len(block)] + [1] * grid.dim
            shape[ax + 1] = grid.cells[ax]
            dist = dist + squares[ax][index].reshape(shape)
        dist = dist.reshape(len(block), -1)
        np.sqrt(dist, out=dist)
        np.maximum(dist, 0.5 * h_min, out=dist)
        kernel = dist**-power if power else np.ones_like(dist)
        for row, end, count in zip(kernel, ends[lo:lo + len(block)],
                                   counts[lo:lo + len(block)]):
            hits = by_cell[end - count:end]
            product = gm[hit_members[hits]]
            product *= row
            bound[hits] = product.sum(axis=1)
    bound *= grid.cell_volume
    bound = bound.reshape(cells.shape)
    return np.divide(gap, bound, out=np.zeros(cells.shape), where=bound > 0)

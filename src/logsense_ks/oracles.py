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

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    Grid,
    face_grad_values,
    faces_to_cells,
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
# ensemble members synthesized and reduced together; keeps each
# (block, cells) array near 128 KiB on a 32 x 32 grid, where wider blocks
# ran no faster and held more memory
_ENSEMBLE_BLOCK = 16
# the mean-deviation trend's |B|, as fractions of the domain volume
DELTA_TREND_FRACTIONS = (0.4, 0.2, 0.1)


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
    residual: float
    scale: float


def check_square_completion(u, v, grid, p, q, chi):
    """Max-cell mismatch between the raw entropy production quadratic form
    and its completed-square arrangement, for positive fields u and v on
    `grid`.

    With the per-cell vectors A = u^{p/2} grad v^{q/2} and
    B = v^{q/2} grad u^{p/2} (components from face means), the claim is

        (4(1-p)/p) |B|^2 - (4((1-p)chi + 2q)/q) A.B + (4(p chi+1-q)/q) |A|^2
          = c1 |B|^2 + c2 |A - kappa B|^2.

    This is exact algebra in (|A|^2, A.B, |B|^2), so the residual must be
    round-off relative to the reported term scale, independent of h.
    """
    if u.min() <= 0.0 or v.min() <= 0.0:
        raise ValueError("fields must be strictly positive")
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
    return SquareCompletionReport(
        residual=float(np.abs(raw - completed).max()),
        scale=float(scale_field.max()),
    )


def worst_square_completion(grid, spec, seed, trials):
    """Worst residual / scale of check_square_completion over random trials.

    Trial i draws from default_rng([seed, 7, i]), in order: u's series, v's
    series, chi in [0.3, 3], p in [0.05, 0.95] * min(1, 1/chi^2) and q inside
    its window (its midpoint when the window is narrower than 2e-6).  The
    fields take spec's cutoff, amplitude and floor and are synthesized a
    block of trials at a time.
    """
    _, denominators = _cosine_table(grid.cells, grid.extents, spec.cutoff)
    worst = 0.0
    for block in _blocks(trials):
        drawn = []
        for i in block:
            rng = np.random.default_rng([seed, 7, i])
            u = _series_coefficients(rng, spec.amplitude, denominators)
            v = _series_coefficients(rng, spec.amplitude, denominators)
            chi = float(rng.uniform(0.3, 3.0))
            p = float(rng.uniform(0.05, 0.95)) * min(1.0, 1.0 / chi**2)
            qm, qp = q_bounds(p, chi)
            q = float(rng.uniform(qm + 1e-6, qp - 1e-6)) if qp - qm > 2e-6 \
                else 0.5 * (qm + qp)
            drawn.append((u, v, chi, p, q))
        fields = _synthesize(grid, spec.cutoff, spec.floor,
                             [d[0] for d in drawn] + [d[1] for d in drawn])
        for u, v, (_, _, chi, p, q) in zip(fields, fields[len(drawn):], drawn):
            rep = check_square_completion(u, v, grid, p, q, chi)
            if rep.scale > 0:
                worst = max(worst, float(rep.residual / rep.scale))
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
    """Classical RK4 for y' = b - a y^2 on every row, in preallocated buffers.

    A row at or below `floor` is frozen: its state no longer changes.
    """

    def __init__(self, a, b, y0, dt, floor):
        self.a, self.b, self.floor = a, b, floor
        self.y = np.array(y0, dtype=np.float64)
        self.dt, self.half_dt, self.sixth_dt = dt, 0.5 * dt, dt / 6.0
        self.k1, self.k2, self.k3, self.k4, self.stage = (
            np.empty(len(self.y)) for _ in range(5))
        self.moving = np.empty(len(self.y), dtype=bool)

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
    main steps.  At each shared mesh point err = |y_N - y_{N/2}| / 15
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
    main = _Rk4(a, b, y0, dt, floor)
    companion = _Rk4(a, b, y0, 2.0 * dt, floor)
    max_excess = np.full(len(rows), -np.inf)
    # per row: the largest excess + err over the shared points, and its err
    certified = np.full(len(rows), -np.inf)
    error_at = np.zeros(len(rows))
    columns = np.arange(len(rows))
    chunk = np.empty((min(_ODE_CHUNK, substeps), len(rows)))
    coarse = np.empty((len(chunk) // 2, len(rows)))
    # per-chunk work buffers, each the companion's chunk size
    err, total = np.empty_like(coarse), np.empty_like(coarse)
    frozen, paired_frozen = (np.empty(coarse.shape, dtype=bool) for _ in range(2))
    row_max = np.empty(len(rows))

    for start in range(0, substeps, len(chunk)):
        n = min(len(chunk), substeps - start)
        held, paired = chunk[:n], coarse[:n // 2]
        for fine_rows, coarse_row in zip(held.reshape(-1, 2, len(rows)), paired):
            for row in fine_rows:
                main.step(row)
            companion.step(coarse_row)
        shared = held[1::2]  # main states at the companion's mesh points
        e, t, f = err[:n // 2], total[:n // 2], frozen[:n // 2]
        np.subtract(shared, paired, out=e)
        np.abs(e, out=e)
        e /= 15.0
        np.less_equal(shared, floor, out=f)
        f |= np.less_equal(paired, floor, out=paired_frozen[:n // 2])
        # held -= eq / tanh(w * (step * dt)), the bound formed in t for the
        # odd, then the even steps (n is even)
        for parity in (0, 1):
            np.multiply(np.arange(start + 1 + parity, start + n + 1, 2)[:, None],
                        dt, out=t)
            t *= w
            np.tanh(t, out=t)
            np.divide(eq, t, out=t)
            held[parity::2] -= t
        np.maximum(max_excess, held.max(axis=0, out=row_max), out=max_excess)
        np.add(shared, e, out=t)
        t[f] = -np.inf
        at = t.argmax(axis=0)  # a NaN wins, so a non-finite err is kept
        best = t[at, columns]
        better = (best > certified) | np.isnan(best)
        certified[better] = best[better]
        error_at[better] = e[at, columns][better]
    # a solution from y0 > -eq stays above -eq, so such a row that froze was
    # thrown down by an unstable step and its estimate is unbounded
    thrown = ((main.y <= floor) | (companion.y <= floor)) & (y0 > -eq)
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


def _modes(dim, cutoff):
    """Each mode k of the synthesis series with its 1 + |k|^2, in draw order."""
    for k in itertools.product(range(cutoff + 1), repeat=dim):
        yield k, 1.0 + sum(ki * ki for ki in k)


def check_synth_amplitude(dim, cutoff, amplitude):
    """Raise ValueError unless every series synth_positive_field can draw on a
    dim-dimensional grid stays within MAX_SERIES_MAGNITUDE.

    |series| <= amplitude[1] * sum_k 1/(1 + |k|^2) over the (cutoff + 1)^dim
    modes, since every draw lies in [-1, 1] and every cosine in [-1, 1].
    """
    bound = amplitude[1] * sum(1.0 / d for _, d in _modes(dim, cutoff))
    if bound > MAX_SERIES_MAGNITUDE:
        raise ValueError(
            f"the upper amplitude {amplitude[1]:g} lets the log-field series "
            f"reach {bound:.4g}, above {MAX_SERIES_MAGNITUDE:.4g}, where the "
            "fields overflow")


@functools.lru_cache(maxsize=8)
def _cosine_table(cells, extents, cutoff):
    """Per-mode cosine factors and 1 + |k|^2 denominators of the synthesis series.

    Modes run over range(cutoff + 1)^dim in lexicographic order.  A mode's
    factors are the vectors cos(k_a pi x_a / L_a) of its nonzero k_a, each
    shaped to broadcast along its own axis, so the table grows with the
    cells per axis, not with the grid.
    """
    grid = Grid(cells, extents, max_cells=np.inf)
    cosines = []
    for ax in range(grid.dim):
        x = grid.axis_centers(ax).reshape(
            [-1 if a == ax else 1 for a in range(grid.dim)])
        cosines.append([np.cos(ki * np.pi * x / extents[ax])
                        for ki in range(cutoff + 1)])
        for vector in cosines[-1]:
            vector.flags.writeable = False  # shared by every cached caller
    factors, denominators = [], []
    for k, denominator in _modes(grid.dim, cutoff):
        factors.append(tuple(cosines[ax][ki] for ax, ki in enumerate(k) if ki))
        denominators.append(denominator)
    return tuple(factors), np.array(denominators)


def _series_coefficients(rng, amplitude, denominators):
    """One field's series coefficients, drawn from rng in mode order."""
    amp = rng.uniform(*amplitude)
    return rng.uniform(-1.0, 1.0, size=len(denominators)) * amp / denominators


def _synthesize(grid, cutoff, floor, coefficients):
    """floor + exp(series) for each row of coefficients, stacked on a leading
    axis.  A mode's term is the product of its cosines in axis order; each
    row's series adds coefficient * term in mode order, so a row's field does
    not depend on the other rows."""
    factors, _ = _cosine_table(grid.cells, grid.extents, cutoff)
    coefficients = np.asarray(coefficients)
    series = np.zeros((len(coefficients),) + grid.shape)
    scaled = np.empty_like(series)
    column = (len(coefficients),) + (1,) * grid.dim
    for coeff, vectors in zip(coefficients.T, factors):
        coeff = coeff.reshape(column)
        if not vectors:
            series += coeff
            continue
        term = vectors[0]
        for vector in vectors[1:]:
            term = term * vector
        np.multiply(coeff, term, out=scaled)
        series += scaled
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

    The per-axis cosine vectors and the denominators come from a small cache
    keyed on (cells, extents, cutoff).  Ensembles synthesize their members
    in blocks of _ENSEMBLE_BLOCK with the same kernel, so a member's field is
    this function's field for its rng.
    """
    _, denominators = _cosine_table(grid.cells, grid.extents, cutoff)
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
    _, denominators = _cosine_table(grid.cells, grid.extents, spec.cutoff)
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
    tiny = 1e-14

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
            scale = max(peak * volume, 1.0)
            if abs(num) <= tiny * scale and den <= tiny * scale:
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
    and shared by every delta.  The random selector draws each delta's B
    from the member's rng as left after its synthesis draws.
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
    _, denominators = _cosine_table(grid.cells, grid.extents, spec.cutoff)
    probe_rng = np.random.default_rng([spec.seed, 10**9])
    half = max(1, spec.count // 2)
    # the calibration and the evaluation half (0 when the second is empty)
    probe_max = [-np.inf, 0.0]
    ratios = np.empty((len(deltas), spec.count))

    for members in _blocks(spec.count):
        rngs = [_member_rng(spec.seed, i) for i in members]
        if field_source is not None:
            values = _injected(field_source, members)
        else:
            values = _synthesize(grid, spec.cutoff, spec.floor, [
                _series_coefficients(rng, spec.amplitude, denominators)
                for rng in rngs])
        flat = values.reshape(len(members), -1)
        grad_mag = gradient_cell_magnitude(values, grid)
        dens = (grad_mag**p).reshape(len(members), -1).sum(axis=1) * vol
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
            nums = (np.abs(flat - u_b[:, None]) ** p).sum(axis=1) * vol
            for i, num, den in zip(members, nums, dens):
                ratios[d, i] = _ratio(num, den, p)
            if probes and d == 0:
                cells = np.stack([probe_rng.integers(0, cell_count, size=probes)
                                  for _ in members])
                probed = _riesz_ratios(grid, flat, u_b, grad_mag, cells)
                split = max(0, half - members[0])
                for side, rows in enumerate((probed[:split], probed[split:])):
                    if len(rows):
                        probe_max[side] = np.maximum(probe_max[side], rows.max())
    return ratios, [float(m) for m in probe_max]


def _ratio(num, den, p):
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return (num ** (1.0 / p)) / (den ** (1.0 / p))


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


def _riesz_ratios(grid, flat, u_b, grad_mag, cells):
    """|u(x) - u_B| over the kernel bound at each probe cell x: row m of
    cells holds member m's probe cells, of flat its values, of u_b its u_B
    and of grad_mag its |Du|.

    The bound is vol * sum_y |Du(y)| / d(x, y)^(dim-1), with the distance d
    floored at half the min spacing.  The probes are grouped by cell, and
    the kernel rows of _RIESZ_BLOCK distinct cells are formed at once: d^2
    sums the per-axis squared coordinate differences in axis order (what a
    Euclidean norm over the axes reduces), each looked up in a per-axis
    table.  Each probe then takes the row sum of its cell's kernel row times
    its member's |Du|.
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
        hits = by_cell[ends[lo] - counts[lo]:ends[lo + len(block) - 1]]
        product = kernel[np.repeat(np.arange(len(block)),
                                   counts[lo:lo + len(block)])]
        product *= gm[hit_members[hits]]
        bound[hits] = product.sum(axis=1)
    bound *= grid.cell_volume
    bound = bound.reshape(cells.shape)
    gap = np.abs(np.take_along_axis(flat, cells, axis=1) - u_b[:, None])
    return np.divide(gap, bound, out=np.zeros(cells.shape), where=bound > 0)

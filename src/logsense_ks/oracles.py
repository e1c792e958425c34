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
asserted against theoretical values (none are given in closed form).
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
from .params import entropy_coefficients

# RK4 steps over [0, T]; the step-doubling estimate certifies the verdict
DEFAULT_ODE_SUBSTEPS = 2000
# RK4 steps held before the comparison bound is formed for all of them at once
_ODE_CHUNK = 64
# probe cells whose distances to every cell are formed at once; keeps each
# (block, cells) temporary near 128 KiB on a 32 x 32 grid
_RIESZ_BLOCK = 16


# ---------------------------------------------------------------------------
# pointwise power identities
# ---------------------------------------------------------------------------

def _cell_grad_sq(values, grid):
    """Cell-centered |grad f|^2 via face-mean components (matches the
    gradient_cell_magnitude convention)."""
    return gradient_cell_magnitude(values, grid) ** 2


def check_power_identities(w, r):
    """Residuals of the two power chain-rule identities for a positive field.

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
    vals = w.values
    if vals.min() <= 0.0:
        raise ValueError("field must be strictly positive")
    grid = w.grid
    half = vals ** (r / 2.0)
    lap_w = lap_values(vals, grid.h)
    lap_half = lap_values(half, grid.h)
    lap_full = lap_values(vals**r, grid.h)
    grad_sq = _cell_grad_sq(half, grid)
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

    def as_dict(self):
        return {"residual": self.residual, "scale": self.scale}


def check_square_completion(u, v, p, q, chi):
    """Max-cell mismatch between the raw entropy production quadratic form
    and its completed-square arrangement.

    With the per-cell vectors A = u^{p/2} grad v^{q/2} and
    B = v^{q/2} grad u^{p/2} (components from face means), the claim is

        (4(1-p)/p) |B|^2 - (4((1-p)chi + 2q)/q) A.B + (4(p chi+1-q)/q) |A|^2
          = c1 |B|^2 + c2 |A - kappa B|^2.

    This is exact algebra in (|A|^2, A.B, |B|^2), so the residual must be
    round-off relative to the reported term scale, independent of h.
    """
    grid = u.grid
    uv = u.values
    vv = v.values
    if uv.min() <= 0.0 or vv.min() <= 0.0:
        raise ValueError("fields must be strictly positive")
    coef = entropy_coefficients(p, q, chi)
    up = uv ** (p / 2.0)
    vq = vv ** (q / 2.0)
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

    def as_dict(self):
        return {
            "a": self.spec.a, "b": self.spec.b, "y0": self.spec.y0,
            "T": self.spec.T, "passed": bool(self.passed),
            "max_excess": self.max_excess,
            "error_estimate": self.error_estimate,
            "y0_variants": self.y0_variants,
            "substeps": self.substeps, "tolerance": self.tolerance,
        }


def coth_bound(a, b, t):
    """The comparison value sqrt(b/a) * coth(sqrt(ab) * t) for t > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    return np.sqrt(b / a) / np.tanh(np.sqrt(a * b) * t)


def verify_ode_comparison(spec, substeps=DEFAULT_ODE_SUBSTEPS, tolerance=1e-6):
    """Check y(t) <= coth bound at every positive mesh point of an RK4 run.

    Integrates y' = -a y^2 + b from the case's y0 and from variants seated
    below and above the equilibrium sqrt(b/a), so both approach directions
    are exercised regardless of where y0 sits.
    """
    return verify_ode_comparison_batch([spec], substeps, tolerance)[0]


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


def verify_ode_comparison_batch(specs, substeps=DEFAULT_ODE_SUBSTEPS,
                                tolerance=1e-6):
    """Vectorized form of verify_ode_comparison for many parameter sets.

    Every case and y0 variant is one row of a classical RK4 integration run
    in preallocated buffers.  The states of up to _ODE_CHUNK consecutive steps
    are held and compared with the bound in one pass over the chunk.

    The verdict is certified by step doubling (Richardson extrapolation): a
    companion run at substeps // 2 advances in lockstep, one step per two
    main steps.  At each shared mesh point err = |y_N - y_{N/2}| / 15
    estimates the main run's error (RK4 is fourth order, 2^4 - 1 = 15).
    Points where either run sits at or below the freeze floor are left out
    of the estimate; a row that starts above -sqrt(b/a) can reach the floor
    only through an unstable step, and its estimate is then infinite.  A
    case passes iff its estimate is finite and
    max_excess + error_estimate <= tolerance, which bounds excess + err at
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

    for start in range(0, substeps, len(chunk)):
        held = chunk[:min(len(chunk), substeps - start)]
        paired = coarse[:len(held) // 2]
        for fine_rows, coarse_row in zip(held.reshape(-1, 2, len(rows)), paired):
            for row in fine_rows:
                main.step(row)
            companion.step(coarse_row)
        shared = held[1::2]  # main states at the companion's mesh points
        err = np.abs(shared - paired)
        err /= 15.0
        frozen = (shared <= floor) | (paired <= floor)
        steps = np.arange(start + 1, start + len(held) + 1)[:, None]
        held -= eq / np.tanh(w * (steps * dt))
        np.maximum(max_excess, held.max(axis=0), out=max_excess)
        total = shared + err
        total[frozen] = -np.inf
        at = total.argmax(axis=0)  # a NaN wins, so a non-finite err is kept
        best = total[at, columns]
        better = (best > certified) | np.isnan(best)
        certified[better] = best[better]
        error_at[better] = err[at, columns][better]
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
        passed = np.isfinite(estimate) and excess + estimate <= tolerance
        reports.append(OdeComparisonReport(
            spec=s, passed=bool(passed), max_excess=excess,
            error_estimate=estimate, y0_variants=[float(x) for x in var],
            substeps=substeps, tolerance=tolerance,
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


def synth_positive_field(grid, rng, cutoff, amplitude, floor):
    """floor + exp(random cosine series): smooth, zero-flux, >= floor strictly.

    Coefficients decay like 1/(1+|k|^2) and are drawn in a fixed lexicographic
    mode order, so a given rng state maps to exactly one field.  The k = 0
    mode acts as a global log-offset; without it every sample would sit above
    any level delta < 1 on average and the small-field branch of the level-set
    inequalities could never occur.

    The per-axis cosine vectors and the denominators come from a small cache
    keyed on (cells, extents, cutoff), so a field costs one draw of all its
    coefficients and a few broadcast products per mode.  A mode's term is
    the product of its cosines in axis order, scaled by its coefficient and
    added in mode order.
    """
    factors, denominators = _cosine_table(grid.cells, grid.extents, cutoff)
    amp = rng.uniform(*amplitude)
    coeffs = rng.uniform(-1.0, 1.0, size=len(denominators)) * amp / denominators
    series = np.zeros(grid.shape)
    for coeff, vectors in zip(coeffs, factors):
        if not vectors:
            series += coeff
            continue
        term = vectors[0]
        for vector in vectors[1:]:
            term = term * vector
        series += coeff * term
    return floor + np.exp(series)


def _member_rng(seed, index):
    return np.random.default_rng([seed, index])


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

    def as_dict(self):
        return {k: getattr(self, k) for k in (
            "max_ratio", "included", "alternative", "excluded", "regenerated",
            "degenerate", "delta", "eta", "seed", "grid_cells", "grid_extents")}


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

    def member(i):
        rng = _member_rng(spec.seed, i)
        regenerated = 0
        if field_source is not None:
            phi = np.asarray(field_source(i), dtype=np.float64)
            if phi.min() <= 0.0:
                raise ValueError("injected sample must be strictly positive")
        else:
            for _attempt in range(64):
                phi = synth_positive_field(grid, rng, spec.cutoff,
                                           spec.amplitude, spec.floor)
                if float((phi > spec.delta).sum()) * vol > spec.eta:
                    break
                regenerated += 1
            else:
                raise RuntimeError(
                    f"sample {i} kept violating the level-set measure requirement")
        num = float(np.log(spec.delta / phi).sum()) * vol
        den = float((_cell_grad_sq(phi, grid) / phi**2).sum()) * vol
        scale = max(abs(np.log(spec.delta / phi)).max() * volume, 1.0)
        if abs(num) <= tiny * scale and den <= tiny * scale:
            return ("excluded", 0.0, regenerated)
        if num < 0.0:
            return ("alternative", 0.0, regenerated)
        return ("included", num * num / den, regenerated)

    outcomes = [member(i) for i in range(spec.count)]
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

    def as_dict(self):
        out = {k: getattr(self, k) for k in (
            "max_ratio", "mean_ratio", "count", "p", "delta", "b_selector",
            "seed", "grid_cells", "grid_extents")}
        if self.riesz:
            out["riesz"] = self.riesz
        return out


def _b_cells(values, spec, rng, cell_count, b_count):
    if spec.b_selector == "threshold":
        return np.argsort(values.ravel(), kind="stable")[:b_count]
    return rng.choice(cell_count, size=b_count, replace=False)


def mean_poincare_ratio(spec, grid, p, include_riesz=False,
                        riesz_probes=100, field_source=None):
    """Empirical constant in (I |u - u_B|^p)^{1/p} <= C (I |Du|^p)^{1/p}.

    B is a sublevel set of measure delta (threshold selector) or a seeded
    random cell mask of the same measure; u_B is the mean of u over B.  The
    max ratio over the ensemble estimates C(domain, delta, p).  With
    include_riesz, the pointwise kernel bound |u(x) - u_B| <= C_K I |Du(y)| /
    |x-y|^{dim-1} dy is probed at random cells: the constant is fitted on the
    first half of the ensemble and checked with 1.5x headroom on the second
    (the kernel distance is floored at half the min spacing).

    field_source(i) may override sample generation (used by closed-form
    tests); it must return a values array.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    vol = grid.cell_volume
    volume = grid.volume
    if not vol <= spec.delta <= volume:
        raise ValueError(
            f"delta = {spec.delta} must lie in [cell volume, domain volume]")
    cell_count = int(np.prod(grid.shape))
    b_count = max(1, int(round(spec.delta / vol)))

    def member(i):
        rng = _member_rng(spec.seed, i)
        if field_source is not None:
            values = field_source(i)
        else:
            values = synth_positive_field(grid, rng, spec.cutoff,
                                          spec.amplitude, spec.floor)
        flat = values.ravel()
        b_idx = _b_cells(values, spec, rng, cell_count, b_count)
        u_b = float(flat[b_idx].mean())
        num = (np.abs(values - u_b) ** p).sum() * vol
        grad_mag = gradient_cell_magnitude(values, grid)
        den = (grad_mag**p).sum() * vol
        if den == 0.0:
            ratio = 0.0 if num == 0.0 else float("inf")
        else:
            ratio = (num ** (1.0 / p)) / (den ** (1.0 / p))
        return ratio, values, u_b, grad_mag

    results = [member(i) for i in range(spec.count)]
    ratios = np.array([r[0] for r in results])
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
    )
    if include_riesz:
        report.riesz = _riesz_probe(results, spec, grid, riesz_probes)
    return report


def _riesz_ratios(grid, values, u_b, grad_mag, cells):
    """|u(x) - u_B| over the kernel bound at each probe cell x in `cells`.

    The bound is vol * sum_y |Du(y)| / d(x, y)^(dim-1), with the distance d
    floored at half the min spacing.  Probes go in blocks of _RIESZ_BLOCK:
    a block forms its squared distances to every cell as per-axis squares
    summed in axis order (what a Euclidean norm over the axes reduces), then
    one kernel-weighted row sum per probe.
    """
    axes = [c.ravel() for c in grid.meshgrid()]
    h_min = min(grid.h)
    power = grid.dim - 1
    gm = grad_mag.ravel()
    bound = np.empty(len(cells))
    for lo in range(0, len(cells), _RIESZ_BLOCK):
        block = cells[lo:lo + _RIESZ_BLOCK, None]
        dist = np.zeros((len(block), len(gm)))
        for x in axes:
            diff = x - x[block]
            diff *= diff
            dist += diff
        np.sqrt(dist, out=dist)
        np.maximum(dist, 0.5 * h_min, out=dist)
        kernel = dist**-power if power else np.ones_like(dist)
        kernel *= gm
        kernel.sum(axis=1, out=bound[lo:lo + _RIESZ_BLOCK])
    bound *= grid.cell_volume
    return np.divide(np.abs(values.ravel()[cells] - u_b), bound,
                     out=np.zeros(len(cells)), where=bound > 0)


def _riesz_probe(results, spec, grid, probes):
    """Fit-then-check of the pointwise Riesz kernel bound at random cells."""
    rng = np.random.default_rng([spec.seed, 10**9])
    cell_count = int(np.prod(grid.shape))

    def probe_ratios(values, u_b, grad_mag):
        cells = rng.integers(0, cell_count, size=probes)
        return _riesz_ratios(grid, values, u_b, grad_mag, cells)

    half = max(1, len(results) // 2)
    calibration = [probe_ratios(v, ub, gm) for _, v, ub, gm in results[:half]]
    fitted = float(np.concatenate(calibration).max())
    evaluation = [probe_ratios(v, ub, gm) for _, v, ub, gm in results[half:]]
    worst = float(np.concatenate(evaluation).max()) if evaluation else 0.0
    return {
        "fitted_constant": fitted,
        "eval_worst": worst,
        "headroom": 1.5,
        "passed": bool(worst <= 1.5 * fitted),
        "probes": probes,
    }


def mean_poincare_delta_trend(spec, grid, p, fractions=(0.4, 0.2, 0.1)):
    """Max ratio as |B| shrinks (reported, not asserted)."""
    from dataclasses import replace

    out = []
    for frac in fractions:
        trial = replace(spec, delta=frac * grid.volume)
        report = mean_poincare_ratio(trial, grid, p)
        out.append({"delta": trial.delta, "max_ratio": report.max_ratio})
    return out


"""Independent verifiers for the standalone analytic facts the solver relies on.

Four groups:

* pointwise chain-rule identities for powers of a positive field, checked
  with the same discrete operators the solver uses;
* the algebraic square completion behind the entropy production, checked to
  round-off (it is exact algebra in three computed quadratic quantities);
* the Riccati comparison bound sqrt(b/a) * coth(sqrt(ab) t) for
  y' = -a y^2 + b, checked against a high-resolution Runge-Kutta integration;
* Monte-Carlo estimates of the constants in two Poincare-type inequalities
  (logarithmic and mean-deviation forms) over ensembles of random smooth
  positive fields.

Ensemble members draw their seeds deterministically from a master seed, so
reports are reproducible bit-for-bit; empirical constants are reported, never
asserted against theoretical values (none are given in closed form).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    face_grad_values,
    faces_to_cells,
    gradient_cell_magnitude,
    interior_max_abs,
    lap_values,
)
from .params import entropy_coefficients

DEFAULT_ODE_SUBSTEPS = 10**5


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
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError("a and b must be positive")
        if self.T <= 0.0:
            raise ValueError("T must be positive")


@dataclass
class OdeComparisonReport:
    spec: OdeComparison
    passed: bool
    max_excess: float
    y0_variants: list
    substeps: int
    tolerance: float

    def as_dict(self):
        return {
            "a": self.spec.a, "b": self.spec.b, "y0": self.spec.y0,
            "T": self.spec.T, "passed": bool(self.passed),
            "max_excess": self.max_excess, "y0_variants": self.y0_variants,
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


def verify_ode_comparison_batch(specs, substeps=DEFAULT_ODE_SUBSTEPS,
                                tolerance=1e-6):
    """Vectorized form of verify_ode_comparison for many parameter sets."""
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
    y = np.array([r[2] for r in rows], dtype=np.float64)
    T = np.array([r[3] for r in rows])
    dt = T / substeps
    eq = np.sqrt(b / a)
    w = np.sqrt(a * b)
    # solutions from y0 < -eq blow down in finite time; freeze them once they
    # are far below the equilibrium (the bound is positive, so they pass)
    floor = -10.0 * (eq + 1.0)
    max_excess = np.full(len(rows), -np.inf)

    for n in range(1, substeps + 1):
        k1 = b - a * y * y
        y2 = y + 0.5 * dt * k1
        k2 = b - a * y2 * y2
        y3 = y + 0.5 * dt * k2
        k3 = b - a * y3 * y3
        y4 = y + dt * k3
        k4 = b - a * y4 * y4
        y_next = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = np.where(y > floor, y_next, y)
        bound = eq / np.tanh(w * (n * dt))
        np.maximum(max_excess, y - bound, out=max_excess)

    reports = []
    idx = 0
    for s, var in zip(specs, variants):
        excess = float(max_excess[idx:idx + len(var)].max())
        idx += len(var)
        reports.append(OdeComparisonReport(
            spec=s, passed=bool(excess <= tolerance), max_excess=excess,
            y0_variants=[float(x) for x in var], substeps=substeps,
            tolerance=tolerance,
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


def synth_positive_field(grid, rng, cutoff, amplitude, floor):
    """floor + exp(random cosine series): smooth, zero-flux, >= floor strictly.

    Coefficients decay like 1/(1+|k|^2) and are drawn in a fixed lexicographic
    mode order, so a given rng state maps to exactly one field.  The k = 0
    mode acts as a global log-offset; without it every sample would sit above
    any level delta < 1 on average and the small-field branch of the level-set
    inequalities could never occur.
    """
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


def _riesz_probe(results, spec, grid, probes):
    """Fit-then-check of the pointwise Riesz kernel bound at random cells."""
    rng = np.random.default_rng([spec.seed, 10**9])
    centers = grid.meshgrid()
    coords = np.stack([c.ravel() for c in centers], axis=1)
    h_min = min(grid.h)
    vol = grid.cell_volume
    power = grid.dim - 1

    def probe_ratios(values, u_b, grad_mag):
        flat = values.ravel()
        gm = grad_mag.ravel()
        idx = rng.integers(0, len(flat), size=probes)
        out = np.empty(probes)
        for j, cell in enumerate(idx):
            dist = np.linalg.norm(coords - coords[cell], axis=1)
            np.maximum(dist, 0.5 * h_min, out=dist)
            kernel = dist**-power if power else np.ones_like(dist)
            bound = float((gm * kernel).sum()) * vol
            out[j] = abs(flat[cell] - u_b) / bound if bound > 0 else 0.0
        return out

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


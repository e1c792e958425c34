"""Model parameters and the exponent algebra for the sensitivity strength chi.

Everything here is closed-form: the admissible range of the chemotactic
sensitivity chi in dimension n, the interval (q_minus, q_plus) of entropy
exponents q available for a given p, the coefficients (c1, c2, kappa) of the
entropy production identity for the functional integral(u^p v^q), and the
infimum over p of the integrability ratio (1 - q_plus(p)) / p that governs
which Lebesgue norms of u stay bounded.

The infimum has the piecewise closed form

    I(chi) = 1              for chi <= 1,
             chi            for 1 < chi < 2,
             1 + chi^2 / 4  for chi >= 2,

and a brute-force minimizer over a log-uniform p grid is provided as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOMAIN_SLACK = 1e-14  # absolute slack when testing open-interval membership
DEFAULT_N2_CAP = 1e6  # stand-in for n/(n-2) = +inf when n = 2


class ExponentDomainError(ValueError):
    """A parameter combination leaves the domain of a closed-form expression."""


class ExponentSelectionError(ValueError):
    """No exponent triple satisfies the requested margins."""


def _check_chi(chi):
    if not (np.isfinite(chi) and chi > 0.0):
        raise ExponentDomainError(f"chi must be positive and finite, got {chi}")


@dataclass
class ModelParams:
    """Parameters of the regularized logarithmic-sensitivity model.

    chi: sensitivity strength, > 0.
    n:   spatial dimension (>= 1; the threshold logic needs n >= 2).
    eps: saturation parameter in [0, 1); 0 selects the unregularized source.
    p, q: entropy exponents in (0, 1).
    r:   Lebesgue exponent for u, > 1.
    s:   Lebesgue exponent for grad v, >= 1.
    """

    chi: float
    n: int
    eps: float = 0.0
    p: float = 0.25
    q: float = 0.3
    r: float = 1.1
    s: float = 1.0

    def __post_init__(self):
        _check_chi(self.chi)
        if self.n < 1:
            raise ExponentDomainError(f"dimension must be >= 1, got {self.n}")
        if not (0.0 <= self.eps < 1.0):
            raise ExponentDomainError(f"eps must lie in [0, 1), got {self.eps}")
        if not (0.0 < self.p < 1.0):
            raise ExponentDomainError(f"p must lie in (0, 1), got {self.p}")
        if not (0.0 < self.q < 1.0):
            raise ExponentDomainError(f"q must lie in (0, 1), got {self.q}")
        if not self.r > 1.0:
            raise ExponentDomainError(f"r must exceed 1, got {self.r}")
        if not self.s >= 1.0:
            raise ExponentDomainError(f"s must be >= 1, got {self.s}")

    def entropy_exponents_ok(self):
        """True when (p, q) lies in the admissible entropy region for chi."""
        if self.p >= 1.0 / self.chi**2 + DOMAIN_SLACK:
            return False
        qm, qp = q_bounds(self.p, self.chi)
        return qm < self.q < qp


@dataclass
class EntropyCoefficients:
    """Coefficients of the entropy production identity for integral(u^p v^q)."""

    c1: float
    c2: float
    kappa: float


def saturated_source(u, eps):
    """The saturated source u / (1 + eps u), formed in place in one fresh
    array; u itself when eps = 0."""
    if not eps > 0.0:
        return u
    source = eps * u
    source += 1.0
    return np.divide(u, source, out=source)


def chi_admissible(chi, n):
    """Strict admissibility of chi in dimension n.

    No constraint for n = 2, chi < sqrt(8) for n = 3, chi < n/(n-2) for n >= 4.
    """
    if n < 2:
        raise ExponentDomainError(f"admissibility threshold needs n >= 2, got {n}")
    _check_chi(chi)
    if n == 2:
        return True
    if n == 3:
        return chi < np.sqrt(8.0)
    return chi < n / (n - 2)


def q_bounds(p, chi):
    """Endpoints (q_minus, q_plus) of the admissible q interval at fixed p.

    q_pm = ((1 - p)/2) (1 -+ sqrt(1 - p chi^2)).  Requires 0 < p < 1 and
    p <= 1/chi^2 (up to DOMAIN_SLACK); at p = 1/chi^2 the interval collapses
    to the single point (1 - p)/2.
    """
    if not (0.0 < p < 1.0):
        raise ExponentDomainError(f"p must lie in (0, 1), got {p}")
    _check_chi(chi)
    disc = 1.0 - p * chi**2
    if disc < 0.0:
        if p > 1.0 / chi**2 + DOMAIN_SLACK:
            raise ExponentDomainError(
                f"p = {p} exceeds 1/chi^2 = {1.0 / chi**2} (discriminant negative)")
        disc = 0.0
    root = np.sqrt(disc)
    half = 0.5 * (1.0 - p)
    return half * (1.0 - root), half * (1.0 + root)


def entropy_coefficients(p, q, chi):
    """Coefficients (c1, c2, kappa) of the entropy production identity.

    c1 = (4(1-p)q - 4q^2 - p(1-p)^2 chi^2) / (p q (p chi + 1 - q))
    c2 = 4 (p chi + 1 - q) / q
    kappa = ((1-p) chi + 2q) / (2 (p chi + 1 - q))

    The c1 numerator factors exactly as -4 (q - q_minus)(q - q_plus); when the
    discriminant 1 - p chi^2 is nonnegative the factored form is used so that
    c1 vanishes to round-off at the interval endpoints.
    """
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ExponentDomainError(f"p, q must lie in (0, 1), got p={p}, q={q}")
    _check_chi(chi)
    denom = p * q * (p * chi + 1.0 - q)
    if denom <= 0.0:
        raise ExponentDomainError(
            f"denominator p q (p chi + 1 - q) = {denom} must be positive")
    if 1.0 - p * chi**2 >= 0.0:
        qm, qp = q_bounds(p, chi)
        numer = -4.0 * (q - qm) * (q - qp)
    else:
        numer = 4.0 * (1.0 - p) * q - 4.0 * q**2 - p * (1.0 - p) ** 2 * chi**2
    c1 = numer / denom
    c2 = 4.0 * (p * chi + 1.0 - q) / q
    kappa = ((1.0 - p) * chi + 2.0 * q) / (2.0 * (p * chi + 1.0 - q))
    return EntropyCoefficients(c1=c1, c2=c2, kappa=kappa)


def exponent_infimum(chi):
    """Closed-form infimum over p of (1 - q_plus(p)) / p."""
    _check_chi(chi)
    if chi <= 1.0:
        return 1.0
    if chi < 2.0:
        return float(chi)
    return 1.0 + chi**2 / 4.0


def exponent_infimum_bruteforce(chi, grid_size=10**6):
    """Minimize the integrability ratio over a log-uniform grid in p.

    Returns the grid minimum of (1 - q_plus(p)) / p over p strictly inside
    (0, min(1, 1/chi^2)).  The infimum is not attained for chi <= 1 (the
    minimizing sequence has p -> 1) nor for chi >= 2 (p -> 0), so the grid
    value approaches the closed form from above.
    """
    _check_chi(chi)
    if grid_size < 2:
        raise ExponentDomainError(f"grid_size must be >= 2, got {grid_size}")
    p_max = min(1.0, 1.0 / chi**2)
    # log-uniform between p_max * 1e-8 and p_max * (1 - 1e-6), both strictly interior
    ps = p_max * np.exp(np.linspace(np.log(1e-8), np.log(1.0 - 1e-6), grid_size))
    d = np.sqrt(np.maximum(1.0 - ps * chi**2, 0.0))
    vals = 0.5 * (chi**2 / (1.0 + d) + 1.0 + d)
    return float(vals.min())


def _margined_pq(chi, m, target):
    """First (p, q) on the m-margined q-line with (1 - q)/p below target,
    trying 400 geometrically shrinking p."""
    p = (1.0 - m) * min(1.0, 1.0 / chi**2)
    for _ in range(400):
        qm, qp = q_bounds(p, chi)
        q = qm + (1.0 - m) * (qp - qm)
        if (1.0 - q) / p < target:
            return p, q
        p *= 0.9
    return None


def select_exponents(chi, n, margin=0.05):
    """Pick a usable exponent triple (p, q, r) for dimension n.

    Strategy: start from p = (1 - m) min(1, 1/chi^2) and shrink p
    geometrically until the first Lebesgue predicate (1 - q)/p <= (1 - m)
    * cap holds at q = q_minus + (1 - m)(q_plus - q_minus); then bisect
    r in (1, p + 1) so the second predicate (1 - q) r / (p + 1 - r) lands on
    the same margin-reduced cap.  cap is n/(n-2) for n >= 3 and
    DEFAULT_N2_CAP for n = 2.

    The requested margin is only an upper bound: near the admissibility
    threshold the attainable infimum of (1 - q)/p sits just under the cap,
    so m is halved until the margined search succeeds.  A valid triple exists
    for every admissible chi (all constraints are open), hence failure raises
    only for inadmissible input.
    """
    if not (0.0 < margin < 1.0):
        raise ExponentDomainError(f"margin must lie in (0, 1), got {margin}")
    if not chi_admissible(chi, n):
        raise ExponentSelectionError(f"chi = {chi} is not admissible in dimension {n}")
    cap = n / (n - 2) if n >= 3 else DEFAULT_N2_CAP
    m = margin
    pq = None
    for _ in range(60):
        if (1.0 - m) * cap > exponent_infimum(chi):
            pq = _margined_pq(chi, m, (1.0 - m) * cap)
            if pq is not None:
                break
        m *= 0.5
    if pq is None:
        raise ExponentSelectionError(
            f"margined search failed for chi = {chi}, n = {n} "
            f"(requested margin {margin})")
    p, q = pq
    target = (1.0 - m) * cap
    # g(r) = (1 - q) r / (p + 1 - r) rises from (1 - q)/p at r = 1 to infinity
    # at r = p + 1; bisect for g(r) = target and return the inner endpoint.
    lo, hi = 1.0, 1.0 + p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid >= 1.0 + p or (1.0 - q) * mid / (p + 1.0 - mid) >= target:
            hi = mid
        else:
            lo = mid
    if lo <= 1.0:
        raise ExponentSelectionError(
            f"could not place r > 1 under the target ratio for chi = {chi}")
    return p, q, lo


def export_exponent_region(chi, n, path, p_count=200):
    """CSV scan of the admissible exponent region at fixed chi.

    One row per p on a uniform interior grid of (0, min(1, 1/chi^2)):
    p, q_minus, q_plus, c1 at the interval midpoint, and whether the pair
    (p, q_mid) satisfies the dimension-n integrability predicate.
    """
    if n < 2:
        raise ExponentDomainError(f"region export needs n >= 2, got {n}")
    cap = n / (n - 2) if n >= 3 else DEFAULT_N2_CAP
    p_max = min(1.0, 1.0 / chi**2)
    ps = p_max * (np.arange(1, p_count + 1)) / (p_count + 1)
    # csv.writer's dialect: ',' between fields, '\r\n' after each row
    row = "%.17g,%.17g,%.17g,%.17g,%d\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("p,q_minus,q_plus,c1_at_mid,feasible\r\n")
        for p in ps:
            qm, qp = q_bounds(float(p), chi)
            q_mid = 0.5 * (qm + qp)
            c1 = entropy_coefficients(float(p), q_mid, chi).c1
            feasible = qp > qm and (1.0 - q_mid) / p < cap
            fh.write(row % (p, qm, qp, c1, feasible))

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logsense_ks.params import (
    ExponentDomainError,
    ExponentSelectionError,
    ModelParams,
    chi_admissible,
    entropy_coefficients,
    exponent_infimum,
    exponent_infimum_bruteforce,
    export_exponent_region,
    q_bounds,
    select_exponents,
)

# Frozen by hand: q_pm(0.5, chi=1) = 0.25 * (1 -+ sqrt(0.5)).
Q_MINUS_HALF = 0.0732233047033631
Q_PLUS_HALF = 0.4267766952966369


def test_q_bounds_frozen_value():
    qm, qp = q_bounds(0.5, 1.0)
    assert_allclose(qm, Q_MINUS_HALF, rtol=0, atol=1e-15)
    assert_allclose(qp, Q_PLUS_HALF, rtol=0, atol=1e-15)


def test_q_bounds_degenerate_discriminant():
    # p chi^2 = 1 collapses the window to a point at (1-p)/2.
    qm, qp = q_bounds(0.25, 2.0)
    assert qm == qp == 0.375


def test_q_bounds_domain_errors():
    with pytest.raises(ExponentDomainError):
        q_bounds(0.0, 1.0)
    with pytest.raises(ExponentDomainError):
        q_bounds(1.0, 1.0)
    with pytest.raises(ExponentDomainError):
        q_bounds(0.5, 2.0)  # p chi^2 > 1, window empty


def test_entropy_coefficients_rational_point():
    # (p, q, chi) = (1/2, 1/4, 1): c1, c2, kappa land on exact rationals.
    coef = entropy_coefficients(0.5, 0.25, 1.0)
    assert_allclose(coef.c1, 0.8, rtol=0, atol=1e-15)
    assert_allclose(coef.c2, 20.0, rtol=0, atol=1e-14)
    assert_allclose(coef.kappa, 0.4, rtol=0, atol=1e-15)


def test_entropy_coefficient_identities():
    # c1 + c2 kappa^2 = 4(1-p)/p and 2 c2 kappa = 4((1-p)chi + 2q)/q hold
    # for every admissible triple; they pin the square completion algebra.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        chi = rng.uniform(0.2, 3.0)
        p = rng.uniform(0.05, 0.95) * min(1.0, 1.0 / chi**2)
        qm, qp = q_bounds(p, chi)
        if qp - qm < 1e-9:
            continue
        q = rng.uniform(qm + 1e-9, qp - 1e-9)
        coef = entropy_coefficients(p, q, chi)
        lhs1 = coef.c1 + coef.c2 * coef.kappa**2
        assert_allclose(lhs1, 4.0 * (1.0 - p) / p, rtol=1e-12)
        lhs2 = 2.0 * coef.c2 * coef.kappa
        assert_allclose(lhs2, 4.0 * ((1.0 - p) * chi + 2.0 * q) / q, rtol=1e-12)


def test_c1_vanishes_exactly_at_window_endpoints():
    for chi in (0.5, 1.0, 2.0, 2.8):
        p = 0.9 * min(1.0, 1.0 / chi**2)
        qm, qp = q_bounds(p, chi)
        assert abs(entropy_coefficients(p, qm, chi).c1) <= 1e-12
        assert abs(entropy_coefficients(p, qp, chi).c1) <= 1e-12


def test_c1_positive_inside_window():
    chi = 1.7
    p = 0.8 * min(1.0, 1.0 / chi**2)
    qm, qp = q_bounds(p, chi)
    for theta in np.linspace(0.01, 0.99, 25):
        q = qm + theta * (qp - qm)
        assert entropy_coefficients(p, q, chi).c1 > 0.0


def test_chi_admissible_thresholds():
    assert chi_admissible(100.0, 2)
    assert chi_admissible(2.82, 3)
    assert not chi_admissible(2.83, 3)
    assert not chi_admissible(np.sqrt(8.0), 3)  # strict inequality
    assert not chi_admissible(2.0, 4)
    assert chi_admissible(1.99, 4)
    with pytest.raises(ValueError):
        chi_admissible(1.0, 1)


def test_exponent_infimum_closed_form():
    # Piecewise: 1 for chi <= 1, chi on (1, 2), 1 + chi^2/4 beyond.
    assert exponent_infimum(0.5) == 1.0
    assert exponent_infimum(1.0) == 1.0
    assert exponent_infimum(1.5) == 1.5
    assert_allclose(exponent_infimum(2.0), 2.0, rtol=0, atol=1e-15)
    assert_allclose(exponent_infimum(3.0), 3.25, rtol=0, atol=1e-15)
    assert abs(exponent_infimum(np.sqrt(8.0)) - 3.0) <= 1e-12


def test_exponent_infimum_matches_bruteforce():
    for chi in (0.3, 0.9, 1.2, 1.9, 2.4, 3.5):
        closed = exponent_infimum(chi)
        brute = exponent_infimum_bruteforce(chi, grid_size=10**5)
        assert -1e-6 <= brute - closed <= 1e-3


def test_select_exponents_roundtrip():
    for chi, n in ((0.3, 2), (0.8, 3), (1.9, 2), (2.7, 3), (1.2, 4)):
        p, q, r = select_exponents(chi, n)
        params = ModelParams(chi=chi, n=n, p=p, q=q, r=r)
        assert params.entropy_exponents_ok()
        # the Lebesgue exponents: r < n/(n-2) and s < n/(n-1)
        assert n <= 2 or r < n / (n - 2)
        assert params.s < n / (n - 1)
        qm, qp = q_bounds(p, chi)
        assert qm < q < qp
        assert entropy_coefficients(p, q, chi).c1 > 0.0
        assert 1.0 < r < p + 1.0


def test_select_exponents_rejects_inadmissible():
    with pytest.raises(ExponentSelectionError):
        select_exponents(3.0, 3)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(chi=-1.0, n=2)
    with pytest.raises(ValueError):
        ModelParams(chi=1.0, n=2, eps=1.0)  # eps must stay below 1
    with pytest.raises(ValueError):
        ModelParams(chi=1.0, n=2, p=1.5)
    # eps = 0 is the unregularized case and is allowed
    params = ModelParams(chi=1.0, n=2, eps=0.0)
    assert params.eps == 0.0


def test_export_exponent_region(tmp_path):
    path = tmp_path / "region.csv"
    export_exponent_region(1.5, 2, path, p_count=50)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p,q_minus,q_plus,c1_at_mid,feasible"
    assert len(lines) == 51
    # every feasible row carries a positive midpoint c1
    for line in lines[1:]:
        p, qm, qp, c1, feasible = line.split(",")
        if feasible == "1":
            assert float(c1) > 0.0

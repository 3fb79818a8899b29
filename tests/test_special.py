"""Checks for the in-house incomplete gamma / chi-squared tail.

The oracle is independent of the shipped series/continued-fraction code:
for half-integer shape parameters the upper regularized gamma has closed
forms built from erfc and the recurrence

    Q(a + 1, x) = Q(a, x) + x^a e^-x / Gamma(a + 1),   Q(1/2, x) = erfc(sqrt(x))
    Q(1, x)     = e^-x

which covers every chi-squared dof via Q(dof/2, x/2).
"""

import math

import pytest

from funwill.special import (
    chi_squared_isf,
    chi_squared_sf,
    regularized_gamma_q,
)


def oracle_gamma_q(a: float, x: float) -> float:
    """Q(a, x) for a a positive multiple of 1/2, by recurrence from closed bases."""
    if x == 0.0:
        return 1.0
    steps = round(a - 0.5)
    if math.isclose(a, 0.5 + steps):
        q = math.erfc(math.sqrt(x))
        base = 0.5
    else:
        steps = round(a - 1.0)
        assert math.isclose(a, 1.0 + steps), "oracle handles half-integer shapes only"
        q = math.exp(-x)
        base = 1.0
    for k in range(steps):
        ak = base + k
        q += math.exp(ak * math.log(x) - x - math.lgamma(ak + 1.0))
    return min(1.0, q)


DOFS = [1, 2, 3, 4, 5, 6, 9, 10, 25, 60, 99]
POINTS = [1e-6, 0.01, 0.3, 1.0, 2.706, 3.841, 6.635, 15.0, 42.0, 130.0, 600.0]


@pytest.mark.parametrize("dof", DOFS)
def test_chi_squared_sf_matches_closed_forms(dof):
    """Relative error under 1e-8 against the erfc/recurrence oracle."""
    for x in POINTS:
        expected = oracle_gamma_q(dof / 2.0, x / 2.0)
        got = chi_squared_sf(x, dof)
        if expected > 1e-300:
            assert abs(got - expected) / expected < 1e-8, (dof, x, got, expected)
        else:
            assert got <= 1e-300


def test_known_critical_values():
    # Classic two-sided 5% and 1% cutoffs for one degree of freedom.
    assert chi_squared_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-10)
    assert chi_squared_sf(6.634896601021211, 1) == pytest.approx(0.01, rel=1e-10)
    # dof=2 upper tail is exactly exp(-x/2).
    for x in (0.5, 2.0, 10.0):
        assert chi_squared_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)


def test_edges_and_complements():
    assert chi_squared_sf(0.0, 3) == 1.0
    assert chi_squared_sf(math.inf, 3) == 0.0
    for a in (0.5, 1.0, 2.5, 7.0):
        for x in (0.05, 1.0, 3.0, 10.0, 80.0):
            q = regularized_gamma_q(a, x)
            assert 0.0 <= q <= 1.0
            assert q == pytest.approx(oracle_gamma_q(a, x), rel=1e-12, abs=0.0)


def test_huge_statistics_have_a_zero_tail():
    # Beyond ~1e18 the continued fraction's ratios can cycle 1 ulp around 1
    # forever; at these sizes the tail has long underflowed.
    for x in (4.0833333333333335e263, 1.1298418899047351e18, 1e300, 1.7e308):
        for dof in (1, 2, 5):
            assert chi_squared_sf(x, dof) == 0.0


def test_monotone_in_statistic():
    values = [chi_squared_sf(x, 5) for x in (0.1, 1.0, 3.0, 7.0, 20.0, 60.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        chi_squared_sf(-1.0, 2)
    with pytest.raises(ValueError):
        chi_squared_sf(1.0, 0)
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(1.0, -0.5)


# Cross-checks against scipy, an independent implementation.  scipy is a
# test-only oracle; these tests skip where it is not installed.
ORACLE_DOFS = [1, 2, 3, 4, 5, 7, 10, 15, 30, 60, 100, 300, 1000]
ORACLE_ALPHAS = [1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]


@pytest.mark.parametrize("dof", ORACLE_DOFS)
def test_chi_squared_sf_matches_scipy_gammaincc(dof):
    special = pytest.importorskip("scipy.special")
    stats = [1e-8, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 1400.0, 3000.0]
    stats += [dof * f for f in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)]
    for x in stats:
        expected = float(special.gammaincc(dof / 2.0, x / 2.0))
        got = chi_squared_sf(x, dof)
        if expected > 1e-290:
            assert got == pytest.approx(expected, rel=1e-8), (dof, x)
        else:
            assert got <= 1e-280, (dof, x, got)


@pytest.mark.parametrize("dof", ORACLE_DOFS)
def test_chi_squared_isf_matches_scipy(dof):
    stats = pytest.importorskip("scipy.stats")
    for alpha in ORACLE_ALPHAS:
        critical = chi_squared_isf(alpha, dof)
        assert critical == pytest.approx(float(stats.chi2.isf(alpha, dof)), rel=1e-9), (dof, alpha)


@pytest.mark.parametrize("dof", [1, 2, 5, 30])
def test_chi_squared_isf_inverts_the_in_house_tail(dof):
    for alpha in ORACLE_ALPHAS:
        critical = chi_squared_isf(alpha, dof)
        assert chi_squared_sf(critical * (1.0 - 1e-8), dof) >= alpha, (dof, alpha)
        assert chi_squared_sf(critical * (1.0 + 1e-8), dof) < alpha, (dof, alpha)


def test_chi_squared_isf_validates():
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            chi_squared_isf(alpha, 3)
    with pytest.raises(ValueError):
        chi_squared_isf(0.05, 0)

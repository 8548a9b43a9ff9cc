"""Tests for the numeric zeta helper and the leading-term regimes."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from circlepol.asymptotics import (
    asymptotic_ratio,
    dominant_term,
    zeta_real,
)
from circlepol.circle_config import equally_spaced
from circlepol.exact_series import exact_polarization_polynomial, zeta_even_exact
from circlepol.kernels import riesz_kernel
from circlepol.potential import polarization

# Apery's constant, zeta(3), to full double precision.
ZETA_3 = 1.2020569031595942854


def _zeta_euler_maclaurin(s: float, cutoff: int = 24, order: int = 6) -> float:
    """Independent zeta oracle: partial sum plus Euler-Maclaurin tail.

    zeta(s) = sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_j B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j)

    With cutoff 24 and six correction terms the truncation error is far
    below 1e-15 for every s exercised here.
    """
    mpmath = pytest.importorskip("mpmath")
    total = sum(k ** -s for k in range(1, cutoff))
    total += cutoff ** (1.0 - s) / (s - 1.0)
    total += 0.5 * cutoff ** -s
    rising = s
    for j in range(1, order + 1):
        b2j = Fraction(*mpmath.bernfrac(2 * j))
        total += (float(b2j) / math.factorial(2 * j)
                  * rising * cutoff ** (1.0 - s - 2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


# ---------------------------------------------------------------------------
# zeta_real
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_zeta_real_matches_exact_even_values(k):
    exact = float(zeta_even_exact(k)) * math.pi ** (2 * k)
    assert math.isclose(zeta_real(2.0 * k), exact, rel_tol=1e-12)


def test_zeta_oracle_self_check_on_even_values():
    # The Euler-Maclaurin oracle must itself reproduce the exact values
    # before we trust it at odd arguments.
    for k in (1, 2, 3):
        exact = float(zeta_even_exact(k)) * math.pi ** (2 * k)
        assert math.isclose(_zeta_euler_maclaurin(2.0 * k), exact,
                            rel_tol=1e-14)


def test_zeta_real_at_three_against_two_oracles():
    assert math.isclose(_zeta_euler_maclaurin(3.0), ZETA_3, rel_tol=1e-13)
    assert math.isclose(zeta_real(3.0), ZETA_3, rel_tol=1e-12)


@pytest.mark.parametrize("s", [1.0 + 1e-6, 1.5, 2.5, 7.3, 19.0, 49.5])
def test_zeta_real_matches_euler_maclaurin_across_range(s):
    assert math.isclose(zeta_real(s), _zeta_euler_maclaurin(s),
                        rel_tol=1e-12)


def test_zeta_real_is_decreasing_and_tends_to_one():
    values = [zeta_real(s) for s in (1.1, 1.5, 2.0, 4.0, 10.0, 40.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert math.isclose(zeta_real(50.0), 1.0, rel_tol=1e-14)


def test_zeta_real_matches_mpmath_from_one_to_ten_thousand():
    # log grids in s - 1 from 1e-15 to 1 and in s from 2 to 1e4
    mpmath = pytest.importorskip("mpmath")
    grid = [1.0 + 10.0 ** (-15 + 15 * i / 59) for i in range(60)]
    grid += [2.0 * 5000.0 ** (i / 59) for i in range(60)]
    with mpmath.workdps(40):
        for s in grid:
            want = mpmath.zeta(mpmath.mpf(s))
            error = abs((mpmath.mpf(zeta_real(s)) - want) / want)
            assert error <= 1e-15, s


def test_zeta_real_is_one_where_every_power_underflows():
    # the Euler-Maclaurin corrections stop once they underflow; carried on,
    # their rising factor overflows and 0 * inf gives NaN
    for s in (1e200, 1.7e308):
        assert zeta_real(s) == 1.0


@pytest.mark.parametrize("s", [1.0, 0.5, 0.0, -2.0])
def test_zeta_real_rejects_arguments_at_or_below_one(s):
    with pytest.raises(ValueError):
        zeta_real(s)


# ---------------------------------------------------------------------------
# dominant_term
# ---------------------------------------------------------------------------


def test_dominant_term_exponent_two_is_quarter_n_squared():
    for n in (2, 5, 16, 1000):
        assert math.isclose(dominant_term(2.0, n), n * n / 4.0,
                            rel_tol=1e-12)


def test_dominant_term_exponent_four_is_n_fourth_over_48():
    for n in (3, 10, 64):
        assert math.isclose(dominant_term(4.0, n), n ** 4 / 48.0,
                            rel_tol=1e-12)


def test_dominant_term_exponent_zero_is_linear_identity():
    # At exponent 0 the gamma ratio collapses: Gamma(1/2)/Gamma(1) = sqrt(pi),
    # so the prefactor is exactly 1 and the term equals n.
    for n in (1, 2, 7, 500):
        assert math.isclose(dominant_term(0.0, n), float(n), rel_tol=1e-12)


@pytest.mark.parametrize("n", [3, 9])
def test_dominant_term_sublinear_matches_mpmath_closed_form(n):
    # 2**-s / sqrt(pi) * Gamma((1-s)/2) / Gamma(1-s/2) * n at s = 1/2,
    # evaluated with 40 significant digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s = mpmath.mpf(1) / 2
        exact = (mpmath.power(2, -s) / mpmath.sqrt(mpmath.pi)
                 * mpmath.gamma((1 - s) / 2) / mpmath.gamma(1 - s / 2) * n)
        error = abs((mpmath.mpf(dominant_term(0.5, n)) - exact) / exact)
    assert error <= 5e-16


def test_dominant_term_past_the_range_of_two_pi_to_the_s():
    # (2 pi)**400 is past the float range, the term itself is not; a term
    # that is past it still raises
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = mpmath.mpf(400)
        exact = (2 * mpmath.zeta(s) * (mpmath.power(2, s) - 1)
                 * mpmath.power(3 / (2 * mpmath.pi), s))
        error = abs((mpmath.mpf(dominant_term(400.0, 3)) - exact) / exact)
    assert error <= 1e-13
    with pytest.raises(OverflowError):
        dominant_term(400.0, 1000)
    # (4 / pi)**2937.5 is 1.5e308, finite; twice it is not
    assert (4 / math.pi) ** 2937.5 < 1.7e308
    with pytest.raises(OverflowError):
        dominant_term(2937.5, 4)


def test_dominant_term_at_boundary_is_n_log_n_over_pi():
    assert math.isclose(dominant_term(1.0, 3), 3.0 * math.log(3.0) / math.pi,
                        rel_tol=1e-15)
    assert dominant_term(1.0, 1) == 0.0


def test_dominant_term_monotone_in_n():
    for s in (0.5, 1.0, 2.0, 3.5):
        values = [dominant_term(s, n) for n in range(2, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_dominant_term_sublinear_regime_is_exactly_linear():
    for s in (0.25, 0.5, 0.9):
        per_point = [dominant_term(s, n) / n for n in (2, 10, 100)]
        assert max(per_point) - min(per_point) < 1e-12 * per_point[0]


def test_dominant_term_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dominant_term(-0.5, 4)
    with pytest.raises(ValueError):
        dominant_term(math.nan, 4)
    with pytest.raises(ValueError, match="finite s >= 0"):
        dominant_term(math.inf, 4)
    with pytest.raises(ValueError):
        dominant_term(2.0, 0)


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_next_order_terms_at_s_one(n):
    # P(n) = (n/pi)(ln n + gamma + ln(8/pi)) + pi/(144 n) + c3/n^3 + O(n^-5)
    # (Brauchart-Hardin-Saff, Bull. LMS 41, 2009), with c3 = -49 pi^3/345600
    # as a 50-digit mpmath sum confirms.  Past n = 128 the rounding of P
    # swamps the n^-3 residual.
    value = polarization(riesz_kernel(1), equally_spaced(n)).value
    leading = n / math.pi * (math.log(n) + 0.5772156649015329
                             + math.log(8.0 / math.pi))
    residual = n ** 3 * (value - leading - math.pi / (144.0 * n))
    assert residual == pytest.approx(-49.0 * math.pi ** 3 / 345600.0, rel=0.02)


def test_classify_regime_boundary_tolerance():
    # within 1e-14 of s = 1 the logarithmic term applies; 1e-13 away it does not
    n = 10
    log_term = n * math.log(n) / math.pi
    for s in (1.0 + 1e-15, 1.0 - 1e-15):
        assert dominant_term(s, n) == log_term
    for s in (1.0 + 1e-13, 1.0 - 1e-13):
        assert dominant_term(s, n) != log_term


# ---------------------------------------------------------------------------
# asymptotic_ratio
# ---------------------------------------------------------------------------


def test_asymptotic_ratio_exact_polynomial_exponent_two():
    poly = exact_polarization_polynomial(1)
    for n in (2, 8, 64):
        value = float(poly.evaluate(n))
        assert math.isclose(asymptotic_ratio(2.0, n, value), 1.0,
                            rel_tol=1e-12)


def test_asymptotic_ratio_exact_polynomial_exponent_four():
    # n^2/24 + n^4/48 against the n^4/48 leading term: ratio is 1 + 2/n^2.
    poly = exact_polarization_polynomial(2)
    for n in (4, 8, 16, 32):
        value = float(poly.evaluate(n))
        expected = 1.0 + 2.0 / (n * n)
        assert math.isclose(asymptotic_ratio(4.0, n, value), expected,
                            rel_tol=1e-12)


def test_asymptotic_ratio_rejects_vanishing_dominant_term():
    with pytest.raises(ValueError):
        asymptotic_ratio(1.0, 1, 0.7)


@pytest.mark.parametrize("s, n", [(640.0, 1), (700.0, 1), (1000.0, 1), (1600.0, 2)])
def test_asymptotic_ratio_below_the_normal_range_matches_mpmath(s, n):
    # the leading term (n / pi)**s is subnormal or underflows to 0; the
    # polarization 2**-s * n is a normal float, and so is the ratio
    mpmath = pytest.importorskip("mpmath")
    assert dominant_term(s, n) < sys.float_info.min
    value = polarization(riesz_kernel(s), equally_spaced(n)).value
    with mpmath.workdps(50):
        exp = mpmath.mpf(s)
        exact = mpmath.mpf(value) / (2 * mpmath.zeta(exp) * (1 - mpmath.power(2, -exp))
                                     * mpmath.power(n / mpmath.pi, exp))
        error = abs((asymptotic_ratio(s, n, value) - exact) / exact)
    assert error <= 1e-12


def test_asymptotic_ratio_in_the_normal_range_is_the_plain_quotient():
    # (1 / pi)**600 is 2.6e-299, a normal float
    value = polarization(riesz_kernel(600.0), equally_spaced(1)).value
    assert dominant_term(600.0, 1) >= sys.float_info.min
    assert asymptotic_ratio(600.0, 1, value) == value / dominant_term(600.0, 1)


def test_asymptotic_ratio_names_a_polarization_that_underflowed():
    # 2**-1100 underflows, so the polarization at one point is 0.0
    value = polarization(riesz_kernel(1100.0), equally_spaced(1)).value
    assert value == 0.0
    with pytest.raises(ValueError, match="polarization 0.0"):
        asymptotic_ratio(1100.0, 1, value)

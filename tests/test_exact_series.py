"""Exact rational machinery: Bernoulli numbers, zeta values, powers of sinc,
and the closed-form polarization polynomials."""

from fractions import Fraction

import pytest

from circlepol import (ExactPolynomial, equally_spaced,
                       exact_polarization_polynomial, polarization,
                       riesz_kernel, sinc_power_coefficients, zeta_even_exact)
from circlepol.exact_series import _bernoulli

from helpers import assert_sinc_power_matches_taylor


def _product(a, b):
    """Cauchy product of two coefficient lists, truncated to the shorter."""
    return [sum(a[i] * b[k - i] for i in range(k + 1))
            for k in range(min(len(a), len(b)))]


def _rationals(s, order):
    return [c for c, _ in sinc_power_coefficients(s, order=order)]


def test_bernoulli_values():
    b = _bernoulli(8)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)


def test_zeta_even_exact_values():
    assert zeta_even_exact(1) == Fraction(1, 6)
    assert zeta_even_exact(2) == Fraction(1, 90)
    assert zeta_even_exact(3) == Fraction(1, 945)
    with pytest.raises(ValueError):
        zeta_even_exact(0)


def test_sinc_power_constant_term_and_first_coefficient():
    for s in (1, 2, Fraction(7, 3), 8):
        coeffs = sinc_power_coefficients(s, order=3)
        assert coeffs[0] == (Fraction(1), 0)
        # first coefficient is s/6 at grade 2
        assert coeffs[1] == (Fraction(s, 6), 2)
    assert sinc_power_coefficients(4, order=2)[1][0] == Fraction(2, 3)
    assert sinc_power_coefficients(6, order=2)[1][0] == 1


def test_exact_path_rejects_floats():
    with pytest.raises(TypeError):
        sinc_power_coefficients(2.0, order=2)
    with pytest.raises(TypeError):
        sinc_power_coefficients(True, order=2)


def test_sinc_power_rejects_negative_order():
    with pytest.raises(ValueError):
        sinc_power_coefficients(2, order=-1)
    assert sinc_power_coefficients(2, order=0) == [(Fraction(1), 0)]


def test_sinc_power_round_trip_is_exact():
    # sinc**(-s) times sinc**s is 1, term by term and exactly
    for s in (1, 2, Fraction(7, 3), Fraction(-1, 2), 8):
        product = _product(_rationals(s, 12), _rationals(-s, 12))
        assert product == [1] + [0] * 12, s


def test_series_pow_matches_repeated_product():
    # the recurrence for exponent 3s against the cube of the one for s
    for s in (1, Fraction(7, 3), Fraction(1, 2)):
        g = _rationals(s, 10)
        assert _rationals(3 * s, 10) == _product(_product(g, g), g), s


def test_sinc_power_agrees_with_generalized_bernoulli_route():
    # coefficient j equals (-1)^j B_{2j}^{(s)}(s/2) / (2j)! * (2 pi)^{2j},
    # the Taylor coefficient of sinc(pi z)**(-s); mpmath expands that
    # function numerically, independently of the recurrence
    mpmath = pytest.importorskip("mpmath")
    for s in [*range(1, 9), Fraction(7, 3), Fraction(1, 2)]:
        assert_sinc_power_matches_taylor(mpmath, s, order=8)


def test_exact_polynomials_match_published_forms():
    assert str(exact_polarization_polynomial(1)) == "n^2/4"
    assert str(exact_polarization_polynomial(2)) == "n^2/24 + n^4/48"
    assert str(exact_polarization_polynomial(3)) == "n^2/120 + n^4/192 + n^6/480"
    poly = exact_polarization_polynomial(2)
    assert poly.terms == ((2, Fraction(1, 24)), (4, Fraction(1, 48)))
    assert poly.evaluate(6) == Fraction(57, 2)
    with pytest.raises(ValueError):
        exact_polarization_polynomial(0)


def test_exact_polynomial_formatting_and_terms():
    poly = ExactPolynomial(((2, Fraction(3, 4)), (4, Fraction(5)),
                            (6, Fraction(1))))
    assert str(poly) == "3*n^2/4 + 5*n^4 + n^6"
    assert poly.to_terms() == [
        {"power": 2, "num": 3, "den": 4},
        {"power": 4, "num": 5, "den": 1},
        {"power": 6, "num": 1, "den": 1},
    ]
    with pytest.raises(TypeError):
        poly.evaluate(2.5)


def test_exact_polynomials_match_numeric_polarization():
    for m in (1, 2, 3):
        poly = exact_polarization_polynomial(m)
        kernel = riesz_kernel(2 * m)
        for n in (2, 3, 5, 8, 16):
            want = float(poly.evaluate(n))
            got = polarization(kernel, equally_spaced(n)).value
            assert abs(got - want) / want < 1e-9, (m, n)

"""Exact rational machinery: Bernoulli numbers, zeta values, series algebra,
and the closed-form polarization polynomials."""

import math
from fractions import Fraction

import pytest

from circlepol import (ExactPolynomial, RationalSeries, bernoulli_numbers,
                       equally_spaced,
                       exact_polarization_polynomial,
                       generalized_bernoulli_value, log_sinc_series,
                       polarization, riesz_kernel, sinc_power_coefficients,
                       zeta_even_exact)


def test_bernoulli_values():
    b = bernoulli_numbers(8)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_zeta_even_exact_values():
    assert zeta_even_exact(1) == Fraction(1, 6)
    assert zeta_even_exact(2) == Fraction(1, 90)
    assert zeta_even_exact(3) == Fraction(1, 945)
    with pytest.raises(ValueError):
        zeta_even_exact(0)


def test_log_sinc_series_coefficients():
    s = log_sinc_series(4)
    assert s.coeffs[0] == 0
    assert s.coeffs[1] == Fraction(-1, 6)
    assert s.coeffs[2] == Fraction(-1, 180)


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
        generalized_bernoulli_value(1, 1.5, 0)
    with pytest.raises(TypeError):
        RationalSeries([0.5, 1])


def test_series_exp_log_round_trip_is_exact():
    import random
    rnd = random.Random(42)
    for _ in range(10):
        coeffs = [Fraction(1)] + [
            Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(6)
        ]
        series = RationalSeries(coeffs)
        assert series.log().exp() == series


def test_series_constant_term_requirements():
    with pytest.raises(ValueError):
        RationalSeries([1, 2, 3]).exp()  # constant term must be 0
    with pytest.raises(ValueError):
        RationalSeries([0, 2, 3]).log()  # constant term must be 1
    with pytest.raises(ValueError):
        RationalSeries([0, 1]) + RationalSeries([0, 1, 2])  # order mismatch


def test_series_algebra_basics():
    a = RationalSeries([1, 2, 3])
    b = RationalSeries([0, 1, Fraction(1, 2)])
    assert (a * b).coeffs == (Fraction(0), Fraction(1), Fraction(5, 2))
    assert (a + b).coeffs == (Fraction(1), Fraction(3), Fraction(7, 2))
    assert a.scale(Fraction(1, 3)).coeffs[2] == 1


def test_series_pow_matches_repeated_product():
    s = RationalSeries([1, Fraction(1, 3), Fraction(2, 5), 0, 1])
    assert s.pow(3) == s * s * s


def test_generalized_bernoulli_basics():
    assert generalized_bernoulli_value(0, 5, Fraction(1, 3)) == 1
    assert generalized_bernoulli_value(1, 1, 0) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        generalized_bernoulli_value(3, 1, 0, order=2)


def test_sinc_power_agrees_with_generalized_bernoulli_route():
    # second route: coefficient j equals
    # (-1)^j B_{2j}^{(s)}(s/2) / (2j)! * (2 pi)^{2j}; the pi part is the grade
    for s in range(1, 9):
        direct = sinc_power_coefficients(s, order=4)
        for j in range(5):
            value = generalized_bernoulli_value(2 * j, s, Fraction(s, 2),
                                                order=2 * j)
            alt = (Fraction((-1) ** j) * value
                   / Fraction(math.factorial(2 * j))
                   * Fraction(4) ** j)
            assert direct[j] == (alt, 2 * j), (s, j)


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

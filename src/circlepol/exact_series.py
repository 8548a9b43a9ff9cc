"""Exact rational series: Bernoulli numbers, even zeta values, powers of sinc,
and the closed-form even-power polarization polynomials.

Everything here is computed over ``fractions.Fraction``; floats are refused
so the exactness boundary stays explicit.  Powers of pi are kept out of the
coefficients: coefficient ``j`` of a series in z**2 stands for a rational
times pi**(2j), so the pure-rational polynomials come out by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import List, Sequence, Tuple, Union

__all__ = [
    "RationalSeries",
    "ExactPolynomial",
    "bernoulli_numbers",
    "zeta_even_exact",
    "log_sinc_series",
    "sinc_power_coefficients",
    "generalized_bernoulli_value",
    "exact_polarization_polynomial",
]

ExactScalar = Union[int, Fraction]

# headroom beyond anything shipped (which needs order <= 8)
DEFAULT_ORDER = 16


def _as_fraction(value: ExactScalar) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(
            f"exact arithmetic needs int or Fraction, got {type(value).__name__}")
    return Fraction(value)


class RationalSeries:
    """Power series with Fraction coefficients, truncated at a fixed order.

    All arithmetic stays at the truncation order of the operands (which must
    agree); ``exp``/``log``/``pow`` are the usual formal-series recursions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[ExactScalar], order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            cs = cs[:order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("series needs at least a constant term")
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _like(self, coeffs: Sequence[ExactScalar]) -> "RationalSeries":
        return type(self)(coeffs, order=self.order)

    def _check_order(self, other: "RationalSeries") -> None:
        if not isinstance(other, RationalSeries):
            raise TypeError(f"expected a series, got {type(other).__name__}")
        if other.order != self.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}")

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)) and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash((type(self), self.coeffs))

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"{type(self).__name__}([{inner}])"

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        self._check_order(other)
        return self._like([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        self._check_order(other)
        return self._like([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: ExactScalar) -> "RationalSeries":
        c = _as_fraction(c)
        return self._like([c * a for a in self.coeffs])

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        self._check_order(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return self._like(out)

    def exp(self) -> "RationalSeries":
        if self.coeffs[0] != 0:
            raise ValueError("exp needs constant term 0")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = Fraction(1)
        term = self._like([1])
        for k in range(1, self.order + 1):
            term = (term * self).scale(Fraction(1, k))
            for i, c in enumerate(term.coeffs):
                out[i] += c
        return self._like(out)

    def log(self) -> "RationalSeries":
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        u = self - self._like([1])
        out = [Fraction(0)] * (self.order + 1)
        term = self._like([1])
        for k in range(1, self.order + 1):
            term = term * u
            sign = Fraction((-1) ** (k + 1), k)
            for i, c in enumerate(term.coeffs):
                out[i] += sign * c
        return self._like(out)

    def pow(self, exponent: ExactScalar) -> "RationalSeries":
        return self.log().scale(_as_fraction(exponent)).exp()


@lru_cache(maxsize=None)
def _bernoulli(upto: int) -> Tuple[Fraction, ...]:
    values = [Fraction(1)]
    for m in range(1, upto + 1):
        acc = sum((comb(m + 1, j) * values[j] for j in range(m)), Fraction(0))
        values.append(-acc / (m + 1))
    return tuple(values)


def bernoulli_numbers(upto: int) -> List[Fraction]:
    """Bernoulli numbers B_0..B_upto (convention B_1 = -1/2)."""
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    return list(_bernoulli(upto))


def zeta_even_exact(k: int) -> Fraction:
    """Rational q with zeta(2k) = q * pi**(2k)."""
    if k < 1:
        raise ValueError("k must be positive")
    b = _bernoulli(2 * k)[2 * k]
    return Fraction((-1) ** (k + 1)) * b * 2 ** (2 * k - 1) / factorial(2 * k)


def log_sinc_series(order: int) -> RationalSeries:
    """log((sin pi z)/(pi z)) as a series in z**2.

    Coefficient ``k`` is the rational part of -zeta(2k)/k, whose full value
    carries a factor pi**(2k).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [Fraction(0)]
    coeffs += [-zeta_even_exact(k) / k for k in range(1, order + 1)]
    return RationalSeries(coeffs, order=order)


def sinc_power_coefficients(
    s: ExactScalar, order: int = DEFAULT_ORDER,
) -> List[Tuple[Fraction, int]]:
    """Even Taylor coefficients of ((sin pi z)/(pi z))**(-s).

    Returns ``(rational, grade)`` pairs: coefficient ``j`` of z**(2j) is
    ``rational * pi**grade`` with ``grade = 2j``.  The constant term is 1.
    """
    s = _as_fraction(s)
    series = log_sinc_series(order).scale(-s).exp()
    return [(c, 2 * j) for j, c in enumerate(series.coeffs)]


def generalized_bernoulli_value(
    j: int, s: ExactScalar, x: ExactScalar, order: int | None = None,
) -> Fraction:
    """Value of the generalized Bernoulli polynomial B_j^(s)(x).

    Extracted from the defining series ``(t/(e^t - 1))**s * e**(x t)``,
    computed with truncated rational arithmetic.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    s = _as_fraction(s)
    x = _as_fraction(x)
    n = j if order is None else order
    if n < j:
        raise ValueError(f"order {n} too small for coefficient {j}")
    b = _bernoulli(n)
    base = RationalSeries([b[m] / factorial(m) for m in range(n + 1)])
    shift = RationalSeries([x ** m / factorial(m) for m in range(n + 1)])
    series = base.pow(s) * shift
    return series.coeffs[j] * factorial(j)


@dataclass(frozen=True)
class ExactPolynomial:
    """Polynomial in n with Fraction coefficients on even powers."""

    terms: Tuple[Tuple[int, Fraction], ...]  # (power, coefficient), ascending

    def evaluate(self, n: int) -> Fraction:
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError("evaluate takes an integer")
        return sum((c * n ** p for p, c in self.terms), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for power, coeff in self.terms:
            if coeff == 0:
                continue
            num, den = coeff.numerator, coeff.denominator
            head = f"n^{power}" if num == 1 else f"{num}*n^{power}"
            parts.append(head if den == 1 else f"{head}/{den}")
        return " + ".join(parts) if parts else "0"

    def to_terms(self) -> List[dict]:
        return [
            {"power": p, "num": c.numerator, "den": c.denominator}
            for p, c in self.terms
        ]


def exact_polarization_polynomial(m: int) -> ExactPolynomial:
    """Closed form of the even-power polarization of n equally spaced points.

    For the inverse-chord kernel with exponent ``2m`` the minimum of the
    potential is a polynomial in n with rational coefficients; the powers of
    pi contributed by the even zeta values (pi**(2k)) and the sinc-power
    coefficients (pi**(2m - 2k)) cancel against the ``(2 pi)**(2m)``
    denominator.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    alphas = sinc_power_coefficients(2 * m, order=m)
    terms = []
    for k in range(1, m + 1):
        q = zeta_even_exact(k)
        rational, _ = alphas[m - k]
        coeff = 2 * q * rational * (2 ** (2 * k) - 1) / Fraction(4 ** m)
        terms.append((2 * k, coeff))
    return ExactPolynomial(tuple(terms))

"""Exact closed forms for the even Riesz exponents: even zeta values, the
Taylor coefficients of powers of sinc, and the polarization polynomials
built from the two.

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
from typing import List, Tuple, Union

__all__ = [
    "ExactPolynomial",
    "zeta_even_exact",
    "sinc_power_coefficients",
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


@lru_cache(maxsize=None)
def _bernoulli(upto: int) -> Tuple[Fraction, ...]:
    values = [Fraction(1)]
    for m in range(1, upto + 1):
        acc = sum((comb(m + 1, j) * values[j] for j in range(m)), Fraction(0))
        values.append(-acc / (m + 1))
    return tuple(values)


def zeta_even_exact(k: int) -> Fraction:
    """Rational q with zeta(2k) = q * pi**(2k)."""
    if k < 1:
        raise ValueError("k must be positive")
    b = _bernoulli(2 * k)[2 * k]
    return Fraction((-1) ** (k + 1)) * b * 2 ** (2 * k - 1) / factorial(2 * k)


def sinc_power_coefficients(
    s: ExactScalar, order: int = DEFAULT_ORDER,
) -> List[Tuple[Fraction, int]]:
    """Even Taylor coefficients of ((sin pi z)/(pi z))**(-s).

    Returns ``(rational, grade)`` pairs: coefficient ``j`` of z**(2j) is
    ``rational * pi**grade`` with ``grade = 2j``.  The constant term is 1.

    The sinc series in w = (pi z)**2 has coefficients
    f_j = (-1)**j / (2j + 1)!, and g = f**a with a = -s and f_0 = 1 follows
    from J. C. P. Miller's power recurrence (Knuth, TAOCP Vol. 2, 4.7):
    k g_k = sum_{j=1..k} ((a + 1) j - k) f_j g_{k-j}.
    """
    a = -_as_fraction(s)
    if order < 0:
        raise ValueError("order must be nonnegative")
    f = [Fraction((-1) ** j, factorial(2 * j + 1)) for j in range(order + 1)]
    g = [Fraction(1)]
    for k in range(1, order + 1):
        g.append(sum(((a + 1) * j - k) * f[j] * g[k - j]
                     for j in range(1, k + 1)) / k)
    return [(c, 2 * j) for j, c in enumerate(g)]


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

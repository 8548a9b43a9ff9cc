"""Numeric zeta and the three-regime leading term of the polarization
of n equally spaced points as n grows.

The leading term switches regime at the integrability threshold of the
kernel exponent: power laws above 1 keep a zeta factor, exponent exactly 1
picks up a logarithm, and exponents in [0, 1) are linear in n with a ratio
of gamma values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Tuple

__all__ = [
    "zeta_real",
    "dominant_term",
    "asymptotic_ratio",
]

DEFAULT_ZETA_TERMS = 64

# s within this distance of 1 is treated as the logarithmic boundary case
_BOUNDARY_TOL = 1e-14


@lru_cache(maxsize=None)
def _alternating_weights(terms: int) -> Tuple[int, ...]:
    """Chebyshev-derived integer weights for the accelerated eta series."""
    acc = Fraction(0)
    out = []
    for i in range(terms + 1):
        acc += Fraction(factorial(terms + i - 1) * 4 ** i,
                        factorial(terms - i) * factorial(2 * i))
        d = terms * acc
        if d.denominator != 1:
            raise AssertionError("acceleration weights must be integers")
        out.append(d.numerator)
    return tuple(out)


def zeta_real(s: float) -> float:
    """Riemann zeta for real s > 1.

    Computed from the alternating (eta) series with Chebyshev acceleration:
    64 terms give far better than 1e-12 relative accuracy uniformly on
    (1, 50]; the eta-to-zeta factor 1/(1 - 2**(1-s)) handles s near 1.
    """
    if not s > 1.0:
        raise ValueError(f"zeta_real needs s > 1, got {s!r}")
    weights = _alternating_weights(DEFAULT_ZETA_TERMS)
    d_last = weights[DEFAULT_ZETA_TERMS]
    total = 0.0
    for k in range(DEFAULT_ZETA_TERMS):
        total += (-1) ** k * float(weights[k] - d_last) / (k + 1.0) ** s
    # expm1 keeps the eta-to-zeta factor fully accurate as s -> 1, where
    # 1 - 2**(1-s) would cancel catastrophically.
    eta_factor = -math.expm1((1.0 - s) * math.log(2.0))
    return -total / (d_last * eta_factor)


def dominant_term(s: float, n: int) -> float:
    """Leading term of the n-point polarization for the power kernel exponent s.

    s > 1:      2 zeta(s) (2**s - 1) / (2 pi)**s * n**s
    s = 1:      n log n / pi
    0 <= s < 1: 2**(-s) / sqrt(pi) * Gamma((1-s)/2) / Gamma(1 - s/2) * n
    """
    if not 0.0 <= s < math.inf:
        raise ValueError(f"need finite s >= 0, got {s!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    if abs(s - 1.0) <= _BOUNDARY_TOL:
        return n * math.log(n) / math.pi
    if s > 1.0:
        return (2.0 * zeta_real(s) * (2.0 ** s - 1.0)
                / (2.0 * math.pi) ** s * float(n) ** s)
    return (2.0 ** (-s) / math.sqrt(math.pi)
            * math.gamma((1.0 - s) / 2.0) / math.gamma(1.0 - s / 2.0) * n)


def asymptotic_ratio(s: float, n: int, kernel_polarization: float) -> float:
    """Ratio of a supplied polarization value to the leading term."""
    dom = dominant_term(s, n)
    if dom == 0.0:
        raise ValueError(
            f"dominant term vanishes at s={s!r}, n={n!r}; ratio undefined")
    return kernel_polarization / dom

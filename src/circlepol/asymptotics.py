"""Numeric zeta and the three-regime leading term of the polarization
of n equally spaced points as n grows.

The leading term switches regime at the integrability threshold of the
kernel exponent: power laws above 1 keep a zeta factor, exponent exactly 1
picks up a logarithm, and exponents in [0, 1) are linear in n with a ratio
of gamma values.
"""

from __future__ import annotations

import math
import sys

from .exact_series import _bernoulli

__all__ = [
    "zeta_real",
    "dominant_term",
    "asymptotic_ratio",
]

# s within this distance of 1 is treated as the logarithmic boundary case
_BOUNDARY_TOL = 1e-14


def zeta_real(s: float) -> float:
    """Riemann zeta for real s > 1, within 1e-15 relative.

    Euler-Maclaurin summation (DLMF 25.2(iii)): k**-s for k < N = 10, then
    N**(1-s)/(s-1) + N**-s/2 and ten corrections
    B_2j/(2j)! s(s+1)...(s+2j-2) N**(1-s-2j).  As s grows every power
    underflows, so the result tends to 1.0 and never overflows.
    """
    if not s > 1.0:
        raise ValueError(f"zeta_real needs s > 1, got {s!r}")
    cutoff = 10.0
    bernoulli = _bernoulli(20)
    total = sum(k ** -s for k in range(1, 10))
    total += cutoff ** (1.0 - s) / (s - 1.0) + 0.5 * cutoff ** -s
    rising = s  # s (s + 1) ... (s + 2j - 2)
    for j in range(1, 11):
        term = (float(bernoulli[2 * j]) / math.factorial(2 * j) * rising
                * cutoff ** (1.0 - s - 2 * j))
        if term == 0.0:
            # the power has underflowed, and so will every later one;
            # going on would overflow `rising` and give 0 * inf = NaN
            break
        total += term
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def dominant_term(s: float, n: int) -> float:
    """Leading term of the n-point polarization for the power kernel exponent s.

    s > 1:      2 zeta(s) (2**s - 1) (n / (2 pi))**s, taken as one power
                (n / pi)**s: ``OverflowError`` only past the float range
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
        term = 2.0 * zeta_real(s) * (1.0 - 2.0 ** -s) * (n / math.pi) ** s
        if term == math.inf:  # a power raises past the range, a product not
            raise OverflowError(
                f"dominant term past the float range at s={s!r}, n={n!r}")
        return term
    return (2.0 ** (-s) / math.sqrt(math.pi)
            * math.gamma((1.0 - s) / 2.0) / math.gamma(1.0 - s / 2.0) * n)


def asymptotic_ratio(s: float, n: int, kernel_polarization: float) -> float:
    """Ratio of a supplied polarization value to the leading term.

    For s > 1 with a leading term below ``sys.float_info.min`` it is taken
    in logs, exp(log(P / (2 zeta(s) (1 - 2**-s))) - s log(n / pi)).  Raises
    ``ValueError`` when the leading term vanishes (s = 1, n = 1) or that log
    needs a polarization that is not > 0.
    """
    dom = dominant_term(s, n)
    if s > 1.0 + _BOUNDARY_TOL and dom < sys.float_info.min:
        if not kernel_polarization > 0.0:
            raise ValueError(f"polarization {kernel_polarization!r} at s={s!r}, "
                             f"n={n!r} is not > 0; its log ratio is undefined")
        scaled = kernel_polarization / (2.0 * zeta_real(s) * (1.0 - 2.0 ** -s))
        return math.exp(math.log(scaled) - s * math.log(n / math.pi))
    if dom == 0.0:
        raise ValueError(
            f"dominant term vanishes at s={s!r}, n={n!r}; ratio undefined")
    return kernel_polarization / dom

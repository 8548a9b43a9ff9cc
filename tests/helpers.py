"""Shared test utilities: random configurations and brute-force oracles."""

from fractions import Fraction

import numpy as np

from circlepol import (TWO_PI, Configuration, config_from_gaps, potential_values,
                       sinc_power_coefficients)


def random_config(rng, n, min_sep=0.0, rotate=True):
    """Random n-point configuration from a flat Dirichlet on the gap simplex."""
    while True:
        gaps = rng.dirichlet(np.ones(n)) * TWO_PI
        if gaps.min() >= min_sep:
            anchor = rng.uniform(0.0, TWO_PI) if rotate else 0.0
            return config_from_gaps(gaps, anchor=anchor)


def homotopy_stage(source, plan, t):
    """The configuration at stage ``t`` of ``plan``'s homotopy, built as
    ``min_curve`` builds each stage: the interpolated gaps, from the anchor
    on, laid out from the anchor's source angle."""
    j = plan.zero_index
    gaps = (1.0 - t) * np.asarray(plan.source_gaps) + t * np.asarray(plan.target_gaps)
    return config_from_gaps(np.roll(gaps, -j), anchor=source.angles[j])


def dense_scan_minimum(kernel, config, resolution=1_000_000):
    """Global minimum of the potential by brute-force uniform sampling."""
    zs = TWO_PI * np.arange(resolution) / resolution
    return float(potential_values(kernel, config, zs).min())


def sup_gap_deviation(config: Configuration) -> float:
    """Largest deviation of any gap from the equal-spacing value."""
    target = TWO_PI / config.n
    return max(abs(g - target) for g in config.gaps)


def cyclic_allclose(got, want, atol=1e-9):
    """True when one tuple is a cyclic rotation of the other (within atol)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.size != want.size:
        return False
    return any(
        np.allclose(got, np.roll(want, r), rtol=0.0, atol=atol)
        for r in range(got.size)
    )


def assert_sinc_power_matches_taylor(mpmath, s, order):
    """``sinc_power_coefficients(s, order)`` against ``mpmath.taylor`` of
    sinc(pi z)**(-s) at 60 digits, which knows nothing of the recurrence.

    ``mpmath`` is passed in, so each caller decides whether its absence
    skips or fails.  Coefficient j, divided by pi**(2j), must match within
    1e-40 relative and have a denominator below 1e18.  Every coefficient
    checked is below 2, and two distinct fractions with such denominators
    differ by more than 1e-36, so the match pins the fraction exactly.
    """
    s = Fraction(s)
    coeffs = sinc_power_coefficients(s, order=order)
    assert len(coeffs) == order + 1
    with mpmath.workdps(60):
        exponent = mpmath.mpf(s.numerator) / s.denominator
        taylor = mpmath.taylor(lambda z: mpmath.sincpi(z) ** -exponent,
                               0, 2 * order)
        for j, rational in enumerate(coeffs):
            assert rational.denominator < 10 ** 18, (s, j)
            want = taylor[2 * j] / mpmath.pi ** (2 * j)
            got = mpmath.mpf(rational.numerator) / rational.denominator
            assert abs(got - want) <= 1e-40 * abs(want), (s, j)

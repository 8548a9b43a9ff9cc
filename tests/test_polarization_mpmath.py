"""``polarization`` against a 50-digit mpmath oracle on random configurations.

The configurations are checked as drawn, and with two more nodes a tiny gap
apart.  The value, every witness and every per-gap minimum must match.  The
oracle writes every kernel from its chord formula, ``c = 2|sin(d/2)|``
with ``d`` the signed angle difference, and minimizes each gap by bisecting
the sign of the potential's derivative: the potential is convex on a gap,
so the derivative's one root there is the gap's minimizer.  A value
computed in doubles may stray from the exact one by the rounding of its
n-term sum, so each bound is ``REL_TOL`` times the summed absolute terms
plus ``ANGLE_TOL`` times the summed absolute slopes (angle rounding next to
a node).  On the drawn configurations, measured errors are at most 1.1e-15
of the summed absolute terms.  Next to a tiny gap the float nearest the
minimizer can be half an ulp off, and the slope term covers that.
"""

from __future__ import annotations

import numpy as np
import pytest

from circlepol import (Configuration, log_kernel, polarization, power_kernel,
                       riesz_kernel)
from helpers import random_config

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DIGITS = 50

# an argmin off by 2**-72 of its gap moves the value far less than the
# rounding of a double
BISECTIONS = 72

REL_TOL = 1e-14
ANGLE_TOL = 1e-15

# a per-gap minimizer lies within this share of its gap, plus two ulps, of
# the oracle's root: the final bracket of 32 bisections
ROOT_SHARE = 2.0 ** -32

# name -> (circlepol kernel, the term g(c) as a function of the chord
# length c, and c g'(c)): a term's z-derivative is c g'(c) cot(d/2) / 2
KERNELS = {
    "riesz:1": (riesz_kernel(1.0), lambda c: 1 / c, lambda c: -1 / c),
    "riesz:2": (riesz_kernel(2.0), lambda c: c ** -2, lambda c: -2 * c ** -2),
    "riesz:4": (riesz_kernel(4.0), lambda c: c ** -4, lambda c: -4 * c ** -4),
    "log": (log_kernel(), lambda c: -mp.log(c), lambda c: -1),
    "power:0.5": (power_kernel(0.5), lambda c: -mp.sqrt(c),
                  lambda c: -mp.sqrt(c) / 2),
}


def _sums(name, nodes, z):
    """Potential at ``z``, its z-derivative, and the absolute-term sums."""
    _, g, cg = KERNELS[name]
    value = slope = abs_terms = abs_slopes = mp.mpf(0)
    for x in nodes:
        half = (z - x) / 2
        chord = 2 * abs(mp.sin(half))
        term = g(chord)
        term_slope = cg(chord) * mp.cot(half) / 2
        value += term
        slope += term_slope
        abs_terms += abs(term)
        abs_slopes += abs(term_slope)
    return value, slope, abs_terms, abs_slopes


def _tolerance(name, nodes, z):
    _, _, abs_terms, abs_slopes = _sums(name, nodes, z)
    return float(REL_TOL * abs_terms + ANGLE_TOL * abs_slopes)


def _oracle_gap_minima(name, nodes):
    """Minimizer and minimum of the potential on every gap, in gap order."""
    a = list(nodes)
    b = a[1:] + [a[0] + 2 * mp.pi]
    minima = []
    for lo, hi in zip(a, b):
        # the slope rises from -inf to +inf across the gap
        for _ in range(BISECTIONS):
            mid = (lo + hi) / 2
            if _sums(name, a, mid)[1] < 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        minima.append((root, _sums(name, a, root)[0]))
    return minima


def _check(name, config):
    """Value, witnesses and every per-gap minimum against the oracle."""
    result = polarization(KERNELS[name][0], config)
    with mp.workdps(DIGITS):
        nodes = [mp.mpf(x) for x in config.angles]
        minima = _oracle_gap_minima(name, nodes)
        root, value = min(minima, key=lambda m: m[1])
        assert abs(result.value - value) <= _tolerance(name, nodes, root)
        assert result.witnesses
        for w in result.witnesses:
            at = _sums(name, nodes, mp.mpf(w))[0]
            assert abs(at - value) <= _tolerance(name, nodes, mp.mpf(w)), w
        assert [k for k, _, _ in result.per_arc_minima] == list(range(config.n))
        for k, x, v in result.per_arc_minima:
            gap_root, gap_value = minima[k]
            assert abs(v - gap_value) <= _tolerance(name, nodes, gap_root), k
            at = _sums(name, nodes, mp.mpf(x))[0]
            assert abs(at - gap_value) <= _tolerance(name, nodes, mp.mpf(x)), k
            off = (mp.mpf(x) - gap_root + mp.pi) % (2 * mp.pi) - mp.pi
            assert abs(off) <= ROOT_SHARE * config.gaps[k] + 2 * np.spacing(x), k


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("name", list(KERNELS))
def test_polarization_matches_mpmath(name, n):
    _check(name, random_config(np.random.default_rng(900 + n), n))


@pytest.mark.parametrize("at", [0.0, 3.0])
@pytest.mark.parametrize("gap", [1e-8, 1e-10, 1e-13])
@pytest.mark.parametrize("name", list(KERNELS))
def test_tiny_gap_matches_mpmath(name, gap, at):
    # a difference quotient with a fixed step floor straddles both nodes of
    # a gap this small; a step relative to the distance does not
    others = random_config(np.random.default_rng(950), 4).angles
    config = Configuration([*others, at, at + gap])
    assert (at + gap) - at in config.gaps
    _check(name, config)

"""The benchmark's oracle against 40-digit mpmath sums."""

import math

import numpy as np
import pytest

import checks
import oracle
import workloads

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

LABELS = ("riesz:1", "riesz:2", "riesz:4", "log")


def mp_terms(label, nodes, z, derivative=False):
    kind, s = oracle.parse_kernel(label)
    total = mp.mpf(0)
    for x in nodes:
        half = (z - mp.mpf(x)) / 2
        chord = 2 * abs(mp.sin(half))
        if derivative:
            slope = -mp.cot(half) / 2
            total += slope * (s * chord ** -s if kind == "riesz" else 1)
        else:
            total += chord ** -s if kind == "riesz" else -mp.log(chord)
    return total


def mp_polarization(label, nodes):
    """Minimum over the gaps, each by a bracketed root of the derivative."""
    a = sorted(float(x) for x in nodes)
    b = a[1:] + [a[0] + 2 * math.pi]
    best = None
    for lo, hi in zip(a, b):
        inset = (hi - lo) * mp.mpf("1e-6")
        root = mp.findroot(lambda z: mp_terms(label, a, z, derivative=True),
                           (mp.mpf(lo) + inset, mp.mpf(hi) - inset),
                           solver="anderson")
        value = mp_terms(label, a, root)
        if best is None or value < best[1]:
            best = (root, value)
    return best


@pytest.mark.parametrize("n", (2, 3, 5, 8))
@pytest.mark.parametrize("label", LABELS)
def test_oracle_minimum_matches_mpmath(label, n):
    rng = np.random.default_rng(100 + n)
    nodes, _ = workloads.random_config(rng, n)
    with mp.workdps(40):
        root, value = mp_polarization(label, nodes)
        scale = abs(mp_terms(label, nodes, root)) + n
    z, got = oracle.polarization(label, nodes)
    assert abs(got - float(value)) <= 1e-14 * float(scale)
    gap = 2 * math.pi / n
    assert abs(((z - float(root) + math.pi) % (2 * math.pi)) - math.pi) <= 1e-9 * gap


@pytest.mark.parametrize("label", LABELS)
def test_oracle_potential_and_slope_match_mpmath(label):
    rng = np.random.default_rng(5)
    nodes, _ = workloads.random_config(rng, 256)
    z = rng.uniform(0.0, 2 * math.pi, 8)
    values, abs_terms, _ = oracle.potential(label, nodes, z)
    slopes = oracle.slope(label, nodes, z)
    with mp.workdps(40):
        for k in range(z.size):
            want = mp_terms(label, nodes, mp.mpf(z[k]))
            assert abs(values[k] - float(want)) <= 1e-13 * abs_terms[k]
            want_slope = mp_terms(label, nodes, mp.mpf(z[k]), derivative=True)
            assert abs(slopes[k] - float(want_slope)) <= 1e-10 * abs(float(want_slope)) + 1e-10


@pytest.mark.parametrize("s", (2, 4, 6))
@pytest.mark.parametrize("n", (1, 2, 5, 64))
def test_closed_forms_match_mpmath_sum(s, n):
    with mp.workdps(40):
        total = mp.fsum((2 * mp.sin((2 * k + 1) * mp.pi / (2 * n))) ** -s
                        for k in range(n))
    assert checks.CLOSED_FORMS[s](n) == pytest.approx(float(total), rel=1e-15)
    assert oracle.equal_spacing_value(f"riesz:{s}", n) == pytest.approx(
        float(total), rel=1e-13)

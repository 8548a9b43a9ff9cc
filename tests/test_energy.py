"""Tests for pairwise energies and the energy route to polarization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from circlepol.circle_config import TWO_PI, equally_spaced
from circlepol.energy import energy_equally_spaced, polarization_via_energy
from circlepol.kernels import riesz_kernel
from circlepol.potential import polarization


# ---------------------------------------------------------------------------
# energy_equally_spaced
# ---------------------------------------------------------------------------


def test_energy_small_cases_exponent_two():
    # n=2: one antipodal pair, chord 2, both ordered pairs: 2 * 2^-2 = 1/2.
    assert math.isclose(energy_equally_spaced(2.0, 2), 0.5, rel_tol=1e-14)
    # n=3: chords sqrt(3); 6 ordered pairs * 1/3 = 2.
    assert math.isclose(energy_equally_spaced(2.0, 3), 2.0, rel_tol=1e-14)
    # n=4: chords sqrt(2) (x8 ordered) and 2 (x4): 8/2 + 4/4 = 5.
    assert math.isclose(energy_equally_spaced(2.0, 4), 5.0, rel_tol=1e-14)


def test_energy_matches_brute_force_double_sum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        s = float(rng.uniform(0.2, 4.0))
        z = np.exp(1j * TWO_PI * np.arange(n) / n)
        diff = np.abs(z[:, None] - z[None, :])
        mask = ~np.eye(n, dtype=bool)
        brute = np.sum(diff[mask] ** (-s))
        assert math.isclose(energy_equally_spaced(s, n), brute,
                            rel_tol=1e-12)


def test_energy_chord_reversal_symmetry():
    # The single-sum terms pair up under k -> n-k, so summing the first
    # half twice (plus the antipodal term when n is even) gives the total.
    for n in (5, 8, 13):
        s = 1.7
        k = np.arange(1, n)
        terms = (2.0 * np.sin(np.pi * k / n)) ** (-s)
        assert np.allclose(terms, terms[::-1], rtol=1e-13)


def test_energy_validation():
    with pytest.raises(ValueError):
        energy_equally_spaced(2.0, 1)
    with pytest.raises(ValueError):
        energy_equally_spaced(0.0, 4)
    with pytest.raises(ValueError):
        energy_equally_spaced(-1.0, 4)
    with pytest.raises(ValueError):
        energy_equally_spaced(math.nan, 4)


# ---------------------------------------------------------------------------
# polarization_via_energy
# ---------------------------------------------------------------------------


def test_polarization_via_energy_single_point():
    # One point: the far point is at geodesic distance pi, chord 2.
    for s in (0.5, 1.0, 2.0, 3.0):
        assert math.isclose(polarization_via_energy(s, 1), 2.0 ** (-s),
                            rel_tol=1e-14)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_energy_identity_matches_arc_search(s, n):
    kernel = riesz_kernel(s)
    config = equally_spaced(n)
    direct = polarization(kernel, config).value
    assert math.isclose(polarization_via_energy(s, n), direct,
                        rel_tol=1e-11)


def test_energy_identity_exact_polynomial_case():
    # Exponent 2 closed form: polarization of n equally spaced points
    # is n^2/4.
    for n in (1, 2, 6, 100):
        assert math.isclose(polarization_via_energy(2.0, n), n * n / 4.0,
                            rel_tol=1e-13)


def test_polarization_via_energy_validation():
    with pytest.raises(ValueError):
        polarization_via_energy(2.0, 0)

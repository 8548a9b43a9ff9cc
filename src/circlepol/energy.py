"""Pairwise inverse-power energy of equally spaced points and the energy
route to polarization.

For equally spaced points the double sum collapses to a single sum over
chord lengths, and the polarization of n equally spaced points equals the
difference of per-point energies at 2n and n points — an exact identity
that gives an O(n) cross-check of the arc-search machinery.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "energy_equally_spaced",
    "polarization_via_energy",
]


def energy_equally_spaced(s: float, n: int) -> float:
    """Pairwise energy sum_{j != k} |z_j - z_k|**(-s) for n equally spaced points.

    Equals n * sum_{k=1}^{n-1} (2 sin(pi k / n))**(-s), which is 0.0 at
    n = 1, the empty sum over pairs, and +inf past the float range.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    if not 0.0 < s < np.inf:
        raise ValueError(f"need finite s > 0, got {s!r}")
    k = np.arange(1, n)
    with np.errstate(over="ignore"):
        return float(n * np.sum((2.0 * np.sin(np.pi * k / n)) ** (-s)))


def polarization_via_energy(s: float, n: int) -> float:
    """Polarization of n equally spaced points from the energy identity.

    Equals (per-point energy of 2n points) - (per-point energy of n points),
    the sum over the n midpoints.  That is at least the second energy, so
    it is +inf when that is, where the difference would be inf - inf.
    """
    single = energy_equally_spaced(s, n) / n  # refuses n < 1 as given
    if single == np.inf:
        return np.inf
    return energy_equally_spaced(s, 2 * n) / (2 * n) - single

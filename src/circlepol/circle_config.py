"""Point configurations on the unit circle.

Configurations are immutable lists of angles in ``[0, 2*pi)``, sorted so the
points run counterclockwise; indexing is cyclic.  The module provides the
gap vector between consecutive points, separation, geodesic distance, and
the point-moving operators (single pair moves, cyclic coordinate moves, and
their composition into a gap transport).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import OrderingBrokenError, StepTooLargeError

__all__ = [
    "TWO_PI",
    "Configuration",
    "equally_spaced",
    "geodesic_distance",
    "rotate",
    "reflect",
    "pair_move",
    "coordinate_move",
    "apply_transport",
    "config_from_gaps",
    "config_to_json",
    "config_from_json",
    "load_config_file",
]

TWO_PI = 2.0 * math.pi

# absolute gauge for angle comparisons and wrap-around equality
ANGLE_TOL = 1e-12


def _wrap(angle: float) -> float:
    a = float(angle) % TWO_PI
    if a >= TWO_PI:  # rounding can land exactly on 2*pi
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class Configuration:
    """Sorted angles in [0, 2*pi); cyclic indexing, coincident points allowed."""

    angles: Tuple[float, ...]

    def __init__(self, angles: Iterable[float]):
        canonical = tuple(sorted(_wrap(a) for a in angles))
        if not canonical:
            raise ValueError("configuration needs at least one point")
        if not all(math.isfinite(a) for a in canonical):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "angles", canonical)

    @property
    def n(self) -> int:
        return len(self.angles)

    @cached_property
    def angle_array(self) -> np.ndarray:
        arr = np.array(self.angles, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def gaps(self) -> Tuple[float, ...]:
        """Counterclockwise arc lengths between cyclically consecutive points.

        Nonnegative and summing to 2*pi; a single point has one gap of 2*pi.
        """
        a = self.angles
        n = len(a)
        out = [a[k + 1] - a[k] for k in range(n - 1)]
        out.append(a[0] + TWO_PI - a[n - 1])
        return tuple(out)

    @property
    def separation(self) -> float:
        return min(self.gaps)


def equally_spaced(n: int, phase: float = 0.0) -> Configuration:
    """``n`` equally spaced points, the first at angle ``phase``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Configuration((phase + TWO_PI * k / n) for k in range(n))


def geodesic_distance(a, b):
    """Shortest arclength between angles ``a`` and ``b``; lies in [0, pi].

    Accepts scalars or arrays (broadcasting elementwise).
    """
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    d = np.minimum(d, TWO_PI - d)
    return float(d) if d.ndim == 0 else d


def rotate(config: Configuration, phi: float) -> Configuration:
    """Rotate every point counterclockwise by ``phi``."""
    return Configuration(a + phi for a in config.angles)


def reflect(config: Configuration) -> Configuration:
    """Mirror the configuration across the real axis."""
    return Configuration(-a for a in config.angles)


def pair_move(z1: float, z2: float, eps: float) -> Tuple[float, float]:
    """Spread a pair apart: rotate ``z1`` clockwise and ``z2`` counterclockwise by ``eps``.

    ``eps`` must stay below half the length of the complementary arc from
    ``z2`` counterclockwise to ``z1`` (the full circle when the points
    coincide), so the moved points do not cross.
    """
    z1, z2 = _wrap(z1), _wrap(z2)
    complement = _wrap(z1 - z2)
    if complement == 0.0:  # coincident pair: complement is the whole circle
        complement = TWO_PI
    if not 0.0 < eps < complement / 2.0:
        raise ValueError(
            f"eps must lie in (0, {complement / 2.0!r}), got {eps!r}")
    return _wrap(z1 - eps), _wrap(z2 + eps)


def _gap_change(deltas: np.ndarray) -> np.ndarray:
    # effect of the composed coordinate moves on the gap vector
    return -np.roll(deltas, 1) + 2.0 * deltas - np.roll(deltas, -1)


def _net_rotation(deltas: np.ndarray) -> np.ndarray:
    # point k is rotated counterclockwise by deltas[k-1] - deltas[k]
    return np.roll(deltas, 1) - deltas


def coordinate_move(config: Configuration, k: int, delta: float) -> Configuration:
    """Rotate point ``k`` clockwise by ``delta`` and point ``k+1`` counterclockwise.

    Indices are 0-based and refer to the ordering of the *input*
    configuration.  The move must preserve counterclockwise ordering;
    otherwise :class:`OrderingBrokenError` is raised (never repaired by
    re-sorting).
    """
    n = config.n
    if not 0 <= k < n:
        raise IndexError(f"point index {k} out of range for n={n}")
    deltas = np.zeros(n)
    deltas[k] = delta
    new_gaps = np.asarray(config.gaps) + _gap_change(deltas)
    if (new_gaps < -ANGLE_TOL).any():
        raise OrderingBrokenError(
            f"ordering-broken: moving point {k} by {delta!r} makes a gap negative")
    return Configuration(config.angle_array + _net_rotation(deltas))


def apply_transport(config: Configuration, deltas: Sequence[float]) -> Configuration:
    """Apply the full cycle of coordinate moves given by ``deltas``.

    The net effect rotates point ``k`` by ``deltas[k-1] - deltas[k]``
    (cyclically), so the gap vector changes by the circulant second
    difference of ``deltas``.  Steps are admitted when either
    ``max |delta| <= separation/4``, or all deltas are nonnegative and
    ``max delta <= separation/2``; both bounds keep every intermediate
    stage counterclockwise.
    """
    d = np.asarray(deltas, dtype=float)
    if d.shape != (config.n,):
        raise ValueError(f"expected {config.n} deltas, got shape {d.shape}")
    sep = config.separation
    mixed_ok = np.abs(d).max() <= sep / 4.0 + ANGLE_TOL
    nonneg_ok = (d >= -ANGLE_TOL).all() and d.max() <= sep / 2.0 + ANGLE_TOL
    if not (mixed_ok or nonneg_ok):
        raise StepTooLargeError(
            f"step-too-large: max |delta| = {np.abs(d).max()!r} exceeds the "
            f"separation bound for sep = {sep!r}")
    new_gaps = np.asarray(config.gaps) + _gap_change(d)
    if (new_gaps < -ANGLE_TOL).any():
        raise OrderingBrokenError("ordering-broken: transport produced a negative gap")
    return Configuration(config.angle_array + _net_rotation(d))


def config_from_gaps(gaps: Sequence[float], anchor: float = 0.0) -> Configuration:
    """Configuration with the given gap vector, first point at ``anchor``.

    The gaps must be nonnegative and sum to 2*pi (within 1e-9).
    """
    g = np.asarray(gaps, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("gaps must be a nonempty vector")
    if (g < -ANGLE_TOL).any():
        raise ValueError("gaps must be nonnegative")
    if abs(g.sum() - TWO_PI) > 1e-9:
        raise ValueError(f"gaps must sum to 2*pi, got {g.sum()!r}")
    positions = anchor + np.concatenate(([0.0], np.cumsum(g[:-1])))
    return Configuration(positions)


# --- serialization -------------------------------------------------------

def config_to_json(config: Configuration) -> str:
    return json.dumps(list(config.angles))


def config_from_json(text: str, units: str = "radians") -> Configuration:
    values = json.loads(text)
    if not isinstance(values, list):
        raise ValueError("expected a JSON array of angles")
    return _from_values(values, units)


def load_config_file(path: str, units: str = "radians") -> Configuration:
    """Load angles from a JSON array or a one-angle-per-line CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return config_from_json(text, units)
    values = [float(line) for line in text.splitlines() if line.strip()]
    return _from_values(values, units)


def _from_values(values: Sequence[float], units: str) -> Configuration:
    if units == "radians":
        scale = 1.0
    elif units == "turns":
        scale = TWO_PI
    else:
        raise ValueError(f"unknown units {units!r} (use 'radians' or 'turns')")
    return Configuration(float(v) * scale for v in values)

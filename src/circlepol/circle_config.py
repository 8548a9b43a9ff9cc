"""Point configurations on the unit circle.

Configurations are immutable lists of angles in ``[0, 2*pi)``, sorted so the
points run counterclockwise; indexing is cyclic.  The module provides the
gap vector between consecutive points, construction from a gap vector, and
JSON and line-file input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "TWO_PI",
    "Configuration",
    "equally_spaced",
    "config_from_gaps",
    "config_from_json",
    "load_config_file",
]

TWO_PI = 2.0 * math.pi

# absolute gauge for angle comparisons and wrap-around equality
ANGLE_TOL = 1e-12


def _wrap(angles):
    """``angles`` reduced mod 2*pi into [0, 2*pi), elementwise."""
    a = np.mod(angles, TWO_PI)
    # rounding can land exactly on 2*pi
    return np.where(a >= TWO_PI, a - TWO_PI, a)


@dataclass(frozen=True, slots=True)
class Configuration:
    """Sorted angles in [0, 2*pi); cyclic indexing, coincident points allowed."""

    angles: Tuple[float, ...]

    def __init__(self, angles: Iterable[float]):
        a = np.fromiter(angles, float)
        if not a.size:
            raise ValueError("configuration needs at least one point")
        if not np.isfinite(a).all():
            raise ValueError("angles must be finite")
        object.__setattr__(self, "angles", tuple(np.sort(_wrap(a)).tolist()))

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def angle_array(self) -> np.ndarray:
        return np.array(self.angles)

    @property
    def gaps(self) -> Tuple[float, ...]:
        """Counterclockwise arc lengths between cyclically consecutive points.

        Nonnegative and summing to 2*pi; a single point has one gap of 2*pi.
        """
        return tuple(_gap_rows(self.angle_array).tolist())


def _gap_rows(angles: np.ndarray) -> np.ndarray:
    """Counterclockwise gaps of sorted angles, along the last axis."""
    gaps = np.empty_like(angles)
    gaps[..., :-1] = angles[..., 1:] - angles[..., :-1]
    gaps[..., -1] = angles[..., 0] + TWO_PI - angles[..., -1]
    return gaps


def equally_spaced(n: int) -> Configuration:
    """``n`` equally spaced points, the first at angle 0."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Configuration(TWO_PI * k / n for k in range(n))


def _signed_wrap(w):
    """``w`` shifted by a multiple of 2*pi into [-pi, pi].

    Exact for |w| <= pi, so a tiny difference of two angles is never rounded
    to a multiple of the spacing of floats near pi.
    """
    return w - TWO_PI * np.rint(w / TWO_PI)


def config_from_gaps(gaps: Sequence[float], anchor: float = 0.0) -> Configuration:
    """Configuration with the given gap vector, first point at ``anchor``.

    The gaps must be finite, nonnegative and sum to 2*pi (within 1e-9).
    """
    g = np.asarray(gaps, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("gaps must be a nonempty vector")
    return Configuration(_angle_rows(g[None], anchor)[0])


def _angle_rows(gaps: np.ndarray, anchor: float) -> np.ndarray:
    """Sorted angles in [0, 2*pi) of the configurations with the gap rows
    ``gaps`` ``(k, n)``, each with its first gap starting at ``anchor``.

    Raises ``ValueError`` unless every gap is finite and nonnegative and
    every row sums to 2*pi (within 1e-9).
    """
    if not np.isfinite(gaps).all():
        raise ValueError(f"gaps must be finite, got {gaps!r}")
    if (gaps < -ANGLE_TOL).any():
        raise ValueError("gaps must be nonnegative")
    sums = gaps.sum(axis=1)
    if (np.abs(sums - TWO_PI) > 1e-9).any():
        raise ValueError(f"gaps must sum to 2*pi, got {sums!r}")
    angles = np.zeros_like(gaps)
    np.cumsum(gaps[:, :-1], axis=1, out=angles[:, 1:])
    return np.sort(_wrap(anchor + angles))


# --- serialization -------------------------------------------------------

def config_from_json(text: str, units: str = "radians") -> Configuration:
    """Configuration from a JSON array of numbers; ``ValueError`` for any
    other entry, ``true``, ``"1"``, ``null`` or an array among them."""
    values = json.loads(text)
    if not isinstance(values, list):
        raise ValueError("expected a JSON array of angles")
    for v in values:
        # json gives a number as exactly int or float; a bool is an int
        if type(v) not in (int, float):
            raise ValueError("expected a JSON array of numbers, "
                             f"got {json.dumps(v)}")
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

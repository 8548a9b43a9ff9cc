"""Independent reference for circle potentials and their minima.

Shares no code with circlepol.  The kernels are written from their chord
formulas, ``(2 sin(d/2))**-s`` and ``-log(2 sin(d/2))``, with ``d`` the
signed angle difference (``|sin|`` makes the geodesic fold unnecessary).
Each gap between consecutive nodes is minimized by bisection on the
analytic derivative: the potential is convex on a gap (the paper's lemma),
so its derivative increases from -inf to +inf there and has one root.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# elements per (points x nodes) evaluation block, to bound memory
_BLOCK = 1 << 20

# bisection stops once every bracket is this share of its gap, or a few
# ulps wide where the gap is too short for that
_BRACKET_SHARE = 2.0 ** -44
_BRACKET_ULPS = 4.0


def parse_kernel(label: str) -> tuple[str, float]:
    """``"riesz:<s>"`` or ``"log"`` as ``(kind, s)``."""
    if label == "log":
        return "log", 0.0
    kind, _, s = label.partition(":")
    if kind != "riesz" or not s or float(s) <= 0.0:
        raise ValueError(f"oracle knows riesz:<s> (s > 0) and log, not {label!r}")
    return "riesz", float(s)


def _terms(kind: str, s: float, delta: np.ndarray) -> np.ndarray:
    chord = 2.0 * np.abs(np.sin(0.5 * delta))
    return chord ** -s if kind == "riesz" else -np.log(chord)


def _slope_terms(kind: str, s: float, delta: np.ndarray) -> np.ndarray:
    # d/dz of each term: -(s/2) chord**-s cot(delta/2) for riesz and
    # -(1/2) cot(delta/2) for log, with delta = z - node
    half = 0.5 * delta
    cot = np.cos(half) / np.sin(half)
    if kind == "riesz":
        return -0.5 * s * (2.0 * np.abs(np.sin(half))) ** -s * cot
    return -0.5 * cot


def _row_sums(fn, kind, s, nodes, z) -> tuple[np.ndarray, np.ndarray]:
    # sum and sum of absolute values of fn over the nodes, for each z
    nodes = np.asarray(nodes, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    sums, abs_sums = np.empty(z.size), np.empty(z.size)
    step = max(1, _BLOCK // max(1, nodes.size))
    for i in range(0, z.size, step):
        block = fn(kind, s, z[i:i + step, None] - nodes[None, :])
        sums[i:i + step] = block.sum(axis=1)
        abs_sums[i:i + step] = np.abs(block).sum(axis=1)
    return sums, abs_sums


def potential(label: str, nodes, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Potential at each angle in ``z``, with the sums rounding grows with.

    Returns ``(values, abs_terms, abs_slopes)``: the potential, the sum of
    the absolute kernel terms and the sum of the absolute derivatives of
    the terms with respect to the angle.
    """
    kind, s = parse_kernel(label)
    values, abs_terms = _row_sums(_terms, kind, s, nodes, z)
    _, abs_slopes = _row_sums(_slope_terms, kind, s, nodes, z)
    return values, abs_terms, abs_slopes


def slope(label: str, nodes, z) -> np.ndarray:
    """Derivative of the potential with respect to the evaluation angle."""
    kind, s = parse_kernel(label)
    return _row_sums(_slope_terms, kind, s, nodes, z)[0]


def arc_minima(label: str, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer and minimum on every gap of ``nodes`` (distinct angles)."""
    a = np.sort(np.asarray(nodes, dtype=float) % TWO_PI)
    b = np.append(a[1:], a[0] + TWO_PI)
    if not (b > a).all():
        raise ValueError("oracle needs distinct nodes")
    lo, hi = a.copy(), b.copy()
    width = np.maximum(_BRACKET_SHARE * (b - a), _BRACKET_ULPS * np.spacing(b))
    while ((hi - lo) > width).any():
        mid = 0.5 * (lo + hi)
        falling = slope(label, a, mid) < 0.0
        lo = np.where(falling, mid, lo)
        hi = np.where(falling, hi, mid)
    z = 0.5 * (lo + hi)
    kind, s = parse_kernel(label)
    return z % TWO_PI, _row_sums(_terms, kind, s, a, z)[0]


def polarization(label: str, nodes) -> tuple[float, float]:
    """Minimum of the potential over the circle, as ``(argmin, value)``."""
    z, values = arc_minima(label, nodes)
    best = int(np.argmin(values))
    return float(z[best]), float(values[best])


def equal_spacing_value(label: str, n: int) -> float:
    """Polarization of ``n`` equally spaced points: the potential at a gap midpoint."""
    nodes = TWO_PI * np.arange(n) / n
    values, _, _ = potential(label, nodes, [math.pi / n])
    return float(values[0])

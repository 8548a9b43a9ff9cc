"""Discrete potentials and their minima over the circle.

The potential of a configuration at a point is the sum of kernel values of
the geodesic distances to every node.  For nonincreasing convex kernels the
potential restricted to one gap between consecutive nodes is convex, since
the geodesic distance is concave inside a gap.  Its derivative therefore
changes sign once on the gap, so each gap is searched by bisecting the sign
of the derivative, and the global minimum (the polarization of the
configuration) is the best of the per-gap minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .circle_config import ANGLE_TOL, TWO_PI, Configuration, _signed_wrap
from .kernels import Kernel

__all__ = [
    "WITNESS_TOL",
    "PolarizationResult",
    "potential_values",
    "minimum_on_arc",
    "polarization",
    "potential_profile",
]

# two minima within this absolute tolerance of the best are all reported
WITNESS_TOL = 1e-9

# plus this many units of rounding per node, relative to the best value:
# congruent arcs of an n-term sum differ by a few n * eps * |value|
_WITNESS_ROUNDING = 32 * np.finfo(float).eps

# halvings of each arc's bracket: the minimizer lands within 2**-33 of the
# arc, and near the minimum the value moves by the square of that
_BISECTIONS = 32

# chunk large evaluation batches to bound memory (floats per distance matrix)
_CHUNK_BUDGET = 4_000_000


def potential_values(kernel: Kernel, config: Configuration, z) -> np.ndarray:
    """Potential of ``config`` under ``kernel`` at each angle in ``z``.

    Values at a node of a singular kernel are ``+inf``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _row_sums(_potential_terms, kernel, config.angle_array, z)


def _row_sums(terms, kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``terms(kernel, nodes, z)`` summed over the nodes, in bounded chunks."""
    n = nodes.size
    if z.size * n <= _CHUNK_BUDGET:
        return terms(kernel, nodes, z).sum(axis=-1)
    flat = z.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, _CHUNK_BUDGET // n)
    for i in range(0, flat.size, step):
        out[i:i + step] = terms(kernel, nodes, flat[i:i + step]).sum(axis=-1)
    return out.reshape(z.shape)


def _potential_terms(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    return kernel.eval(np.abs(_signed_wrap(z[..., None] - nodes)))


def _slope_terms(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f'(d(z, x)) sign(z - x) for each probe ``z`` (rows) and node ``x``.

    A row sums to the derivative of the potential at ``z``; negated, it is
    the gradient of a gap minimum at ``z`` in the node positions (Danskin).
    f' is a central difference with a step relative to d, one-sided at 0
    and pi.  The fixed step at d = 0 serves kernels with a finite f(0) only:
    a probe on a node of a singular kernel gives NaN.  Raises
    ``ValueError`` when the kernel yields NaN.
    """
    w = _signed_wrap(z[..., None] - nodes)
    d = np.abs(w)
    h = 6e-6 * np.where(d > 0.0, d, 1e-3)
    lo = np.maximum(d - h, 0.0)
    hi = np.minimum(d + h, math.pi)
    f_lo, f_hi = kernel.eval(lo), kernel.eval(hi)
    if np.isnan(f_lo).any() or np.isnan(f_hi).any():
        raise ValueError("kernel returned NaN")
    return (f_hi - f_lo) / (hi - lo) * np.sign(w)


@dataclass(frozen=True)
class PolarizationResult:
    """Minimum of the potential over the circle, with where it is attained.

    ``witnesses`` lists every per-gap minimizer whose value is within
    ``WITNESS_TOL`` plus the rounding of an n-term sum of the best, sorted by
    angle.  ``per_arc_minima`` records ``(gap_index, angle, value)`` for
    each nondegenerate gap.
    """

    value: float
    witnesses: Tuple[float, ...]
    per_arc_minima: Tuple[Tuple[int, float, float], ...]


def _minimize_on_arcs(
    kernel: Kernel,
    nodes: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize the potential on each node-free arc ``[starts, starts + lengths]``.

    The potential is convex on such an arc, so its derivative changes sign
    once there.  Every bracket is halved ``_BISECTIONS`` times on the sign
    of the derivative at its midpoint, all arcs at once, and the potential
    is evaluated at the final midpoints.  A bracket whose midpoint rounds
    onto one of its ends stops, so no probe lands on a node.  Returns the
    minimizing angles (wrapped to [0, 2*pi)) and the minimum values.
    Raises ``ValueError`` when the kernel yields NaN at any evaluated point.
    """
    ends = starts + lengths
    lo, hi = starts.copy(), ends.copy()
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        live = np.nonzero((lo < mid) & (mid < hi))[0]
        if live.size == 0:
            break
        # next to both ends of a tiny arc the kernel or its slope can
        # overflow; inf - inf gives no direction, so that bracket stays put
        with np.errstate(invalid="ignore", over="ignore"):
            slope = _row_sums(_slope_terms, kernel, nodes, mid[live])
        up, down = live[slope >= 0.0], live[slope < 0.0]
        hi[up] = mid[up]
        lo[down] = mid[down]
    # the midpoint of a bracket one float wide rounds onto an end, which may
    # be a node: keep it inside wherever the arc has an interior float
    z = np.clip(0.5 * (lo + hi), np.nextafter(starts, ends),
                np.nextafter(ends, starts))
    values = _row_sums(_potential_terms, kernel, nodes, z)
    if np.isnan(values).any():
        raise ValueError("kernel returned NaN inside an arc")
    return z % TWO_PI, values


def minimum_on_arc(
    kernel: Kernel,
    config: Configuration,
    start: float,
    length: float,
) -> Tuple[float, float]:
    """Minimize the potential over the arc from ``start`` spanning ``length``.

    Returns ``(angle, value)``, the angle in [0, 2*pi); gap ``k`` of
    ``config`` is the arc from ``config.angles[k]`` spanning
    ``config.gaps[k]``.  A zero-length arc evaluates the single point.
    Raises ``ValueError`` on a non-finite or negative arc, or when a node of
    ``config`` lies inside the arc, more than ``ANGLE_TOL`` from both ends:
    the potential need not be convex there.
    """
    if not (math.isfinite(start) and 0.0 <= length < math.inf):
        raise ValueError(f"need finite start, length >= 0: {start!r}, {length!r}")
    offsets = (config.angle_array - start) % TWO_PI
    if ((offsets > ANGLE_TOL) & (offsets < length - ANGLE_TOL)).any():
        raise ValueError("a node of the configuration lies inside the arc")
    xs, vs = _minimize_on_arcs(
        kernel,
        config.angle_array,
        np.array([float(start)]),
        np.array([float(length)]),
    )
    return float(xs[0]), float(vs[0])


def polarization(kernel: Kernel, config: Configuration) -> PolarizationResult:
    """Global minimum of the potential over the whole circle.

    Zero-length gaps contribute no candidates (their endpoints lie on the
    closure of the neighbouring gaps), so coincident points are handled
    naturally.
    """
    nodes = config.angle_array
    gaps = np.asarray(config.gaps)
    live = np.nonzero(gaps > 0.0)[0]
    xs, vs = _minimize_on_arcs(kernel, nodes, nodes[live], gaps[live])
    per_arc = tuple(zip(live.tolist(), xs.tolist(), vs.tolist()))

    value = float(vs.min())
    tol = WITNESS_TOL + _WITNESS_ROUNDING * config.n * abs(value)
    witnesses = tuple(sorted(x for _, x, v in per_arc if v - value <= tol))
    return PolarizationResult(value=value, witnesses=witnesses,
                              per_arc_minima=per_arc)


def potential_profile(
    kernel: Kernel,
    config: Configuration,
    resolution: int,
) -> np.ndarray:
    """Potential sampled at ``resolution`` equally spaced angles.

    Returns an array of shape ``(resolution, 2)`` with columns
    ``(angle, value)``; the grid starts at angle 0.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    zs = TWO_PI * np.arange(resolution) / resolution
    vals = _row_sums(_potential_terms, kernel, config.angle_array, zs)
    return np.column_stack([zs, vals])

"""Discrete potentials and their minima over the circle.

The potential of a configuration at a point is the sum of kernel values of
the geodesic distances to every node.  For nonincreasing convex kernels the
potential restricted to one gap between consecutive nodes is unimodal, so
each gap is searched by coarse sampling plus golden-section refinement and
the global minimum (the polarization of the configuration) is the best of
the per-gap minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .circle_config import TWO_PI, Configuration
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

# coarse samples per arc, and the cap on golden-section steps after them
_SAMPLES = 64
_REFINE_ITERS = 200

# stop refining a bracket once it is this short
_BRACKET_TOL = 1e-12

# keep evaluations off the nodes of a singular kernel
_ENDPOINT_OFFSET = 1e-9

# chunk large evaluation batches to bound memory (floats per distance matrix)
_CHUNK_BUDGET = 4_000_000

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI


def potential_values(kernel: Kernel, config: Configuration, z) -> np.ndarray:
    """Potential of ``config`` under ``kernel`` at each angle in ``z``.

    Values at a node of a singular kernel are ``+inf``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _potential_at(kernel, config.angle_array, z)


def _potential_at(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    n = nodes.size
    if z.size * n <= _CHUNK_BUDGET:
        return _potential_block(kernel, nodes, z)
    flat = z.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, _CHUNK_BUDGET // n)
    for i in range(0, flat.size, step):
        out[i:i + step] = _potential_block(kernel, nodes, flat[i:i + step])
    return out.reshape(z.shape)


def _potential_block(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    d = np.abs(z[..., None] - nodes) % TWO_PI
    np.minimum(d, TWO_PI - d, out=d)
    return kernel.eval(d).sum(axis=-1)


@dataclass(frozen=True)
class PolarizationResult:
    """Minimum of the potential over the circle, with where it is attained.

    ``witnesses`` lists every refined per-gap minimizer whose value is within
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
    """Minimize the potential on each arc ``[starts, starts + lengths]``.

    All arcs advance in lockstep: one coarse sampling pass, then
    golden-section steps applied to every bracket at once.  Returns the
    minimizing angles (wrapped to [0, 2*pi)) and the minimum values.
    Raises ``ValueError`` when the kernel yields NaN at any evaluated point.
    """
    offset = lengths * (_ENDPOINT_OFFSET if kernel.singular else 0.0)
    lo = starts + offset
    span = lengths - 2.0 * offset
    ts = np.linspace(0.0, 1.0, _SAMPLES)
    grid = lo[:, None] + span[:, None] * ts[None, :]
    values = _potential_at(kernel, nodes, grid)
    rows = np.arange(starts.size)
    best = np.argmin(values, axis=1)
    best_x = grid[rows, best]
    best_v = values[rows, best]

    # bracket the coarse minimum by its neighbours and refine
    a = grid[rows, np.maximum(best - 1, 0)]
    b = grid[rows, np.minimum(best + 1, _SAMPLES - 1)]
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = _potential_at(kernel, nodes, c)
    fd = _potential_at(kernel, nodes, d)
    # the comparisons below silently drop a NaN probe; np.minimum keeps it
    probed = np.minimum(fc, fd)
    for _ in range(_REFINE_ITERS):
        if h.max() <= _BRACKET_TOL:
            break
        keep_left = fc < fd
        a = np.where(keep_left, a, c)
        b = np.where(keep_left, d, b)
        h = b - a
        new_x = a + np.where(keep_left, _INVPHI2, _INVPHI) * h
        new_f = _potential_at(kernel, nodes, new_x)
        np.minimum(probed, new_f, out=probed)
        c, d = (np.where(keep_left, new_x, d),
                np.where(keep_left, c, new_x))
        fc, fd = (np.where(keep_left, new_f, fd),
                  np.where(keep_left, fc, new_f))
    if np.isnan(values).any() or np.isnan(probed).any():
        raise ValueError("kernel returned NaN inside an arc")
    refined_x = np.where(fc < fd, c, d)
    refined_v = np.minimum(fc, fd)
    take = refined_v < best_v
    best_x = np.where(take, refined_x, best_x)
    best_v = np.where(take, refined_v, best_v)
    return best_x % TWO_PI, best_v


def minimum_on_arc(
    kernel: Kernel,
    config: Configuration,
    start: float,
    length: float,
) -> Tuple[float, float]:
    """Minimize the potential over the arc from ``start`` spanning ``length``.

    Returns ``(angle, value)``; gap ``k`` of ``config`` is the arc from
    ``config.angles[k]`` spanning ``config.gaps[k]``.  A zero-length arc
    evaluates the single point.
    """
    if length == 0.0:
        return float(start), float(potential_values(kernel, config, start)[0])
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
    starts = nodes[live]
    lengths = gaps[live]

    per_arc = []
    chunk = max(1, _CHUNK_BUDGET // (_SAMPLES * max(1, config.n)))
    for i in range(0, live.size, chunk):
        xs, vs = _minimize_on_arcs(
            kernel, nodes, starts[i:i + chunk], lengths[i:i + chunk])
        per_arc.extend(
            (int(live[i + j]), float(xs[j]), float(vs[j]))
            for j in range(xs.size))

    value = min(v for _, _, v in per_arc)
    tol = WITNESS_TOL + _WITNESS_ROUNDING * config.n * abs(value)
    witnesses = tuple(sorted(x for _, x, v in per_arc if v - value <= tol))
    return PolarizationResult(value=value, witnesses=witnesses,
                              per_arc_minima=tuple(per_arc))


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
    vals = _potential_at(kernel, config.angle_array, zs)
    return np.column_stack([zs, vals])

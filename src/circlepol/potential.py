"""Discrete potentials and their minima over the circle.

The potential of a configuration at a point is the sum of kernel values of
the geodesic distances to every node.  For nonincreasing convex kernels the
potential restricted to one gap between consecutive nodes is convex, since
the geodesic distance is concave inside a gap.  Its derivative therefore
changes sign once on the gap, so each gap is searched for that sign change
by safeguarded secant steps, and the global minimum (the polarization of
the configuration) is the best of the per-gap minima.
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

# the bracket certificate: an arc is done once its bracket is at most
# 2**-_CERTIFIED_BITS of the arc wide.  The midpoint then lies within 2**-33
# of the arc of the minimizer, and near the minimum the value moves by the
# square of that.
_CERTIFIED_BITS = 32

# a slope this small against its summed absolute terms has no certain sign.
# Kernels computed from the chord carry its relative error, below 1.4 eps
# (about 2 ulp), so f(d +- h) is off by up to about 1.4 * eps * d * |f'(d)|.
# _slope_terms divides the difference of two such values by 2h = 1.2e-5 * d,
# so each term is off by up to 2.8 * eps / 1.2e-5 = 5.2e-11 of its size;
# this is twice that.
_SLOPE_NOISE = 1e-10

# (probe, node) pairs per block of a pass.  Each temporary of a block is
# then 32 KiB, so a pass stays in L2 and under glibc's 128 KiB mmap and trim
# thresholds, and touches no fresh pages.  Per n = 1024 polarization call on
# a 2-vCPU x86-64 machine: 4096 pairs took 400 ms with no minor page faults;
# 8192 took 540-620 ms with 124k faults, 32768 took 700-750 ms with 200k;
# 2048 took 500 ms, from numpy's fixed cost per call on a smaller block.
_CHUNK_BUDGET = 4096


def potential_values(kernel: Kernel, config: Configuration, z) -> np.ndarray:
    """Potential of ``config`` under ``kernel`` at each angle in ``z``.

    Values at a node of a singular kernel are ``+inf``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _row_sums(_potential_sums, kernel, config.angle_array, z)


def _row_sums(sums, kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sums(kernel, nodes, block)`` over blocks of about ``_CHUNK_BUDGET``
    (probe, node) pairs, for the probes ``z``.

    ``sums`` returns one sum per probe along its last axis; leading axes
    that stack several kinds of sums carry through to the result.  Each row
    is summed whole, so no result depends on the block size.
    """
    flat = z.reshape(-1)
    step = max(1, _CHUNK_BUDGET // nodes.size)
    if flat.size <= step:
        out = sums(kernel, nodes, flat)
    else:
        out = np.concatenate([sums(kernel, nodes, flat[i:i + step])
                              for i in range(0, flat.size, step)], axis=-1)
    return out.reshape(out.shape[:-1] + z.shape)


def _potential_sums(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    return kernel.eval(np.abs(_signed_wrap(z[:, None] - nodes))).sum(axis=-1)


def _slope_terms(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f'(d(z, x)) sign(z - x) for each probe ``z`` (rows) and node ``x``.

    A row sums to the derivative of the potential at ``z``; negated, it is
    the gradient of a gap minimum at ``z`` in the node positions (Danskin).
    f' is a central difference with a step relative to d, one-sided at 0.
    Past pi the distance folds back, so f(d + h) is f(2 pi - d - h) there
    and the quotient at pi is symmetric, giving 0 at the antipode of a node.
    The fixed step at d = 0 serves kernels with a finite f(0) only: a probe
    on a node of a singular kernel gives NaN.  Raises ``ValueError`` when
    the kernel yields NaN.
    """
    w = _signed_wrap(z[..., None] - nodes)
    d = np.abs(w)
    h = 6e-6 * np.where(d > 0.0, d, 1e-3)
    lo = np.maximum(d - h, 0.0)
    hi = d + h
    f_lo = kernel.eval(lo)
    # d + h > 0, so f(d + h) needs none of Kernel.eval's handling of 0
    f_hi = kernel.fn(np.minimum(hi, TWO_PI - hi))
    if np.isnan(f_lo).any() or np.isnan(f_hi).any():
        raise ValueError("kernel returned NaN")
    return (f_hi - f_lo) / (hi - lo) * np.sign(w)


def _slope_sums(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row sums of the slope terms at each probe, stacked over the row sums
    of their absolute values."""
    terms = _slope_terms(kernel, nodes, z)
    slope = terms.sum(axis=-1)
    # np.array builds what np.stack would at a fifth of its fixed cost,
    # which small configurations, with their many tiny passes, pay per pass
    return np.array((slope, np.abs(terms, out=terms).sum(axis=-1)))


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


def _check_hypotheses(kernel: Kernel) -> None:
    # the hypotheses the arc search rests on.  A kernel may be +inf, so
    # ``finite`` is not one of them, and strict convexity bears only on
    # uniqueness.
    report = kernel._report
    failed = [f"{name} ({check.detail})" for name, check in (
        ("non_increasing", report.non_increasing), ("convex", report.convex))
        if not check.passed]
    if failed:
        raise ValueError(f"kernel {kernel.label!r} fails "
                         + "; ".join(failed)
                         + ": the potential need not be convex on a gap")


def _minimize_on_arcs(
    kernel: Kernel,
    nodes: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize the potential on each node-free arc ``[starts, starts + lengths]``.

    The potential is convex on such an arc, so its derivative rises through
    zero once there.  Each arc keeps a bracket of that root, all arcs at
    once.  The first probe is the midpoint.  Once the derivative is known at
    both ends of a bracket, the next probe is the Anderson-Bjorck secant
    point (Anderson and Bjorck, BIT 13, 1973), at least one float inside the
    bracket; until then, the midpoint.  Like Brent's method, the engine
    halves a bracket when the secant steps stop shrinking it: after k probes
    a bracket wider than 2**(_CERTIFIED_BITS - k) of its arc is halved, so
    every arc is done within 2 * _CERTIFIED_BITS + 1 probes.  An arc is
    done, and leaves the active set, when its slope is zero or below its
    rounding noise (the argmin is that probe), when its slope is NaN (the
    probe again), or when its bracket is certified or has no float inside
    (the argmin is the bracket's midpoint, kept inside the open arc so it is
    no node).  Returns the minimizing angles (wrapped to [0, 2*pi)) and the
    minimum values.  Raises ``ValueError`` when the kernel fails the
    non_increasing or convex check of :func:`validate_kernel`, or yields NaN
    at any evaluated point.
    """
    _check_hypotheses(kernel)
    m = starts.size
    ends = starts + lengths
    lo, hi = starts.copy(), ends.copy()
    # the arc's own ends are nodes and are never probed: their slopes count
    # as unknown until a probe replaces them
    s_lo, s_hi = np.full(m, -np.inf), np.full(m, np.inf)
    hi_moved = np.zeros(m, dtype=bool)  # which end the last probe replaced
    z = np.empty(m)
    done = np.zeros(m, dtype=bool)
    certified = lengths * 2.0 ** -_CERTIFIED_BITS
    for k in range(2 * _CERTIFIED_BITS + 1):
        mid = 0.5 * (lo + hi)
        closed = ~done & ((hi - lo <= certified) | ~((lo < mid) & (mid < hi)))
        z[closed] = mid[closed]
        done |= closed
        live = np.nonzero(~done)[0]
        if live.size == 0:
            break
        a, b, fa, fb = lo[live], hi[live], s_lo[live], s_hi[live]
        # next to both ends of a tiny arc the kernel or its slope can
        # overflow; inf - inf gives no direction, so that arc stops
        with np.errstate(invalid="ignore", over="ignore"):
            p = np.clip(b - fb * ((b - a) / (fb - fa)),
                        np.nextafter(a, b), np.nextafter(b, a))
            secant = (np.isfinite(fa) & np.isfinite(fb)
                      & (b - a <= lengths[live] * 2.0 ** (_CERTIFIED_BITS - k)))
            p = np.where(secant, p, mid[live])
            slope, size = _row_sums(_slope_sums, kernel, nodes, p)
            flat = np.isnan(slope) | (np.isfinite(size)
                                      & (np.abs(slope) <= _SLOPE_NOISE * size))
            # Anderson-Bjorck: an end kept twice in a row has its slope
            # scaled down, so the next secant point moves toward it
            up = slope > 0.0
            ratio = 1.0 - slope / np.where(up, fb, fa)
            shrink = np.where(hi_moved[live] == up,
                              np.where(ratio > 0.0, ratio, 0.5), 1.0)
            s_lo[live] = np.where(up, fa * shrink, slope)
            s_hi[live] = np.where(up, slope, fb * shrink)
        z[live[flat]] = p[flat]
        done[live[flat]] = True
        lo[live] = np.where(up, a, p)
        hi[live] = np.where(up, p, b)
        hi_moved[live] = up
    rest = ~done
    z[rest] = 0.5 * (lo[rest] + hi[rest])
    # the midpoint of a bracket one float wide rounds onto an end, which may
    # be a node: keep it inside wherever the arc has an interior float
    z = np.clip(z, np.nextafter(starts, ends), np.nextafter(ends, starts))
    values = _row_sums(_potential_sums, kernel, nodes, z)
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
    vals = _row_sums(_potential_sums, kernel, config.angle_array, zs)
    return np.column_stack([zs, vals])

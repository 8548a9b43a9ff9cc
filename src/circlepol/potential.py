"""Discrete potentials and their minima over the circle.

The potential of a configuration at a point is the sum of kernel values of
the geodesic distances to every node.  For nonincreasing convex kernels the
potential restricted to one gap between consecutive nodes is convex, since
the geodesic distance is concave inside a gap.  Its derivative therefore
changes sign once on the gap, so each gap is searched for that sign change
by safeguarded Newton steps, U'' being the sum of the kernel's f'' >= 0,
or by secant steps for a kernel without ``derivatives``; the global
minimum (the polarization of the configuration) is the best of the per-gap
minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .circle_config import ANGLE_TOL, TWO_PI, Configuration, _gap_rows, _signed_wrap
from .kernels import Kernel, _require_hypotheses

__all__ = [
    "PolarizationResult",
    "potential_values",
    "minimum_on_arc",
    "polarization",
    "potential_profile",
]

# the bracket certificate: an arc is done once its bracket is at most
# 2**-_CERTIFIED_BITS of the arc wide.  The midpoint then lies within 2**-33
# of the arc of the minimizer, and near the minimum the value moves by the
# square of that.
_CERTIFIED_BITS = 32

# a slope this small against its summed absolute terms has no certain sign.
# It is set by kernels without derivatives of their own, which take the
# difference quotient of Kernel.derivative.  Values computed from the chord
# carry its relative error, below 1.4 eps (about 2 ulp), so f(d +- h) is off
# by up to about 1.4 * eps * d * |f'(d)|; divided by 2h = 1.2e-5 * d, that
# leaves each term off by up to 2.8 * eps / 1.2e-5 = 5.2e-11 of its size,
# and this is twice that.  The shipped kernels' analytic slopes are within
# a few ulp of each term, so for them an arc stops on this test only where
# U' is zero to ten digits, and the value there is the minimum to rounding.
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

    Values at a node of a singular kernel are ``+inf``.  Raises
    ``ValueError`` on a non-finite angle, before the kernel is called, and
    when the kernel yields NaN.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z!r}")
    return _values(kernel, config.angle_array[None], z,
                   np.zeros(z.size, dtype=np.intp))


def _values(kernel: Kernel, nodes: np.ndarray, z: np.ndarray,
            owner: np.ndarray) -> np.ndarray:
    # the one sum of potentials, so the one place a NaN kernel value is
    # refused.  A sum past the float range is +inf
    with np.errstate(over="ignore"):
        values = _row_sums(_potential_sums, kernel, nodes, z, owner)
    if np.isnan(values).any():
        raise ValueError("kernel returned NaN")
    return values


def _row_sums(sums, kernel: Kernel, nodes: np.ndarray, z: np.ndarray,
              owner: np.ndarray) -> np.ndarray:
    """``sums(kernel, node_rows, block)`` over blocks of about
    ``_CHUNK_BUDGET`` (probe, node) pairs, for the probes ``z``.

    ``nodes`` holds one row of node angles per configuration ``(c, n)``,
    and ``owner`` the row of each probe of ``z``, flattened; each block
    gathers the rows of its own probes.  ``sums`` returns one sum per probe
    along its last axis; leading axes that stack several kinds of sums
    carry through to the result.  Each row is summed whole, so no result
    depends on the block size or on which probes share a block.  A lone
    block is the result as it is; more are written into one output, so
    only it and one block are held at once.
    """
    flat = z.reshape(-1)
    # no probes, or rows of no nodes (the optimizer's at n = 1), make one block
    step = max(1, _CHUNK_BUDGET // max(1, nodes.shape[1]))
    out = sums(kernel, nodes[owner[:step]], flat[:step])
    if flat.size > step:
        first, out = out, np.empty(out.shape[:-1] + flat.shape, dtype=out.dtype)
        out[..., :step] = first
        for i in range(step, flat.size, step):
            out[..., i:i + step] = sums(kernel, nodes[owner[i:i + step]],
                                        flat[i:i + step])
    return out.reshape(out.shape[:-1] + z.shape)


def _potential_sums(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    return kernel.eval(np.abs(_signed_wrap(z[:, None] - nodes))).sum(axis=-1)


def _slope_terms(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f'(d(z, x)) sign(z - x) for each probe ``z`` (rows) and node ``x``.

    A row sums to the derivative of the potential at ``z``; negated, it is
    the gradient of a gap minimum at ``z`` in the node positions (Danskin).
    A node at the probe's antipode adds 0 (see :meth:`Kernel.derivative`),
    and so does a node at the probe itself, unless the kernel is singular:
    then the term is NaN.  Raises ``ValueError`` when the kernel yields NaN.
    """
    w = _signed_wrap(z[..., None] - nodes)
    return kernel.derivative(np.abs(w)) * np.sign(w)


def _slope_sums(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row sums of the slope terms at each probe, stacked over the row sums
    of their absolute values and, for a kernel with ``derivatives``, over
    the potential's second derivative, the row sums of f''(d(z, x)).  f'
    and f'' come from one call of that field."""
    if kernel.derivatives is None:
        terms, bend = _slope_terms(kernel, nodes, z), ()
    else:
        w = _signed_wrap(z[..., None] - nodes)
        slope, curvature = kernel._slope_and_curvature(np.abs(w))
        if np.isnan(slope).any() or np.isnan(curvature).any():
            raise ValueError("kernel derivatives returned NaN")
        terms, bend = slope * np.sign(w), (curvature.sum(axis=-1),)
    slope = terms.sum(axis=-1)
    # np.array builds what np.stack would at a fifth of its fixed cost,
    # which small configurations, with their many tiny passes, pay per pass
    return np.array((slope, np.abs(terms, out=terms).sum(axis=-1), *bend))


def _rounding(n: int, value: float) -> float:
    """The rounding of an n-term sum ``value`` of one sign, 32 n eps |value|.

    Summation moves a sum by about n eps times its summed absolute terms
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, sec.
    4.2), which for terms of one sign is n eps |value|; the factor 32 leaves
    room for congruent arcs whose sums round differently.  It scales with
    the kernel, so no absolute term is needed.
    """
    return 32 * np.finfo(float).eps * n * abs(value)


# one record per nondegenerate gap: its index, its minimizer and the minimum
_ARC_DTYPE = np.dtype([("gap", np.int64), ("angle", float), ("value", float)])


@dataclass(frozen=True, repr=False, slots=True)
class PolarizationResult:
    """Minimum of the potential over the circle, with where it is attained.

    Holds the point count ``n`` and one ``(gap, angle, value)`` record per
    nondegenerate gap, 24 bytes each, in the immutable buffer ``records``,
    about half the memory a numpy array per result would keep for a caller
    that holds many small results.  ``arcs`` is a read-only structured
    array over that buffer, and ``per_arc_minima`` gives the same records
    as a tuple of tuples.  ``value`` and ``witnesses`` are worked out from
    ``arcs`` on each access: ``value`` is the least per-gap minimum, and
    ``witnesses`` lists every per-gap minimizer whose value is within the
    rounding of an n-term sum of it (:func:`_rounding`), sorted by angle;
    when the least minimum is infinite, the minimizers of the gaps whose
    minimum equals it.
    """

    n: int
    records: bytes

    @property
    def arcs(self) -> np.ndarray:
        return np.frombuffer(self.records, dtype=_ARC_DTYPE)

    @property
    def value(self) -> float:
        return float(self.arcs["value"].min())

    @property
    def witnesses(self) -> Tuple[float, ...]:
        arcs = self.arcs
        vs = arcs["value"]
        value = float(vs.min())
        if math.isinf(value):
            # inf - inf has no sign: the ties are the gaps at the same inf
            close = vs == value
        else:
            close = vs - value <= _rounding(self.n, value)
        return tuple(np.sort(arcs["angle"][close]).tolist())

    @property
    def per_arc_minima(self) -> Tuple[Tuple[int, float, float], ...]:
        return tuple(self.arcs.tolist())

    def __repr__(self):
        return (f"PolarizationResult(value={self.value!r}, "
                f"witnesses={self.witnesses!r}, arcs={self.per_arc_minima!r})")


def _minimize_on_arcs(
    kernel: Kernel,
    nodes: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    owner: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize the potential on each node-free arc ``[starts, starts + lengths]``.

    ``nodes`` holds one row of node angles per configuration ``(c, n)``,
    and ``owner`` the row of each arc, so that a whole family of
    configurations is one call.  An arc's probes depend on nothing but its
    own bracket, its own nodes and the probe count, so every arc gets the
    same result bit for bit, whichever arcs it is minimized with.

    The potential is convex on such an arc, so its derivative rises through
    zero once there.  Each arc keeps a bracket of that root, all arcs at
    once.  The first probe is the midpoint.  For a kernel with
    ``derivatives`` the next probe is the Newton point p - U'(p) / U''(p)
    from the last probe p, where it lies strictly inside the bracket and the
    step is at most half the one before (``rtsafe``, *Numerical Recipes*,
    sec. 9.4).  Otherwise, once the derivative is known at both ends of a
    bracket, the next probe is the Anderson-Bjorck secant point (Anderson
    and Bjorck, BIT 13, 1973), at least one float inside the bracket; until
    then, the midpoint.  A kernel without ``derivatives`` takes exactly these
    secant and midpoint steps.  Like Brent's method, the engine halves a
    bracket when the steps stop shrinking it: after k probes a bracket
    wider than 2**(_CERTIFIED_BITS - k) of its arc is halved, Newton point
    or not, so every arc is done within 2 * _CERTIFIED_BITS + 1 probes.
    A probe whose slope is zero, below its rounding noise or NaN collapses
    the bracket onto itself.  An arc leaves the active set once its bracket
    is certified or has no float inside, and its argmin is the bracket's
    midpoint, kept inside the open arc so it is no node: for a collapsed
    bracket, the probe.  Returns the minimizing angles (wrapped to
    [0, 2*pi)) and the minimum values.  Raises ``ValueError`` when the
    kernel fails a check of :func:`validate_kernel`, or yields NaN at any
    evaluated point.
    """
    _require_hypotheses(kernel)
    m = starts.size
    ends = starts + lengths
    lo, hi = starts.copy(), ends.copy()
    # the arc's own ends are nodes and are never probed: their slopes count
    # as unknown until a probe replaces them
    s_lo, s_hi = np.full(m, -np.inf), np.full(m, np.inf)
    hi_moved = np.zeros(m, dtype=bool)  # which end the last probe replaced
    certified = lengths * 2.0 ** -_CERTIFIED_BITS
    curved = kernel.derivatives is not None
    # U'' at each arc's last probe, and the length of the step that led
    # there: the first probe, the midpoint, is half an arc from either end
    bend, moved = np.empty(m), 0.5 * lengths
    # next to both ends of a tiny arc the kernel or its slope can overflow;
    # inf - inf gives no direction, so that arc stops.  Entered once per
    # call, not per iteration: entering it costs a small array operation
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(2 * _CERTIFIED_BITS + 1):
            mid = 0.5 * (lo + hi)
            live = np.nonzero((hi - lo > certified) & (lo < mid) & (mid < hi))[0]
            if live.size == 0:
                break
            a, b, fa, fb = lo[live], hi[live], s_lo[live], s_hi[live]
            p = np.clip(b - fb * ((b - a) / (fb - fa)),
                        np.nextafter(a, b), np.nextafter(b, a))
            halve = b - a > lengths[live] * 2.0 ** (_CERTIFIED_BITS - k)
            p = np.where(np.isfinite(fa) & np.isfinite(fb) & ~halve, p, mid[live])
            if curved and k > 0:
                # rtsafe's Newton step (Numerical Recipes, sec. 9.4) from the
                # last probe, the end it replaced, whose slope is kept exact;
                # taken where it lands strictly inside the bracket and is at
                # most half as long as the step before
                last = np.where(hi_moved[live], b, a)
                t = last - np.where(hi_moved[live], fb, fa) / bend[live]
                p = np.where((a < t) & (t < b) & ~halve
                             & (np.abs(t - last) <= 0.5 * moved[live]), t, p)
                moved[live] = np.abs(p - last)
            slope, size, *u2 = _row_sums(_slope_sums, kernel, nodes, p, owner[live])
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
            lo[live] = np.where(up & ~flat, a, p)
            hi[live] = np.where(up | flat, p, b)
            hi_moved[live] = up
            if curved:
                bend[live] = u2[0]
    # the midpoint of a bracket one float wide rounds onto an end, which may
    # be a node: keep it inside wherever the arc has an interior float
    z = np.clip(0.5 * (lo + hi), np.nextafter(starts, ends),
                np.nextafter(ends, starts))
    return z % TWO_PI, _values(kernel, nodes, z, owner)


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
    the potential need not be convex there.  An arc longer than the circle
    meets every node, its start's too, a second time, 2 pi further on.
    """
    start, length = float(start), float(length)
    if not (math.isfinite(start) and 0.0 <= length < math.inf):
        raise ValueError(f"need finite start, length >= 0: {start!r}, {length!r}")
    offsets = (config.angle_array - start) % TWO_PI
    offsets = np.concatenate((offsets, offsets + TWO_PI))
    if ((offsets > ANGLE_TOL) & (offsets < length - ANGLE_TOL)).any():
        raise ValueError("a node of the configuration lies inside the arc")
    xs, vs = _minimize_on_arcs(kernel, config.angle_array[None], np.array([start]),
                               np.array([length]), np.zeros(1, dtype=np.intp))
    return float(xs[0]), float(vs[0])


def polarization(kernel: Kernel, config: Configuration) -> PolarizationResult:
    """Global minimum of the potential over the whole circle.

    Zero-length gaps contribute no candidates (their endpoints lie on the
    closure of the neighbouring gaps), so coincident points are handled
    naturally.
    """
    return _polarize_rows(kernel, config.angle_array[None])[0]


def _polarize_rows(kernel: Kernel, nodes: np.ndarray) -> List[PolarizationResult]:
    """The :func:`polarization` of each row of ``nodes`` ``(c, n)``, each
    row a configuration's sorted angles, in one engine call.

    Each result equals, bit for bit, the one of its row alone.
    """
    n = nodes.shape[1]
    gaps = _gap_rows(nodes)
    keep = gaps > 0.0
    rows, live = np.nonzero(keep)
    xs, vs = _minimize_on_arcs(kernel, nodes, nodes[keep], gaps[keep], rows)
    arcs = np.empty(live.size, dtype=_ARC_DTYPE)
    arcs["gap"], arcs["angle"], arcs["value"] = live, xs, vs
    records, size = arcs.tobytes(), _ARC_DTYPE.itemsize
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [PolarizationResult(n, records[a * size:b * size])
            for a, b in zip([0, *ends], ends)]


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
    return np.column_stack([zs, potential_values(kernel, config, zs)])

"""Kernel family for circle potentials.

A kernel is a non-increasing convex function of geodesic distance on
[0, pi], extended-real-valued at 0.  The kernels shipped here, inverse-power
(Riesz), logarithmic and negated power, are each a function of the chord
``2 sin(theta/2)`` with its exact first and second derivatives; any other
function of the distance is wrapped as ``Kernel(fn, value_at_zero)``, and
:func:`validate_kernel` sanity-checks either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .circle_config import TWO_PI

__all__ = [
    "Kernel",
    "CheckResult",
    "ValidationReport",
    "riesz_kernel",
    "log_kernel",
    "power_kernel",
    "validate_kernel",
]

INF = math.inf


@dataclass(frozen=True)
class Kernel:
    """Extended-real kernel of geodesic distance: ``Kernel(fn, value_at_zero)``
    wraps any function, and nothing is checked when it is built.

    ``fn`` must accept positive floats (scalars or numpy arrays) in
    (0, pi] and evaluate elementwise; ``value_at_zero`` is the limit of
    ``fn`` at 0 from the right, possibly ``math.inf``.  ``derivatives``,
    when given, maps the same distances to the pair ``(f', f'')`` from one
    evaluation; the shipped kernels' f' is exactly 0 at pi, where the
    distance to a node folds back, so that the potential's slope is 0 at
    the node's antipode.  With it the arc search takes Newton steps; without
    it, :meth:`derivative` takes a difference quotient of ``fn`` and the
    arc search secant steps.  The arc search rests on ``fn`` being
    non-increasing, convex and neither NaN nor -inf, and on ``derivatives``
    being its first two derivatives: it refuses a kernel whose
    :func:`validate_kernel` report fails any of these checks, and computes
    that report once per kernel.  Strict convexity, which bears only on
    whether the maximizer is unique, is read off the same report, not
    declared.

    The fields, ``fn`` included, are raw callables, which may warn where a
    value leaves the float range; :meth:`eval` and :meth:`derivative` are
    the guarded entry points, which return +-inf there and warn on nothing.
    """

    fn: Callable
    value_at_zero: float
    label: str = "custom"
    derivatives: Optional[Callable] = None

    def eval(self, theta):
        """Evaluate at distance ``theta`` >= 0; a scalar gives a numpy float."""
        return _off_zero(self.fn, theta, self.value_at_zero)

    def derivative(self, theta):
        """f' at each distance ``theta`` in [0, pi]: from ``derivatives`` if
        given, else a central difference of ``fn`` with a step relative to
        ``theta``.

        The shipped kernels' f' and the difference are 0 at pi.  At 0 it is
        -inf for a singular kernel and 0 otherwise, the symmetric derivative
        of f(|theta|), so that a node adds no slope term at a probe on it.
        Raises ``ValueError`` when the kernel yields NaN.
        """
        if self.derivatives is None:
            at_zero = -INF if self.value_at_zero == INF else 0.0
            return _off_zero(self._difference_quotient, theta, at_zero)
        slope, _ = self._slope_and_curvature(theta)
        if np.isnan(slope).any():
            raise ValueError("kernel derivatives returned NaN")
        return slope[()]

    @np.errstate(over="ignore", divide="ignore")
    def _slope_and_curvature(self, theta):
        """f' and f'' at each distance ``theta`` in [0, pi], from one
        ``derivatives`` call, as arrays of its shape; the one place the
        package calls that field.  At 0, f' is -inf for a singular kernel
        and 0 otherwise, and f'' is +inf, which gives a Newton step of 0.
        A NaN is passed on, for the caller to refuse or report.
        """
        theta = np.asarray(theta, dtype=float)
        zero = None if theta.min(initial=INF) > 0.0 else theta == 0.0
        pair = self.derivatives(theta if zero is None else np.where(zero, np.pi, theta))
        slope, bend = (v if isinstance(v, np.ndarray) and v.shape == theta.shape
                       else np.full(theta.shape, v, dtype=float) for v in pair)
        if zero is not None:
            at_zero = -INF if self.value_at_zero == INF else 0.0
            slope, bend = np.where(zero, at_zero, slope), np.where(zero, INF, bend)
        return slope, bend

    def _difference_quotient(self, d):
        # central, with a step relative to d > 0, symmetric at pi
        f_lo, f_hi, width = _folded_difference(self.fn, d, 6e-6)
        if np.isnan(f_lo).any() or np.isnan(f_hi).any():
            raise ValueError("kernel returned NaN")
        return (f_hi - f_lo) / width

    @cached_property
    def _report(self) -> ValidationReport:
        return validate_kernel(self)

    @property
    def strictly_convex(self) -> bool:
        """Whether the validator's strict midpoint check passes."""
        return self._report.strictly_convex.passed


@np.errstate(over="ignore", divide="ignore")  # half the cost of a with block
def _off_zero(fn, theta, at_zero):
    """``fn`` at each ``theta`` >= 0, and ``at_zero`` where ``theta`` is 0.

    Where no distance is 0, as in every pass but one that probes a node, an
    array ``fn`` returns is passed on, with no mask and no copy.  A value
    past the float range is +-inf, rightly, and warns on nothing.
    """
    theta = np.asarray(theta, dtype=float)
    value = None
    if theta.min(initial=INF) > 0.0:
        value = fn(theta)
        if (isinstance(value, np.ndarray) and value.ndim and value is not theta
                and value.shape == theta.shape and value.dtype == float):
            return value
    out = np.empty(theta.shape, dtype=float)
    zero = theta == 0.0
    if zero.any():
        out[zero] = at_zero
        nonzero = ~zero
        if nonzero.any():
            out[nonzero] = fn(theta[nonzero])
    else:
        out[...] = fn(theta) if value is None else value
    return out[()]


def _folded_difference(fn, d, step):
    """``fn`` at ``d - h`` and ``d + h`` for ``h = step * d``, and ``2h``.
    Past pi the distance folds back, so f(d + h) is f(2 pi - d - h) there."""
    h = step * d
    lo, hi = d - h, d + h
    return fn(lo), fn(np.minimum(hi, TWO_PI - hi)), hi - lo


def _chord(theta):
    """The chord ``2 sin(theta/2)`` on [0, pi], as ``4t / (1 + t**2)`` with
    ``t = tan(theta/4)``, and as ``theta`` itself below 1e-150.

    Within about 2 ulp of the chord (a relative error below 1.4 eps against
    40-digit mpmath, where the sine gives 0.5 eps), and exactly 2 at pi.
    numpy builds that run the float64 sine in scalar libm can still
    vectorize the tangent: on one x86-64 machine the sine took 9 ns per
    element and this whole formula about 7.
    """
    t = np.tan(0.25 * theta)
    return _theta_where_tiny(theta, 4.0 * t / (1.0 + t * t))


def _chord_and_cosine(theta):
    """The chord ``2 sin(theta/2)`` and ``cos(theta/2)`` on (0, pi], both from
    one tangent ``t = tan(theta/4)``: ``4t / (1 + t**2)`` and
    ``(1 - t**2) / (1 + t**2)``.

    The chord is :func:`_chord`'s, bit for bit.  The cosine is within a few
    ulp of 1 near 0 and off by a few units of 1e-16 near pi, where a
    perturbation of theta by one ulp moves it more; at pi itself it is set
    to exactly 0, which the tangent of the rounded pi/4 would not give.
    """
    t = np.tan(0.25 * theta)
    q = t * t
    p = 1.0 + q
    cosine = (1.0 - q) / p
    # a reduction, where a mask of every pass would cost four times as much;
    # the array method costs half what np.max does on a small block
    if np.asarray(theta).max(initial=0.0) >= np.pi:
        cosine = np.where(theta < np.pi, cosine, 0.0)
    return _theta_where_tiny(theta, 4.0 * t / p), cosine


def _theta_where_tiny(theta, chord):
    """``chord``, with ``theta`` in its place below 1e-150, where the chord
    rounds to it and the tangent of a subnormal ``0.25 * theta`` loses bits;
    the test reads the chord, which has a ``min`` method where a float has not."""
    if chord.min(initial=INF) < 1e-150:
        chord = np.where(theta < 1e-150, theta, chord)
    return chord


def _chord_kernel(value: Callable, derivatives: Callable, **fields) -> Kernel:
    """The kernel ``value(c)`` of the chord ``c``.  With ``k = cos(theta/2)``,
    the chord's derivative, and ``-c/4``, the cosine's, ``derivatives(c, k)``
    is the pair of f' = ``value'(c) k``, by the chain rule, and
    f'' = ``value''(c) k**2 - value'(c) c/4``, both from one tangent and one
    power of the chord."""
    return Kernel(fn=lambda theta: value(_chord(theta)),
                  derivatives=lambda theta: derivatives(*_chord_and_cosine(theta)),
                  **fields)


def riesz_kernel(s: float) -> Kernel:
    """Inverse s-power of the chord length, ``(2 sin(theta/2))**(-s)``.

    Requires a finite ``s > 0``; use :func:`power_kernel` or
    :func:`log_kernel` for the other classical problems.
    """
    s = float(s)
    if not 0.0 < s < INF:
        raise ValueError(f"riesz kernel needs finite s > 0, got {s} "
                         "(use power_kernel or log_kernel instead)")

    def derivatives(c, cos):
        # f'' = s c**(-s-2) ((s + 1) cos**2 + c**2 / 4) = s c**(-s-2) (s cos**2 + 1)
        power = c ** (-s - 1.0)
        slope = -s * cos * power
        return slope, s * (power - cos * slope) / c
    return _chord_kernel(lambda c: c ** -s, derivatives,
                         value_at_zero=INF, label=f"riesz:{s:g}")


def log_kernel() -> Kernel:
    """Logarithmic kernel ``-log(2 sin(theta/2))`` (log of inverse chord).

    Bounded below by ``-log 2``; adding the constant ``log 2`` would make it
    nonnegative without changing any minimizer or optimal configuration.
    """
    def derivatives(c, cos):
        slope = -cos / c
        return slope, 0.25 + slope * slope
    return _chord_kernel(lambda c: -np.log(c), derivatives,
                         value_at_zero=INF, label="log")


def power_kernel(alpha: float) -> Kernel:
    """Negated chord power ``-(2 sin(theta/2))**alpha`` for ``0 < alpha <= 1``.

    The negation turns the classical min-max chord-sum problem into the
    max-min convention used by the rest of the package.  ``alpha > 1`` is
    rejected: the negated kernel stops being convex there.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"power kernel needs alpha in (0, 1], got {alpha}")

    def derivatives(c, cos):
        power = c ** (alpha - 1.0)
        slope = -alpha * cos * power
        if alpha == 1.0:
            # the cosine's term is 0, and 0 * c**-1 would be NaN where c**-1
            # overflows, at subnormal distances
            return slope, 0.25 * c
        return slope, alpha * (power / c) * (0.25 * c * c + (1.0 - alpha) * cos * cos)
    return _chord_kernel(lambda c: -(c ** alpha), derivatives,
                         value_at_zero=0.0, label=f"power:{alpha:g}")


@dataclass(frozen=True, slots=True)
class CheckResult:
    passed: bool
    detail: str = ""
    # first violating sample pair (theta_1, theta_2), when applicable
    witness: Optional[Tuple[float, float]] = None


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Grid check of kernel structure (a sanity gate, not a proof); a failed
    ``strictly_convex`` is a measurement, not one of the ``failures``."""

    label: str
    finite: CheckResult
    non_increasing: CheckResult
    convex: CheckResult
    strictly_convex: CheckResult
    slope: Optional[CheckResult]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> Tuple[str, ...]:
        named = ((name, getattr(self, name))
                 for name in ("finite", "non_increasing", "convex", "slope"))
        return tuple(name for name, c in named if c is not None and not c.passed)


REL_TOL = 1e-12

# the validator's grid: (0, pi] in _GRID_SIZE equal steps
_GRID_SIZE = 1024

# a declared f' must lie within SLOPE_TOL of a central difference of fn,
# relative to that difference and beyond the REL_TOL rounding of the two
# values it takes.  Its step, _SLOPE_STEP * theta, keeps the truncation
# error below 2e-7 of the slope for riesz:1000; the shipped slopes agree to
# 1e-6 or better, the worst next to pi, where f' tends to 0
SLOPE_TOL = 1e-4
_SLOPE_STEP = 1e-6


def _scale_tol(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # relative, so that a report does not change when the kernel is scaled;
    # floored at the smallest normal float, below which a value has no
    # relative precision left
    return np.maximum(REL_TOL * np.maximum(np.abs(a), np.abs(b)),
                      np.finfo(float).tiny)


def validate_kernel(kernel: Kernel) -> ValidationReport:
    """Check the theorem's hypotheses on a uniform grid of (0, pi], 1024
    points ending at pi.

    ``finite`` fails on a NaN or -inf value; +inf is allowed.  Monotonicity
    is checked on consecutive grid values, convexity by the midpoint test on
    consecutive grid triples.  Strict convexity is measured, not asked: it
    needs a positive midpoint margin wherever the midpoint value is finite,
    and its failure is left out of ``failures`` and ``ok``.  Declared
    ``derivatives`` are the ``slope`` check: their f' must be <= 0 and not
    NaN, non-decreasing, and within ``SLOPE_TOL`` of the central difference
    of ``fn`` with step ``_SLOPE_STEP * theta``, folded back past pi like
    the distance, and their f'' not NaN, >= 0 and within ``SLOPE_TOL`` of
    the same difference of f', one-sided at pi, where f' stops; where a
    difference is not finite, as where ``fn`` overflows, it is skipped.
    Each check reports its first failing grid point.

    Every tolerance is 1e-12 of the values compared, floored at the smallest
    normal float, with no absolute term: the hypotheses hold for c f when
    they hold for f (c > 0), and a kernel scaled by a power of two gets the
    same report wherever its values stay normal.
    """
    theta = np.pi * np.arange(1, _GRID_SIZE + 1) / _GRID_SIZE
    v = kernel.eval(theta)  # +inf past the float range, as the hypotheses allow
    # uniform grid: theta[i+1] is the midpoint of (theta[i], theta[i+2])
    a, mid, b = v[:-2], v[1:-1], v[2:]
    # each check is a list of (bad mask, witness span, detail); a detail is
    # formatted from the columns at the first bad index i, with t and u the
    # witness ends theta[i] and theta[i + span]
    with np.errstate(invalid="ignore", over="ignore"):
        avg = 0.5 * (a + b)
        columns = {"v": v, "next": v[1:], "avg": avg}
        checks = {
            "finite": [(np.isnan(v) | (v == -INF), 0,
                        "value {v:.6g} at theta={t:.6g}")],
            "non_increasing": [(v[1:] > v[:-1] + _scale_tol(v[:-1], v[1:]), 1,
                                "f({t:.6g})={v:.6g} < f({u:.6g})={next:.6g}")],
            "convex": [(mid > avg + _scale_tol(a, b), 2,
                        "midpoint convexity fails on ({t:.6g}, {u:.6g}): "
                        "f(mid)={next:.6g} > {avg:.6g}")],
            # no margin shows between values past the float range
            "strictly_convex": [(~(mid < avg) & (mid != INF), 2,
                                 "no strict midpoint margin on ({t:.6g}, {u:.6g})")],
            "slope": None,
        }
        if kernel.derivatives is not None:
            # f' stops at pi: its difference is one-sided there
            lo = theta - _SLOPE_STEP * theta
            hi = np.minimum(theta + _SLOPE_STEP * theta, np.pi)
            (s, s_lo, s_hi), (d2, _, _) = kernel._slope_and_curvature(
                np.stack((theta, lo, hi)))
            f_lo, f_hi, width = _folded_difference(kernel.fn, theta, _SLOPE_STEP)
            q, r = (f_hi - f_lo) / width, (s_hi - s_lo) / (hi - lo)
            columns.update(s=s, q=q, d2=d2, r=r)
            checks["slope"] = [
                (np.isnan(s) | (s > 0.0), 0, "slope {s:.6g} at theta={t:.6g}"),
                (np.concatenate(([False], s[1:] < s[:-1] - _scale_tol(s[:-1], s[1:]))),
                 0, "slope {s:.6g} at theta={t:.6g} is below the one before it"),
                (np.isfinite(q) & ~(np.abs(s - q) <= SLOPE_TOL * np.abs(q)
                                    + _scale_tol(f_lo, f_hi) / width), 0,
                 "slope {s:.6g} at theta={t:.6g}, where fn's difference "
                 "quotient is {q:.6g}"),
                (np.isnan(d2) | (d2 < 0.0), 0, "curvature {d2:.6g} at theta={t:.6g}"),
                (np.isfinite(r) & ~(np.abs(d2 - r) <= SLOPE_TOL * np.abs(r)
                                    + _scale_tol(s_lo, s_hi) / (hi - lo)), 0,
                 "curvature {d2:.6g} at theta={t:.6g}, where slope's "
                 "difference quotient is {r:.6g}"),
            ]
    return ValidationReport(label=kernel.label, **{
        name: None if rows is None else _first_failure(rows, theta, columns)
        for name, rows in checks.items()})


def _first_failure(rows, theta: np.ndarray, columns: dict) -> CheckResult:
    """The first bad index of the first row with one as a failed check."""
    for bad, span, detail in rows:
        if bad.any():
            i = int(np.argmax(bad))
            t, u = theta[i], theta[i + span]
            at = {k: c[i] for k, c in columns.items() if i < c.size}
            return CheckResult(False, detail.format(t=t, u=u, **at),
                               (float(t), float(u)))
    return CheckResult(True)


def _require_hypotheses(kernel: Kernel) -> None:
    """Raise ``ValueError`` naming, with its detail, each check that the
    kernel's report fails; the report is computed once per kernel."""
    report = kernel._report
    failed = "; ".join(f"{name} ({getattr(report, name).detail})"
                       for name in report.failures)
    if failed:
        raise ValueError(f"kernel {kernel.label!r} fails {failed}: "
                         "the arc search needs a finite, non-increasing, "
                         "convex kernel whose slope and curvature are its "
                         "derivatives")

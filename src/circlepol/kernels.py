"""Kernel family for circle potentials.

A kernel is a non-increasing convex function of geodesic distance on
[0, pi], extended-real-valued at 0.  The concrete kernels shipped here are
the inverse-power (Riesz) kernel of the chord length, the logarithmic
kernel, and a negated chord-power kernel, each with its exact derivative;
arbitrary kernels can be wrapped with :func:`custom_kernel` and
sanity-checked with :func:`validate_kernel`.
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
    "custom_kernel",
    "validate_kernel",
]

INF = math.inf


@dataclass(frozen=True)
class Kernel:
    """Extended-real kernel of geodesic distance.

    ``fn`` must accept positive floats (scalars or numpy arrays) in
    (0, pi] and evaluate elementwise; ``value_at_zero`` is the limit of
    ``fn`` at 0 from the right, possibly ``math.inf``.  ``slope``, when
    given, is f' on (0, pi] in the same form; the shipped kernels' slopes
    are exactly 0 at pi, where the distance to a node folds back, so that
    the potential's slope is 0 at the node's antipode.  Without it,
    :meth:`derivative` takes a difference quotient of ``fn``.  The arc
    search rests on ``fn`` being non-increasing and convex, and on ``slope``
    being its derivative: it refuses a kernel whose :func:`validate_kernel`
    report fails any of these checks, and computes that report once per
    kernel.
    """

    fn: Callable
    value_at_zero: float
    strictly_convex: bool = True
    label: str = "custom"
    slope: Optional[Callable] = None

    def eval(self, theta):
        """Evaluate at distance ``theta`` >= 0; a scalar gives a numpy float."""
        return _off_zero(self.fn, theta, self.value_at_zero)

    def __call__(self, theta):
        return self.eval(theta)

    def derivative(self, theta):
        """f' at each distance ``theta`` in [0, pi]: ``slope`` if given, else
        a central difference of ``fn`` with a step relative to ``theta``.

        The shipped slopes and the difference are 0 at pi.  At 0 it is -inf
        for a singular kernel and 0 otherwise, the symmetric derivative of
        f(|theta|), so that a node adds no slope term at a probe on it.
        Raises ``ValueError`` when the kernel yields NaN.
        """
        at_zero = -INF if self.value_at_zero == INF else 0.0
        if self.slope is None:
            return _off_zero(self._difference_quotient, theta, at_zero)
        out = _off_zero(self.slope, theta, at_zero)
        if np.isnan(out).any():
            raise ValueError("kernel slope returned NaN")
        return out

    def _difference_quotient(self, d):
        # central, with a step relative to d > 0.  Past pi the distance folds
        # back, so f(d + h) is f(2 pi - d - h) there and the quotient at pi
        # is symmetric, giving 0 at the antipode of a node
        h = 6e-6 * d
        lo = d - h
        hi = d + h
        f_lo = self.fn(lo)
        f_hi = self.fn(np.minimum(hi, TWO_PI - hi))
        if np.isnan(f_lo).any() or np.isnan(f_hi).any():
            raise ValueError("kernel returned NaN")
        return (f_hi - f_lo) / (hi - lo)

    @cached_property
    def _report(self) -> ValidationReport:
        return validate_kernel(self)


def _off_zero(fn, theta, at_zero):
    """``fn`` at each ``theta`` >= 0, and ``at_zero`` where ``theta`` is 0.

    Where no distance is 0, as in every pass but one that probes a node, an
    array ``fn`` returns is passed on, with no mask and no copy.
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


def _chord(theta):
    """The chord ``2 sin(theta/2)`` on [0, pi], as ``4t / (1 + t**2)`` with
    ``t = tan(theta/4)``.

    Within about 2 ulp of the chord (a relative error below 1.4 eps against
    40-digit mpmath, where the sine gives 0.5 eps), and exactly 2 at pi.
    numpy builds that run the float64 sine in scalar libm can still
    vectorize the tangent: on one x86-64 machine the sine took 9 ns per
    element and this whole formula about 7.
    """
    t = np.tan(0.25 * theta)
    return 4.0 * t / (1.0 + t * t)


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
    # a reduction, where a mask of every pass would cost four times as much
    if np.max(theta, initial=0.0) >= np.pi:
        cosine = np.where(theta < np.pi, cosine, 0.0)
    return 4.0 * t / p, cosine


def riesz_kernel(s: float) -> Kernel:
    """Inverse s-power of the chord length, ``(2 sin(theta/2))**(-s)``.

    Requires ``s > 0``; use :func:`power_kernel` or :func:`log_kernel` for
    the other classical problems.
    """
    s = float(s)
    if not s > 0:
        raise ValueError(f"riesz kernel needs s > 0, got {s} "
                         "(use power_kernel or log_kernel instead)")

    def fn(theta):
        return _chord(theta) ** (-s)

    def slope(theta):
        chord, cosine = _chord_and_cosine(theta)
        return (-s) * cosine * chord ** (-s - 1.0)

    return Kernel(fn=fn, value_at_zero=INF, label=f"riesz:{s:g}", slope=slope)


def log_kernel() -> Kernel:
    """Logarithmic kernel ``-log(2 sin(theta/2))`` (log of inverse chord).

    Bounded below by ``-log 2``; adding the constant ``log 2`` would make it
    nonnegative without changing any minimizer or optimal configuration.
    """

    def fn(theta):
        return -np.log(_chord(theta))

    def slope(theta):
        chord, cosine = _chord_and_cosine(theta)
        return -cosine / chord

    return Kernel(fn=fn, value_at_zero=INF, label="log", slope=slope)


def power_kernel(alpha: float) -> Kernel:
    """Negated chord power ``-(2 sin(theta/2))**alpha`` for ``0 < alpha <= 1``.

    The negation turns the classical min-max chord-sum problem into the
    max-min convention used by the rest of the package.  ``alpha > 1`` is
    rejected: the negated kernel stops being convex there.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"power kernel needs alpha in (0, 1], got {alpha}")

    def fn(theta):
        return -(_chord(theta) ** alpha)

    def slope(theta):
        chord, cosine = _chord_and_cosine(theta)
        return (-alpha) * cosine * chord ** (alpha - 1.0)

    return Kernel(
        fn=fn,
        value_at_zero=0.0,
        strictly_convex=alpha < 1.0,
        label=f"power:{alpha:g}",
        slope=slope,
    )


def custom_kernel(
    fn: Callable,
    value_at_zero: float,
    strictly_convex: bool = False,
    label: str = "custom",
) -> Kernel:
    """Wrap a caller-supplied function on (0, pi] as a :class:`Kernel`.

    Nothing is verified here; the arc search checks the kernel with
    :func:`validate_kernel` on first use.  Its slope is a difference
    quotient; ``Kernel(..., slope=...)`` declares an exact one.
    """
    return Kernel(
        fn=fn,
        value_at_zero=float(value_at_zero),
        strictly_convex=strictly_convex,
        label=label,
    )


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""
    # first violating sample pair (theta_1, theta_2), when applicable
    witness: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class ValidationReport:
    """Grid check of kernel structure (a sanity gate, not a proof)."""

    label: str
    grid_size: int
    finite: CheckResult
    non_increasing: CheckResult
    convex: CheckResult
    strictly_convex: Optional[CheckResult]
    slope: Optional[CheckResult]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> Tuple[str, ...]:
        named = (
            ("finite", self.finite),
            ("non_increasing", self.non_increasing),
            ("convex", self.convex),
            ("strictly_convex", self.strictly_convex),
            ("slope", self.slope),
        )
        return tuple(name for name, c in named if c is not None and not c.passed)


REL_TOL = 1e-12

# a declared slope must lie within SLOPE_TOL of a central difference of fn,
# relative to that difference and beyond the REL_TOL rounding of the two
# values it takes.  Its step, _SLOPE_STEP * theta, keeps the truncation
# error below 2e-7 of the slope for riesz:1000; the shipped slopes agree to
# 1e-6 or better, the worst next to pi, where the slope tends to 0
SLOPE_TOL = 1e-4
_SLOPE_STEP = 1e-6


def _scale_tol(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def validate_kernel(kernel: Kernel, grid_size: int = 1024) -> ValidationReport:
    """Check the theorem's hypotheses on a uniform grid of (0, pi].

    ``finite`` fails on a NaN or -inf value; +inf is allowed.  Monotonicity
    is checked on consecutive grid values, convexity by the midpoint test on
    consecutive grid triples (relative tolerance 1e-12); strict convexity,
    when the kernel declares it, also requires a positive midpoint margin
    wherever the midpoint value is finite.  A declared ``slope`` must be
    <= 0, non-decreasing, and within ``SLOPE_TOL`` of a central difference
    of ``fn`` (see :func:`_check_slope`).
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")

    theta = np.pi * np.arange(1, grid_size + 1) / grid_size
    # a value past the float range is +inf, which the hypotheses allow
    with np.errstate(over="ignore"):
        values = kernel.eval(theta)

    bad = np.isnan(values) | (values == -INF)
    if not bad.any():
        finite = CheckResult(True)
    else:
        i = int(np.argmax(bad))
        finite = CheckResult(False, f"value {values[i]!r} at theta={theta[i]!r}",
                             (float(theta[i]), float(theta[i])))

    strictly_convex = None
    if kernel.strictly_convex:
        strictly_convex = _check_midpoint_convexity(theta, values, strict=True)

    return ValidationReport(
        label=kernel.label,
        grid_size=grid_size,
        finite=finite,
        non_increasing=_check_monotone(theta, values),
        convex=_check_midpoint_convexity(theta, values, strict=False),
        strictly_convex=strictly_convex,
        slope=None if kernel.slope is None else _check_slope(kernel, theta),
    )


def _check_monotone(theta: np.ndarray, values: np.ndarray) -> CheckResult:
    a, b = values[:-1], values[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        bad = b > a + _scale_tol(a, b)
    if bad.any():
        i = int(np.argmax(bad))
        return CheckResult(
            False,
            f"f({theta[i]:.6g})={values[i]:.6g} < f({theta[i + 1]:.6g})="
            f"{values[i + 1]:.6g}",
            (float(theta[i]), float(theta[i + 1])),
        )
    return CheckResult(True)


def _check_midpoint_convexity(theta: np.ndarray, values: np.ndarray,
                              strict: bool) -> CheckResult:
    # uniform grid: theta[i+1] is the midpoint of (theta[i], theta[i+2])
    a, mid, b = values[:-2], values[1:-1], values[2:]
    with np.errstate(invalid="ignore", over="ignore"):
        avg = 0.5 * (a + b)
        # no margin shows between values past the float range
        bad = (~(mid < avg) & (mid != INF) if strict
               else mid > avg + _scale_tol(a, b))
    if not bad.any():
        return CheckResult(True)
    i = int(np.argmax(bad))
    if strict:
        detail = (f"no strict midpoint margin on ({theta[i]:.6g}, "
                  f"{theta[i + 2]:.6g})")
    else:
        detail = (f"midpoint convexity fails on ({theta[i]:.6g}, "
                  f"{theta[i + 2]:.6g}): f(mid)={mid[i]:.6g} > {avg[i]:.6g}")
    return CheckResult(False, detail, (float(theta[i]), float(theta[i + 2])))


def _check_slope(kernel: Kernel, theta: np.ndarray) -> CheckResult:
    """The declared slope against the shape of ``fn`` on the grid ``theta``.

    It must be <= 0 and not NaN, non-decreasing (relative tolerance 1e-12),
    and within ``SLOPE_TOL`` of the central difference of ``fn`` with step
    ``_SLOPE_STEP * theta``, folded back past pi like the distance.  Where
    that difference is not finite, as where ``fn`` overflows, it is skipped.
    """
    h = _SLOPE_STEP * theta
    lo, hi = theta - h, theta + h
    with np.errstate(invalid="ignore", over="ignore"):
        slope = np.asarray(kernel.slope(theta), dtype=float)
        f_lo, f_hi = kernel.fn(lo), kernel.fn(np.minimum(hi, TWO_PI - hi))
        quotient = (f_hi - f_lo) / (hi - lo)
        off = np.abs(slope - quotient)
        allowed = SLOPE_TOL * np.abs(quotient) + _scale_tol(f_lo, f_hi) / (hi - lo)
        failures = (
            (np.isnan(slope) | (slope > 0.0), "slope {s:.6g} at theta={t:.6g}"),
            (np.concatenate(([False], slope[1:] < slope[:-1]
                             - _scale_tol(slope[:-1], slope[1:]))),
             "slope {s:.6g} at theta={t:.6g} is below the one before it"),
            (np.isfinite(quotient) & ~(off <= allowed),
             "slope {s:.6g} at theta={t:.6g}, where fn's difference "
             "quotient is {q:.6g}"),
        )
    for bad, detail in failures:
        if bad.any():
            i = int(np.argmax(bad))
            return CheckResult(False, detail.format(s=slope[i], t=theta[i],
                                                    q=quotient[i]),
                               (float(theta[i]), float(theta[i])))
    return CheckResult(True)

"""Kernel family for circle potentials.

A kernel is a non-increasing convex function of geodesic distance on
[0, pi], extended-real-valued at 0.  The concrete kernels shipped here are
the inverse-power (Riesz) kernel of the chord length, the logarithmic
kernel, and a negated chord-power kernel; arbitrary kernels can be wrapped
with :func:`custom_kernel` and sanity-checked with :func:`validate_kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

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
    ``fn`` at 0 from the right, possibly ``math.inf``.  The arc search
    rests on ``fn`` being non-increasing and convex: it refuses a kernel
    whose :func:`validate_kernel` report fails either check, and computes
    that report once per kernel.
    """

    fn: Callable
    value_at_zero: float
    strictly_convex: bool = True
    label: str = "custom"

    def eval(self, theta):
        """Evaluate at distance ``theta`` >= 0; a scalar gives a numpy float."""
        theta = np.asarray(theta, dtype=float)
        out = np.empty(theta.shape, dtype=float)
        zero = theta == 0.0
        if zero.any():
            out[zero] = self.value_at_zero
            nonzero = ~zero
            if nonzero.any():
                out[nonzero] = self.fn(theta[nonzero])
        else:
            out[...] = self.fn(theta)
        return out[()]

    def __call__(self, theta):
        return self.eval(theta)

    @cached_property
    def _report(self) -> ValidationReport:
        return validate_kernel(self)


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

    return Kernel(fn=fn, value_at_zero=INF, label=f"riesz:{s:g}")


def log_kernel() -> Kernel:
    """Logarithmic kernel ``-log(2 sin(theta/2))`` (log of inverse chord).

    Bounded below by ``-log 2``; adding the constant ``log 2`` would make it
    nonnegative without changing any minimizer or optimal configuration.
    """

    def fn(theta):
        return -np.log(_chord(theta))

    return Kernel(fn=fn, value_at_zero=INF, label="log")


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

    return Kernel(
        fn=fn,
        value_at_zero=0.0,
        strictly_convex=alpha < 1.0,
        label=f"power:{alpha:g}",
    )


def custom_kernel(
    fn: Callable,
    value_at_zero: float,
    strictly_convex: bool = False,
    label: str = "custom",
) -> Kernel:
    """Wrap a caller-supplied function on (0, pi] as a :class:`Kernel`.

    Nothing is verified here; the arc search checks the kernel with
    :func:`validate_kernel` on first use.
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

    @property
    def ok(self) -> bool:
        checks = (self.finite, self.non_increasing, self.convex,
                  self.strictly_convex)
        return all(c.passed for c in checks if c is not None)

    @property
    def failures(self) -> Tuple[str, ...]:
        named = (
            ("finite", self.finite),
            ("non_increasing", self.non_increasing),
            ("convex", self.convex),
            ("strictly_convex", self.strictly_convex),
        )
        return tuple(name for name, c in named if c is not None and not c.passed)


REL_TOL = 1e-12


def _scale_tol(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def validate_kernel(kernel: Kernel, grid_size: int = 1024) -> ValidationReport:
    """Check the theorem's hypotheses on a uniform grid of (0, pi].

    Monotonicity is checked on consecutive grid values, convexity by the
    midpoint test on consecutive grid triples (relative tolerance 1e-12);
    strict convexity, when the kernel declares it, also requires a positive
    midpoint margin.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")

    theta = np.pi * np.arange(1, grid_size + 1) / grid_size
    # a value past the float range is +inf, which the hypotheses allow
    with np.errstate(over="ignore"):
        values = kernel.eval(theta)

    finite_mask = np.isfinite(values)
    if finite_mask.all():
        finite = CheckResult(True)
    else:
        i = int(np.argmin(finite_mask))
        finite = CheckResult(False, f"non-finite value at theta={theta[i]!r}",
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
        bad = ~(mid < avg) if strict else mid > avg + _scale_tol(a, b)
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

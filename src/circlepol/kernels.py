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
    ``fn`` at 0 from the right, possibly ``math.inf``.  The three flags
    declare structure that is assumed, not enforced, at construction;
    :func:`validate_kernel` checks them on a grid.
    """

    fn: Callable
    value_at_zero: float
    non_increasing: bool = True
    convex: bool = True
    strictly_convex: bool = True
    label: str = "custom"

    def eval(self, theta):
        """Evaluate at geodesic distance ``theta`` (scalar or ndarray, >= 0)."""
        if np.ndim(theta) == 0:
            t = float(theta)
            if t == 0.0:
                return self.value_at_zero
            return float(self.fn(t))
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
        return out

    def __call__(self, theta):
        return self.eval(theta)


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
        return (2.0 * np.sin(theta / 2.0)) ** (-s)

    return Kernel(fn=fn, value_at_zero=INF, label=f"riesz:{s:g}")


def log_kernel() -> Kernel:
    """Logarithmic kernel ``-log(2 sin(theta/2))`` (log of inverse chord).

    Bounded below by ``-log 2``; adding the constant ``log 2`` would make it
    nonnegative without changing any minimizer or optimal configuration.
    """

    def fn(theta):
        return -np.log(2.0 * np.sin(theta / 2.0))

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
        return -((2.0 * np.sin(theta / 2.0)) ** alpha)

    return Kernel(
        fn=fn,
        value_at_zero=0.0,
        strictly_convex=alpha < 1.0,
        label=f"power:{alpha:g}",
    )


def custom_kernel(
    fn: Callable,
    value_at_zero: float,
    non_increasing: bool = True,
    convex: bool = True,
    strictly_convex: bool = False,
    label: str = "custom",
) -> Kernel:
    """Wrap a caller-supplied function on (0, pi] as a :class:`Kernel`.

    Flags are recorded as declared; nothing is verified here.  Run
    :func:`validate_kernel` to check them on a grid.
    """
    return Kernel(
        fn=fn,
        value_at_zero=float(value_at_zero),
        non_increasing=non_increasing,
        convex=convex,
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
    """Grid check of declared kernel structure (a sanity gate, not a proof)."""

    label: str
    grid_size: int
    finite: CheckResult
    non_increasing: Optional[CheckResult]
    convex: Optional[CheckResult]
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
    """Check the declared flags on a uniform grid of (0, pi].

    Monotonicity is checked on consecutive grid values, convexity by the
    midpoint test on consecutive grid triples (relative tolerance 1e-12);
    strict convexity additionally requires a positive midpoint margin.
    """
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")

    theta = np.pi * np.arange(1, grid_size + 1) / grid_size
    values = kernel.eval(theta)

    finite_mask = np.isfinite(values)
    if finite_mask.all():
        finite = CheckResult(True)
    else:
        i = int(np.argmin(finite_mask))
        finite = CheckResult(False, f"non-finite value at theta={theta[i]!r}",
                             (float(theta[i]), float(theta[i])))

    non_increasing = None
    if kernel.non_increasing:
        non_increasing = _check_monotone(theta, values)

    convex = None
    strictly_convex = None
    if kernel.convex:
        convex = _check_midpoint_convexity(theta, values, strict=False)
        if kernel.strictly_convex:
            strictly_convex = _check_midpoint_convexity(theta, values, strict=True)

    return ValidationReport(
        label=kernel.label,
        grid_size=grid_size,
        finite=finite,
        non_increasing=non_increasing,
        convex=convex,
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

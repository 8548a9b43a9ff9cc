"""Search over n-point configurations for maximal polarization.

The polarization P = min_j m_j is the least of the per-gap minima m_j of the
potential, and the optimum is where all m_j are equal.  The search pins the
first point at angle 0 and takes Newton steps on that max-min optimality
condition (Demyanov and Malozemov, *Introduction to Minimax*, 1974): the
gradient of each m_j follows from its minimizer by Danskin's theorem, and a
least-squares solve equalizes the linearized m_j.  Restart 0 always starts
from equal gaps, so the known optimum is never lost to a bad restart.  A
perturbation harness checks that equal spacing is a strict maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .circle_config import TWO_PI, Configuration, config_from_gaps, equally_spaced
from .kernels import Kernel
from .potential import (_WITNESS_ROUNDING, _polarize_rows, _slope_terms,
                        polarization)

__all__ = [
    "OptimizeOptions",
    "OptimizeResult",
    "RestartRecord",
    "StrictnessReport",
    "project_gaps",
    "maximize_polarization",
    "perturbation_test",
]


@dataclass(frozen=True)
class OptimizeOptions:
    restarts: int = 8
    max_iters: int = 2000  # accepted ascent steps per restart
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be at least 0")


@dataclass(frozen=True)
class RestartRecord:
    start_gaps: Tuple[float, ...]
    value: float
    iterations: int


@dataclass(frozen=True)
class OptimizeResult:
    best_config: Configuration
    best_value: float
    per_restart: Tuple[RestartRecord, ...]
    converged_to_equal_spacing: bool
    seed: int

    def to_dict(self) -> dict:
        return {
            "best_angles": list(self.best_config.angles),
            "best_gaps": list(self.best_config.gaps),
            "best_value": self.best_value,
            "converged_to_equal_spacing": self.converged_to_equal_spacing,
            "seed": self.seed,
            "per_restart": [
                {"start_gaps": list(r.start_gaps), "value": r.value,
                 "iterations": r.iterations}
                for r in self.per_restart
            ],
        }


def project_gaps(x: np.ndarray) -> np.ndarray:
    """Nearest valid gap vector: clip negatives, rescale to sum 2*pi.

    Raises ``ValueError`` on a non-finite entry.
    """
    g = np.asarray(x, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError(f"gaps must be finite, got {g!r}")
    g = np.clip(g, 0.0, None)
    total = g.sum()
    if total <= 0.0:
        return np.full(g.size, TWO_PI / g.size)
    return g * (TWO_PI / total)


# a step that raises no value after this many halvings ends the ascent
_HALVINGS = 30


def _ascend(kernel: Kernel, start: np.ndarray,
            max_iters: int) -> Tuple[Configuration, float, int]:
    """Raise P = min_j m_j from the gap vector ``start`` by equalizing the m_j.

    m_j is the minimum of the potential on gap j, attained at z_j.  By
    Danskin's theorem dm_j/dx_k = -f'(d(z_j, x_k)) sign(z_j - x_k), with the
    difference wrapped to [-pi, pi].  With x_0 pinned at 0, each step solves
    the linearized equalization m_j + grad m_j . dx = t by least squares.
    The ascent stops once t exceeds P by no more than the rounding of an
    n-term sum, or when no gap's equation is finite; otherwise dx is halved
    until every gap stays positive and P strictly rises.  Returns the final
    configuration, P and the number of accepted steps.
    """
    config = config_from_gaps(start)
    result = polarization(kernel, config)
    value = result.value
    for iters in range(max_iters):
        x = config.angle_array
        arcs = result.arcs
        z, m = arcs["angle"], arcs["value"]
        # a value or slope past the float range is infinite, as in the
        # engine.  Unit rows: else lstsq's cutoff drops every equation but
        # the one of a tiny gap, whose m_j and slopes are huge under a
        # singular kernel
        with np.errstate(over="ignore"):
            grad = -_slope_terms(kernel, x[1:], z)
            system = np.column_stack([grad, -np.ones(m.size)])
            scale = np.linalg.norm(system, axis=1)
        # a row past the float range, in m_j, the gradient or its norm,
        # belongs to a tiny gap whose minimum is far above P: it is left out
        rows = np.isfinite(m) & np.isfinite(scale)
        if not rows.any():
            return config, value, iters
        step, *_ = np.linalg.lstsq(system[rows] / scale[rows, None],
                                   -m[rows] / scale[rows], rcond=None)
        rounding = _WITNESS_ROUNDING * config.n * abs(value)
        if step[-1] - value <= rounding:
            return config, value, iters
        dx = step[:-1]
        for _ in range(_HALVINGS + 1):
            moved = np.concatenate(([0.0], x[1:] + dx))
            if (np.diff(moved, append=TWO_PI) > 0.0).all():
                trial = Configuration(moved)
                trial_result = polarization(kernel, trial)
                trial_value = trial_result.value
                if trial_value > value:
                    break
            dx = dx / 2.0
        else:
            return config, value, iters
        config, result, value = trial, trial_result, trial_value
    return config, value, max_iters


def maximize_polarization(
    kernel: Kernel,
    n: int,
    opts: Optional[OptimizeOptions] = None,
) -> OptimizeResult:
    """Best polarization over n-point configurations from restarted ascents.

    Restart 0 starts from equal gaps, the others from gap vectors drawn from
    a symmetric Dirichlet with the seeded generator.  Deterministic for fixed
    inputs; ties go to the earlier restart.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    opts = opts or OptimizeOptions()
    rng = np.random.default_rng(opts.seed)
    records = []
    best_config, best_value = None, -np.inf
    for r in range(opts.restarts):
        start = (np.full(n, TWO_PI / n) if r == 0
                 else rng.dirichlet(np.ones(n)) * TWO_PI)
        config, value, iters = _ascend(kernel, start, opts.max_iters)
        records.append(RestartRecord(start_gaps=tuple(float(g) for g in start),
                                     value=float(value), iterations=iters))
        if value > best_value:
            best_config, best_value = config, value
    deviation = max(abs(g - TWO_PI / n) for g in best_config.gaps)
    return OptimizeResult(
        best_config=best_config,
        best_value=float(best_value),
        per_restart=tuple(records),
        converged_to_equal_spacing=bool(deviation < 1e-6),
        seed=opts.seed,
    )


@dataclass(frozen=True)
class StrictnessReport:
    """Outcome of perturbing equal gaps: does the polarization really drop?"""

    n: int
    magnitude: float
    trials: int
    equal_value: float
    non_negative_count: int  # trials whose perturbed value >= equal value
    min_deficit: float       # smallest equal_value - perturbed_value seen
    max_deficit: float
    strict_expected: bool    # false = non-strictly-convex kernel warning

    @property
    def all_strictly_below(self) -> bool:
        return self.non_negative_count == 0


def perturbation_test(
    kernel: Kernel,
    n: int,
    magnitude: float,
    trials: int,
    seed: int = 0,
) -> StrictnessReport:
    """Perturb equal gaps ``trials`` times and compare polarizations.

    Each trial jitters every gap by a uniform amount up to ``magnitude``
    and renormalizes the sum; for strictly convex kernels every perturbed
    configuration must score strictly below equal spacing.  Equal spacing
    and every trial are minimized in one engine call.
    """
    if n < 2:
        raise ValueError("perturbation needs n >= 2")
    if not 0.0 < magnitude < (TWO_PI / n) / 4.0:
        raise ValueError(
            f"magnitude must lie in (0, {(TWO_PI / n) / 4.0!r}), got {magnitude!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    rows = [equally_spaced(n).angles]
    rows += [config_from_gaps(project_gaps(
        TWO_PI / n + rng.uniform(-magnitude, magnitude, n))).angles
        for _ in range(trials)]
    # the equal gaps and every trial are n-point configurations: one call
    equal, *perturbed = _polarize_rows(kernel, np.array(rows))
    equal_value = equal.value
    deficits = np.array([equal_value - r.value for r in perturbed])
    return StrictnessReport(
        n=n,
        magnitude=magnitude,
        trials=trials,
        equal_value=float(equal_value),
        non_negative_count=int((deficits <= 0.0).sum()),
        min_deficit=float(deficits.min()),
        max_deficit=float(deficits.max()),
        strict_expected=kernel.strictly_convex,
    )

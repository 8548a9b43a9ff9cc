"""Derivative-free search over n-point configurations: maximal polarization
and, as a small-n sanity check, minimal pairwise energy.

The search space is the simplex of gap vectors (n nonnegative reals summing
to 2*pi) with the rotation gauge fixed by putting the first point at angle 0.
Iterates are projected onto the simplex (clip negatives, rescale the sum),
and a standard simplex-reflection pattern search runs from several starts;
the first start is always the equal-gap vector, so the known optimum is
never lost to a bad restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .circle_config import TWO_PI, Configuration, config_from_gaps, equally_spaced
from .energy import config_energy
from .kernels import Kernel
from .potential import polarization

__all__ = [
    "OptimizeOptions",
    "OptimizeResult",
    "RestartRecord",
    "StrictnessReport",
    "nelder_mead",
    "project_gaps",
    "maximize_polarization",
    "energy_numeric_min",
    "perturbation_test",
]


@dataclass(frozen=True)
class OptimizeOptions:
    restarts: int = 8
    max_iters: int = 2000
    tol: float = 1e-10  # simplex diameter stop
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


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
    """Nearest valid gap vector: clip negatives, rescale to sum 2*pi."""
    g = np.clip(np.asarray(x, dtype=float), 0.0, None)
    total = g.sum()
    if total <= 0.0:
        return np.full(g.size, TWO_PI / g.size)
    return g * (TWO_PI / total)


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    step: float,
    max_iters: int,
    tol: float,
) -> Tuple[np.ndarray, float, int]:
    """Minimize ``fn`` by the usual reflect/expand/contract/shrink simplex.

    Stops when the simplex diameter falls below ``tol`` (or the vertex
    values agree to machine-level spread) or after ``max_iters`` iterations.
    Returns ``(best_x, best_f, iterations)``.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    if dim < 1:
        raise ValueError("need at least one coordinate")
    verts = [x0]
    for i in range(dim):
        v = x0.copy()
        v[i] += step
        verts.append(v)
    simplex = np.array(verts)
    values = np.array([fn(v) for v in simplex])

    iters = 0
    while iters < max_iters:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        diameter = np.abs(simplex[1:] - simplex[0]).max()
        spread = values[-1] - values[0]
        if diameter < tol or spread < 1e-13 * max(1.0, abs(values[0])):
            break
        iters += 1

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = fn(reflected)
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = fn(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
        else:
            contracted = centroid + 0.5 * (worst - centroid)
        f_contracted = fn(contracted)
        if f_contracted < min(f_reflected, values[-1]):
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        # shrink toward the best vertex
        for i in range(1, dim + 1):
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            values[i] = fn(simplex[i])

    best = int(np.argmin(values))
    return simplex[best].copy(), float(values[best]), iters


def _restarted_search(
    objective: Callable[[np.ndarray], float],
    n: int,
    opts: OptimizeOptions,
) -> Tuple[np.ndarray, float, list]:
    """Minimize ``objective`` over gap vectors by restarted Nelder-Mead.

    Restart 0 always starts from equal gaps; the remaining starts are drawn
    from a symmetric Dirichlet on the gap simplex with the seeded generator.
    Returns the projected gaps of the lowest final value (ties go to the
    earlier restart), that value, and ``(start, value, iterations)`` for
    every restart.
    """
    rng = np.random.default_rng(opts.seed)
    equal = np.full(n, TWO_PI / n)
    runs = []
    best_gaps: Optional[np.ndarray] = None
    best_value = np.inf
    for r in range(opts.restarts):
        start = equal if r == 0 else rng.dirichlet(np.ones(n)) * TWO_PI
        x, value, iters = nelder_mead(objective, start, step=0.2 * TWO_PI / n,
                                      max_iters=opts.max_iters, tol=opts.tol)
        runs.append((start, value, iters))
        if value < best_value:
            best_value = value
            best_gaps = project_gaps(x)
    assert best_gaps is not None
    return best_gaps, float(best_value), runs


def maximize_polarization(
    kernel: Kernel,
    n: int,
    opts: Optional[OptimizeOptions] = None,
) -> OptimizeResult:
    """Best polarization over n-point configurations found by restarted search.

    Deterministic for fixed inputs; ties go to the earlier restart.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    opts = opts or OptimizeOptions()

    def objective(x: np.ndarray) -> float:
        return -polarization(kernel, config_from_gaps(project_gaps(x))).value

    best_gaps, best_f, runs = _restarted_search(objective, n, opts)
    best_config = config_from_gaps(best_gaps)
    deviation = max(abs(g - TWO_PI / n) for g in best_config.gaps)
    return OptimizeResult(
        best_config=best_config,
        best_value=-best_f,
        per_restart=tuple(
            RestartRecord(start_gaps=tuple(float(g) for g in start),
                          value=float(-f), iterations=iters)
            for start, f, iters in runs),
        converged_to_equal_spacing=bool(deviation < 1e-6),
        seed=opts.seed,
    )


def energy_numeric_min(
    s: float,
    n: int,
    opts: Optional[OptimizeOptions] = None,
) -> Tuple[Configuration, float]:
    """Minimize the pairwise energy by direct search over gap vectors.

    Small-n sanity check that equally spaced points minimize the energy;
    first point pinned at angle 0.  Returns the best configuration found
    and its energy.
    """
    if not 2 <= n <= 12:
        raise ValueError(f"supported range is 2 <= n <= 12, got {n!r}")

    def objective(x: np.ndarray) -> float:
        return config_energy(s, config_from_gaps(project_gaps(x)))

    best_gaps, best_value, _ = _restarted_search(
        objective, n, opts or OptimizeOptions())
    return config_from_gaps(best_gaps), best_value


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
    configuration must score strictly below equal spacing.
    """
    if n < 2:
        raise ValueError("perturbation needs n >= 2")
    if not 0.0 < magnitude < (TWO_PI / n) / 4.0:
        raise ValueError(
            f"magnitude must lie in (0, {(TWO_PI / n) / 4.0!r}), got {magnitude!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    equal_value = polarization(kernel, equally_spaced(n)).value
    deficits = np.empty(trials)
    for t in range(trials):
        gaps = project_gaps(TWO_PI / n + rng.uniform(-magnitude, magnitude, n))
        value = polarization(kernel, config_from_gaps(gaps)).value
        deficits[t] = equal_value - value
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

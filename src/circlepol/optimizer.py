"""Search over n-point configurations for maximal polarization.

The polarization P = min_j m_j is the least of the per-gap minima m_j of the
potential, and the optimum is where all m_j are equal.  The search pins the
first point at angle 0 and takes Newton steps on that max-min optimality
condition (Demyanov and Malozemov, *Introduction to Minimax*, 1974): the
gradient of each m_j follows from its minimizer by Danskin's theorem, and a
least-squares solve equalizes the linearized m_j.  Restart 0 always starts
from ``equally_spaced(n)``, so the known optimum is never lost.  A
perturbation harness checks that equal spacing is a strict maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .circle_config import TWO_PI, Configuration, _angle_rows, equally_spaced
from .kernels import Kernel
from .potential import _polarize_rows, _rounding, _row_sums, _slope_terms

__all__ = [
    "OptimizeOptions",
    "OptimizeResult",
    "RestartRecord",
    "StrictnessReport",
    "maximize_polarization",
    "perturbation_test",
]


@dataclass(frozen=True)
class OptimizeOptions:
    restarts: int = 8
    max_iters: int = 2000  # accepted ascent steps per restart
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, slots=True)
class RestartRecord:
    start_gaps: Tuple[float, ...]
    value: float
    iterations: int


@dataclass(frozen=True, slots=True)
class OptimizeResult:
    """The best configuration found, its polarization, and every restart.

    ``records`` is one immutable buffer of float64 rows, one per restart in
    order, each ``(value, iterations, *start_gaps)``, ``n + 2`` floats for
    the ``n`` points of ``best_config``: about a third of the memory that a
    tuple of :class:`RestartRecord` per result would keep for a caller that
    holds many results.  ``per_restart`` builds that tuple on each access.
    """

    best_config: Configuration
    best_value: float
    records: bytes
    seed: int

    @property
    def per_restart(self) -> Tuple[RestartRecord, ...]:
        rows = np.frombuffer(self.records).reshape(-1, self.best_config.n + 2)
        return tuple(RestartRecord(start_gaps=tuple(row[2:].tolist()),
                                   value=float(row[0]), iterations=int(row[1]))
                     for row in rows)

    @property
    def converged_to_equal_spacing(self) -> bool:
        """Every best gap lies within 1e-6 of the equal gap 2 pi / n."""
        n = self.best_config.n
        return max(abs(g - TWO_PI / n) for g in self.best_config.gaps) < 1e-6

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


# a step that raises no value after this many halvings ends the ascent
_HALVINGS = 30


def _ascend(kernel: Kernel, angles: np.ndarray,
            max_iters: int) -> Tuple[np.ndarray, List[float], List[int]]:
    """Raise P = min_j m_j from each row of sorted angles ``angles``, the
    first 0, by equalizing the m_j; the rows are updated in place.

    m_j is the minimum of the potential on gap j, attained at z_j.  By
    Danskin's theorem dm_j/dx_k = -f'(d(z_j, x_k)) sign(z_j - x_k), with the
    difference wrapped to [-pi, pi].  With x_0 pinned at 0, each step solves
    the linearized equalization m_j + grad m_j . dx = t by least squares.
    The ascent stops once t exceeds P by no more than the rounding of an
    n-term sum, or when no gap's equation is finite; otherwise dx is halved
    until every gap stays positive and P strictly rises.

    The restarts run in lockstep, each with its own step and halving count,
    and each leaves the rounds when its own ascent stops.  Each round, one
    slope pass gives the gradients of every restart that needs a new step,
    and one engine call minimizes every live restart's trial, a fresh step
    or its next halving.  The engine's rows and the slope terms are
    independent of each other, so a restart takes the steps it would take
    alone.  Returns the final angle rows, the values P and the numbers of
    accepted steps.
    """
    results = _polarize_rows(kernel, angles)
    values = [r.value for r in results]
    iters = [0] * len(results)
    steps = [None] * len(results)  # each restart's next step, and its halvings
    halved = [0] * len(results)
    live = range(len(results))
    while live:
        fresh = [r for r in live if steps[r] is None and iters[r] < max_iters]
        for r, step in zip(fresh, _steps(kernel, angles, results, values, fresh)):
            steps[r], halved[r] = step, 0
        trials = []
        for r in live:
            while steps[r] is not None and halved[r] <= _HALVINGS:
                moved = np.concatenate(([0.0], angles[r, 1:] + steps[r]))
                if (np.diff(moved, append=TWO_PI) > 0.0).all():
                    trials.append((r, moved))
                    break
                steps[r], halved[r] = steps[r] / 2.0, halved[r] + 1
        live = [r for r, _ in trials]
        if not live:
            break
        # a trial's gaps from 0 to 2 pi are positive, so its angles are
        # sorted and in [0, 2 pi): the engine takes it as a row, as it is
        for (r, moved), result in zip(trials, _polarize_rows(
                kernel, np.array([moved for _, moved in trials]))):
            if result.value > values[r]:
                angles[r], results[r], values[r] = moved, result, result.value
                iters[r], steps[r] = iters[r] + 1, None
            else:
                steps[r], halved[r] = steps[r] / 2.0, halved[r] + 1
    return angles, values, iters


def _steps(kernel: Kernel, angles: np.ndarray, results: list, values: list,
           which: List[int]) -> List[Optional[np.ndarray]]:
    """The step dx of each restart in ``which`` (see :func:`_ascend`), or
    None where its ascent stops."""
    if not which:
        return []
    arcs = [results[r].arcs for r in which]
    sizes = [a.size for a in arcs]
    z = np.concatenate([a["angle"] for a in arcs])
    # a node one ulp from a minimizer gives -inf * 0: a NaN row, left out below
    with np.errstate(invalid="ignore"):
        grads = _row_sums(_gradient_rows, kernel, angles[:, 1:], z,
                          np.repeat(which, sizes)).T
    n = angles.shape[1]
    out = []
    for r, a, grad in zip(which, arcs, np.split(grads, np.cumsum(sizes)[:-1])):
        m, value = a["value"], values[r]
        # unit rows: else lstsq's cutoff drops every equation but the one of
        # a tiny gap, whose m_j and slopes are huge under a singular kernel.
        # Row-major, whatever grad's layout: the norm sums in memory order
        system = np.full((m.size, n), -1.0)
        system[:, :-1] = grad
        with np.errstate(over="ignore"):
            scale = np.linalg.norm(system, axis=1)
        # a row past the float range, in m_j, the gradient or its norm,
        # belongs to a tiny gap whose minimum is far above P: it is left out
        rows = np.isfinite(m) & np.isfinite(scale)
        if not rows.any():
            out.append(None)
            continue
        step, *_ = np.linalg.lstsq(system[rows] / scale[rows, None],
                                   -m[rows] / scale[rows], rcond=None)
        out.append(None if step[-1] - value <= _rounding(n, value) else step[:-1])
    return out


def _gradient_rows(kernel: Kernel, nodes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """grad m_j, one column per gap minimizer ``z``: the negated slope terms."""
    return -_slope_terms(kernel, nodes, z)[0].T


def maximize_polarization(
    kernel: Kernel,
    n: int,
    opts: Optional[OptimizeOptions] = None,
) -> OptimizeResult:
    """Best polarization over n-point configurations from restarted ascents.

    Restart 0 starts from ``equally_spaced(n)``, the others from gap vectors
    drawn from a symmetric Dirichlet with the seeded generator.  Deterministic
    for fixed inputs; ties go to the earlier restart.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n!r}")
    opts = opts or OptimizeOptions()
    rng = np.random.default_rng(opts.seed)
    starts = np.array([np.full(n, TWO_PI / n)] + [
        rng.dirichlet(np.ones(n)) * TWO_PI for _ in range(opts.restarts - 1)])
    angles = _angle_rows(starts, 0.0)
    angles[0] = equally_spaced(n).angle_array
    angles, values, iters = _ascend(kernel, angles, opts.max_iters)
    best = int(np.argmax(values))  # the first of equal values
    return OptimizeResult(
        best_config=Configuration(angles[best]),
        best_value=float(values[best]),
        records=np.column_stack([values, iters, starts]).tobytes(),
        seed=opts.seed,
    )


@dataclass(frozen=True, slots=True)
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
    # every trial's jitter in one draw: the stream of one draw of n per trial
    jitter = np.random.default_rng(seed).uniform(-magnitude, magnitude,
                                                 (trials, n))
    # each jittered gap stays above 3/4 of the equal gap: no clip is needed
    gaps = TWO_PI / n + jitter
    gaps *= TWO_PI / gaps.sum(axis=1, keepdims=True)
    rows = np.vstack([equally_spaced(n).angle_array, _angle_rows(gaps, 0.0)])
    # the equal gaps and every trial are n-point configurations: one call
    equal, *perturbed = _polarize_rows(kernel, rows)
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

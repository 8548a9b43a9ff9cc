"""Gap transport between configurations and the homotopy toward equal spacing.

The difference of two gap vectors is carried by a vector of coordinate
moves ``deltas`` solving the circulant second-difference system; the
canonical solution is nonnegative with at least one zero component.
Scaling it gives a homotopy whose gaps interpolate linearly, and the
minimum of the potential over the arc anchored at a zero-component point
is nondecreasing along the way — which is what makes equal spacing optimal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from . import potential
from .circle_config import TWO_PI, Configuration, _angle_rows, _wrap
from .kernels import Kernel
from .potential import _minimize_on_arcs, _require_empty_arcs, potential_values

__all__ = [
    "TransportPlan",
    "InequalityReport",
    "solve_gap_system",
    "solve_transport",
    "homotopy_config",
    "min_curve",
    "check_pair_inequality",
]

# components at most this far from 0 count as zero when picking the anchor
_ZERO_TOL = 1e-12

# tolerance for the solvability condition sum(beta) = 0
_BALANCE_TOL = 1e-10


class InvalidGapVectorsError(ValueError):
    """Gap difference vector is not balanced (components must sum to zero)."""


@dataclass(frozen=True)
class TransportPlan:
    """Canonical move vector carrying ``source_gaps`` to ``target_gaps``.

    ``deltas`` is the unique solution of the circulant system that is
    nonnegative with minimum exactly zero.
    """

    deltas: Tuple[float, ...]
    source_gaps: Tuple[float, ...]
    target_gaps: Tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.deltas)

    @cached_property
    def zero_index(self) -> int:
        """Smallest index whose component is zero (the homotopy anchor)."""
        for k, d in enumerate(self.deltas):
            if d <= _ZERO_TOL:
                return k
        raise AssertionError("no zero component in a canonical plan")

    def to_dict(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "source_gaps": list(self.source_gaps),
            "target_gaps": list(self.target_gaps),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def solve_gap_system(beta) -> np.ndarray:
    """Solve ``-d[k-1] + 2 d[k] - d[k+1] = beta[k]`` (cyclic) canonically.

    The system is singular with kernel spanned by the constant vector; it is
    consistent exactly when ``beta`` sums to zero.  The solution is pinned
    down by shifting so that ``min(d) = 0``, which also makes it
    componentwise nonnegative.  Runs in O(n) by two cumulative sums.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size < 1:
        raise ValueError("empty gap-difference vector")
    if not np.isfinite(beta).all():
        raise ValueError(f"gap differences must be finite, got {beta!r}")
    if abs(beta.sum()) > _BALANCE_TOL:
        raise InvalidGapVectorsError(
            f"invalid-gap-vectors: differences sum to {beta.sum()!r}, not 0")
    # partial sums t[k] = beta[1] + ... + beta[k]; the second difference of
    # the unknown telescopes to g[k] = d[k] - d[k+1] = g0 - t[k] with g0
    # fixed by sum(g) = 0, and d follows by one more cumulative sum.
    t = np.concatenate(([0.0], np.cumsum(beta[1:])))
    g = t.mean() - t
    d = np.concatenate(([0.0], np.cumsum(g[:-1])))
    return d - d.min()


def solve_transport(source: Configuration, target: Configuration) -> TransportPlan:
    """Canonical move vector whose transport gives ``source`` the gaps of ``target``."""
    if source.n != target.n:
        raise ValueError(
            f"point counts differ: {source.n} vs {target.n}")
    source_gaps = np.asarray(source.gaps)
    target_gaps = np.asarray(target.gaps)
    deltas = solve_gap_system(target_gaps - source_gaps)
    return TransportPlan(
        deltas=tuple(float(x) for x in deltas),
        source_gaps=tuple(source.gaps),
        target_gaps=tuple(target.gaps),
    )


def homotopy_config(source: Configuration, plan: TransportPlan, t: float) -> Configuration:
    """Configuration at stage ``t`` of the interpolation of gap vectors.

    Gaps are ``(1-t)*source_gaps + t*target_gaps``; the anchor point (the
    plan's zero index) keeps its source angle throughout, which fixes the
    rotation gauge without composing incremental moves.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    angles, _ = _stages(source, plan, np.array([float(t)]))
    return Configuration(angles[0])


def _stages(source: Configuration, plan: TransportPlan,
            ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted angles of the stages at ``ts``, one row each, and the
    length of each stage's tracked arc, the gap after the anchor."""
    if plan.n != source.n:
        raise ValueError("plan size does not match configuration")
    j = plan.zero_index
    gaps = ((1.0 - ts)[:, None] * np.asarray(plan.source_gaps)
            + ts[:, None] * np.asarray(plan.target_gaps))
    return _angle_rows(np.roll(gaps, -j, axis=1), source.angles[j]), gaps[:, j]


def min_curve(
    kernel: Kernel,
    source: Configuration,
    plan: TransportPlan,
    grid: int,
) -> np.ndarray:
    """Minimum of the potential over the tracked arc along the homotopy.

    The tracked arc runs from the anchor point to its counterclockwise
    neighbour at each stage.  Returns shape ``(grid, 2)`` rows ``(t, h)``;
    ``h`` is nondecreasing for convex nonincreasing kernels and ends at the
    polarization of the equally spaced target.  The stages are minimized
    in one engine call per block of about ``_CHUNK_BUDGET / n`` of them
    (all of them at small n), each row equal bit for bit to
    ``minimum_on_arc`` on :func:`homotopy_config` at its stage.  Raises
    ``ValueError`` when a node of a stage lies inside its tracked arc, as
    ``minimum_on_arc`` does.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    ts = np.linspace(0.0, 1.0, grid)
    # a block of stages holds as many angles as a block of engine pairs, so
    # a fine grid at large n keeps no (grid, n) temporary
    step = max(1, potential._CHUNK_BUDGET // source.n)
    values = np.concatenate([_tracked_minima(kernel, source, plan, ts[i:i + step])
                             for i in range(0, grid, step)])
    return np.column_stack([ts, values])


def _tracked_minima(kernel: Kernel, source: Configuration, plan: TransportPlan,
                    ts: np.ndarray) -> np.ndarray:
    """The minimum over the tracked arc of each stage at ``ts``."""
    angles, lengths = _stages(source, plan, ts)
    anchor = np.full(ts.size, source.angles[plan.zero_index])
    _require_empty_arcs(angles, anchor, lengths)
    _, values = _minimize_on_arcs(kernel, angles, anchor, lengths,
                                  np.arange(ts.size))
    return values


@dataclass(frozen=True)
class InequalityReport:
    """Sampled check that spreading a pair apart helps between, hurts outside.

    Over the closed arc between the original pair the two-point potential
    must not increase under the spread; over the (shrunk) complementary arc
    it must not decrease.  Margins are the worst slack observed in the
    expected direction; violations are the worst overshoot the wrong way
    (0 when the inequality holds everywhere).
    """

    z1: float
    z2: float
    eps: float
    samples: int
    between_min_margin: float
    between_max_violation: float
    complement_min_margin: float
    complement_max_violation: float
    strict_expected: bool

    @property
    def max_violation(self) -> float:
        return max(self.between_max_violation, self.complement_max_violation)


def check_pair_inequality(
    kernel: Kernel,
    z1: float,
    z2: float,
    eps: float,
    samples: int = 1000,
) -> InequalityReport:
    """Compare the two-point potential before and after an ``eps`` spread.

    ``z1`` moves clockwise and ``z2`` counterclockwise.  A coincident pair
    has an empty in-between arc (only the complement is sampled).  Raises
    ``ValueError`` on a non-finite angle or an ``eps`` outside (0, half the
    complement).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    for name, z in (("z1", z1), ("z2", z2)):
        if not math.isfinite(z):
            raise ValueError(f"{name} must be finite, got {z!r}")
    z1, z2 = _wrap(z1), _wrap(z2)
    between_len = _wrap(z2 - z1)  # arc z1 -> z2, counterclockwise
    complement_len = TWO_PI - between_len
    coincident = between_len == 0.0
    if not 0.0 < eps < complement_len / 2.0:
        raise ValueError(
            f"eps must lie in (0, {complement_len / 2.0!r}), got {eps!r}")

    original = Configuration((z1, z2))
    moved = Configuration((z1 - eps, z2 + eps))

    def worst_margin(start, length, sign):
        zs = (start + length * np.linspace(0.0, 1.0, samples)) % TWO_PI
        gap = sign * (potential_values(kernel, moved, zs)
                      - potential_values(kernel, original, zs))
        return float(gap.min())

    # complement after the move: from the moved z2 to the moved z1
    comp_margin = worst_margin(z2 + eps, complement_len - 2.0 * eps, +1.0)
    comp_violation = max(0.0, -comp_margin)
    if coincident:
        btw_margin, btw_violation = math.inf, 0.0
    else:
        btw_margin = worst_margin(z1, between_len, -1.0)
        btw_violation = max(0.0, -btw_margin)
    return InequalityReport(
        z1=z1, z2=z2, eps=eps, samples=samples,
        between_min_margin=btw_margin,
        between_max_violation=btw_violation,
        complement_min_margin=comp_margin,
        complement_max_violation=comp_violation,
        strict_expected=kernel.strictly_convex,
    )

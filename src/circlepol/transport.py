"""Gap transport between configurations and the homotopy toward equal spacing.

The difference of two gap vectors is carried by a vector of coordinate
moves ``deltas`` solving the circulant second-difference system; the
canonical solution is nonnegative with at least one zero component.
Scaling it gives a homotopy whose gaps interpolate linearly, and the
minimum of the potential over the arc anchored at a zero-component point
is nondecreasing along the way — which is what makes equal spacing optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .circle_config import TWO_PI, Configuration, _angle_rows, _wrap
from .kernels import Kernel
from .potential import _minimize_on_arcs, potential_values

__all__ = [
    "TransportPlan",
    "InequalityReport",
    "solve_gap_system",
    "solve_transport",
    "min_curve",
    "check_pair_inequality",
]

# tolerance for the solvability condition sum(beta) = 0
_BALANCE_TOL = 1e-10


@dataclass(frozen=True, slots=True)
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

    @property
    def zero_index(self) -> int:
        """The homotopy anchor: the first exact 0, as ``d - min(d)`` leaves one."""
        return self.deltas.index(0.0)

    def to_dict(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "source_gaps": list(self.source_gaps),
            "target_gaps": list(self.target_gaps),
        }


def solve_gap_system(beta) -> np.ndarray:
    """Solve ``-d[k-1] + 2 d[k] - d[k+1] = beta[k]`` (cyclic) canonically.

    The system is singular with kernel spanned by the constant vector; it is
    consistent exactly when ``beta`` sums to zero.  The solution is pinned
    down by shifting so that ``min(d) = 0``, which also makes it
    componentwise nonnegative.  Runs in O(n) by two cumulative sums.
    Raises ``ValueError``, with a message starting ``invalid-gap-vectors:``,
    when ``beta`` does not sum to zero.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size < 1:
        raise ValueError("empty gap-difference vector")
    if not np.isfinite(beta).all():
        raise ValueError(f"gap differences must be finite, got {beta!r}")
    if abs(beta.sum()) > _BALANCE_TOL:
        raise ValueError(
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
    source_gaps, target_gaps = source.gaps, target.gaps
    deltas = solve_gap_system(np.asarray(target_gaps) - np.asarray(source_gaps))
    return TransportPlan(
        deltas=tuple(float(x) for x in deltas),
        source_gaps=source_gaps,
        target_gaps=target_gaps,
    )


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
    polarization of the equally spaced target.  A stage is its interpolated
    gaps, from the anchor on, laid out from the anchor's source angle.  One
    engine call minimizes all ``grid`` stage rows, O(grid * n) floats, each
    row equal bit for bit to ``minimum_on_arc`` on its stage.  The angles
    are cumulative sums of nonnegative gaps, so no node lies inside the
    tracked arc, and ``minimum_on_arc``'s check of the arc is not repeated.
    Raises ``ValueError`` when the plan does not fit ``source`` or its gaps
    are not a circle's.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if plan.n != source.n:
        raise ValueError("plan size does not match configuration")
    ts = np.linspace(0.0, 1.0, grid)
    j = plan.zero_index
    anchor = source.angles[j]
    gaps = np.outer(1.0 - ts, plan.source_gaps) + np.outer(ts, plan.target_gaps)
    angles = _angle_rows(np.roll(gaps, -j, axis=1), anchor)
    _, values = _minimize_on_arcs(kernel, angles, np.full(grid, anchor),
                                  gaps[:, j], np.arange(grid))
    return np.column_stack([ts, values])


@dataclass(frozen=True, slots=True)
class InequalityReport:
    """Sampled check that spreading a pair apart helps between, hurts outside.

    Over the closed arc between the original pair the two-point potential
    must not increase under the spread; over the (shrunk) complementary arc
    it must not decrease.  Margins are the worst slack observed in the
    expected direction, ``inf`` on an arc with no sample of known sign (as
    between a coincident pair); violations, derived from them, are the worst
    overshoot the wrong way (0 when the inequality holds everywhere).
    """

    z1: float
    z2: float
    eps: float
    samples: int
    between_min_margin: float
    complement_min_margin: float
    strict_expected: bool

    @property
    def between_max_violation(self) -> float:
        return max(0.0, -self.between_min_margin)

    @property
    def complement_max_violation(self) -> float:
        return max(0.0, -self.complement_min_margin)

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
    has an empty in-between arc (only the complement is sampled).  A sample
    where both potentials are ``inf`` has no sign and is left out.  Raises
    ``ValueError`` on a non-finite angle or an ``eps`` outside (0, half the
    complement), and when the kernel yields NaN.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    for name, z in (("z1", z1), ("z2", z2)):
        if not math.isfinite(z):
            raise ValueError(f"{name} must be finite, got {z!r}")
    z1, z2 = _wrap([z1, z2]).tolist()
    between_len = float(_wrap(z2 - z1))  # arc z1 -> z2, counterclockwise
    complement_len = TWO_PI - between_len
    coincident = between_len == 0.0
    if not 0.0 < eps < complement_len / 2.0:
        raise ValueError(
            f"eps must lie in (0, {complement_len / 2.0!r}), got {eps!r}")

    original = Configuration((z1, z2))
    moved = Configuration((z1 - eps, z2 + eps))

    def worst_margin(start, length, sign):
        zs = (start + length * np.linspace(0.0, 1.0, samples)) % TWO_PI
        with np.errstate(invalid="ignore"):  # inf - inf: no sign, left out
            gap = sign * (potential_values(kernel, moved, zs)
                          - potential_values(kernel, original, zs))
        return float(gap[~np.isnan(gap)].min(initial=math.inf))

    # complement after the move: from the moved z2 to the moved z1
    comp_margin = worst_margin(z2 + eps, complement_len - 2.0 * eps, +1.0)
    btw_margin = math.inf if coincident else worst_margin(z1, between_len, -1.0)
    return InequalityReport(
        z1=z1, z2=z2, eps=eps, samples=samples,
        between_min_margin=btw_margin,
        complement_min_margin=comp_margin,
        strict_expected=kernel.strictly_convex,
    )

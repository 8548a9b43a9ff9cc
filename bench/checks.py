"""Checks on the outputs of the benchmark's calls.

Each check returns a list of problems, empty when the output is right.
References come from :mod:`oracle`, from closed forms written here, or
from properties the method must have; none is a stored copy of earlier
output.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

# a potential value may stray from the oracle's by REL_TOL times the summed
# absolute kernel terms plus ANGLE_TOL times the summed absolute slopes.
# The second part covers angle rounding: circlepol folds distances with the
# double 2*pi, the oracle with sin(d/2), and the two differ by ~1e-16 rad,
# which matters next to a node.  Measured worst cases are 9e-16 and 4e-14
# (profiles) of the first part alone.
REL_TOL = 1e-12
ANGLE_TOL = 1e-13

# a minimum curve may fall by at most this much between grid stages
MONOTONE_TOL = 1e-10

# the optimizer's best value must be this close to -ln 2
OPTIMUM_TOL = 1e-7

# a witness of equal spacing is a gap midpoint to this share of the gap
MIDPOINT_TOL = 1e-6

# polarization of n equally spaced points under riesz:s, for even s
CLOSED_FORMS = {
    2: lambda n: n**2 / 4,
    4: lambda n: n**2 / 24 + n**4 / 48,
    6: lambda n: n**2 / 120 + n**4 / 192 + n**6 / 480,
}


def potential_with_tolerance(label, nodes, z):
    """Oracle potential at ``z`` and how far a right value may stray from it."""
    values, abs_terms, abs_slopes = oracle.potential(label, nodes, z)
    return values, REL_TOL * abs_terms + ANGLE_TOL * abs_slopes


def equal_spacing_tolerance(label, n):
    """Tolerance on the polarization of ``n`` equally spaced points."""
    nodes = 2.0 * math.pi * np.arange(n) / n
    return float(potential_with_tolerance(label, nodes, [math.pi / n])[1][0])


def reference_minimum(label, nodes):
    """Oracle polarization value of ``nodes`` and its tolerance."""
    z, _ = oracle.polarization(label, nodes)
    values, tol = potential_with_tolerance(label, nodes, [z])
    return float(values[0]), float(tol[0])


def polarization_problems(label, nodes, result, reference):
    """``result.value`` is the oracle's minimum and each witness attains it."""
    value, tol = reference
    problems = []
    if not abs(result.value - value) <= tol:
        problems.append(f"{label} n={len(nodes)}: value {result.value!r} "
                        f"!= oracle {value!r} (tolerance {tol:.3g})")
    if not result.witnesses:
        return problems + [f"{label} n={len(nodes)}: no witnesses"]
    at, at_tol = potential_with_tolerance(label, nodes, result.witnesses)
    worst = int(np.argmax(np.abs(at - result.value) - at_tol))
    if not abs(at[worst] - result.value) <= at_tol[worst]:
        problems.append(f"{label} n={len(nodes)}: potential {at[worst]!r} at "
                        f"witness {result.witnesses[worst]!r} != value "
                        f"{result.value!r}")
    return problems


def below_equal_spacing_problems(label, n, value, equal_value, deviation, tol):
    """No configuration beats equal spacing; a visibly uneven one is beaten."""
    if value > equal_value + tol:
        return [f"{label} n={n}: value {value!r} above equal spacing "
                f"{equal_value!r}"]
    if deviation >= 1e-3 and not equal_value - value > tol:
        return [f"{label} n={n}: gap deviation {deviation:.3g} but value "
                f"{value!r} not below equal spacing {equal_value!r}"]
    return []


def equal_spacing_problems(s, n, result):
    """Value of equally spaced points against its closed form.

    Returns ``(problems, complete)``; ``complete`` says whether the
    witnesses are all n gap midpoints, as symmetry demands.
    """
    label = f"riesz:{s}"
    nodes = 2.0 * math.pi * np.arange(n) / n
    problems = polarization_problems(
        label, nodes, result,
        (CLOSED_FORMS[s](n), equal_spacing_tolerance(label, n)))
    w = np.sort(np.asarray(result.witnesses, dtype=float))
    midpoints = math.pi * (2 * np.arange(n) + 1) / n
    complete = (w.size == n and np.abs(w - midpoints).max()
                <= MIDPOINT_TOL * 2.0 * math.pi / n)
    return problems, bool(complete)


def profile_problems(label, nodes, resolution, profile, expected):
    """Profile rows are ``(2 pi k / resolution, potential)``.

    ``expected`` is ``potential_with_tolerance`` on that grid.
    """
    grid = 2.0 * math.pi * np.arange(resolution) / resolution
    profile = np.asarray(profile)
    if profile.shape != (resolution, 2):
        return [f"{label} profile: shape {profile.shape}"]
    if not np.allclose(profile[:, 0], grid, rtol=0.0, atol=4e-15):
        return [f"{label} profile: angles are not the uniform grid"]
    values, tol = expected
    bad = np.abs(profile[:, 1] - values) > tol
    if bad.any():
        k = int(np.argmax(bad))
        return [f"{label} profile: {int(bad.sum())} points differ from the "
                f"oracle, first at angle {grid[k]!r}: {profile[k, 1]!r} != "
                f"{values[k]!r}"]
    return []


def min_curve_problems(curve, n, grid):
    """Minimum curve under riesz:2: non-decreasing, ending at n**2 / 4."""
    curve = np.asarray(curve)
    if curve.shape != (grid, 2):
        return [f"min_curve n={n}: shape {curve.shape}"]
    if not np.allclose(curve[:, 0], np.linspace(0.0, 1.0, grid),
                       rtol=0.0, atol=1e-15):
        return [f"min_curve n={n}: stages are not the uniform grid"]
    h = curve[:, 1]
    problems = []
    drop = np.diff(h)
    if (drop < -MONOTONE_TOL).any():
        k = int(np.argmin(drop))
        problems.append(f"min_curve n={n}: falls by {-drop[k]:.3g} at stage "
                        f"{k + 1}")
    end = CLOSED_FORMS[2](n)
    if not abs(h[-1] - end) <= equal_spacing_tolerance("riesz:2", n):
        problems.append(f"min_curve n={n}: ends at {h[-1]!r}, not {end!r}")
    return problems


def optimize_problems(result):
    """Log-kernel optimum: -ln 2, reached at equal spacing."""
    problems = []
    if not abs(result.best_value + math.log(2.0)) <= OPTIMUM_TOL:
        problems.append(f"optimize: best value {result.best_value!r} not "
                        f"within {OPTIMUM_TOL} of -ln 2")
    if not result.converged_to_equal_spacing:
        problems.append("optimize: best configuration is not equal spacing")
    return problems

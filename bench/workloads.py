"""The benchmark's workloads: one round of circlepol calls and their checks.

A workload is a list of operations, each one top-level library call made
from inputs drawn from the seed.  Every run repeats the same round, so the
share of failed operations does not depend on how many rounds fit in it.
Calls go through the ``circlepol`` package namespace, where the traced run
puts its wrappers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import circlepol

import checks
import oracle

TWO_PI = 2.0 * math.pi

# small-n: criterion 04's make-up (n = 2..8 under four kernels) and
# criterion 05's (min_curve at grid 101 under riesz:2, n = 3..10)
SMALL_N = range(2, 9)
CONFIGS_PER_N = 16
SMALL_KERNELS = ("riesz:1", "riesz:2", "riesz:4", "log")
CURVE_N = range(3, 11)
CURVE_GRID = 101

# large-n: one random configuration per size, a fine profile of the largest,
# and equally spaced points with closed-form values
LARGE_N = (256, 1024)
LARGE_KERNELS = ("riesz:2", "log")
PROFILE_N = 1024
PROFILE_RESOLUTION = 8192
EQUAL_S = (2, 4, 6)
EQUAL_N = (64, 128, 256)

# optimize: the log kernel at n = 6 with default options (seed 0)
OPTIMIZE_N = 6

KERNELS = {
    "small-n": SMALL_KERNELS,
    "large-n": ("riesz:2", "riesz:4", "riesz:6", "log"),
    "optimize": ("log",),
}


@dataclass(frozen=True)
class Op:
    """One library call, the job it counts toward and its output check.

    ``check(result)`` returns ``(problems, failed)``: problems are wrong
    outputs; ``failed`` marks a call that hit a known fault.
    """

    job: str
    call: Callable[[], object]
    check: Callable[[object], tuple[list, bool]]


def make_kernels(workload: str) -> dict:
    """circlepol kernels used by ``workload``, by label."""
    out = {}
    for label in KERNELS[workload]:
        if label == "log":
            out[label] = circlepol.log_kernel()
        else:
            out[label] = circlepol.riesz_kernel(float(label.split(":")[1]))
    return out


def random_config(rng, n):
    """Sorted angles from a flat Dirichlet on the gap simplex, randomly
    rotated, and the largest deviation of a gap from 2 pi / n."""
    gaps = rng.dirichlet(np.ones(n)) * TWO_PI
    anchor = rng.uniform(0.0, TWO_PI)
    angles = (anchor + np.concatenate(([0.0], np.cumsum(gaps[:-1])))) % TWO_PI
    return np.sort(angles), float(np.abs(gaps - TWO_PI / n).max())


@functools.cache
def _equal_value(label, n):
    return oracle.equal_spacing_value(label, n)


def _polarize(kernel, angles):
    return circlepol.polarization(kernel, circlepol.Configuration(angles))


def _polarize_equal(kernel, n):
    return circlepol.polarization(kernel, circlepol.equally_spaced(n))


def _profile(kernel, angles):
    return circlepol.potential_profile(
        kernel, circlepol.Configuration(angles), PROFILE_RESOLUTION)


def _min_curve(kernel, angles):
    source = circlepol.Configuration(angles)
    plan = circlepol.solve_transport(source, circlepol.equally_spaced(len(angles)))
    return circlepol.min_curve(kernel, source, plan, grid=CURVE_GRID)


def _optimize(kernel):
    return circlepol.maximize_polarization(kernel, OPTIMIZE_N)


def _random_check(label, nodes, deviation=None):
    reference = functools.cache(lambda: checks.reference_minimum(label, nodes))

    def check(result):
        value, tol = reference()
        problems = checks.polarization_problems(label, nodes, result, (value, tol))
        if deviation is not None:
            n = len(nodes)
            problems += checks.below_equal_spacing_problems(
                label, n, result.value, _equal_value(label, n), deviation, tol)
        return problems, False
    return check


def _profile_check(label, nodes):
    grid = TWO_PI * np.arange(PROFILE_RESOLUTION) / PROFILE_RESOLUTION
    expected = functools.cache(
        lambda: checks.potential_with_tolerance(label, nodes, grid))
    return lambda result: (checks.profile_problems(
        label, nodes, PROFILE_RESOLUTION, result, expected()), False)


def _equal_check(s, n):
    # witnesses short of all n midpoints are the known WITNESS_TOL fault
    def check(result):
        problems, complete = checks.equal_spacing_problems(s, n, result)
        return problems, not complete
    return check


def small_n(seed: int, kernels: dict) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for n in SMALL_N:
        for _ in range(CONFIGS_PER_N):
            nodes, deviation = random_config(rng, n)
            for label in SMALL_KERNELS:
                ops.append(Op("polarization_small",
                              functools.partial(_polarize, kernels[label], nodes),
                              _random_check(label, nodes, deviation)))
    for n in CURVE_N:
        nodes, _ = random_config(rng, n)
        ops.append(Op("min_curve",
                      functools.partial(_min_curve, kernels["riesz:2"], nodes),
                      lambda result, n=n: (
                          checks.min_curve_problems(result, n, CURVE_GRID), False)))
    return ops


def large_n(seed: int, kernels: dict) -> list:
    rng = np.random.default_rng(seed)
    configs = {n: random_config(rng, n)[0] for n in LARGE_N}
    ops = []
    for n in LARGE_N:
        for label in LARGE_KERNELS:
            ops.append(Op(f"polarization_n{n}",
                          functools.partial(_polarize, kernels[label], configs[n]),
                          _random_check(label, configs[n])))
    for label in LARGE_KERNELS:
        ops.append(Op(f"profile_n{PROFILE_N}",
                      functools.partial(_profile, kernels[label], configs[PROFILE_N]),
                      _profile_check(label, configs[PROFILE_N])))
    for s in EQUAL_S:
        for n in EQUAL_N:
            ops.append(Op("polarization_equal",
                          functools.partial(_polarize_equal, kernels[f"riesz:{s}"], n),
                          _equal_check(s, n)))
    return ops


def optimize(seed: int, kernels: dict) -> list:
    # the optimizer's own seed stays at its default, 0: the job is the
    # ROADMAP's fixed optimize run, so --seed leaves this workload unchanged
    return [Op("optimize", functools.partial(_optimize, kernels["log"]),
               lambda result: (checks.optimize_problems(result), False))]


BUILDERS = {"small-n": small_n, "large-n": large_n, "optimize": optimize}


def warm_up(kernels: dict) -> None:
    """One tiny call of each public function the workloads use."""
    config = circlepol.Configuration((0.0, 1.0, 2.5))
    for kernel in kernels.values():
        circlepol.polarization(kernel, config)
        circlepol.potential_profile(kernel, config, 16)
        plan = circlepol.solve_transport(config, circlepol.equally_spaced(3))
        circlepol.min_curve(kernel, config, plan, grid=3)
        circlepol.maximize_polarization(
            kernel, 2, circlepol.OptimizeOptions(restarts=1, max_iters=3))

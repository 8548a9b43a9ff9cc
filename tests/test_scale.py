"""Answers that do not depend on the kernel's scale.

The theorem's hypotheses hold for c f whenever they hold for f (c > 0).  A
kernel multiplied by a power of two has every value, slope and difference
multiplied by it exactly, as long as they stay finite and normal.  So every
function that takes a kernel must give the same angles, witnesses, counts
and reports, and values multiplied by exactly that power.
``maximize_polarization`` is left out: its ascent is not yet scale-free.
"""

import math

import numpy as np
import pytest

from circlepol import (Kernel, check_pair_inequality,
                       equally_spaced, log_kernel, min_curve, minimum_on_arc,
                       perturbation_test, polarization, potential_profile,
                       potential_values, power_kernel, riesz_kernel,
                       solve_transport, validate_kernel)
from helpers import random_config

KERNELS = [
    riesz_kernel(2), log_kernel(), power_kernel(0.5), riesz_kernel(8),
    Kernel(lambda t: (math.pi - t) ** 2, math.pi ** 2, "(pi-t)^2"),
    Kernel(lambda t: np.maximum(1.0 - t, 0.0), 1.0, "max(1-t,0)"),
]

# equal spacing and one random configuration at each n
CONFIGS = [c for n in [*range(1, 13), 64]
           for c in (equally_spaced(n), random_config(np.random.default_rng(n), n))]

scale_cases = pytest.mark.parametrize("exponent", [-200, -60, -30, 30, 60])
kernel_cases = pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.label)


def scaled(kernel, factor):
    """``kernel`` times ``factor``, its derivatives too, under the same
    label: a Newton step, f' / f'', is then the same to the bit."""
    derivatives = None if kernel.derivatives is None else (
        lambda t: tuple(factor * v for v in kernel.derivatives(t)))
    return Kernel(fn=lambda t: factor * kernel.fn(t),
                  value_at_zero=factor * kernel.value_at_zero,
                  label=kernel.label, derivatives=derivatives)


def assert_scaled(got, want, factor):
    """``got`` is ``want`` times ``factor`` bit for bit, every finite nonzero
    value of which is a normal float."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    moved = want[np.isfinite(want) & (want != 0.0)] * factor
    assert (np.abs(moved) >= np.finfo(float).tiny).all() and np.isfinite(moved).all()
    assert np.array_equal(got, want * factor)


@kernel_cases
@scale_cases
def test_validation_report(kernel, exponent):
    assert validate_kernel(scaled(kernel, 2.0 ** exponent)) == validate_kernel(kernel)


@kernel_cases
@scale_cases
def test_polarization_arcs_value_and_witnesses(kernel, exponent):
    factor = 2.0 ** exponent
    big = scaled(kernel, factor)
    for config in CONFIGS:
        want, got = polarization(kernel, config), polarization(big, config)
        assert got.witnesses == want.witnesses
        assert np.array_equal(got.arcs[["gap", "angle"]], want.arcs[["gap", "angle"]])
        assert_scaled(got.arcs["value"], want.arcs["value"], factor)
        assert_scaled(got.value, want.value, factor)


@kernel_cases
@scale_cases
def test_arc_minima_and_min_curve(kernel, exponent):
    factor = 2.0 ** exponent
    big = scaled(kernel, factor)
    source = random_config(np.random.default_rng(5), 5)
    for start, length in zip(source.angles, source.gaps):
        (x, want), (y, got) = (minimum_on_arc(k, source, start, length)
                               for k in (kernel, big))
        assert y == x
        assert_scaled(got, want, factor)
    plan = solve_transport(source, equally_spaced(5))
    want, got = (min_curve(k, source, plan, 7) for k in (kernel, big))
    assert np.array_equal(got[:, 0], want[:, 0])
    assert_scaled(got[:, 1], want[:, 1], factor)


@kernel_cases
@scale_cases
def test_potential_values_and_profile(kernel, exponent):
    factor = 2.0 ** exponent
    big = scaled(kernel, factor)
    config = random_config(np.random.default_rng(7), 7)
    # the nodes themselves are among the angles
    zs = np.concatenate([config.angle_array, np.linspace(0.0, 7.0, 29)])
    assert_scaled(potential_values(big, config, zs),
                  potential_values(kernel, config, zs), factor)
    want, got = (potential_profile(k, config, 64) for k in (kernel, big))
    assert np.array_equal(got[:, 0], want[:, 0])
    assert_scaled(got[:, 1], want[:, 1], factor)


@kernel_cases
@scale_cases
def test_perturbation_and_pair_reports(kernel, exponent):
    factor = 2.0 ** exponent
    big = scaled(kernel, factor)
    want, got = (perturbation_test(k, 5, 0.05, 6, seed=2) for k in (kernel, big))
    assert (got.n, got.magnitude, got.trials, got.non_negative_count,
            got.strict_expected) == (want.n, want.magnitude, want.trials,
                                     want.non_negative_count, want.strict_expected)
    assert_scaled([got.equal_value, got.min_deficit, got.max_deficit],
                  [want.equal_value, want.min_deficit, want.max_deficit], factor)
    want, got = (check_pair_inequality(k, 0.3, 2.0, 0.2, samples=50)
                 for k in (kernel, big))
    assert (got.z1, got.z2, got.eps, got.samples, got.strict_expected) == (
        want.z1, want.z2, want.eps, want.samples, want.strict_expected)
    assert_scaled([got.between_min_margin, got.complement_min_margin],
                  [want.between_min_margin, want.complement_min_margin], factor)

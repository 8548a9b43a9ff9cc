"""Each output check passes right outputs and reports slightly wrong ones."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import circlepol
import checks
import workloads


@pytest.fixture(scope="module")
def random_case():
    nodes, deviation = workloads.random_config(np.random.default_rng(7), 6)
    config = circlepol.Configuration(nodes)
    result = circlepol.polarization(circlepol.riesz_kernel(2.0), config)
    return nodes, deviation, result, checks.reference_minimum("riesz:2", nodes)


def test_polarization_check_passes_the_program(random_case):
    nodes, deviation, result, reference = random_case
    assert checks.polarization_problems("riesz:2", nodes, result, reference) == []
    assert checks.below_equal_spacing_problems(
        "riesz:2", 6, result.value, 9.0, deviation, reference[1]) == []


def test_polarization_check_catches_value_scaled_by_1e_9(random_case):
    nodes, _, result, reference = random_case
    scaled = SimpleNamespace(value=result.value * (1 + 1e-9),
                             witnesses=result.witnesses)
    problems = checks.polarization_problems("riesz:2", nodes, scaled, reference)
    assert any("!= oracle" in p for p in problems)


def test_polarization_check_catches_a_witness_off_the_minimum(random_case):
    nodes, _, result, reference = random_case
    moved = SimpleNamespace(value=result.value,
                            witnesses=(result.witnesses[0] + 1e-3,))
    assert checks.polarization_problems("riesz:2", nodes, moved, reference)


def test_equal_spacing_bound_catches_a_value_above_it(random_case):
    _, deviation, _, reference = random_case
    # riesz:2 at n = 6: equal spacing gives 9
    assert checks.below_equal_spacing_problems(
        "riesz:2", 6, 9.0 + 1e-9, 9.0, deviation, reference[1])
    assert checks.below_equal_spacing_problems(
        "riesz:2", 6, 9.0, 9.0, deviation, reference[1])


@pytest.fixture(scope="module")
def curve_case():
    nodes, _ = workloads.random_config(np.random.default_rng(8), 5)
    return workloads._min_curve(circlepol.riesz_kernel(2.0), nodes)


def test_min_curve_check_passes_the_program(curve_case):
    assert checks.min_curve_problems(curve_case, 5, workloads.CURVE_GRID) == []


def test_min_curve_check_catches_a_dip(curve_case):
    curve = curve_case.copy()
    curve[50, 1] = curve[49, 1] - 1e-9
    problems = checks.min_curve_problems(curve, 5, workloads.CURVE_GRID)
    assert any("falls" in p for p in problems)


def test_min_curve_check_catches_a_wrong_end(curve_case):
    curve = curve_case.copy()
    curve[-1, 1] *= 1 + 1e-9
    assert checks.min_curve_problems(curve, 5, workloads.CURVE_GRID)


def test_optimize_check():
    right = SimpleNamespace(best_value=-math.log(2.0),
                            converged_to_equal_spacing=True)
    assert checks.optimize_problems(right) == []
    off = SimpleNamespace(best_value=-math.log(2.0) + 1e-6,
                          converged_to_equal_spacing=True)
    assert checks.optimize_problems(off)
    elsewhere = SimpleNamespace(best_value=-math.log(2.0),
                                converged_to_equal_spacing=False)
    assert checks.optimize_problems(elsewhere)


def test_profile_check():
    nodes, _ = workloads.random_config(np.random.default_rng(9), 64)
    config = circlepol.Configuration(nodes)
    profile = circlepol.potential_profile(circlepol.log_kernel(), config, 512)
    grid = 2 * math.pi * np.arange(512) / 512
    expected = checks.potential_with_tolerance("log", nodes, grid)
    assert checks.profile_problems("log", nodes, 512, profile, expected) == []
    profile[100, 1] *= 1 + 1e-9
    assert checks.profile_problems("log", nodes, 512, profile, expected)


@pytest.mark.parametrize("s, n, complete", [(2, 64, True), (4, 64, False)])
def test_equal_spacing_check_separates_the_witness_fault(s, n, complete):
    kernel = circlepol.riesz_kernel(float(s))
    result = circlepol.polarization(kernel, circlepol.equally_spaced(n))
    assert checks.equal_spacing_problems(s, n, result) == ([], complete)
    scaled = SimpleNamespace(value=result.value * (1 + 1e-9),
                             witnesses=result.witnesses)
    assert checks.equal_spacing_problems(s, n, scaled)[0]

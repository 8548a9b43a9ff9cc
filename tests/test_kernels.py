"""Kernel factories, evaluation conventions, and the shape validator."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circlepol import (custom_kernel, log_kernel, power_kernel, riesz_kernel,
                       validate_kernel)


def chord(theta):
    # |e^{i theta} - 1|, the straight-line distance across the arc
    return abs(complex(math.cos(theta), math.sin(theta)) - 1.0)


def test_riesz_matches_inverse_chord():
    rng = np.random.default_rng(7)
    for s in (0.5, 1.0, 2.0, 3.5):
        k = riesz_kernel(s)
        for theta in rng.uniform(1e-6, math.pi, 25):
            assert_allclose(k(theta), chord(theta) ** (-s), rtol=1e-12)


def test_riesz_known_values():
    assert_allclose(riesz_kernel(2)(math.pi), 0.25, rtol=0.0)
    assert_allclose(riesz_kernel(2)(math.pi / 2), 0.5, rtol=1e-15)
    assert_allclose(riesz_kernel(1)(math.pi), 0.5, rtol=0.0)


def test_log_kernel_matches_log_inverse_chord():
    k = log_kernel()
    rng = np.random.default_rng(8)
    for theta in rng.uniform(1e-6, math.pi, 25):
        assert_allclose(k(theta), -math.log(chord(theta)), atol=1e-12)


def test_power_kernel_values_and_flags():
    k = power_kernel(0.5)
    assert k(0.0) == 0.0
    assert_allclose(k(math.pi), -math.sqrt(2.0), rtol=1e-15)
    assert k.strictly_convex
    assert not power_kernel(1.0).strictly_convex


def test_singular_kernels_return_inf_at_zero():
    assert riesz_kernel(2)(0.0) == math.inf
    assert log_kernel()(0.0) == math.inf


def test_eval_vectorized_matches_scalar():
    k = riesz_kernel(1.5)
    thetas = np.array([[0.0, 0.3], [math.pi, 1.2]])
    got = k.eval(thetas)
    assert got.shape == thetas.shape
    for idx in np.ndindex(thetas.shape):
        assert got[idx] == k(float(thetas[idx]))


def test_factory_parameter_validation():
    with pytest.raises(ValueError):
        riesz_kernel(0.0)
    with pytest.raises(ValueError):
        riesz_kernel(-1.0)
    with pytest.raises(ValueError):
        power_kernel(0.0)
    with pytest.raises(ValueError):
        power_kernel(1.5)


def test_shipped_kernels_pass_validation():
    for k in (riesz_kernel(0.5), riesz_kernel(1), riesz_kernel(2),
              riesz_kernel(4), log_kernel(), power_kernel(0.3),
              power_kernel(1.0)):
        report = validate_kernel(k)
        assert report.ok, [f.detail for f in report.failures]


def test_validator_flags_increasing_kernel():
    k = custom_kernel(lambda t: t, value_at_zero=0.0)
    report = validate_kernel(k, grid_size=256)
    assert not report.non_increasing.passed
    assert report.non_increasing.witness is not None


def test_validator_flags_concave_kernel():
    k = custom_kernel(lambda t: -(t ** 2), value_at_zero=0.0)
    report = validate_kernel(k, grid_size=256)
    assert report.non_increasing.passed
    assert not report.convex.passed


def test_linear_kernel_is_convex_but_not_strictly():
    flagged = custom_kernel(lambda t: math.pi - t, value_at_zero=math.pi,
                            strictly_convex=True, label="linear")
    report = validate_kernel(flagged, grid_size=256)
    assert report.convex.passed
    assert not report.strictly_convex.passed

    honest = custom_kernel(lambda t: math.pi - t, value_at_zero=math.pi,
                           strictly_convex=False, label="linear")
    assert validate_kernel(honest, grid_size=256).ok


def test_kernel_labels():
    assert riesz_kernel(2).label == "riesz:2"
    assert log_kernel().label == "log"
    assert power_kernel(0.5).label == "power:0.5"


def _loop_checks(theta, values):
    """First (i, kind) violation of each check, by the scalar loop."""
    def tol(*v):
        return 1e-12 * max(1.0, *(abs(x) for x in v))
    monotone = next((i for i in range(len(theta) - 1)
                     if values[i + 1] > values[i] + tol(values[i], values[i + 1])),
                    None)
    convex = strict = None
    for i in range(len(theta) - 2):
        avg = 0.5 * (values[i] + values[i + 2])
        if convex is None and values[i + 1] > avg + tol(values[i], values[i + 2]):
            convex = i
        if strict is None and not values[i + 1] < avg:
            strict = i
    return monotone, convex, strict


@pytest.mark.parametrize("fn", [
    lambda t: t,
    lambda t: -(t ** 2),
    lambda t: math.pi - t,
    lambda t: -t + 0.01 * np.sin(40 * t),
    lambda t: np.where(t > 2, np.nan, 1 / t),
    lambda t: np.abs(t - 1.0),
])
def test_vectorized_checks_find_the_loops_first_violation(fn):
    k = custom_kernel(fn, math.inf, strictly_convex=True)
    report = validate_kernel(k, grid_size=200)
    theta = np.pi * np.arange(1, 201) / 200
    values = k.eval(theta).tolist()
    got = (report.non_increasing, report.convex, report.strictly_convex)
    for result, i, gap in zip(got, _loop_checks(theta, values), (1, 2, 2)):
        assert result.passed == (i is None)
        if i is not None:
            assert result.witness == (theta[i], theta[i + gap])

"""Kernel factories, evaluation conventions, and the shape validator."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circlepol import (Configuration, Kernel, custom_kernel, equally_spaced,
                       log_kernel, maximize_polarization, min_curve,
                       minimum_on_arc, perturbation_test, polarization,
                       potential_values, power_kernel, riesz_kernel,
                       solve_transport, validate_kernel)


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
        scalar = k(float(thetas[idx]))
        assert isinstance(scalar, np.float64)
        assert scalar == got[idx]


@pytest.mark.parametrize("kind, s", [("riesz", 0.5), ("riesz", 2.0), ("riesz", 20.0),
                                     ("log", 0.0), ("power", 0.5), ("power", 1.0)])
def test_kernel_values_match_mpmath(kind, s):
    # the chord is within about 2 ulp of 2 sin(theta/2); a power s of it has
    # about s times its relative error; the log kernel's error is absolute
    mpmath = pytest.importorskip("mpmath")
    kernel = {"riesz": riesz_kernel, "log": lambda _: log_kernel(),
              "power": power_kernel}[kind](s)
    rng = np.random.default_rng(5)
    theta = np.concatenate([rng.uniform(0.0, math.pi, 1000),
                            10.0 ** rng.uniform(-12.0, 0.0, 500),
                            math.pi - 10.0 ** rng.uniform(-15.0, 0.0, 500),
                            [math.pi]])
    theta = theta[theta > 0.0]
    got = kernel.eval(theta)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for t, g in zip(theta.tolist(), got.tolist()):
            chord = 2 * mpmath.sin(mpmath.mpf(t) / 2)
            if kind == "riesz":
                exact, scale = chord ** -s, 0.0
            elif kind == "log":
                exact, scale = -mpmath.log(chord), 1.0
            else:
                exact, scale = -(chord ** s), 0.0
            bound = 4 * eps * (1 + s) * max(abs(exact), scale)
            assert abs(g - exact) <= bound, (t, g, exact)


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
    assert report.failures == ("convex",)


def test_no_kernel_can_declare_the_hypotheses_away():
    # monotonicity and convexity are checked on every kernel, never declared
    names = [f.name for f in dataclasses.fields(Kernel)]
    assert names == ["fn", "value_at_zero", "strictly_convex", "label"]
    with pytest.raises(TypeError):
        custom_kernel(lambda t: -(t ** 2), 0.0, convex=False)


def test_arc_search_refuses_a_kernel_that_fails_the_hypotheses():
    # -t**2 decreases but is concave: on these nodes the secant steps would
    # return -15.67 where a dense scan of the potential finds -17.17
    concave = custom_kernel(lambda t: -(t ** 2), 0.0)
    c = Configuration([0.0, 1.0, 2.5, 4.0])
    plan = solve_transport(c, equally_spaced(4))
    searches = [
        lambda k: polarization(k, c),
        lambda k: minimum_on_arc(k, c, c.angles[0], c.gaps[0]),
        lambda k: min_curve(k, c, plan, grid=3),
        lambda k: maximize_polarization(k, 4),
        lambda k: perturbation_test(k, 4, 0.1, 2),
    ]
    for search in searches:
        with pytest.raises(ValueError, match=r"convex \(midpoint convexity"):
            search(concave)
        with pytest.raises(ValueError, match=r"non_increasing \(f\("):
            search(custom_kernel(lambda t: t, 0.0))
    # the potential itself rests on no hypothesis
    d = np.array([0.5, 0.5, 2.0, 2.0 * math.pi - 3.5])
    assert_allclose(potential_values(concave, c, 0.5), [-(d ** 2).sum()],
                    rtol=1e-15)


@pytest.mark.parametrize("kernel", [
    riesz_kernel(0.01), riesz_kernel(2), riesz_kernel(400), log_kernel(),
    power_kernel(0.01), power_kernel(1.0),
    custom_kernel(lambda t: math.pi - t, math.pi),
], ids=lambda k: k.label)
def test_arc_search_accepts_kernels_that_meet_the_hypotheses(kernel):
    # riesz:400 overflows to +inf on the check's grid and is not strictly
    # convex there, neither of which the arc search requires; RuntimeWarnings
    # are errors in this suite, so the check must raise none
    c = equally_spaced(3)
    assert polarization(kernel, c).per_arc_minima[0][1:] == minimum_on_arc(
        kernel, c, c.angles[0], c.gaps[0])


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

"""Kernel factories, evaluation conventions, and the shape validator."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circlepol import (CheckResult, Configuration, Kernel, ValidationReport,
                       equally_spaced, log_kernel,
                       maximize_polarization, min_curve, minimum_on_arc,
                       perturbation_test, polarization, potential_values,
                       power_kernel, riesz_kernel, solve_transport,
                       validate_kernel)


def chord(theta):
    # |e^{i theta} - 1|, the straight-line distance across the arc
    return abs(complex(math.cos(theta), math.sin(theta)) - 1.0)


def test_riesz_matches_inverse_chord():
    rng = np.random.default_rng(7)
    for s in (0.5, 1.0, 2.0, 3.5):
        k = riesz_kernel(s)
        for theta in rng.uniform(1e-6, math.pi, 25):
            assert_allclose(k.eval(theta), chord(theta) ** (-s), rtol=1e-12)


def test_riesz_known_values():
    assert_allclose(riesz_kernel(2).eval(math.pi), 0.25, rtol=0.0)
    assert_allclose(riesz_kernel(2).eval(math.pi / 2), 0.5, rtol=1e-15)
    assert_allclose(riesz_kernel(1).eval(math.pi), 0.5, rtol=0.0)


def test_log_kernel_matches_log_inverse_chord():
    k = log_kernel()
    rng = np.random.default_rng(8)
    for theta in rng.uniform(1e-6, math.pi, 25):
        assert_allclose(k.eval(theta), -math.log(chord(theta)), atol=1e-12)


def test_chord_is_the_distance_below_the_normal_range():
    # 0.25 * theta loses bits below 4 * 2**-1022, and 2 sin(theta/2) rounds
    # to theta there: each kernel is finite, with no divide by zero
    theta = np.array([5e-324, 1e-323, 1e-310])
    assert_allclose(riesz_kernel(0.5).eval(theta), theta ** -0.5, rtol=1e-15)
    assert_allclose(log_kernel().eval(theta), -np.log(theta), rtol=1e-15)
    # one probe, 5e-324 from both nodes of the 1e-323 gap
    r = polarization(riesz_kernel(0.5), Configuration([0.0, 1e-323, 2.0, 4.0]))
    assert r.per_arc_minima[0][:2] == (0, 5e-324)
    assert_allclose(r.per_arc_minima[0][2], 2 * 5e-324 ** -0.5, rtol=1e-15)


def test_power_kernel_values_and_flags():
    k = power_kernel(0.5)
    assert k.eval(0.0) == 0.0
    assert_allclose(k.eval(math.pi), -math.sqrt(2.0), rtol=1e-15)
    assert k.strictly_convex
    # f = -2 sin(theta/2) has f'' = sin(theta/2)/2 > 0 on (0, pi]
    assert power_kernel(1.0).strictly_convex


def test_singular_kernels_return_inf_at_zero():
    assert riesz_kernel(2).eval(0.0) == math.inf
    assert log_kernel().eval(0.0) == math.inf


@pytest.mark.parametrize("call, expected", [
    (lambda: riesz_kernel(400).eval(1e-3), math.inf),
    (lambda: log_kernel().derivative(1e-310), -math.inf),
    (lambda: riesz_kernel(2).derivative(1e-200), -math.inf),
    (lambda: riesz_kernel(400).eval(np.array([1e-3, 1.0]))[0], math.inf),
    (lambda: riesz_kernel(400).derivative(1e-3), -math.inf),
    (lambda: power_kernel(0.5).derivative(5e-324), -0.5 * 5e-324 ** -0.5),
    (lambda: power_kernel(1.0).derivative(5e-324), -1.0),
], ids=["riesz400-eval", "log-derivative", "riesz2-derivative", "array",
       "riesz400-derivative", "power0.5-derivative", "power1-derivative"])
def test_values_past_the_float_range_are_inf_without_a_warning(call, expected):
    # the suite turns a RuntimeWarning into an error, so an overflow
    # warning from the power or the division would fail here; derivative
    # also computes f'', which overflows first
    assert call() == expected


def test_eval_vectorized_matches_scalar():
    k = riesz_kernel(1.5)
    thetas = np.array([[0.0, 0.3], [math.pi, 1.2]])
    got = k.eval(thetas)
    assert got.shape == thetas.shape
    for idx in np.ndindex(thetas.shape):
        scalar = k.eval(float(thetas[idx]))
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


@pytest.mark.parametrize("kind, s", [("riesz", 0.5), ("riesz", 2.0), ("riesz", 20.0),
                                     ("log", 0.0), ("power", 0.5), ("power", 1.0)])
def test_kernel_slopes_match_mpmath(kind, s):
    # f'(theta) = -scale * cos(theta/2), with scale = s c**(-s-1) (riesz),
    # 1/c (log) or alpha c**(alpha-1) (power) for the chord c.  The cosine
    # of one tangent is off by a few ulp of 1 next to pi, so the error is
    # measured against scale; a power s of the chord has about s times its
    # relative error.  Seen at most 1.25 eps (1 + s) scale
    mpmath = pytest.importorskip("mpmath")
    kernel = {"riesz": riesz_kernel, "log": lambda _: log_kernel(),
              "power": power_kernel}[kind](s)
    rng = np.random.default_rng(6)
    theta = np.concatenate([rng.uniform(0.0, math.pi, 1000),
                            10.0 ** rng.uniform(-12.0, 0.0, 500), [1e-12],
                            math.pi - 10.0 ** rng.uniform(-15.0, 0.0, 500),
                            [np.nextafter(math.pi, 0.0)]])
    theta = theta[theta > 0.0]
    got = kernel.derivative(theta)
    assert np.array_equal(got, kernel.derivatives(theta)[0])
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for t, g in zip(theta.tolist(), got.tolist()):
            half = mpmath.mpf(t) / 2
            chord = 2 * mpmath.sin(half)
            scale = {"riesz": lambda: s * chord ** (-s - 1),
                     "log": lambda: 1 / chord,
                     "power": lambda: s * chord ** (s - 1)}[kind]()
            exact = -scale * mpmath.cos(half)
            assert abs(g - exact) <= 2 * eps * (1 + s) * scale, (t, g, exact)
    # at the antipode of a node U' must pass through 0, as the folded
    # difference quotient does
    assert kernel.derivative(math.pi) == 0.0
    assert kernel.derivatives(np.array([math.pi]))[0][0] == 0.0


@pytest.mark.parametrize("kind, s", [("riesz", 0.5), ("riesz", 2.0), ("riesz", 20.0),
                                     ("log", 0.0), ("power", 0.5), ("power", 1.0)])
def test_kernel_curvatures_match_mpmath(kind, s):
    # f''(theta) = f''(c) cos(theta/2)**2 - f'(c) c/4 for the chord c: with
    # cos**2 + c**2/4 = 1, s c**(-s-2) (s cos**2 + 1) (riesz), 1/c**2 (log)
    # or alpha c**(alpha-2) (c**2/4 + (1 - alpha) cos**2) (power), each a
    # sum of terms >= 0, so the error is measured against f'' itself; seen
    # at most 1.3 eps (2 + s) f''.  The f' of the same call is derivative's,
    # bit for bit
    mpmath = pytest.importorskip("mpmath")
    kernel = {"riesz": riesz_kernel, "log": lambda _: log_kernel(),
              "power": power_kernel}[kind](s)
    rng = np.random.default_rng(7)
    theta = np.concatenate([rng.uniform(0.0, math.pi, 1000),
                            10.0 ** rng.uniform(-12.0, 0.0, 500), [1e-12],
                            math.pi - 10.0 ** rng.uniform(-15.0, 0.0, 500),
                            [np.nextafter(math.pi, 0.0), math.pi]])
    theta = theta[theta > 0.0]
    slope, got = kernel.derivatives(theta)
    assert np.array_equal(slope, kernel.derivative(theta))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for t, g in zip(theta.tolist(), got.tolist()):
            half = mpmath.mpf(t) / 2
            chord, cos = 2 * mpmath.sin(half), mpmath.cos(half)
            exact = {"riesz": lambda: s * chord ** (-s - 2) * (s * cos ** 2 + 1),
                     "log": lambda: 1 / chord ** 2,
                     "power": lambda: s * chord ** (s - 2)
                     * (chord ** 2 / 4 + (1 - s) * cos ** 2)}[kind]()
            assert abs(g - exact) <= 4 * eps * (2 + s) * exact, (t, g, exact)


def test_derivative_at_zero_and_without_a_slope():
    # a node adds no slope term at a probe on it unless f(0) is +inf
    assert riesz_kernel(2).derivative(0.0) == -math.inf
    assert log_kernel().derivative(0.0) == -math.inf
    assert power_kernel(0.5).derivative([0.0, 1.0])[0] == 0.0
    # without derivatives, a relative-step difference quotient, symmetric at pi
    k = riesz_kernel(2)
    quotient = dataclasses.replace(k, derivatives=None)
    theta = np.array([1e-6, 0.5, 2.0, math.pi - 1e-3])
    assert_allclose(quotient.derivative(theta), k.derivative(theta), rtol=1e-7)
    assert quotient.derivative(math.pi) == 0.0
    assert quotient.derivative(0.0) == -math.inf


def test_factory_parameter_validation():
    with pytest.raises(ValueError):
        riesz_kernel(0.0)
    with pytest.raises(ValueError):
        riesz_kernel(-1.0)
    for s in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite s > 0"):
            riesz_kernel(s)
    with pytest.raises(ValueError):
        power_kernel(0.0)
    with pytest.raises(ValueError):
        power_kernel(1.5)


def test_shipped_kernels_pass_validation():
    for k in (riesz_kernel(0.5), riesz_kernel(1), riesz_kernel(2),
              riesz_kernel(4), log_kernel(), power_kernel(0.3),
              power_kernel(1.0)):
        report = validate_kernel(k)
        assert report.ok, report.failures
        assert report.slope.passed


def test_validation_records_hold_only_their_fields():
    report = validate_kernel(log_kernel())
    for record in (report, report.convex):
        assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("s", [400, 1000])
def test_kernels_that_overflow_to_inf_pass_validation(s):
    # f maps to [0, inf]: a value past the float range is +inf, which is
    # neither a finite failure nor a missing strict margin
    report = validate_kernel(riesz_kernel(s))
    assert report.ok, report.failures


def test_validator_flags_a_nan_value():
    k = Kernel(lambda t: np.where(t > 2, np.nan, 1 / t), math.inf)
    report = validate_kernel(k)
    assert report.failures == ("finite",)
    assert "nan" in report.finite.detail
    negative = Kernel(lambda t: np.where(t > 2, -np.inf, 1 / t), math.inf)
    assert "finite" in validate_kernel(negative).failures


@pytest.mark.parametrize("exponent", [-30, -60, -100, -200])
def test_a_small_concave_kernel_is_refused(exponent):
    # cos t + 2 bends down on (0, pi/2): a grid midpoint lies up to 1.6e-6
    # of the value above its chord, far past 1e-12, at every scale
    factor = 2.0 ** exponent
    k = Kernel(lambda t: factor * (np.cos(t) + 2), 3 * factor)
    assert validate_kernel(k).failures == ("convex",)
    with pytest.raises(ValueError, match=r"fails convex \(midpoint"):
        polarization(k, equally_spaced(3))


def _no_strict_margin(i):
    theta = np.pi * np.arange(1, 1025) / 1024
    t, u = theta[i], theta[i + 2]
    return CheckResult(False, f"no strict midpoint margin on ({t:.6g}, {u:.6g})",
                       (float(t), float(u)))


# the first grid index without a strict midpoint margin, or None
@pytest.mark.parametrize("kernel, flat_at", [
    *[(riesz_kernel(s), None)
      for s in (0.01, 0.1, 0.5, 1, 2, 4, 8, 20, 50, 100, 400, 1000)],
    (riesz_kernel(1100), 897), (riesz_kernel(2000), 529), (riesz_kernel(1e4), 370),
    (power_kernel(0.01), None), (power_kernel(0.5), None), (power_kernel(1), None),
    (log_kernel(), None),
    (Kernel(lambda t: math.pi - t, math.pi, "pi-t"), 1),
    (Kernel(lambda t: np.maximum(1.0 - t, 0.0), 1.0, "max(1-t,0)"), 0),
    (Kernel(lambda t: (math.pi - t) ** 2, math.pi ** 2, "(pi-t)^2"), None),
], ids=lambda x: getattr(x, "label", None))
def test_validation_reports_are_pinned(kernel, flat_at):
    # every check passes, field for field, and the strict margin fails only
    # where the kernel is flat: linear, or 0 past the normal range.  From
    # riesz:1100 on, values near pi fall below the smallest normal float,
    # where 1e-12 of a value would be no tolerance at all
    passed = CheckResult(True)
    strict = passed if flat_at is None else _no_strict_margin(flat_at)
    slope = None if kernel.derivatives is None else passed
    assert validate_kernel(kernel) == ValidationReport(
        kernel.label, passed, passed, passed, strict, slope)


def test_validator_flags_increasing_kernel():
    k = Kernel(lambda t: t, value_at_zero=0.0)
    report = validate_kernel(k)
    assert not report.non_increasing.passed
    assert report.non_increasing.witness is not None


def test_validator_flags_concave_kernel():
    k = Kernel(lambda t: -(t ** 2), value_at_zero=0.0)
    report = validate_kernel(k)
    assert report.non_increasing.passed
    assert not report.convex.passed
    assert report.failures == ("convex",)


def test_no_kernel_can_declare_the_hypotheses_away():
    # monotonicity, convexity and strict convexity are measured on every
    # kernel, never declared; declared derivatives are checked against fn,
    # and the fields are pinned in test_public_surface
    with pytest.raises(TypeError):
        Kernel(lambda t: -(t ** 2), 0.0, convex=False)
    with pytest.raises(TypeError):
        Kernel(lambda t: math.pi - t, math.pi, strictly_convex=True)


def test_arc_search_refuses_a_kernel_that_fails_the_hypotheses():
    # -t**2 decreases but is concave: on these nodes the secant steps would
    # return -15.67 where a dense scan of the potential finds -17.17
    concave = Kernel(lambda t: -(t ** 2), 0.0)
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
            search(Kernel(lambda t: t, 0.0))
        # NaN past distance 2, first met on the grid at 652 pi / 1024
        with pytest.raises(ValueError,
                           match=r"fails finite \(value nan at theta=2.00031\)"):
            search(Kernel(lambda t: np.where(t > 2, np.nan, np.pi - t),
                          np.pi))
    # the potential itself rests on no hypothesis
    d = np.array([0.5, 0.5, 2.0, 2.0 * math.pi - 3.5])
    assert_allclose(potential_values(concave, c, 0.5), [-(d ** 2).sum()],
                    rtol=1e-15)


@pytest.mark.parametrize("kernel, failed", [
    (Kernel(np.sin, 0.0, label="sin"), ("non_increasing", "convex")),
    (Kernel(lambda t: -(t ** 2), 0.0, label="concave",
            derivatives=lambda t: (-t, -1.0)),
     ("convex", "slope")),
], ids=lambda x: getattr(x, "label", None))
def test_the_refusal_names_every_failed_check(kernel, failed):
    # sin rises, then bends down; -t**2 bends down and -t is not its slope.
    # Neither is strictly convex, which bears only on uniqueness: that is
    # measured, and is no failure
    report = validate_kernel(kernel)
    assert report.failures == failed
    assert not kernel.strictly_convex
    named = "; ".join(f"{name} ({getattr(report, name).detail})"
                      for name in failed)
    with pytest.raises(ValueError) as excinfo:
        polarization(kernel, equally_spaced(3))
    assert str(excinfo.value) == (
        f"kernel {kernel.label!r} fails {named}: the arc search needs a "
        "finite, non-increasing, convex kernel whose slope and curvature are "
        "its derivatives")


@pytest.mark.parametrize("kernel", [
    riesz_kernel(0.01), riesz_kernel(2), riesz_kernel(400), log_kernel(),
    power_kernel(0.01), power_kernel(1.0),
    Kernel(lambda t: math.pi - t, math.pi),
], ids=lambda k: k.label)
def test_arc_search_accepts_kernels_that_meet_the_hypotheses(kernel):
    # riesz:400 overflows to +inf on the check's grid, which the hypotheses
    # allow; RuntimeWarnings are errors in this suite, so the check must
    # raise none
    c = equally_spaced(3)
    assert polarization(kernel, c).per_arc_minima[0][1:] == minimum_on_arc(
        kernel, c, c.angles[0], c.gaps[0])


@pytest.mark.parametrize("slope, detail", [
    (lambda t: 2.0 * riesz_kernel(2).derivative(t), "difference quotient"),
    (lambda t: riesz_kernel(2).derivative(t) * (1.0 + 1e-3), "difference quotient"),
    (lambda t: -riesz_kernel(2).derivative(t), r"slope [0-9.e+-]+ at theta"),
    (lambda t: riesz_kernel(2).derivative(t) * np.where(t > 2, 1.5, 1.0),
     "below the one before"),
    (lambda t: np.where(t > 3, np.nan, riesz_kernel(2).derivative(t)), "slope nan"),
])
def test_a_wrong_slope_is_refused(slope, detail):
    # the engine follows f' in place of fn, so an f' that is not fn's
    # derivative would bypass the hypotheses checked on fn
    k = riesz_kernel(2)
    wrong = dataclasses.replace(
        k, derivatives=lambda t: (slope(t), k.derivatives(t)[1]))
    report = validate_kernel(wrong)
    assert report.failures == ("slope",)
    with pytest.raises(ValueError, match="slope .*" + detail):
        polarization(wrong, equally_spaced(3))
    assert validate_kernel(dataclasses.replace(wrong, derivatives=None)).ok


@pytest.mark.parametrize("kernel", [
    riesz_kernel(0.5), riesz_kernel(2), riesz_kernel(400), log_kernel(),
    power_kernel(0.5), power_kernel(1.0),
], ids=lambda k: k.label)
@pytest.mark.parametrize("factor, detail", [
    (-1.0, r"curvature -[0-9.e+inf]+ at theta"),
    (2.0, "slope's difference quotient"),
])
def test_a_wrong_curvature_is_refused(kernel, factor, detail):
    # the engine's Newton steps follow f'', so an f'' of the wrong sign or
    # size is refused like a wrong f', by every caller of the arc search
    assert validate_kernel(kernel).slope.passed
    wrong = dataclasses.replace(kernel, derivatives=lambda t: tuple(
        v * w for v, w in zip(kernel.derivatives(t), (1.0, factor))))
    assert validate_kernel(wrong).failures == ("slope",)
    c = Configuration([0.0, 1.0, 2.5])
    plan = solve_transport(c, equally_spaced(3))
    for search in (lambda: polarization(wrong, c),
                   lambda: minimum_on_arc(wrong, c, 0.0, 1.0),
                   lambda: min_curve(wrong, c, plan, 5)):
        with pytest.raises(ValueError, match="fails slope .*" + detail):
            search()


def test_a_declared_slope_is_followed():
    k = Kernel(lambda t: (math.pi - t) ** 2, math.pi ** 2,
               derivatives=lambda t: (2.0 * (t - math.pi), 2.0))
    assert validate_kernel(k).ok
    c = Configuration([0.0, 1.0, 2.5])
    quotient = dataclasses.replace(k, derivatives=None)
    assert polarization(k, c).value == pytest.approx(
        polarization(quotient, c).value, rel=1e-14)


def test_linear_kernel_is_convex_but_not_strictly():
    linear = Kernel(lambda t: math.pi - t, value_at_zero=math.pi,
                    label="linear")
    report = validate_kernel(linear)
    assert report.convex.passed
    assert not report.strictly_convex.passed
    assert report.ok
    assert not linear.strictly_convex


@pytest.mark.parametrize("kernel, strict", [
    (riesz_kernel(0.01), True), (riesz_kernel(2), True),
    (riesz_kernel(1000), True), (log_kernel(), True),
    (power_kernel(0.01), True), (power_kernel(0.5), True),
    (power_kernel(1.0), True),
    # straight pieces have no strict midpoint margin, which is no failure
    (Kernel(lambda t: np.maximum(1.0 - t, 0.0), 1.0, label="flat-tail"),
     False),
], ids=lambda x: getattr(x, "label", None))
def test_strict_convexity_is_measured(kernel, strict):
    report = validate_kernel(kernel)
    assert report.ok
    assert report.strictly_convex.passed == kernel.strictly_convex == strict


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
        if strict is None and not values[i + 1] < avg and values[i + 1] != math.inf:
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
    k = Kernel(fn, math.inf)
    report = validate_kernel(k)
    theta = np.pi * np.arange(1, 1025) / 1024
    values = k.eval(theta).tolist()
    got = (report.non_increasing, report.convex, report.strictly_convex)
    for result, i, gap in zip(got, _loop_checks(theta, values), (1, 2, 2)):
        assert result.passed == (i is None)
        if i is not None:
            assert result.witness == (theta[i], theta[i + gap])

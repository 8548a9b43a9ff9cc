"""Potential evaluation and the per-arc minimization engine."""

import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circlepol import (TWO_PI, Configuration, Kernel, equally_spaced,
                       log_kernel, minimum_on_arc, polarization, potential,
                       potential_profile, potential_values, power_kernel,
                       riesz_kernel, validate_kernel)
from helpers import dense_scan_minimum, random_config


def test_two_point_hand_value():
    # antipodal pair, midpoint: both chords are sqrt(2)
    c = equally_spaced(2)
    assert potential_values(riesz_kernel(2), c, math.pi / 2)[0] == pytest.approx(1.0)


def test_potential_at_no_angles_is_empty():
    values = potential_values(riesz_kernel(2), equally_spaced(3), [])
    assert values.shape == (0,) and values.dtype == float


def test_potential_inf_at_node_for_singular_kernel():
    c = Configuration([0.0])
    assert potential_values(riesz_kernel(2), c, 0.0)[0] == math.inf
    assert potential_values(power_kernel(0.5), c, 0.0)[0] == 0.0


def test_log_potential_matches_product_identity():
    # for the n-th roots of unity, sum of log(1/|z - z_k|) = -log|z^n - 1|
    rng = np.random.default_rng(10)
    k = log_kernel()
    for n in (2, 3, 8, 33, 64):
        c = equally_spaced(n)
        for theta in rng.uniform(0.2, 0.8, 3) * (TWO_PI / n):
            want = -math.log(abs(np.exp(1j * theta * n) - 1.0))
            assert potential_values(k, c, theta)[0] == pytest.approx(want, rel=1e-11)


def test_potential_values_matches_scalar_loop():
    rng = np.random.default_rng(11)
    c = random_config(rng, 5)
    k = riesz_kernel(1.5)
    zs = rng.uniform(0, TWO_PI, 40)
    batch = potential_values(k, c, zs)
    single = [potential_values(k, c, z)[0] for z in zs]
    assert_allclose(batch, single, rtol=1e-15)


def test_coincident_points_count_with_multiplicity():
    c = Configuration([1.0, 1.0, 4.0])
    k = riesz_kernel(2)
    z = 2.5
    want = 2 * k.eval(abs(z - 1.0)) + k.eval(abs(z - 4.0) % TWO_PI)
    assert potential_values(k, c, z)[0] == pytest.approx(want, rel=1e-14)


def test_arc_minimum_symmetric_cases():
    c = equally_spaced(2)
    x, v = minimum_on_arc(riesz_kernel(2), c, c.angles[0], c.gaps[0])
    assert x == pytest.approx(math.pi / 2, abs=1e-9)
    assert v == pytest.approx(1.0, rel=1e-12)

    c = equally_spaced(4)
    x, _ = minimum_on_arc(riesz_kernel(2), c, c.angles[0], c.gaps[0])
    assert x == pytest.approx(math.pi / 4, abs=1e-9)


def test_arc_minimum_matches_dense_scan():
    c = Configuration([0.0, math.pi / 2])
    k = riesz_kernel(3)
    x, v = minimum_on_arc(k, c, c.angles[1], c.gaps[1])  # pi/2 back to 0
    zs = math.pi / 2 + (TWO_PI - math.pi / 2) * np.arange(1, 10 ** 6) / 10 ** 6
    vals = potential_values(k, c, zs)
    i = int(np.argmin(vals))
    assert v == pytest.approx(float(vals[i]), abs=1e-10)
    assert x == pytest.approx(float(zs[i]), abs=1e-5)


def test_minimum_on_arc_rejects_arc_over_a_node():
    c = equally_spaced(4)
    k = riesz_kernel(2)
    with pytest.raises(ValueError, match="inside the arc"):
        minimum_on_arc(k, c, 0.0, math.pi)
    with pytest.raises(ValueError, match="inside the arc"):
        minimum_on_arc(k, c, 0.1, c.gaps[0])
    # a gap passes with rounding slack at both ends
    x, _ = minimum_on_arc(k, c, -1e-13, c.gaps[0] + 2e-13)
    assert x == pytest.approx(math.pi / 4, abs=1e-9)


def test_minimum_on_arc_rejects_an_arc_longer_than_the_circle():
    # such an arc meets its start's node a second time, 2 pi on; the one
    # gap of a single point, 2 pi long, is no such arc
    k, c = riesz_kernel(2), equally_spaced(1)
    for length in (4 * math.pi, TWO_PI + 1e-9):
        with pytest.raises(ValueError, match="inside the arc"):
            minimum_on_arc(k, c, 0.0, length)
    x, v = minimum_on_arc(k, c, 0.0, TWO_PI)
    assert (x, v) == (math.pi, k.eval(math.pi))


@pytest.mark.parametrize("start, length", [
    (math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan), (0.5, math.inf),
    (0.5, -1.0),
])
def test_minimum_on_arc_rejects_a_non_finite_or_negative_arc(start, length):
    with pytest.raises(ValueError, match="finite"):
        minimum_on_arc(riesz_kernel(2), equally_spaced(3), start, length)


def test_zero_length_arc_evaluates_the_wrapped_point():
    c = random_config(np.random.default_rng(13), 5)
    k = riesz_kernel(2)
    x, v = minimum_on_arc(k, c, -1e-13, 0.0)
    assert x == -1e-13 % TWO_PI
    assert v == potential_values(k, c, -1e-13)[0]


@pytest.mark.parametrize("kernel", [riesz_kernel(2), log_kernel()],
                         ids=lambda k: k.label)
def test_minimum_on_arc_matches_polarization_bit_for_bit(kernel):
    # each arc is minimized on its own, whatever arcs it is batched with
    c = random_config(np.random.default_rng(256), 256)
    for k, x, v in polarization(kernel, c).per_arc_minima:
        assert minimum_on_arc(kernel, c, c.angles[k], c.gaps[k]) == (x, v)


@pytest.mark.parametrize("kernel", [riesz_kernel(2), riesz_kernel(4), riesz_kernel(20),
                                    log_kernel(), power_kernel(0.5)],
                         ids=lambda k: k.label)
@pytest.mark.parametrize("ulps", [1, 2])
def test_gap_of_one_or_two_ulps(kernel, ulps):
    # under riesz:20 the difference quotient overflows in a 2-ulp gap
    tiny = 3.0
    for _ in range(ulps):
        tiny = np.nextafter(tiny, 4.0)
    c = Configuration([3.0, tiny, 5.0])
    assert c.gaps[0] == ulps * np.spacing(3.0)
    r = polarization(kernel, c)
    assert math.isfinite(r.value)
    assert [k for k, _, _ in r.per_arc_minima] == [0, 1, 2]
    _, x, v = r.per_arc_minima[0]
    assert 3.0 <= x <= tiny
    if ulps == 2:  # 3.0 + ulp is the one interior float
        assert x == np.nextafter(3.0, 4.0)
        assert math.isfinite(v)


def test_gap_where_the_kernel_overflows():
    # f(d) is +inf by overflow all over a gap of 1e-160 under riesz:2
    c = Configuration([0.0, 1e-160, 3.0])
    r = polarization(riesz_kernel(2), c)
    assert r.per_arc_minima[0][2] == math.inf
    assert r.value == min(v for _, _, v in r.per_arc_minima[1:])
    assert math.isfinite(r.value)


def test_overflow_to_inf_does_not_warn():
    # f maps to [0, inf], so riesz:400 at 1e-3 from a node is +inf, not an
    # error; RuntimeWarnings are errors in this suite
    c = Configuration([0.0, 0.001, 3.0])
    r = polarization(riesz_kernel(400), c)
    assert r.per_arc_minima[0][2] == math.inf
    assert math.isfinite(r.value)
    assert potential_values(riesz_kernel(400), c, [5e-4, 1.5])[0] == math.inf
    assert potential_profile(riesz_kernel(400), c, 4)[0, 1] == math.inf


@pytest.mark.parametrize("kernel", [riesz_kernel(2), log_kernel()], ids=lambda k: k.label)
def test_denormal_distance_is_the_kernel_at_it_and_does_not_warn(kernel):
    # the chord is the distance itself there: riesz:2 overflows to +inf and
    # log is finite.  A gap of 5e-324 has its one probe on a node, and a gap
    # of 1e-323 has one probe, 5e-324 from both of its nodes
    with np.errstate(over="ignore"):
        tiny, one, two, far = kernel.eval(np.array([5e-324, 1.0, 2.0, TWO_PI - 4.0]))
    want = polarization(kernel, Configuration([0.0, 1e-300, 2.0, 4.0])).value
    r = polarization(kernel, Configuration([0.0, 5e-324, 2.0, 4.0]))
    assert r.per_arc_minima[0][2] == math.inf
    assert r.value == want
    r = polarization(kernel, Configuration([0.0, 1e-323, 2.0, 4.0]))
    assert r.per_arc_minima[0][:2] == (0, 5e-324)
    assert r.per_arc_minima[0][2] == pytest.approx(2 * tiny + two + far, rel=1e-15)
    assert r.value == want
    assert potential_values(kernel, Configuration([0.0, 1.0]), [5e-324])[0] == tiny + one
    assert potential_profile(kernel, Configuration([5e-324, 1.0]), 8)[0, 1] == tiny + one


def test_per_arc_minima_are_one_read_only_array():
    c = random_config(np.random.default_rng(3), 5)
    r = polarization(riesz_kernel(2), c)
    assert r.arcs.dtype.itemsize == 24
    assert not r.arcs.flags.writeable
    assert [type(x) for x in r.per_arc_minima[0]] == [int, float, float]
    assert r.per_arc_minima == tuple(zip(r.arcs["gap"].tolist(),
                                         r.arcs["angle"].tolist(),
                                         r.arcs["value"].tolist()))
    assert r == polarization(riesz_kernel(2), c)
    assert r != polarization(riesz_kernel(3), c)


def test_equal_results_hash_equal_and_are_dict_keys():
    c = random_config(np.random.default_rng(4), 6)
    a, b = polarization(riesz_kernel(2), c), polarization(riesz_kernel(2), c)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    other = polarization(log_kernel(), c)
    assert a != other
    assert len({a, b, other}) == 2


def test_result_stores_its_records_once():
    c = random_config(np.random.default_rng(3), 5)
    r = polarization(riesz_kernel(2), c)
    assert type(r.records) is bytes
    assert r.n == 5 and len(r.records) == 24 * 5
    with pytest.raises(ValueError):
        r.arcs.flags.writeable = True
    with pytest.raises(ValueError):
        r.arcs["value"][0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.records = b""


@pytest.mark.parametrize("kernel", [riesz_kernel(2), riesz_kernel(400), log_kernel()],
                         ids=lambda k: k.label)
@pytest.mark.parametrize("n", [1, 2, 5, 13, 20])
def test_value_and_witnesses_follow_from_the_arcs(kernel, n):
    # value is the least arc minimum; a witness is an arc minimizer within
    # the rounding of an n-term sum of it, 32 n eps |value|
    for c in (equally_spaced(n), random_config(np.random.default_rng(n), n)):
        r = polarization(kernel, c)
        xs, vs = r.arcs["angle"], r.arcs["value"]
        value = float(vs.min())
        assert r.value == value
        if value < math.inf:
            tol = potential._rounding(n, value)
            assert tol == 32 * np.finfo(float).eps * n * abs(value)
            assert r.witnesses == tuple(np.sort(xs[vs - value <= tol]).tolist())


def test_a_tiny_minimum_has_no_witness_many_times_its_size():
    # the two gap minima are 2.9e-54 and 1.4e-66: both are far below any
    # absolute tolerance, and only the second attains the polarization
    r = polarization(riesz_kernel(400), Configuration([0.0, 3.0]))
    assert r.value == 1.440298312845293e-66
    assert r.witnesses == (4.641592653589793,)


def test_infinite_minimum_has_every_infinite_arc_as_witness():
    # riesz:400 overflows on every arc of 20 equally spaced points; inf - inf
    # would warn and leave no witness
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = polarization(riesz_kernel(400), equally_spaced(20))
        assert r.value == math.inf
        assert len(r.witnesses) == 20
        assert r.witnesses == tuple(sorted(r.arcs["angle"].tolist()))


def test_result_repr_shows_value_witnesses_and_arcs():
    r = polarization(riesz_kernel(2), equally_spaced(2))
    assert repr(r) == (f"PolarizationResult(value={r.value!r}, "
                       f"witnesses={r.witnesses!r}, arcs={r.per_arc_minima!r})")


@contextlib.contextmanager
def _counted(kernel):
    """``kernel`` with a count of the points its function and its
    derivatives evaluate, keeping those it has or has not, and of the
    (probe, node) pairs of the engine's final pass of ``fn`` values, which
    are among the ``fn`` points.

    The arc search checks a kernel's hypotheses once, on first use; that
    check is made here, before counting starts, so only passes are counted.
    """
    points = {"fn": 0, "derivatives": 0, "final": 0}

    def counting(name, f):
        def call(t):
            points[name] += np.size(t)
            return f(t)
        return call
    counted = dataclasses.replace(kernel, **{
        name: counting(name, getattr(kernel, name))
        for name in ("fn", "derivatives") if getattr(kernel, name) is not None})
    assert counted._report.convex.passed
    values = potential._values

    def final(kernel, nodes, z, owner):
        points["final"] += z.size * nodes.shape[1]
        return values(kernel, nodes, z, owner)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potential, "_values", final)
        points.update(fn=0, derivatives=0)
        yield counted, points


def _slope_passes(kernel, config):
    """Slope passes ``minimum_on_arc`` spends on each nonempty gap.

    A pass evaluates the derivatives once per node, or without them the
    function three times, at d - h, d and d + h; the final value, where
    the argmin is no probe, is counted apart.
    """
    passes = []
    with _counted(kernel) as (counted, points):
        for k, gap in enumerate(config.gaps):
            if gap > 0.0:
                points.update(fn=0, derivatives=0, final=0)
                minimum_on_arc(counted, config, config.angles[k], gap)
                passes.append((points["derivatives"]
                               + (points["fn"] - points["final"]) / 3) / config.n)
    return passes


def _each_path(kernels):
    """Each kernel as it is, with Newton steps where it has derivatives,
    and again with the difference quotient and secant steps that a kernel
    without them gets."""
    params = []
    for k in kernels:
        params.append(pytest.param(k, id=k.label))
        if k.derivatives is not None:
            params.append(pytest.param(dataclasses.replace(k, derivatives=None),
                                       id=f"{k.label}-quotient"))
    return params


_SMOOTH_KERNELS = [riesz_kernel(2), riesz_kernel(20), log_kernel(), power_kernel(0.5)]
_HARD_KERNELS = _SMOOTH_KERNELS + [Kernel(lambda t: math.pi - t, math.pi, label="pi - t")]


def _hard_configs():
    """Gaps of 1 and 2 ulps, then flat-Dirichlet(0.05) gaps down to 2e-18."""
    configs = [Configuration([3.0, np.nextafter(3.0, 4.0), 5.0]),
               Configuration([3.0, np.nextafter(np.nextafter(3.0, 4.0), 4.0), 5.0])]
    for seed in range(4):
        gaps = np.random.default_rng(seed).dirichlet(np.full(24, 0.05))
        configs.append(Configuration(TWO_PI * np.cumsum(gaps)))
    return configs


def _configs_by_size():
    """Random configurations of mixed sizes, with coincident points, the
    hard configurations and equal spacing, as node rows ``(c, n)`` by n."""
    rng = np.random.default_rng(29)
    configs = [random_config(rng, int(n)) for n in rng.integers(1, 12, 40)]
    configs += [Configuration([1.0, 1.0, 4.0]), Configuration([2.0] * 4),
                Configuration([0.5, 0.5, 0.5, 3.0, 3.0]), equally_spaced(5)]
    configs += _hard_configs()
    by_size = {}
    for config in configs:
        by_size.setdefault(config.n, []).append(config.angles)
    return {n: np.array(rows) for n, rows in by_size.items()}


@pytest.mark.parametrize("kernel", _each_path(_HARD_KERNELS))
def test_one_call_over_node_rows_matches_polarization_bit_for_bit(kernel):
    for nodes in _configs_by_size().values():
        batch = potential._polarize_rows(kernel, nodes)
        assert len(batch) == len(nodes)
        for row, got in zip(nodes, batch):
            want = polarization(kernel, Configuration(row))
            assert got.n == want.n
            assert got.records == want.records
            assert got == want


@pytest.mark.parametrize("kernel", [riesz_kernel(2), log_kernel()],
                         ids=lambda k: k.label)
def test_node_rows_do_not_depend_on_the_block_size(kernel, monkeypatch):
    # a block gathers the node rows of its own probes, whatever its size
    results = []
    for budget in (1, 7, 10**9):
        monkeypatch.setattr(potential, "_CHUNK_BUDGET", budget)
        results.append([r.records for nodes in _configs_by_size().values()
                        for r in potential._polarize_rows(kernel, nodes)])
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("kernel", _each_path(_HARD_KERNELS))
def test_no_arc_takes_more_than_twice_the_halvings(kernel):
    # once the steps stop shrinking a bracket it is halved, so no arc needs
    # more than 2 * 32 + 1 passes; riesz:20 overflows by itself in the
    # tiniest gaps, and the potential of pi - t is piecewise linear
    for c in _hard_configs():
        assert max(_slope_passes(kernel, c)) <= 2 * 32 + 1


@pytest.mark.parametrize("kernel", _each_path(_SMOOTH_KERNELS))
def test_secant_steps_take_few_slope_passes(kernel):
    # 3.7 to 5.6 passes per gap and at most 10, the same with f'' from the
    # kernel's derivatives or from the second difference of fn (6.6 to 7.7
    # and at most 12 with secant steps alone); a secant point allowed to
    # round onto a bracket end (then replaced by the midpoint) takes up to 37
    for c in _hard_configs()[2:]:
        passes = _slope_passes(kernel, c)
        assert max(passes) <= 20
        assert np.mean(passes) <= 10


@pytest.mark.parametrize("kernel", _each_path([riesz_kernel(2), log_kernel(),
                                                power_kernel(0.5)]))
def test_newton_steps_take_few_slope_passes(kernel):
    # 3.2 (riesz:2), 3.7 (log) and 4.2 (power:0.5) passes per gap on
    # average, and 3.2, 3.8 and 4.2 with f'' from the second difference of
    # fn; secant steps alone took 6.4 to 6.5
    rng = np.random.default_rng(31)
    passes = [p for n in rng.integers(2, 9, 60)
              for p in _slope_passes(kernel, random_config(rng, int(n)))]
    assert np.mean(passes) <= 5


@pytest.mark.parametrize("kernel", [
    riesz_kernel(400), Kernel(lambda t: math.pi - t, math.pi, label="pi - t"),
    Kernel(lambda t: (math.pi - t) ** 2, math.pi ** 2, label="(pi - t)**2")],
    ids=lambda k: k.label)
def test_secant_steps_do_not_creep_without_a_curvature(kernel):
    # where U'' is +inf (riesz:400's f'' overflows, pi - t is linear, and
    # next to a node the second difference of (pi - t)**2 is within its
    # rounding) regula falsi can keep one bracket end while the other creeps
    # toward the root: then the midpoint follows.  Without that the worst
    # arcs take 65, 59 and 58 passes; with it 17, 34 and 35
    for c in _hard_configs():
        assert max(_slope_passes(kernel, c)) <= 40


@pytest.mark.parametrize("kernel, arcs", [
    (Kernel(lambda t: math.pi - t, math.pi, label="pi - t"),
     ((0, 0.3584073464102044, 8.28318530717959),
      (1, 1.7499999999708962, 9.174777960798483),
      (2, 3.391592653589789, 7.316370614359176),
      (3, 4.641592653589794, 6.283185307179587),
      (4, 5.000000000178487, 6.858407346588693))),
    (Kernel(lambda t: (math.pi - t) ** 2, math.pi ** 2, label="(pi - t)**2"),
     ((0, 0.5150444078369696, 18.390037262613728),
      (1, 1.7499999990673945, 22.87402118218678),
      (2, 3.028318530691925, 14.70352985209998),
      (3, 4.284955592142448, 12.735170486152096),
      (4, 5.541592653612758, 13.825))),
], ids=["pi - t", "(pi - t)**2"])
def test_kernels_without_a_curvature_keep_their_steps(kernel, arcs):
    # the steps of a kernel without derivatives, pinned bit for bit.  Since
    # the secant reads true tangents and the difference quotient gives f'',
    # these angles moved by up to 2.1e-11 from the Anderson-Bjorck steps,
    # inside the 2**-32 certificate, and every value but pi - t's on gap 0
    # stayed bit for bit.  That one is the minimum at a kink, 1 ulp higher,
    # and both it and the old value are within 2 ulp of the exact
    # 8.2831853071795865
    c = Configuration([0.25, 1.5, 1.75, 3.5, 5.0])
    assert polarization(kernel, c).per_arc_minima == arcs


@pytest.mark.parametrize("kernel", _each_path(_HARD_KERNELS))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 65, 255, 256])
def test_equal_spacing_takes_one_slope_pass(kernel, n):
    # the first probe of every gap is its midpoint, where the slope terms
    # cancel to rounding; with n odd a node sits at the antipode of every
    # midpoint, where the slope is 0 and the difference quotient symmetric
    # about pi.  Blocks split a pass into several calls, so the count is of
    # evaluated points: per (gap, node) pair, one (f, f', f'') or three
    # values of fn for the one pass.  Every gap ends on that probe, so its
    # value is the pass's, and no final value is evaluated
    with _counted(kernel) as (counted, points):
        r = polarization(counted, equally_spaced(n))
    if kernel.derivatives is None:
        assert points == {"fn": 3 * n * n, "derivatives": 0, "final": 0}
    else:
        assert points == {"fn": 0, "derivatives": n * n, "final": 0}
    assert len(r.per_arc_minima) == n


def _corpus():
    """Random, equally spaced and flat-Dirichlet(0.05) configurations of
    1 to 13, 64 and 257 points, by kind."""
    for n in [*range(1, 14), 64, 257]:
        rng = np.random.default_rng(n)
        yield "random", random_config(rng, n)
        yield "equal", equally_spaced(n)
        gaps = rng.dirichlet(np.full(n, 0.05))
        yield "dirichlet", Configuration(TWO_PI * np.cumsum(gaps))


def _unwrapped(config, arcs):
    """Each arc's argmin as the engine evaluates it, from the arc's start
    on: the angle, or 2 pi past it on the gap that wraps through 0."""
    start = config.angle_array[arcs["gap"]]
    return np.where(arcs["angle"] < start, arcs["angle"] + TWO_PI, arcs["angle"])


@pytest.mark.parametrize("kernel", _each_path(_SMOOTH_KERNELS + [power_kernel(1.0)]))
def test_each_arc_value_is_the_potential_at_its_argmin(kernel):
    # an arc takes U from the slope pass at its last probe, or else from fn;
    # the shipped kernels' jet gives fn's f bit for bit, so either is
    # potential_values at the argmin, where the engine evaluates it
    for _, c in _corpus():
        arcs = polarization(kernel, c).arcs
        assert np.array_equal(arcs["value"],
                              potential_values(kernel, c, _unwrapped(c, arcs)))


@pytest.mark.parametrize("kernel", [riesz_kernel(2), log_kernel()],
                         ids=lambda k: k.label)
def test_polarization_takes_no_value_of_fn_for_smooth_kernels(kernel):
    # every arc of a random or an equally spaced configuration ends on its
    # last probe, so fn is never called.  Among the Dirichlet gaps, a few
    # ulps wide, some end on an earlier probe or are never probed: those
    # alone take fn, in the final pass
    with _counted(kernel) as (counted, points):
        for kind, c in _corpus():
            points.update(fn=0, final=0)
            polarization(counted, c)
            if kind == "dirichlet":
                assert points["fn"] == points["final"]
            else:
                assert points["fn"] == 0


@pytest.mark.parametrize("kernel", _each_path(_HARD_KERNELS + [power_kernel(1.0)]))
def test_an_arc_ends_on_its_last_probe_or_takes_fn(kernel, monkeypatch):
    # the probes of each pass and the points of the final pass, recorded:
    # an arc takes its value from fn exactly where its argmin is not its
    # last probe, as on a certified bracket.  pi - t and power:1 certify
    # most arcs whose minimum is at a kink
    probes, finals = [], []
    slope_sums, values = potential._slope_sums, potential._values

    def probed(kernel, nodes, z):
        probes.append(z.copy())
        return slope_sums(kernel, nodes, z)

    def final(kernel, nodes, z, owner):
        finals.append(z.copy())
        return values(kernel, nodes, z, owner)
    monkeypatch.setattr(potential, "_slope_sums", probed)
    monkeypatch.setattr(potential, "_values", final)
    taken = 0
    for _, c in _corpus():
        probes.clear()
        finals.clear()
        arcs = polarization(kernel, c).arcs
        z = _unwrapped(c, arcs)
        start = c.angle_array[arcs["gap"]]
        end = start + np.array(c.gaps)[arcs["gap"]]
        p = np.concatenate(probes or [np.empty(0)])
        # an arc's probes lie inside it; its last is the last recorded
        last = np.full(len(arcs), np.nan)
        for i, (a, b) in enumerate(zip(start, end)):
            inside = p[(a < p) & (p < b)]
            if inside.size:
                last[i] = inside[-1]
        ends_on_probe = z == last
        assert sorted(np.concatenate(finals or [np.empty(0)]).tolist()) == sorted(
            z[~ends_on_probe].tolist())
        taken += int((~ends_on_probe).sum())
    if kernel.label in ("pi - t", "power:1"):
        assert taken > 200


@pytest.mark.parametrize("kernel", _each_path(_HARD_KERNELS))
def test_single_point_witness_is_the_antipode(kernel):
    # U' passes through 0 at pi instead of jumping there, so the first probe
    # of the one gap, its midpoint, is the minimizer
    r = polarization(kernel, Configuration([0.0]))
    assert r.witnesses == (math.pi,)
    assert r.value == kernel.eval(math.pi)


@pytest.mark.parametrize("kernel", [riesz_kernel(2), log_kernel()],
                         ids=lambda k: k.label)
def test_results_do_not_depend_on_the_block_size(kernel, monkeypatch):
    # every row is summed whole, whether a block holds one row or them all
    rng = np.random.default_rng(300)
    c = random_config(rng, 300)
    z = rng.uniform(0.0, TWO_PI, (30, 20))
    results = []
    for budget in (1, 10**9):
        monkeypatch.setattr(potential, "_CHUNK_BUDGET", budget)
        results.append((polarization(kernel, c), potential_values(kernel, c, z)))
    (r1, v1), (r2, v2) = results
    assert r1 == r2
    assert v1.shape == z.shape
    assert np.array_equal(v1, v2)


def test_polarization_equally_spaced_known_values():
    assert polarization(riesz_kernel(2), equally_spaced(2)).value == pytest.approx(1.0, rel=1e-12)
    assert polarization(riesz_kernel(4), equally_spaced(2)).value == pytest.approx(0.5, rel=1e-12)
    assert polarization(riesz_kernel(2), equally_spaced(6)).value == pytest.approx(9.0, rel=1e-12)


def test_polarization_single_point():
    r = polarization(riesz_kernel(2), Configuration([0.0]))
    assert r.value == pytest.approx(0.25, rel=1e-12)
    assert len(r.witnesses) == 1
    assert r.witnesses[0] == pytest.approx(math.pi, abs=1e-9)


def test_polarization_equally_spaced_per_arc_values_agree():
    r = polarization(riesz_kernel(2), equally_spaced(5))
    values = [v for _, _, v in r.per_arc_minima]
    assert (max(values) - min(values)) / abs(min(values)) < 1e-10
    assert len(r.witnesses) == 5  # every gap midpoint ties


@pytest.mark.parametrize("s", [2, 4, 6])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_polarization_equally_spaced_witnesses_every_midpoint(s, n):
    # congruent gaps differ only by rounding in the n-term sums
    r = polarization(riesz_kernel(s), equally_spaced(n))
    midpoints = (np.arange(n) + 0.5) * (TWO_PI / n)
    assert len(r.witnesses) == n
    assert_allclose(r.witnesses, midpoints, rtol=0.0, atol=1e-6)


def test_nan_kernel_raises():
    # NaN on the validator's grid: the search refuses the kernel up front
    k = Kernel(lambda t: np.where(t > 1, np.nan, 1 / t), math.inf)
    c = equally_spaced(4)
    with pytest.raises(ValueError, match=r"fails finite \(value nan at theta="):
        polarization(k, c)
    with pytest.raises(ValueError, match=r"fails finite \(value nan at theta="):
        minimum_on_arc(k, c, c.angles[0], c.gaps[0])


def test_nan_met_only_by_refinement_raises():
    # NaN near distance pi/3 only, where no point of the validator's grid
    # comes within 1e-3: the potential is finite at both ends of the gap
    # [0, 2 pi/3], and the first probe of the derivative, at the gap's
    # midpoint pi/3, lands in it
    def fn(t):
        return np.where(np.abs(t - math.pi / 3) < 1e-4, np.nan,
                        (2.0 * np.sin(t / 2.0)) ** -2.0)
    kernel = Kernel(fn, math.inf)
    assert validate_kernel(kernel).ok
    with pytest.raises(ValueError, match="NaN"):
        minimum_on_arc(kernel, equally_spaced(3), 0.0, 2.0 * math.pi / 3)


def test_nan_met_only_where_potentials_are_summed_raises():
    # f is NaN within 1e-6 of distance pi/3, off the validator's grid, and
    # f' and f'' are clear of it.  The one check on summed potentials
    # refuses it: as the jet's f, summed at the first probe of each gap of
    # equally spaced 3, at distance pi/3 from two nodes, and as fn, summed
    # by potential_values and the profile, or taken for the difference
    # quotient's second difference
    k = riesz_kernel(2)

    def ring(t, f):
        return np.where(np.abs(t - math.pi / 3) < 1e-6, np.nan, f)
    jet = dataclasses.replace(k, derivatives=lambda t: (
        ring(t, k.derivatives(t)[0]), *k.derivatives(t)[1:]))
    fn = dataclasses.replace(k, fn=lambda t: ring(t, k.fn(t)))
    assert validate_kernel(jet).ok and validate_kernel(fn).ok
    c = equally_spaced(3)
    for search in (lambda: polarization(jet, c),
                   lambda: minimum_on_arc(jet, c, 0.0, c.gaps[0]),
                   lambda: polarization(dataclasses.replace(fn, derivatives=None), c),
                   lambda: potential_values(fn, c, math.pi / 3),
                   lambda: potential_profile(fn, c, 6)):
        with pytest.raises(ValueError, match="^kernel returned NaN$"):
            search()


@pytest.mark.parametrize("z", [[math.nan, 1.0], [math.inf], [0.5, -math.inf]])
def test_potential_values_refuses_a_non_finite_angle(z):
    # refused before any kernel call: this kernel fails every call
    def fn(t):
        raise AssertionError("kernel called")
    with pytest.raises(ValueError, match="z must be finite"):
        potential_values(Kernel(fn, math.inf), equally_spaced(3), z)


def test_nan_met_only_by_the_difference_quotient_raises():
    # NaN on a ring around distance pi/2: the first probe, at pi/2, is clear
    # of it, but the difference quotient there steps 9.4e-6 into it
    def fn(t):
        ring = (np.abs(t - math.pi / 2) > 5e-6) & (np.abs(t - math.pi / 2) < 2e-5)
        return np.where(ring, np.nan, (2.0 * np.sin(t / 2.0)) ** -2.0)
    with pytest.raises(ValueError, match="NaN"):
        minimum_on_arc(Kernel(fn, math.inf), equally_spaced(2),
                       0.0, math.pi)


def test_nan_met_only_by_a_declared_slope_raises():
    # f', or f'' alone, is NaN only within 1e-6 of distance 0.5, which no
    # point of the validator's grid comes near, and the first probe of the
    # gap lies at distance 0.5 from both nodes
    k = riesz_kernel(2)

    def ring(i):
        def derivatives(t):
            jet = list(k.derivatives(t))
            jet[i] = np.where(np.abs(t - 0.5) < 1e-6, np.nan, jet[i])
            return tuple(jet)
        return dataclasses.replace(k, derivatives=derivatives)
    for bad in (ring(1), ring(2)):
        assert validate_kernel(bad).ok
        with pytest.raises(ValueError, match="^kernel derivatives returned NaN$"):
            minimum_on_arc(bad, Configuration([0.0, 1.0]), 0.0, 1.0)
    with pytest.raises(ValueError, match="^kernel derivatives returned NaN$"):
        ring(1).derivative(0.5)


def test_polarization_value_is_min_of_per_arc():
    rng = np.random.default_rng(12)
    k = riesz_kernel(2)
    c = random_config(rng, 6)
    r = polarization(k, c)
    assert r.value == min(v for _, _, v in r.per_arc_minima)
    for w in r.witnesses:
        assert abs(potential_values(k, c, w)[0] - r.value) <= 1e-9


def test_all_coincident_points_use_full_circle_arc():
    c = Configuration([2.0, 2.0, 2.0])
    r = polarization(riesz_kernel(2), c)
    # three coincident points: minimum is 3 * kernel(pi) at the antipode
    assert r.value == pytest.approx(3 * 0.25, rel=1e-10)
    assert r.witnesses[0] == pytest.approx((2.0 + math.pi) % TWO_PI, abs=1e-9)


def test_polarization_rotation_invariance():
    rng = np.random.default_rng(13)
    k = riesz_kernel(2)
    for _ in range(5):
        c = random_config(rng, 5)
        base = polarization(k, c).value
        phi = rng.uniform(0, TWO_PI)
        rot = polarization(k, Configuration(a + phi for a in c.angles)).value
        assert rot == pytest.approx(base, rel=1e-11)


def test_polarization_reflection_invariance():
    rng = np.random.default_rng(14)
    k = riesz_kernel(1)
    c = random_config(rng, 6)
    mirrored = Configuration([-a for a in c.angles])
    assert polarization(k, mirrored).value == pytest.approx(
        polarization(k, c).value, rel=1e-11)


def test_polarization_matches_dense_scan():
    rng = np.random.default_rng(15)
    for n in (2, 4, 6):
        c = random_config(rng, n, min_sep=0.05)
        for k in (riesz_kernel(2), log_kernel()):
            got = polarization(k, c).value
            brute = dense_scan_minimum(k, c)
            assert got == pytest.approx(brute, rel=1e-8)
            assert got <= brute + 1e-12  # search must not overshoot the scan


def test_profile_shape_and_known_row():
    rows = potential_profile(riesz_kernel(2), equally_spaced(2), 4)
    assert rows.shape == (4, 2)
    assert_allclose(rows[:, 0], [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert rows[0, 1] == math.inf and rows[2, 1] == math.inf
    assert rows[1, 1] == pytest.approx(1.0)
    assert rows[3, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        potential_profile(riesz_kernel(2), equally_spaced(2), 1)


@pytest.mark.parametrize("resolution", [2.5, 4.0, "4", 1, np.int64(1)])
def test_profile_refuses_a_resolution_that_is_no_integer_above_one(resolution):
    # 2.5 angles spaced 2 pi / 2.5 apart would not be equally spaced around
    # the circle: three of them are 0, 2.51 and 5.03
    with pytest.raises(ValueError, match=r"^resolution must be an integer >= 2, got "):
        potential_profile(riesz_kernel(2), equally_spaced(2), resolution)


def test_profile_takes_a_numpy_integer_resolution():
    want = potential_profile(riesz_kernel(2), equally_spaced(3), 6)
    for resolution in (np.int64(6), np.int32(6), np.uint8(6)):
        assert np.array_equal(
            potential_profile(riesz_kernel(2), equally_spaced(3), resolution), want)


def test_profile_minimum_consistent_with_polarization():
    rng = np.random.default_rng(16)
    c = random_config(rng, 5, min_sep=0.05)
    k = riesz_kernel(2)
    rows = potential_profile(k, c, 10 ** 6)
    assert rows[:, 1].min() >= polarization(k, c).value - 1e-9


def test_value_continuity_in_s():
    # regression guard: nearby exponents give nearby polarization values
    for s in (0.5, 2.0, 6.0):
        for n in (4, 16):
            a = polarization(riesz_kernel(s), equally_spaced(n)).value
            b = polarization(riesz_kernel(s + 1e-6), equally_spaced(n)).value
            assert abs(b - a) / abs(a) < 1e-3


def test_random_configs_never_beat_equal_spacing():
    rng = np.random.default_rng(17)
    k = riesz_kernel(2)
    for n in (2, 5, 8):
        best = polarization(k, equally_spaced(n)).value
        for _ in range(25):
            c = random_config(rng, n)
            assert polarization(k, c).value <= best + 1e-9

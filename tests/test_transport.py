"""Gap-system solver, homotopy, minimum curve, and the pair-spread checker."""

import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circlepol import (TWO_PI, Configuration, InequalityReport, Kernel,
                       TransportPlan, check_pair_inequality, config_from_gaps,
                       equally_spaced, log_kernel, min_curve, minimum_on_arc,
                       polarization, potential, power_kernel, riesz_kernel,
                       solve_gap_system, solve_transport, transport)
from helpers import cyclic_allclose, homotopy_stage, random_config


def second_difference(deltas):
    d = np.asarray(deltas)
    return -np.roll(d, 1) + 2.0 * d - np.roll(d, -1)


def test_identity_transport_is_zero():
    rng = np.random.default_rng(20)
    c = random_config(rng, 5)
    plan = solve_transport(c, c)
    assert_allclose(plan.deltas, 0.0, atol=1e-12)


def test_rotated_target_gives_zero_plan():
    rng = np.random.default_rng(21)
    c = random_config(rng, 4, min_sep=0.1, rotate=False)
    plan = solve_transport(c, Configuration(a + 0.5 for a in c.angles))
    # same gap multiset, but rotation may shift the gap labels cyclically;
    # identical labelled gaps happen when the rotation keeps the order
    if plan.source_gaps == plan.target_gaps:
        assert_allclose(plan.deltas, 0.0, atol=1e-12)


def test_worked_three_point_plan():
    src = config_from_gaps([math.pi, math.pi / 2, math.pi / 2])
    plan = solve_transport(src, equally_spaced(3))
    assert_allclose(plan.deltas, (0.0, math.pi / 6, math.pi / 6), atol=1e-12)
    assert plan.zero_index == 0
    # a plan holds its three fields and nothing else
    assert not hasattr(plan, "__dict__")


@pytest.mark.parametrize("seed", range(5))
def test_the_anchor_is_the_exact_zero(seed):
    # gaps within 1e-13 of equal: components of that size sit next to the
    # exact zero that solve_gap_system leaves, and the anchor must be it
    gaps = TWO_PI / 8 + np.random.default_rng(seed).uniform(-1e-13, 1e-13, 8)
    gaps += (TWO_PI - gaps.sum()) / 8
    plan = solve_transport(config_from_gaps(gaps), equally_spaced(8))
    j = plan.zero_index
    assert plan.deltas[j] == 0.0
    assert min(plan.deltas[:j], default=math.inf) > 0.0


def test_plan_invariants_on_random_pairs():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        source = random_config(rng, n)
        target = random_config(rng, n)
        plan = solve_transport(source, target)
        deltas = np.array(plan.deltas)
        assert deltas.min() >= 0.0
        assert deltas.min() <= 1e-12  # at least one zero
        residual = second_difference(deltas) - (
            np.array(plan.target_gaps) - np.array(plan.source_gaps))
        assert np.abs(residual).max() <= 1e-10


def test_transported_config_matches_target_gaps():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        source = random_config(rng, n)
        target = random_config(rng, n)
        plan = solve_transport(source, target)
        gap_change = np.array(target.gaps) - np.array(source.gaps)
        assert_allclose(second_difference(plan.deltas), gap_change, atol=1e-9)
        moved = homotopy_stage(source, plan, 1.0)
        assert cyclic_allclose(moved.gaps, target.gaps, atol=1e-9)


def test_solver_is_deterministic():
    rng = np.random.default_rng(24)
    a = random_config(rng, 9)
    b = random_config(rng, 9)
    assert solve_transport(a, b) == solve_transport(a, b)


def test_solver_matches_least_squares_oracle():
    rng = np.random.default_rng(25)
    for n in (2, 3, 5, 16, 40):
        beta = rng.normal(size=n)
        beta -= beta.mean()
        mine = solve_gap_system(beta)
        matrix = (2.0 * np.eye(n) - np.roll(np.eye(n), 1, axis=1)
                  - np.roll(np.eye(n), -1, axis=1))
        general, *_ = np.linalg.lstsq(matrix, beta, rcond=None)
        general -= general.min()
        assert_allclose(mine, general, atol=1e-9)


def test_solver_input_validation():
    with pytest.raises(ValueError, match="invalid-gap-vectors"):
        solve_gap_system([0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="empty gap-difference vector"):
        solve_gap_system([])
    with pytest.raises(ValueError):
        solve_transport(equally_spaced(3), equally_spaced(4))


@pytest.mark.parametrize("beta", [
    [math.nan, 0.0], [math.nan, 1.0, -1.0], [math.inf, -math.inf],
    [1.0, math.inf, 0.0],
])
def test_solver_rejects_non_finite_differences(beta):
    with pytest.raises(ValueError, match="finite"):
        solve_gap_system(beta)


def test_homotopy_endpoints_and_interpolation():
    src = config_from_gaps([math.pi, math.pi / 2, math.pi / 2])
    plan = solve_transport(src, equally_spaced(3))
    at0 = homotopy_stage(src, plan, 0.0)
    assert at0.angles == pytest.approx(src.angles, abs=1e-12)
    at1 = homotopy_stage(src, plan, 1.0)
    assert_allclose(at1.gaps, np.full(3, TWO_PI / 3), atol=1e-10)
    mid = homotopy_stage(src, plan, 0.5)
    want = (5 * math.pi / 6, 7 * math.pi / 12, 7 * math.pi / 12)
    assert cyclic_allclose(mid.gaps, want, atol=1e-10)


def test_homotopy_anchor_never_moves_and_separation_grows():
    rng = np.random.default_rng(26)
    src = random_config(rng, 6)
    plan = solve_transport(src, equally_spaced(6))
    anchor = src.angles[plan.zero_index]
    for t in np.linspace(0.0, 1.0, 7):
        cfg = homotopy_stage(src, plan, float(t))
        assert min(abs(a - anchor) for a in cfg.angles) < 1e-12
        assert min(cfg.gaps) >= t * TWO_PI / 6 - 1e-12


def test_min_curve_constant_for_equally_spaced_source():
    src = equally_spaced(4)
    plan = solve_transport(src, equally_spaced(4))
    rows = min_curve(riesz_kernel(2), src, plan, 5)
    assert_allclose(rows[:, 1], rows[0, 1], rtol=1e-12)


def test_min_curve_worked_example_monotone_to_endpoint():
    src = config_from_gaps([math.pi, math.pi / 2, math.pi / 2])
    plan = solve_transport(src, equally_spaced(3))
    rows = min_curve(riesz_kernel(2), src, plan, 101)
    h = rows[:, 1]
    assert np.all(np.diff(h) >= -1e-10)
    assert h[-1] == pytest.approx(9.0 / 4.0, abs=1e-10)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0
    with pytest.raises(ValueError):
        min_curve(riesz_kernel(2), src, plan, 1)


@pytest.mark.parametrize("grid", [3.5, 5.0, "5", 1, np.int64(1)])
def test_min_curve_refuses_a_grid_that_is_no_integer_above_one(grid):
    # 3.5 once reached numpy's TypeError from linspace
    src = config_from_gaps([math.pi, math.pi / 2, math.pi / 2])
    plan = solve_transport(src, equally_spaced(3))
    with pytest.raises(ValueError, match=r"^grid must be an integer >= 2, got "):
        min_curve(riesz_kernel(2), src, plan, grid)


def test_min_curve_takes_a_numpy_integer_grid():
    src = config_from_gaps([math.pi, math.pi / 2, math.pi / 2])
    plan = solve_transport(src, equally_spaced(3))
    want = min_curve(riesz_kernel(2), src, plan, 5)
    for grid in (np.int64(5), np.int32(5), np.uint8(5)):
        assert np.array_equal(min_curve(riesz_kernel(2), src, plan, grid), want)


def test_min_curve_start_bounds_polarization():
    rng = np.random.default_rng(27)
    k = riesz_kernel(2)
    for n in (3, 5, 8):
        src = random_config(rng, n)
        plan = solve_transport(src, equally_spaced(n))
        rows = min_curve(k, src, plan, 11)
        assert rows[0, 1] >= polarization(k, src).value - 1e-12
        assert rows[-1, 1] == pytest.approx(
            polarization(k, equally_spaced(n)).value, abs=1e-10)


def test_min_curve_rows_are_the_homotopy_stages_bit_for_bit():
    # each row minimizes the stage's tracked arc, the anchor's gap
    rng = np.random.default_rng(28)
    k = riesz_kernel(2)
    src = random_config(rng, 7)
    plan = solve_transport(src, random_config(rng, 7))
    j = plan.zero_index
    rows = min_curve(k, src, plan, 11)
    for t, h in rows:
        gaps = (1.0 - t) * np.asarray(plan.source_gaps) + t * np.asarray(plan.target_gaps)
        _, value = minimum_on_arc(k, homotopy_stage(src, plan, t), src.angles[j], gaps[j])
        assert h == value


def _stage_loop(kernel, source, plan, grid):
    """min_curve as one Configuration and one minimum_on_arc per stage."""
    j = plan.zero_index
    anchor = source.angles[j]
    rows = np.empty((grid, 2))
    for i, t in enumerate(np.linspace(0.0, 1.0, grid)):
        gaps = (1.0 - t) * np.asarray(plan.source_gaps) + t * np.asarray(plan.target_gaps)
        config_t = config_from_gaps(np.roll(gaps, -j), anchor=anchor)
        _, value = minimum_on_arc(kernel, config_t, anchor, gaps[j])
        rows[i] = (t, value)
    return rows


@pytest.mark.parametrize("kernel", [riesz_kernel(2), riesz_kernel(20), log_kernel(),
                                    power_kernel(0.5),
                                    Kernel(lambda t: math.pi - t, math.pi)],
                         ids=lambda k: k.label)
def test_min_curve_matches_the_stage_loop_bit_for_bit(kernel):
    rng = np.random.default_rng(30)
    for n, grid in ((1, 3), (2, 2), (3, 101), (8, 17), (25, 40), (64, 101), (300, 21)):
        src = random_config(rng, n)
        for target in (equally_spaced(n), random_config(rng, n)):
            plan = solve_transport(src, target)
            assert np.array_equal(min_curve(kernel, src, plan, grid),
                                  _stage_loop(kernel, src, plan, grid))


@pytest.mark.parametrize("kernel", [riesz_kernel(2), log_kernel()], ids=lambda k: k.label)
def test_min_curve_does_not_depend_on_its_stage_blocks(kernel, monkeypatch):
    # a budget of 1 or 7 pairs splits each engine pass over the stages into
    # blocks of one or a few probes
    rng = np.random.default_rng(32)
    for n, grid in ((2, 9), (3, 101), (8, 17)):
        src = random_config(rng, n)
        plan = solve_transport(src, equally_spaced(n))
        curves = []
        for budget in (1, 7, 10**9):
            monkeypatch.setattr(potential, "_CHUNK_BUDGET", budget)
            curves.append(min_curve(kernel, src, plan, grid).tobytes())
        assert curves[0] == curves[1] == curves[2]
        assert curves[2] == _stage_loop(kernel, src, plan, grid).tobytes()


def test_min_curve_is_one_engine_call(monkeypatch):
    # however many stages and points, the engine splits its own passes
    calls = []

    def counted(*args):
        calls.append(args[1].shape)
        return potential._minimize_on_arcs(*args)

    monkeypatch.setattr(transport, "_minimize_on_arcs", counted)
    rng = np.random.default_rng(33)
    src = random_config(rng, 300)
    rows = min_curve(log_kernel(), src, solve_transport(src, equally_spaced(300)), 101)
    assert calls == [(101, 300)]
    assert rows.shape == (101, 2)


def test_min_curve_rejects_a_plan_of_the_wrong_size():
    src = equally_spaced(4)
    plan = solve_transport(equally_spaced(3), equally_spaced(3))
    with pytest.raises(ValueError, match="plan size"):
        min_curve(riesz_kernel(2), src, plan, 5)


def test_min_curve_rejects_gaps_that_are_not_a_circle():
    src = equally_spaced(3)
    third = TWO_PI / 3
    for source_gaps, match in (((third, third, 2 * third), "sum to 2"),
                               ((2 * third, -third / 2, 1.5 * third), "nonnegative"),
                               ((third, math.nan, third), "finite")):
        plan = TransportPlan(deltas=(0.0, 0.0, 0.0), source_gaps=source_gaps,
                             target_gaps=(third,) * 3)
        with pytest.raises(ValueError, match=match):
            min_curve(riesz_kernel(2), src, plan, 5)


def test_plan_json_round_trip():
    src = config_from_gaps([math.pi, math.pi / 2, math.pi / 2])
    plan = solve_transport(src, equally_spaced(3))
    # as the CLI prints it
    parsed = json.loads(json.dumps(plan.to_dict()))
    assert parsed == plan.to_dict()
    assert parsed["deltas"] == pytest.approx(plan.deltas)


def test_pair_inequality_strict_case():
    report = check_pair_inequality(riesz_kernel(2), 0.0, math.pi / 2,
                                   math.pi / 8, samples=1000)
    assert report.max_violation == 0.0
    assert report.between_min_margin > 0.0
    assert report.complement_min_margin > 0.0
    assert report.strict_expected


def test_pair_inequality_linear_kernel_non_strict():
    linear = Kernel(lambda t: math.pi - t, value_at_zero=math.pi,
                    label="linear")
    report = check_pair_inequality(linear, 0.0, math.pi / 2,
                                   math.pi / 8, samples=1000)
    assert report.max_violation <= 1e-12
    assert not report.strict_expected


def test_pair_inequality_coincident_convention():
    report = check_pair_inequality(riesz_kernel(2), 1.0, 1.0, 0.3,
                                   samples=500)
    assert report.between_min_margin == math.inf
    assert report.between_max_violation == 0.0
    assert report.complement_min_margin > 0.0


def test_pair_inequality_violations_derive_from_margins():
    # a report stores its margins only, and holds nothing else
    report = InequalityReport(z1=0.0, z2=1.0, eps=0.1, samples=10,
                              between_min_margin=-0.5,
                              complement_min_margin=0.25,
                              strict_expected=True)
    assert not hasattr(report, "__dict__")
    assert "between_max_violation" not in {
        f.name for f in dataclasses.fields(InequalityReport)}
    assert report.between_max_violation == 0.5
    assert report.complement_max_violation == 0.0
    assert report.max_violation == 0.5
    # a coincident pair's in-between margin is inf: no violation there
    coincident = check_pair_inequality(riesz_kernel(2), 1.0, 1.0, 0.3,
                                       samples=50)
    assert coincident.between_min_margin == math.inf
    assert coincident.between_max_violation == 0.0
    assert coincident.complement_max_violation == max(
        0.0, -coincident.complement_min_margin)


def test_pair_inequality_eps_validation():
    # complement from z2 = pi/2 back to z1 = 0 has length 3*pi/2
    with pytest.raises(ValueError):
        check_pair_inequality(riesz_kernel(2), 0.0, math.pi / 2,
                              3 * math.pi / 4)
    with pytest.raises(ValueError):
        check_pair_inequality(riesz_kernel(2), 0.0, math.pi / 2, 0.0)
    # a valid eps with too few samples
    with pytest.raises(ValueError, match="at least 2 samples"):
        check_pair_inequality(riesz_kernel(2), 0.0, 1.0, 0.1, samples=1)


@pytest.mark.parametrize("z1, z2, name", [
    (math.nan, 1.0, "z1"), (0.5, math.inf, "z2"), (0.5, -math.inf, "z2"),
])
def test_pair_inequality_rejects_a_non_finite_angle(z1, z2, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        check_pair_inequality(riesz_kernel(2), z1, z2, 0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [200, 400, 1000])
def test_pair_inequality_leaves_out_samples_where_both_potentials_overflow(s):
    # next to a node both potentials overflow to inf, and inf - inf has no
    # sign: such a sample is left out, not read as NaN or as no violation
    kernel = riesz_kernel(s)
    report = check_pair_inequality(kernel, 0.0, 3.0, 0.01)
    margins = (report.between_min_margin, report.complement_min_margin)
    assert all(m > 0.0 for m in margins), margins
    assert report.max_violation == 0.0
    # a close pair: every sample between it overflows both ways
    close = check_pair_inequality(kernel, 0.0, 0.001, 1e-6)
    assert close.between_min_margin == math.inf
    assert not math.isnan(close.complement_min_margin)


def test_pair_inequality_margin_is_the_least_signed_sample():
    # every sample of known sign counts, bit for bit, the rest is left out
    kernel = riesz_kernel(200)
    report = check_pair_inequality(kernel, 0.0, 3.0, 0.01, samples=1000)
    zs = (0.0 + 3.0 * np.linspace(0.0, 1.0, 1000)) % TWO_PI
    after = potential.potential_values(kernel, Configuration((-0.01, 3.01)), zs)
    before = potential.potential_values(kernel, Configuration((0.0, 3.0)), zs)
    signed = np.isfinite(after) | np.isfinite(before)
    assert 0 < signed.sum() < zs.size
    assert report.between_min_margin == float((before[signed] - after[signed]).min())


def test_pair_inequality_raises_on_a_nan_kernel():
    # NaN past distance 2 would read as no violation, max_violation 0.0
    kernel = Kernel(lambda t: np.where(t > 2, np.nan, np.pi - t), np.pi)
    with pytest.raises(ValueError, match="^kernel returned NaN$"):
        check_pair_inequality(kernel, 0.0, 1.0, 0.1)

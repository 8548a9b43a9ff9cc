"""Tests for the restarted max-min ascent over gap vectors."""

from __future__ import annotations

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from circlepol.circle_config import TWO_PI, config_from_gaps, equally_spaced
from circlepol.kernels import (Kernel, log_kernel, power_kernel,
                               riesz_kernel)
from circlepol.optimizer import (
    OptimizeOptions,
    OptimizeResult,
    maximize_polarization,
    perturbation_test,
)
from circlepol.potential import polarization

from helpers import sup_gap_deviation


# ---------------------------------------------------------------------------
# maximize_polarization
# ---------------------------------------------------------------------------


def test_maximize_recovers_equal_spacing_inverse_square():
    # Four equally spaced points under the inverse-square kernel score
    # exactly n^2/4 = 4.
    result = maximize_polarization(riesz_kernel(2.0), 4,
                                   OptimizeOptions(restarts=4, max_iters=800))
    assert math.isclose(result.best_value, 4.0, rel_tol=1e-7)
    assert result.converged_to_equal_spacing
    assert sup_gap_deviation(result.best_config) < 1e-6


def test_maximize_single_point():
    result = maximize_polarization(riesz_kernel(2.0), 1)
    assert math.isclose(result.best_value, 0.25, rel_tol=1e-12)
    assert result.converged_to_equal_spacing


def test_maximize_is_deterministic():
    opts = OptimizeOptions(restarts=3, max_iters=300, seed=42)
    a = maximize_polarization(riesz_kernel(1.0), 3, opts)
    b = maximize_polarization(riesz_kernel(1.0), 3, opts)
    assert a.best_value == b.best_value
    assert a.best_config.angles == b.best_config.angles
    assert a.to_dict() == b.to_dict()


def test_maximize_restart_zero_never_beaten():
    # The equal-gap start already sits at the global maximum, so no other
    # restart may report a strictly larger value.
    result = maximize_polarization(log_kernel(), 4,
                                   OptimizeOptions(restarts=6, max_iters=600))
    equal_start_value = result.per_restart[0].value
    assert result.best_value <= equal_start_value + 1e-9
    for record in result.per_restart[1:]:
        assert record.value <= equal_start_value + 1e-9


@pytest.mark.parametrize("n", [64, 256])
def test_restart_zero_is_equal_spacing_to_the_bit(n):
    # a cumulative sum of equal gaps rounds away from 2 pi k / n, and its
    # polarization fell 1e-12 relative below equal spacing's at n = 256
    kernel = riesz_kernel(2.0)
    result = maximize_polarization(kernel, n, OptimizeOptions(restarts=1))
    assert result.best_value == polarization(kernel, equally_spaced(n)).value
    assert result.per_restart[0].start_gaps == (TWO_PI / n,) * n


def test_maximize_records_every_restart():
    opts = OptimizeOptions(restarts=5, max_iters=200, seed=9)
    result = maximize_polarization(power_kernel(0.5), 3, opts)
    assert len(result.per_restart) == 5
    assert result.seed == 9
    starts = {r.start_gaps for r in result.per_restart}
    assert len(starts) == 5  # distinct random starts
    assert all(len(r.start_gaps) == 3 for r in result.per_restart)


def test_result_records_hold_only_their_fields():
    result = maximize_polarization(log_kernel(), 3,
                                   OptimizeOptions(restarts=2, max_iters=50))
    report = perturbation_test(log_kernel(), 3, magnitude=0.05, trials=3)
    for record in (result, result.per_restart[0], report):
        assert not hasattr(record, "__dict__")


def test_converged_to_equal_spacing_is_read_off_the_best_gaps():
    result = maximize_polarization(log_kernel(), 3,
                                   OptimizeOptions(restarts=2, max_iters=50))
    assert "converged_to_equal_spacing" not in {
        f.name for f in dataclasses.fields(OptimizeResult)}
    assert result.converged_to_equal_spacing
    off = dataclasses.replace(
        result, best_config=config_from_gaps([TWO_PI / 3 + 2e-6,
                                              TWO_PI / 3 - 2e-6, TWO_PI / 3]))
    assert not off.converged_to_equal_spacing
    near = dataclasses.replace(
        result, best_config=config_from_gaps([TWO_PI / 3 + 5e-7,
                                              TWO_PI / 3 - 5e-7, TWO_PI / 3]))
    assert near.converged_to_equal_spacing


def test_ascent_stops_when_no_gap_minimum_is_finite():
    # riesz:400 overflows at every gap minimum of 20 equal gaps: no row of
    # the least-squares system is finite, so the ascent takes no step
    result = maximize_polarization(riesz_kernel(400), 20,
                                   OptimizeOptions(restarts=1))
    assert result.best_value == math.inf
    assert result.per_restart[0].iterations == 0


def test_maximize_validation():
    with pytest.raises(ValueError):
        maximize_polarization(riesz_kernel(2.0), 0)
    with pytest.raises(ValueError):
        OptimizeOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizeOptions(max_iters=-3)
    assert maximize_polarization(riesz_kernel(2.0), 3, OptimizeOptions(
        restarts=1, max_iters=0)).per_restart[0].iterations == 0


@pytest.mark.parametrize("field, value", [
    ("restarts", 2.5), ("restarts", 3.0), ("max_iters", 1.5), ("max_iters", None),
    ("seed", 1.5), ("seed", "1"), ("seed", -1)])
def test_options_refuse_what_would_fail_later(field, value):
    # each of these failed only inside range() or numpy's seeding, with a
    # TypeError or numpy's message that does not name the option
    with pytest.raises(ValueError, match=field):
        OptimizeOptions(**{field: value})


def test_options_take_numpy_integers():
    opts = OptimizeOptions(restarts=np.int64(2), max_iters=np.int32(5), seed=np.uint8(3))
    assert maximize_polarization(log_kernel(), 3, opts).seed == 3


@pytest.mark.parametrize("kernel", [log_kernel(), riesz_kernel(1.0),
                                    riesz_kernel(2.0), riesz_kernel(4.0),
                                    power_kernel(0.5)],
                         ids=lambda k: k.label)
def test_every_restart_reaches_equal_spacing_value(kernel):
    # The ascent converges from every seeded random start, not only from the
    # equal-gap start of restart 0.  Under riesz:4 some starts have a gap
    # below 1e-3, whose huge minimum the least-squares step must not let
    # drown out the other gaps' equations.
    for n in range(2, 9):
        equal = polarization(kernel, equally_spaced(n)).value
        result = maximize_polarization(kernel, n)
        for r, record in enumerate(result.per_restart):
            assert abs(record.value - equal) <= 1e-9 * max(1.0, abs(equal)), (n, r)
        assert result.converged_to_equal_spacing, n


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", [
    power_kernel(1.0),
    Kernel(lambda t: (math.pi - t) ** 2, math.pi ** 2, label="pi-t^2"),
], ids=lambda k: k.label)
def test_finite_kernels_report_equal_spacing(kernel):
    # These kernels have a finite slope at distance 0, so a gap's minimum
    # can sit on a node, where the slope estimate must stay one-sided and
    # warning-free.
    for n in range(1, 7):
        result = maximize_polarization(kernel, n)
        equal = polarization(kernel, equally_spaced(n)).value
        assert result.converged_to_equal_spacing, n
        assert abs(result.best_value - equal) <= 1e-9 * max(1.0, abs(equal)), n


@pytest.mark.parametrize("seed", [0, 7])
def test_gaps_whose_slopes_overflow_leave_the_step(seed):
    # Under riesz:400 a random start's tiny gap has an infinite gradient,
    # and an infinite minimum (seed 0) or a finite one (seed 7, restart 4);
    # its row must leave the least-squares system, not turn it NaN
    kernel = riesz_kernel(400)
    result = maximize_polarization(kernel, 4, OptimizeOptions(seed=seed))
    equal = polarization(kernel, equally_spaced(4)).value
    assert result.best_value == pytest.approx(equal, rel=1e-9)


@pytest.mark.parametrize("s", [50, 400])
def test_gradient_at_a_node_leaks_no_warning(s):
    # a random start drives two nodes one ulp apart: that gap's minimizer is
    # a node, whose slope term is -inf * 0.  The NaN row leaves the step, and
    # no warning escapes the suite's error::RuntimeWarning filter
    kernel = riesz_kernel(s)
    result = maximize_polarization(kernel, 5)
    assert result.best_value == polarization(kernel, equally_spaced(5)).value
    assert result.converged_to_equal_spacing


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("kernel", [
    log_kernel(), riesz_kernel(2.0), power_kernel(0.5),
    Kernel(lambda t: math.pi - t, math.pi, label="pi-t"),
], ids=lambda k: k.label)
def test_restart_records_do_not_depend_on_the_other_restarts(kernel, seed):
    # the restarts share their passes and engine calls, yet each takes the
    # steps it would take with fewer restarts beside it
    for n in range(2, 9):
        many = maximize_polarization(kernel, n, OptimizeOptions(restarts=8, seed=seed))
        few = maximize_polarization(kernel, n, OptimizeOptions(restarts=3, seed=seed))
        assert many.per_restart[:3] == few.per_restart, n


def test_results_keep_little_memory():
    kernel = log_kernel()
    maximize_polarization(kernel, 6)  # the kernel's validation report, once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = [maximize_polarization(kernel, 6) for _ in range(100)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results[0].per_restart) == 8
    assert held / len(results) <= 1500


def test_gradient_rows_run_in_blocks():
    # one step of 8 restarts at n = 256: the gradient rows are 8 x 256 x 255
    # floats, 4.2 MB, written block by block into one output (5.7 MB peak);
    # a list of blocks and its concatenation peaked at 8.1 MB, and an
    # unblocked slope pass kept about 32 MB of temporaries
    kernel, opts = log_kernel(), OptimizeOptions(max_iters=1)
    maximize_polarization(kernel, 256, opts)  # the validation report, once
    gc.collect()
    tracemalloc.start()
    try:
        maximize_polarization(kernel, 256, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


# ---------------------------------------------------------------------------
# perturbation_test
# ---------------------------------------------------------------------------


def test_perturbation_strictly_convex_kernel_always_drops():
    report = perturbation_test(riesz_kernel(2.0), 5, magnitude=0.1,
                               trials=40, seed=1)
    assert report.strict_expected
    assert report.all_strictly_below
    assert report.non_negative_count == 0
    assert report.min_deficit > 0.0
    assert report.max_deficit >= report.min_deficit


def test_perturbation_deficit_shrinks_with_magnitude():
    big = perturbation_test(riesz_kernel(2.0), 4, magnitude=0.2,
                            trials=30, seed=3)
    small = perturbation_test(riesz_kernel(2.0), 4, magnitude=1e-4,
                              trials=30, seed=3)
    assert small.max_deficit < big.max_deficit
    # The deficit of a min of smooth functions is first-order in the
    # perturbation, so it shrinks proportionally (constant is O(n)).
    assert small.max_deficit < 10.0 * small.magnitude
    assert small.equal_value == big.equal_value


def test_perturbation_non_strict_kernel_flagged():
    # pi - t is convex but not strictly convex, so ties are possible and the
    # report must say strictness is not guaranteed.
    linear = Kernel(lambda t: math.pi - t, math.pi, label="pi-t")
    report = perturbation_test(linear, 4, magnitude=0.05, trials=20, seed=2)
    assert not report.strict_expected
    # ... but the deficits must still never be meaningfully negative.
    assert report.min_deficit > -1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_perturbation_first_power_kernel_is_strict(n):
    # -2 sin(theta/2) is strictly convex, as the validator measures, so
    # every perturbation of equal gaps scores strictly below them
    report = perturbation_test(power_kernel(1.0), n, magnitude=0.05,
                               trials=100, seed=n)
    assert report.strict_expected
    assert report.all_strictly_below
    assert report.min_deficit > 0.0


@pytest.mark.parametrize("kernel", [riesz_kernel(2.0), log_kernel(), power_kernel(1.0)],
                         ids=lambda k: k.label)
@pytest.mark.parametrize("n", [2, 3, 7])
def test_perturbation_matches_the_trial_loop_bit_for_bit(kernel, n):
    # one polarization per trial, as before all trials shared one call
    magnitude, trials, seed = 0.05 * TWO_PI / n, 12, n
    rng = np.random.default_rng(seed)
    equal_value = polarization(kernel, equally_spaced(n)).value
    deficits = []
    for _ in range(trials):
        # the jitter is under a quarter of a gap, so every gap stays positive
        gaps = TWO_PI / n + rng.uniform(-magnitude, magnitude, n)
        gaps = gaps * (TWO_PI / gaps.sum())
        deficits.append(equal_value - polarization(kernel, config_from_gaps(gaps)).value)
    report = perturbation_test(kernel, n, magnitude, trials, seed=seed)
    assert report.equal_value == equal_value
    assert report.min_deficit == min(deficits)
    assert report.max_deficit == max(deficits)
    assert report.non_negative_count == sum(d <= 0.0 for d in deficits)


def test_perturbation_validation():
    kernel = riesz_kernel(2.0)
    with pytest.raises(ValueError):
        perturbation_test(kernel, 1, magnitude=0.1, trials=5)
    with pytest.raises(ValueError):
        perturbation_test(kernel, 4, magnitude=0.0, trials=5)
    with pytest.raises(ValueError):
        perturbation_test(kernel, 4, magnitude=TWO_PI / 4, trials=5)
    with pytest.raises(ValueError):
        perturbation_test(kernel, 4, magnitude=0.1, trials=0)

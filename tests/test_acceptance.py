"""Acceptance gate: one test per shipped guarantee, at the shipped tolerance.

Each test here recomputes a headline result end to end and also asserts a
wall-clock budget, so a run of ``pytest -v tests/test_acceptance.py`` gives
one pass/fail line per guarantee.  The checks deliberately overlap the
per-module suites: this file alone is the release gate.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from circlepol.asymptotics import asymptotic_ratio, zeta_real
from circlepol.circle_config import TWO_PI, equally_spaced
from circlepol.energy import polarization_via_energy
from circlepol.exact_series import exact_polarization_polynomial, zeta_even_exact
from circlepol.kernels import log_kernel, riesz_kernel
from circlepol.optimizer import maximize_polarization
from circlepol.potential import _polarize_rows, minimum_on_arc, polarization
from circlepol.transport import check_pair_inequality, min_curve, solve_transport

from helpers import (assert_sinc_power_matches_taylor, homotopy_stage,
                     random_config, sup_gap_deviation)


def _check_budget(start: float, seconds: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (
        f"runtime {elapsed:.1f}s exceeds the {seconds:.0f}s budget")


def test_criterion_01_exact_polynomials_rational_equality():
    start = time.perf_counter()
    expected = {
        1: ((2, Fraction(1, 4)),),
        2: ((2, Fraction(1, 24)), (4, Fraction(1, 48))),
        3: ((2, Fraction(1, 120)), (4, Fraction(1, 192)),
            (6, Fraction(1, 480))),
    }
    for m, terms in expected.items():
        assert tuple(exact_polarization_polynomial(m).terms) == terms
    _check_budget(start, 1.0)


def test_criterion_02_numeric_polarization_matches_exact_polynomials():
    start = time.perf_counter()
    for m in (1, 2, 3):
        kernel = riesz_kernel(2.0 * m)
        poly = exact_polarization_polynomial(m)
        for n in range(2, 33):
            exact = float(poly.evaluate(n))
            numeric = polarization(kernel, equally_spaced(n)).value
            assert math.isclose(numeric, exact, rel_tol=1e-9), (m, n)
    _check_budget(start, 30.0)


def test_criterion_03_energy_identity_matches_numeric_polarization():
    start = time.perf_counter()
    for s in (0.5, 1.0, 2.0, 3.0, 4.0):
        kernel = riesz_kernel(s)
        for n in range(1, 33):
            via_energy = polarization_via_energy(s, n)
            numeric = polarization(kernel, equally_spaced(n)).value
            assert math.isclose(via_energy, numeric, rel_tol=1e-9), (s, n)
    _check_budget(start, 30.0)


def test_criterion_04_equal_spacing_bounds_random_configurations():
    start = time.perf_counter()
    kernels = (riesz_kernel(1.0), riesz_kernel(2.0), riesz_kernel(4.0),
               log_kernel())
    assert all(k.strictly_convex for k in kernels)
    rng = np.random.default_rng(2024)
    for n in range(2, 9):
        configs = [random_config(rng, n) for _ in range(1000)]
        deviations = [sup_gap_deviation(c) for c in configs]
        for kernel in kernels:
            # one engine call per (kernel, n); each result is bit for bit
            # the one polarization gives
            nodes = np.array([equally_spaced(n).angles, *(c.angles for c in configs)])
            equal, *results = _polarize_rows(kernel, nodes)
            equal_value = equal.value
            for result, deviation in zip(results, deviations):
                value = result.value
                assert value <= equal_value + 1e-9, (kernel.label, n)
                if deviation >= 1e-3:
                    assert equal_value - value >= 1e-9, (kernel.label, n)
    _check_budget(start, 300.0)


def test_criterion_05_transport_plans_and_monotone_minimum_curve():
    start = time.perf_counter()
    kernel = riesz_kernel(2.0)
    rng = np.random.default_rng(55)
    for trial in range(200):
        n = int(rng.integers(3, 11))
        source = random_config(rng, n)
        target = equally_spaced(n)
        plan = solve_transport(source, target)
        deltas = np.asarray(plan.deltas)
        assert deltas.min() == 0.0  # nonnegative with an exact zero
        end_gaps = np.asarray(homotopy_stage(source, plan, 1.0).gaps)
        assert np.allclose(end_gaps, TWO_PI / n, rtol=0.0, atol=1e-9)
        curve = min_curve(kernel, source, plan, grid=101)
        hs = curve[:, 1]
        assert np.all(np.diff(hs) >= -1e-10), trial
        equal_value = polarization(kernel, target).value
        assert abs(hs[-1] - equal_value) <= 1e-10, trial
    _check_budget(start, 120.0)


def test_criterion_06_pair_spread_inequality_no_violations():
    start = time.perf_counter()
    kernel = riesz_kernel(2.0)
    rng = np.random.default_rng(66)
    for _ in range(100):
        z1, z2 = rng.uniform(0.0, TWO_PI, size=2)
        complement = (z1 - z2) % TWO_PI
        eps = float(rng.uniform(0.05, 0.95)) * complement / 2.0
        report = check_pair_inequality(kernel, float(z1), float(z2), eps,
                                       samples=1000)
        assert report.max_violation <= 1e-12
        assert report.between_min_margin > 0.0
        assert report.complement_min_margin > 0.0
    _check_budget(start, 30.0)


def test_criterion_07_asymptotic_ratio_closed_form_cases():
    start = time.perf_counter()
    for n in (4, 8, 16, 32):
        numeric = polarization(riesz_kernel(4.0), equally_spaced(n)).value
        ratio = asymptotic_ratio(4.0, n, numeric)
        assert abs((ratio - 1.0) - 2.0 / n ** 2) <= 1e-9, n
        numeric = polarization(riesz_kernel(2.0), equally_spaced(n)).value
        assert abs(asymptotic_ratio(2.0, n, numeric) - 1.0) <= 1e-10, n
    _check_budget(start, 30.0)


@pytest.mark.parametrize("s", [1.0, 1.5, 0.5])
def test_criterion_07_asymptotic_ratio_trend(s):
    # The three exponents share one two-minute budget; each case gets an
    # even split.
    start = time.perf_counter()
    kernel = riesz_kernel(s)
    deviations = []
    for exponent in range(3, 11):
        n = 2 ** exponent
        config = equally_spaced(n)
        # Every arc is congruent for equally spaced points, so the global
        # minimum is the minimum over the first arc.
        _, value = minimum_on_arc(kernel, config, 0.0, TWO_PI / n)
        deviations.append(abs(asymptotic_ratio(s, n, value) - 1.0))
    assert all(b <= a + 1e-12 for a, b in zip(deviations, deviations[1:])), (
        f"|ratio - 1| not non-increasing for s={s}: {deviations}")
    if s == 1.0:
        # At s = 1 the ratio tends to 1 only logarithmically:
        # P(n) = (n/pi)(ln n + c) + pi/(144 n) + O(n**-3), so
        # (ratio - 1) ln n = c + pi**2/(144 n**2) + O(n**-4).  The constant
        # comes from P(n) = E(2n)/(2n) - E(n)/n and
        # sum_{k=1}^{n-1} csc(pi k/n) = (2n/pi)(ln(2n/pi) + gamma) + O(1/n),
        # which give c = gamma + ln(8/pi).  gamma is the Euler-Mascheroni
        # constant lim (H_n - ln n), rounded to double precision.
        euler_gamma = 0.5772156649015329
        c = euler_gamma + math.log(8.0 / math.pi)
        residuals = [dev * math.log(2 ** exponent) - c
                     for exponent, dev in zip(range(3, 11), deviations)]
        assert all(b <= a for a, b in zip(residuals, residuals[1:])), (
            f"(|ratio - 1| ln n - c) not non-increasing: {residuals}")
        assert abs(residuals[-1]) <= 1e-6, (
            f"|ratio - 1| ln n - c = {residuals[-1]:.3e} at n=1024")
    else:
        assert deviations[-1] < 0.05, (
            f"|ratio - 1| = {deviations[-1]:.6f} at n=1024 for s={s}")
    _check_budget(start, 40.0)


def test_criterion_08_log_kernel_optimizer_reaches_log_two():
    start = time.perf_counter()
    kernel = log_kernel()
    for n in range(2, 9):
        result = maximize_polarization(kernel, n)
        assert abs(result.best_value - (-math.log(2.0))) <= 1e-7, n
        assert result.converged_to_equal_spacing, n
    _check_budget(start, 120.0)


def test_criterion_09_exact_series_cross_checks():
    start = time.perf_counter()
    for s in [*range(1, 9), Fraction(7, 3), Fraction(1, 2)]:
        assert_sinc_power_matches_taylor(mpmath, s, order=8)
    for k in range(1, 7):
        exact = float(zeta_even_exact(k)) * math.pi ** (2 * k)
        assert math.isclose(zeta_real(2.0 * k), exact, rel_tol=1e-12), k
    _check_budget(start, 5.0)

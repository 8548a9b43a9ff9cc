"""Configuration canonical form, gaps, distances, symmetries, I/O."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circlepol import (TWO_PI, Configuration, config_from_gaps,
                       config_from_json, config_to_json, equally_spaced,
                       geodesic_distance, load_config_file, reflect, rotate)
from helpers import random_config


def test_angles_are_sorted_and_wrapped():
    c = Configuration([TWO_PI + 0.5, -0.25, 3.0])
    assert c.angles == (0.5, 3.0, TWO_PI - 0.25)
    assert all(0.0 <= a < TWO_PI for a in c.angles)


def test_wrap_handles_exact_two_pi():
    c = Configuration([TWO_PI, -1e-18])
    assert all(0.0 <= a < TWO_PI for a in c.angles)


def test_empty_configuration_rejected():
    with pytest.raises(ValueError):
        Configuration([])


def test_gaps_sum_to_two_pi():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 20):
        c = random_config(rng, n)
        assert_allclose(sum(c.gaps), TWO_PI, rtol=1e-12)
        assert all(g >= 0.0 for g in c.gaps)


def test_single_point_has_full_circle_gap():
    assert Configuration([1.0]).gaps == (TWO_PI,)


def test_coincident_points_give_zero_gaps():
    c = Configuration([1.0, 1.0, 2.0])
    assert_allclose(c.gaps, (0.0, 1.0, TWO_PI - 1.0), atol=1e-15)
    assert c.separation == 0.0


def test_equally_spaced_gaps_and_phase():
    c = equally_spaced(5, phase=0.3)
    assert_allclose(c.gaps, np.full(5, TWO_PI / 5), rtol=1e-12)
    assert min(c.angles) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        equally_spaced(0)


def test_geodesic_distance_basics():
    assert geodesic_distance(0.0, math.pi) == pytest.approx(math.pi)
    assert geodesic_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert geodesic_distance(1.0, 1.0) == 0.0
    rng = np.random.default_rng(1)
    a, b = rng.uniform(0, TWO_PI, (2, 50))
    d = geodesic_distance(a, b)
    assert np.all((0.0 <= d) & (d <= math.pi + 1e-15))
    assert_allclose(d, geodesic_distance(b, a), rtol=1e-15)


def test_rotate_preserves_gaps_cyclically():
    rng = np.random.default_rng(2)
    c = random_config(rng, 6)
    r = rotate(c, 1.234)
    assert sorted(r.gaps) == pytest.approx(sorted(c.gaps), rel=1e-12)


def test_reflect_reverses_gap_order():
    c = config_from_gaps([1.0, 2.0, TWO_PI - 3.0], anchor=0.5)
    assert sorted(reflect(c).gaps) == pytest.approx(sorted(c.gaps), rel=1e-12)


def test_config_from_gaps_validation():
    with pytest.raises(ValueError):
        config_from_gaps([1.0, 2.0])  # does not sum to 2*pi
    with pytest.raises(ValueError):
        config_from_gaps([-0.5, TWO_PI + 0.5])


def test_json_round_trip():
    rng = np.random.default_rng(5)
    c = random_config(rng, 6)
    again = config_from_json(config_to_json(c))
    assert again.angles == c.angles


def test_load_config_file_formats(tmp_path):
    angles = [0.25, 1.5, 4.0]
    jpath = tmp_path / "c.json"
    jpath.write_text(json.dumps(angles))
    assert load_config_file(str(jpath)).angles == tuple(angles)

    cpath = tmp_path / "c.csv"
    cpath.write_text("\n".join(str(a) for a in angles) + "\n")
    assert load_config_file(str(cpath)).angles == tuple(angles)


def test_load_config_file_turns(tmp_path):
    path = tmp_path / "turns.json"
    path.write_text(json.dumps([0.0, 0.25, 0.5]))
    c = load_config_file(str(path), units="turns")
    assert_allclose(c.angles, (0.0, math.pi / 2, math.pi), rtol=1e-15)
    with pytest.raises(ValueError):
        load_config_file(str(path), units="degrees")


def test_unsorted_input_is_sorted_on_load():
    c = config_from_json("[3.0, 1.0, 2.0]")
    assert c.angles == (1.0, 2.0, 3.0)

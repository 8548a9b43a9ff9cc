"""Configuration canonical form, gaps, the geodesic distance, I/O."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circlepol import (TWO_PI, Configuration, Kernel, config_from_gaps,
                       config_from_json, equally_spaced,
                       load_config_file, potential_values)
from helpers import random_config


def test_angles_are_sorted_and_wrapped():
    c = Configuration([TWO_PI + 0.5, -0.25, 3.0])
    assert c.angles == (0.5, 3.0, TWO_PI - 0.25)
    assert all(0.0 <= a < TWO_PI for a in c.angles)


def test_wrap_handles_exact_two_pi():
    c = Configuration([TWO_PI, -1e-18])
    assert all(0.0 <= a < TWO_PI for a in c.angles)


def _wrap_per_float(angle):
    """The canonical form of one angle as each float was once wrapped:
    CPython's float ``%``, then the exact-2*pi fix."""
    a = float(angle) % TWO_PI
    if a >= TWO_PI:
        a -= TWO_PI
    return a


# signed zeros, subnormals, the floats next to and at multiples of 2*pi, and
# angles so large that the reduction keeps few of their bits
EDGE_ANGLES = [0.0, -0.0, -1e-300, 1e-300, -5e-324, 5e-324,
               float(np.nextafter(TWO_PI, 0.0)), float(np.nextafter(-TWO_PI, 0.0)),
               TWO_PI, -TWO_PI, 14 * math.pi, -14 * math.pi, math.pi, -math.pi,
               1e17, -1e17, 1e-17, -1e-17, 7.0, -7.0]


def _edge_and_random_lists():
    rng = np.random.default_rng(20240518)
    yield EDGE_ANGLES
    for a in EDGE_ANGLES:
        yield [a]
    for _ in range(2000):
        size = int(rng.integers(1, 9))
        picks = rng.integers(len(EDGE_ANGLES), size=size)
        scales = 10.0 ** rng.integers(-20, 20, size=size)
        yield [EDGE_ANGLES[p] if rng.random() < 0.4 else float(rng.normal() * s)
               for p, s in zip(picks, scales)]


def test_canonical_form_matches_the_per_float_rule_bit_for_bit():
    # float.hex tells -0.0 from 0.0, which == does not
    for angles in _edge_and_random_lists():
        want = sorted(_wrap_per_float(a) for a in angles)
        got = Configuration(angles).angles
        assert [a.hex() for a in got] == [a.hex() for a in want], angles
        assert all(type(a) is float for a in got)


def test_gap_rows_canonicalize_like_the_per_float_rule():
    rng = np.random.default_rng(7)
    for anchor in EDGE_ANGLES:
        for n in (1, 2, 5, 9):
            gaps = rng.dirichlet(np.ones(n)) * TWO_PI
            cumulative = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
            want = sorted(_wrap_per_float(anchor + c) for c in cumulative.tolist())
            got = config_from_gaps(gaps, anchor).angles
            assert [a.hex() for a in got] == [a.hex() for a in want], (anchor, n)


def test_equal_configurations_hash_equal_and_are_dict_keys():
    a = Configuration([2.0, 1.0, 5.0])
    b = Configuration(np.array([5.0, 2.0, 1.0]))
    assert a == b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert a != Configuration([1.0, 2.0])
    assert len({a, b, Configuration([1.0, 2.0])}) == 2


def test_configuration_holds_only_its_angles():
    c = Configuration([1.0, 2.0])
    assert not hasattr(c, "__dict__")
    assert c.gaps == (1.0, TWO_PI - 1.0)
    assert c.angle_array.tolist() == [1.0, 2.0]


def test_empty_configuration_rejected():
    with pytest.raises(ValueError):
        Configuration([])
    with pytest.raises(ValueError, match="angles must be finite"):
        Configuration([0.0, math.nan])


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
    assert min(c.gaps) == 0.0


def test_equally_spaced_gaps_and_phase():
    c = Configuration(a + 0.3 for a in equally_spaced(5).angles)
    assert c.angles == Configuration(0.3 + TWO_PI * k / 5 for k in range(5)).angles
    assert_allclose(c.gaps, np.full(5, TWO_PI / 5), rtol=1e-12)
    assert min(c.angles) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        equally_spaced(0)


def test_geodesic_distance_basics():
    # one node's potential under f(t) = pi - t is pi - d(z, node)
    fold = Kernel(lambda t: math.pi - t, math.pi)

    def distance(z, node):
        return math.pi - potential_values(fold, Configuration([node]), z)[0]

    assert distance(0.0, math.pi) == pytest.approx(math.pi)
    assert distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)
    assert distance(1.0, 1.0) == 0.0
    rng = np.random.default_rng(1)
    for a, b in rng.uniform(0, TWO_PI, (50, 2)):
        assert 0.0 <= distance(a, b) <= math.pi + 1e-15
        assert distance(a, b) == distance(b, a)


def test_config_from_gaps_validation():
    with pytest.raises(ValueError):
        config_from_gaps([1.0, 2.0])  # does not sum to 2*pi
    with pytest.raises(ValueError):
        config_from_gaps([-0.5, TWO_PI + 0.5])
    # a NaN sum passes the sum check, so the gaps are checked first
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"gaps must be finite, got .*(nan|inf)"):
            config_from_gaps([bad, 1.0, 2.0])
    with pytest.raises(ValueError, match="nonempty vector"):
        config_from_gaps(np.ones((2, 3)))


def test_json_round_trip():
    rng = np.random.default_rng(5)
    c = random_config(rng, 6)
    again = config_from_json(json.dumps(list(c.angles)))
    assert again.angles == c.angles
    with pytest.raises(ValueError, match="JSON array"):
        config_from_json('{"a": 1}')


@pytest.mark.parametrize("text", ["[true, 2]", '["1", 2]', "[null, 1]", "[[1], 2]"])
def test_json_angles_are_numbers_only(text):
    # a bool is no JSON number, nor is a numeric string, a null or an array
    with pytest.raises(ValueError, match="JSON array of numbers"):
        config_from_json(text)


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

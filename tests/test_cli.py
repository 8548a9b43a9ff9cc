"""End-to-end tests of the command-line interface.

Every test drives ``main(argv)`` directly and parses the captured stdout,
so the assertions cover argument wiring, output formatting, and exit codes
exactly as a shell user would see them.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from circlepol import cli
from circlepol.cli import main

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_prints_published_polynomials(capsys):
    code, out, _ = run(capsys, "exact", "--m", "1")
    assert code == 0
    assert out.strip() == "n^2/4"
    code, out, _ = run(capsys, "exact", "--m", "2")
    assert code == 0
    assert out.strip() == "n^2/24 + n^4/48"
    code, out, _ = run(capsys, "exact", "--m", "3")
    assert code == 0
    assert out.strip() == "n^2/120 + n^4/192 + n^6/480"


def test_exact_json_round_trip(capsys):
    code, out, _ = run(capsys, "exact", "--m", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2
    assert payload["terms"] == [
        {"power": 2, "num": 1, "den": 24},
        {"power": 4, "num": 1, "den": 48},
    ]


def test_exact_rejects_nonpositive_order(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["exact", "--m", "0"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m" in captured.err


# ---------------------------------------------------------------------------
# polarization / profile
# ---------------------------------------------------------------------------


def test_polarization_equally_spaced_inverse_square(capsys):
    code, out, _ = run(capsys, "polarization", "--kernel", "riesz:2",
                       "--equally-spaced", "6")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["value"], 9.0, rel_tol=1e-9)
    assert len(payload["witnesses"]) == 6  # every midpoint ties
    assert len(payload["per_arc_minima"]) == 6


def test_polarization_from_config_file_in_turns(capsys, tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps([0.0, 0.25, 0.5, 0.75]))
    code, out, _ = run(capsys, "polarization", "--kernel", "riesz:2",
                       "--config", str(path), "--units", "turns")
    assert code == 0
    assert math.isclose(json.loads(out)["value"], 4.0, rel_tol=1e-9)


def test_polarization_from_plain_line_file(capsys, tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text("0.0\n" + repr(math.pi) + "\n")
    code, out, _ = run(capsys, "polarization", "--kernel", "riesz:1",
                       "--config", str(path))
    assert code == 0
    # Minimum at the quarter points: two chords of sqrt(2), so 2/sqrt(2).
    assert math.isclose(json.loads(out)["value"], math.sqrt(2.0),
                        rel_tol=1e-9)


def test_profile_csv_shape_and_infinities(capsys):
    code, out, _ = run(capsys, "profile", "--kernel", "riesz:2",
                       "--equally-spaced", "2", "--resolution", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "angle,value"
    assert len(lines) == 5
    values = [line.split(",")[1] for line in lines[1:]]
    # Grid points 0 and pi sit on the two points (infinite potential);
    # the quarter-turn points see two chords of sqrt(2): 1/2 + 1/2 = 1.
    assert values[0] == "inf"
    assert values[2] == "inf"
    assert math.isclose(float(values[1]), 1.0, rel_tol=1e-12)
    assert math.isclose(float(values[3]), 1.0, rel_tol=1e-12)
    angles = [float(line.split(",")[0]) for line in lines[1:]]
    assert np.allclose(angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_small_case(capsys):
    code, out, _ = run(capsys, "optimize", "--kernel", "riesz:2", "--n", "3",
                       "--restarts", "3", "--max-iters", "500")
    assert code == 0
    payload = json.loads(out)
    assert math.isclose(payload["best_value"], 9.0 / 4.0, rel_tol=1e-6)
    assert payload["converged_to_equal_spacing"] is True
    assert len(payload["per_restart"]) == 3
    assert len(payload["best_angles"]) == 3


def test_optimize_rejects_negative_max_iters(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["optimize", "--kernel", "log", "--n", "3", "--max-iters", "-3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-iters" in captured.err


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_transport_equal_to_equal_is_identity(capsys, tmp_path):
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    angles = [TWO_PI * k / 4 for k in range(4)]
    src.write_text(json.dumps(angles))
    tgt.write_text(json.dumps(angles))
    code, out, _ = run(capsys, "transport", "--source", str(src),
                       "--target", str(tgt))
    assert code == 0
    plan = json.loads(out)
    assert np.allclose(plan["deltas"], 0.0, atol=1e-12)
    assert np.allclose(plan["source_gaps"], TWO_PI / 4)


def test_transport_min_curve_csv(capsys, tmp_path):
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    src.write_text(json.dumps([0.0, 1.0, 2.5, 4.0]))
    tgt.write_text(json.dumps([TWO_PI * k / 4 for k in range(4)]))
    curve = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "transport", "--source", str(src),
                       "--target", str(tgt), "--kernel", "riesz:2",
                       "--min-curve", str(curve), "--grid", "11")
    assert code == 0
    json.loads(out)  # plan still printed
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "t,h"
    assert len(lines) == 12
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    hs = [float(line.split(",")[1]) for line in lines[1:]]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
    # Endpoint = tracked-arc minimum of 4 equally spaced points: n^2/4.
    assert math.isclose(hs[-1], 4.0, rel_tol=1e-9)


def test_transport_min_curve_requires_kernel(capsys, tmp_path):
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    src.write_text(json.dumps([0.0, 1.0, 2.0]))
    tgt.write_text(json.dumps([0.0, 2.0, 4.0]))
    with pytest.raises(SystemExit) as excinfo:
        main(["transport", "--source", str(src), "--target", str(tgt),
              "--min-curve", str(tmp_path / "c.csv")])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    # rejected before the plan is printed
    assert captured.out == ""
    assert "--kernel" in captured.err


def test_transport_min_curve_grid_below_two_is_usage_error(capsys, tmp_path):
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    src.write_text(json.dumps([0.0, 1.0, 2.0]))
    tgt.write_text(json.dumps([0.0, 2.0, 4.0]))
    curve = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(["transport", "--source", str(src), "--target", str(tgt),
              "--kernel", "riesz:2", "--min-curve", str(curve), "--grid", "1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid" in captured.err
    assert not curve.exists()


def test_transport_unwritable_min_curve_prints_no_plan(capsys, tmp_path):
    # the curve is written before the plan goes to stdout, so a curve that
    # cannot be written leaves stdout empty
    src = tmp_path / "src.json"
    tgt = tmp_path / "tgt.json"
    src.write_text(json.dumps([0.0, 1.0, 2.0]))
    tgt.write_text(json.dumps([0.0, 2.0, 4.0]))
    code, out, err = run(capsys, "transport", "--source", str(src),
                         "--target", str(tgt), "--kernel", "riesz:2",
                         "--min-curve", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# asympt / energy
# ---------------------------------------------------------------------------


def test_asympt_csv(capsys):
    code, out, _ = run(capsys, "asympt", "--s", "2", "--n", "2,4,8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,numeric,dominant,ratio"
    assert len(lines) == 4
    for line in lines[1:]:
        n, numeric, dominant, ratio = line.split(",")
        n = int(n)
        assert math.isclose(float(numeric), n * n / 4.0, rel_tol=1e-9)
        assert math.isclose(float(dominant), n * n / 4.0, rel_tol=1e-12)
        assert math.isclose(float(ratio), 1.0, rel_tol=1e-9)


def test_energy_csv(capsys):
    code, out, _ = run(capsys, "energy", "--s", "2", "--n", "1,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s,energy,polarization_via_energy,polarization_numeric"
    row1 = lines[1].split(",")
    assert row1[0] == "1" and float(row1[2]) == 0.0
    assert math.isclose(float(row1[3]), 0.25, rel_tol=1e-12)
    row3 = lines[2].split(",")
    assert math.isclose(float(row3[2]), 2.0, rel_tol=1e-12)
    assert math.isclose(float(row3[3]), 9.0 / 4.0, rel_tol=1e-12)
    assert math.isclose(float(row3[4]), 9.0 / 4.0, rel_tol=1e-9)


def test_asympt_ratio_where_the_leading_term_underflows(capsys):
    # (1 / pi)**1000 is below the float range; the ratio is 6.6e195
    code, out, _ = run(capsys, "asympt", "--s", "1000", "--n", "1")
    assert code == 0
    ratio = float(out.strip().splitlines()[1].split(",")[3])
    assert math.isfinite(ratio) and ratio > 1e195


@pytest.mark.parametrize("command", ["asympt", "energy"])
@pytest.mark.parametrize("s", ["inf", "-1", "0", "nan", "abc"])
def test_bad_exponent_is_usage_error(capsys, command, s):
    # the riesz_kernel rule, finite s > 0, applied while parsing: nothing
    # is computed and no CSV header is printed
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--s", s, "--n", "3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"riesz:{s}" in captured.err


@pytest.mark.parametrize("command", ["asympt", "energy"])
@pytest.mark.parametrize("counts", ["0", "3,0", "2,-1"])
def test_point_count_below_one_is_usage_error(capsys, command, counts):
    # refused while parsing, so no CSV header or earlier row is printed
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--s", "2", "--n", counts])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ">= 1" in captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_passes_for_convex_kernel(capsys):
    code, out, _ = run(capsys, "check", "--kernel", "riesz:2",
                       "--pair", "0.0,2.0,0.3", "--pair", "1.0,1.5,0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        payload = json.loads(line)
        assert payload["max_violation"] <= 1e-12
        assert payload["strict_expected"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_where_both_potentials_overflow(capsys):
    # samples next to a node are inf before and after the spread: left out,
    # so no NaN margin and no violation read from one
    code, out, err = run(capsys, "check", "--kernel", "riesz:200",
                         "--pair", "0,3,0.01")
    assert (code, err) == (0, "")
    assert "NaN" not in out
    assert json.loads(out)["max_violation"] == 0.0


def test_check_failing_pair_prints_no_earlier_report(capsys):
    # the first pair is fine, the second's eps is out of range: the command
    # fails as a whole and prints nothing
    code, out, err = run(capsys, "check", "--kernel", "riesz:2",
                         "--pair", "0,2,0.3", "--pair", "0,2,100")
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "eps" in err


def test_check_violation_exits_one_with_every_report(capsys, monkeypatch):
    # no shipped kernel violates the inequalities; a negative tolerance makes
    # every report count as one
    monkeypatch.setattr(cli, "CHECK_TOL", -1.0)
    code, out, _ = run(capsys, "check", "--kernel", "riesz:2",
                       "--pair", "0.0,2.0,0.3", "--pair", "1.0,1.5,0.1")
    assert code == 1
    assert len(out.strip().splitlines()) == 2


# ---------------------------------------------------------------------------
# error handling and exit codes
# ---------------------------------------------------------------------------


def test_unknown_kernel_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["polarization", "--kernel", "bogus:3", "--equally-spaced", "4"])
    assert excinfo.value.code == 2


def test_malformed_kernel_parameter_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "--kernel", "riesz:abc", "--equally-spaced", "4"])
    assert excinfo.value.code == 2


def test_non_finite_riesz_exponent_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["polarization", "--kernel", "riesz:inf", "--equally-spaced", "3"])
    assert excinfo.value.code == 2
    assert "finite s > 0" in capsys.readouterr().err


def test_log_kernel_with_parameter_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["polarization", "--kernel", "log:2", "--equally-spaced", "4"])
    assert excinfo.value.code == 2


# each bounded integer option below its least value; the transport files are
# never read, since the refusal comes while parsing
OPTION_BELOW_RANGE = [
    (["polarization", "--kernel", "log", "--equally-spaced", "0"],
     "--equally-spaced", 1),
    (["optimize", "--kernel", "log", "--n", "0"], "--n", 1),
    (["optimize", "--kernel", "log", "--n", "3", "--restarts", "0"],
     "--restarts", 1),
    (["optimize", "--kernel", "log", "--n", "3", "--max-iters", "-1"],
     "--max-iters", 0),
    (["optimize", "--kernel", "log", "--n", "3", "--seed", "-1"], "--seed", 0),
    (["profile", "--kernel", "log", "--equally-spaced", "3",
      "--resolution", "1"], "--resolution", 2),
    (["transport", "--source", "missing.json", "--target", "missing.json",
      "--grid", "1"], "--grid", 2),
    (["exact", "--m", "0"], "--m", 1),
    (["check", "--kernel", "log", "--pair", "0,1,0.1", "--samples", "1"],
     "--samples", 2),
]


@pytest.mark.parametrize("argv, option, least", OPTION_BELOW_RANGE,
                         ids=[option for _, option, _ in OPTION_BELOW_RANGE])
def test_integer_option_below_range_is_usage_error(capsys, argv, option, least):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}" in captured.err
    assert f">= {least}" in captured.err


@pytest.mark.parametrize("argv", [
    ["polarization", "--kernel", "log", "--equally-spaced", "1"],
    ["optimize", "--kernel", "log", "--n", "1", "--restarts", "1",
     "--max-iters", "0", "--seed", "0"],
    ["profile", "--kernel", "log", "--equally-spaced", "3", "--resolution", "2"],
    ["exact", "--m", "1"],
    ["check", "--kernel", "log", "--pair", "0,1,0.1", "--samples", "2"],
], ids=["equally-spaced", "optimize", "resolution", "m", "samples"])
def test_integer_option_at_its_least_value_runs(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out


def test_non_integer_option_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["optimize", "--kernel", "log", "--n", "2.5"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad integer '2.5'" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--kernel", "log", "--pair", "0,1"],
    ["check", "--kernel", "log", "--pair", "0,1,x"],
    ["asympt", "--s", "2", "--n", ","],
], ids=["pair-of-two", "pair-not-a-number", "empty-n-list"])
def test_malformed_list_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_malformed_config_file_is_computation_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"not": "a list"}')
    code, _, err = run(capsys, "polarization", "--kernel", "riesz:2",
                       "--config", str(path))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("text", ["[true, 2]", '["1", 2]', "[null, 1]", "[[1], 2]"])
def test_config_entry_that_is_no_number_is_computation_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "polarization", "--kernel", "riesz:2",
                         "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: expected a JSON array of numbers")


def test_missing_config_file_is_computation_error(capsys, tmp_path):
    code, _, err = run(capsys, "polarization", "--kernel", "riesz:2",
                       "--config", str(tmp_path / "nope.json"))
    assert code == 1
    assert err.startswith("error:")


def test_output_is_byte_deterministic(capsys):
    argv = ["optimize", "--kernel", "log", "--n", "3",
            "--restarts", "2", "--max-iters", "300", "--seed", "7"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2

"""Command-line interface.

One executable with one subcommand per computation; all output is
machine-readable (JSON objects or CSV with a header row).  Floats are
printed in shortest round-trip form; infinities print as ``inf`` in CSV and
as ``Infinity`` in JSON, the spelling of Python's ``json`` module.  Exit
codes: 0 success, 1 computation error (or, for ``check``, a violation),
2 usage error.  Each command builds its whole output before any of it is
written, so stdout is empty unless the command ran to the end; a usage
error, an out-of-range integer option among them, is refused while
parsing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, List, Optional, Tuple

from .asymptotics import asymptotic_ratio, dominant_term
from .circle_config import equally_spaced, load_config_file
from .energy import energy_equally_spaced, polarization_via_energy
from .exact_series import exact_polarization_polynomial
from .kernels import Kernel, log_kernel, power_kernel, riesz_kernel
from .optimizer import OptimizeOptions, maximize_polarization
from .potential import polarization, potential_profile
from .transport import check_pair_inequality, min_curve, solve_transport

# a reported violation above this makes `check` exit nonzero
CHECK_TOL = 1e-12

# what `check` prints of each report, in this order
_CHECK_FIELDS = ("z1", "z2", "eps", "samples", "between_min_margin",
                 "between_max_violation", "complement_min_margin",
                 "complement_max_violation", "max_violation", "strict_expected")


def _kernel_arg(text: str) -> Kernel:
    """Parse ``riesz:<s>``, ``log``, or ``power:<alpha>``."""
    name, _, param = text.partition(":")
    try:
        if name == "riesz":
            return riesz_kernel(float(param))
        if name == "log":
            if param:
                raise ValueError("log takes no parameter")
            return log_kernel()
        if name == "power":
            return power_kernel(float(param))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad kernel {text!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown kernel {text!r} (expected riesz:<s>, log, or power:<alpha>)")


def _exponent_arg(text: str) -> float:
    """Parse a Riesz exponent ``s``, finite and > 0 as ``riesz_kernel`` asks."""
    _kernel_arg(f"riesz:{text}")
    return float(text)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer that is at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _int_list(text: str) -> List[int]:
    """Comma-separated point counts, each at least 1."""
    values = [_int_at_least(1)(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def _load_config(args):
    if args.equally_spaced is not None:
        return equally_spaced(args.equally_spaced)
    return load_config_file(args.config, units=args.units)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON array or one-angle-per-line file")
    group.add_argument("--equally-spaced", type=_int_at_least(1), metavar="N",
                       help="use N equally spaced points")
    parser.add_argument("--units", choices=("radians", "turns"),
                        default="radians", help="units of config file angles")


# each command returns its whole stdout and its exit code; main writes the
# text only once the command has returned
_Output = Tuple[str, int]


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _cmd_polarization(args) -> _Output:
    result = polarization(args.kernel, _load_config(args))
    return json.dumps({
        "value": result.value,
        "witnesses": list(result.witnesses),
        "per_arc_minima": [list(row) for row in result.per_arc_minima],
    }) + "\n", 0


def _cmd_profile(args) -> _Output:
    rows = potential_profile(args.kernel, _load_config(args),
                             args.resolution)
    return _lines(["angle,value",
                   *(f"{_fmt(angle)},{_fmt(value)}" for angle, value in rows)]), 0


def _cmd_optimize(args) -> _Output:
    opts = OptimizeOptions(restarts=args.restarts, max_iters=args.max_iters,
                           seed=args.seed)
    result = maximize_polarization(args.kernel, args.n, opts)
    return json.dumps(result.to_dict()) + "\n", 0


def _cmd_transport(args) -> _Output:
    if args.min_curve is not None and args.kernel is None:
        args.usage_error("--min-curve needs --kernel")
    source = load_config_file(args.source, units=args.units)
    target = load_config_file(args.target, units=args.units)
    plan = solve_transport(source, target)
    if args.min_curve is not None:
        rows = min_curve(args.kernel, source, plan, args.grid)
        with open(args.min_curve, "w", encoding="utf-8") as fh:
            fh.write(_lines(["t,h", *(f"{_fmt(t)},{_fmt(h)}" for t, h in rows)]))
    return json.dumps(plan.to_dict()) + "\n", 0


def _cmd_exact(args) -> _Output:
    poly = exact_polarization_polynomial(args.m)
    if args.json:
        return json.dumps({"m": args.m, "terms": poly.to_terms()}) + "\n", 0
    return f"{poly}\n", 0


def _cmd_asympt(args) -> _Output:
    kernel = riesz_kernel(args.s)
    lines = ["n,numeric,dominant,ratio"]
    for n in args.n:
        numeric = polarization(kernel, equally_spaced(n)).value
        dominant = dominant_term(args.s, n)
        ratio = asymptotic_ratio(args.s, n, numeric)
        lines.append(f"{n},{_fmt(numeric)},{_fmt(dominant)},{_fmt(ratio)}")
    return _lines(lines), 0


def _cmd_energy(args) -> _Output:
    kernel = riesz_kernel(args.s)
    lines = ["n,s,energy,polarization_via_energy,polarization_numeric"]
    for n in args.n:
        energy = energy_equally_spaced(args.s, n)
        via_energy = polarization_via_energy(args.s, n)
        numeric = polarization(kernel, equally_spaced(n)).value
        lines.append(f"{n},{_fmt(args.s)},{_fmt(energy)},"
                     f"{_fmt(via_energy)},{_fmt(numeric)}")
    return _lines(lines), 0


def _cmd_check(args) -> _Output:
    reports = [check_pair_inequality(args.kernel, z1, z2, eps, args.samples)
               for z1, z2, eps in args.pair]
    lines = [json.dumps({name: getattr(r, name) for name in _CHECK_FIELDS})
             for r in reports]
    worst = max(r.max_violation for r in reports)
    return _lines(lines), 0 if worst <= CHECK_TOL else 1


def _pair_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected z1,z2,eps — got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad pair triple {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlepol",
        description="Potentials, polarization, and extremal configurations "
                    "of points on the unit circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polarization",
                       help="minimum of the potential over the circle")
    p.add_argument("--kernel", required=True, type=_kernel_arg)
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_polarization)

    p = sub.add_parser("profile", help="potential sampled on a uniform grid")
    p.add_argument("--kernel", required=True, type=_kernel_arg)
    p.add_argument("--resolution", type=_int_at_least(2), default=360)
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("optimize",
                       help="search for the best n-point configuration")
    p.add_argument("--kernel", required=True, type=_kernel_arg)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--restarts", type=_int_at_least(1),
                   default=OptimizeOptions.restarts)
    p.add_argument("--max-iters", type=_int_at_least(0),
                   default=OptimizeOptions.max_iters)
    p.add_argument("--seed", type=_int_at_least(0),
                   default=OptimizeOptions.seed)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("transport",
                       help="solve the gap system between two configurations")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--units", choices=("radians", "turns"), default="radians")
    p.add_argument("--kernel", default=None, type=_kernel_arg)
    p.add_argument("--min-curve", metavar="CSV",
                   help="write the homotopy minimum curve to this file")
    p.add_argument("--grid", type=_int_at_least(2), default=101)
    p.set_defaults(func=_cmd_transport, usage_error=p.error)

    p = sub.add_parser("exact",
                       help="closed-form even-exponent polarization polynomial")
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("asympt", help="numeric vs dominant asymptotic term")
    p.add_argument("--s", type=_exponent_arg, required=True)
    p.add_argument("--n", type=_int_list, required=True,
                   help="comma-separated point counts")
    p.set_defaults(func=_cmd_asympt)

    p = sub.add_parser("energy", help="energy values and the energy identity")
    p.add_argument("--s", type=_exponent_arg, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("check",
                       help="verify the pair-spread potential inequalities")
    p.add_argument("--kernel", required=True, type=_kernel_arg)
    p.add_argument("--pair", type=_pair_arg, action="append", required=True,
                   metavar="Z1,Z2,EPS")
    p.add_argument("--samples", type=_int_at_least(2), default=1000)
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out, code = args.func(args)
    except (ValueError, ArithmeticError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

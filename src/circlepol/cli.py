"""Command-line interface.

One executable with one subcommand per computation; all output is
machine-readable (JSON objects or CSV with a header row).  Floats are
printed in shortest round-trip form; infinities print as ``inf``.  Exit
codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

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


def _int_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
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
    group.add_argument("--equally-spaced", type=int, metavar="N",
                       help="use N equally spaced points")
    parser.add_argument("--units", choices=("radians", "turns"),
                        default="radians", help="units of config file angles")


def _cmd_polarization(args) -> int:
    result = polarization(args.kernel, _load_config(args))
    print(json.dumps({
        "value": result.value,
        "witnesses": list(result.witnesses),
        "per_arc_minima": [list(row) for row in result.per_arc_minima],
    }))
    return 0


def _cmd_profile(args) -> int:
    rows = potential_profile(args.kernel, _load_config(args),
                             args.resolution)
    print("angle,value")
    for angle, value in rows:
        print(f"{_fmt(angle)},{_fmt(value)}")
    return 0


def _cmd_optimize(args) -> int:
    opts = OptimizeOptions(restarts=args.restarts, max_iters=args.max_iters,
                           seed=args.seed)
    result = maximize_polarization(args.kernel, args.n, opts)
    print(json.dumps(result.to_dict()))
    return 0


def _cmd_transport(args) -> int:
    source = load_config_file(args.source, units=args.units)
    target = load_config_file(args.target, units=args.units)
    plan = solve_transport(source, target)
    print(plan.to_json())
    if args.min_curve is not None:
        if args.kernel is None:
            raise ValueError("--min-curve needs --kernel")
        rows = min_curve(args.kernel, source, plan, args.grid)
        with open(args.min_curve, "w", encoding="utf-8") as fh:
            fh.write("t,h\n")
            for t, h in rows:
                fh.write(f"{_fmt(t)},{_fmt(h)}\n")
    return 0


def _cmd_exact(args) -> int:
    poly = exact_polarization_polynomial(args.m)
    if args.json:
        print(json.dumps({"m": args.m, "terms": poly.to_terms()}))
    else:
        print(str(poly))
    return 0


def _cmd_asympt(args) -> int:
    kernel = riesz_kernel(args.s)
    print("n,numeric,dominant,ratio")
    for n in args.n:
        numeric = polarization(kernel, equally_spaced(n)).value
        dominant = dominant_term(args.s, n)
        ratio = asymptotic_ratio(args.s, n, numeric)
        print(f"{n},{_fmt(numeric)},{_fmt(dominant)},{_fmt(ratio)}")
    return 0


def _cmd_energy(args) -> int:
    print("n,s,energy,polarization_via_energy,polarization_numeric")
    kernel = riesz_kernel(args.s)
    for n in args.n:
        energy = 0.0 if n == 1 else energy_equally_spaced(args.s, n)
        via_energy = polarization_via_energy(args.s, n)
        numeric = polarization(kernel, equally_spaced(n)).value
        print(f"{n},{_fmt(args.s)},{_fmt(energy)},"
              f"{_fmt(via_energy)},{_fmt(numeric)}")
    return 0


def _cmd_check(args) -> int:
    kernel = args.kernel
    worst = 0.0
    for z1, z2, eps in args.pair:
        report = check_pair_inequality(kernel, z1, z2, eps, args.samples)
        worst = max(worst, report.max_violation)
        print(json.dumps({
            "z1": report.z1,
            "z2": report.z2,
            "eps": report.eps,
            "samples": report.samples,
            "between_min_margin": report.between_min_margin,
            "between_max_violation": report.between_max_violation,
            "complement_min_margin": report.complement_min_margin,
            "complement_max_violation": report.complement_max_violation,
            "max_violation": report.max_violation,
            "strict_expected": report.strict_expected,
        }))
    return 0 if worst <= CHECK_TOL else 1


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
    p.add_argument("--resolution", type=int, default=360)
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("optimize",
                       help="search for the best n-point configuration")
    p.add_argument("--kernel", required=True, type=_kernel_arg)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("transport",
                       help="solve the gap system between two configurations")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--units", choices=("radians", "turns"), default="radians")
    p.add_argument("--kernel", default=None, type=_kernel_arg)
    p.add_argument("--min-curve", metavar="CSV",
                   help="write the homotopy minimum curve to this file")
    p.add_argument("--grid", type=int, default=101)
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("exact",
                       help="closed-form even-exponent polarization polynomial")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("asympt", help="numeric vs dominant asymptotic term")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n", type=_int_list, required=True,
                   help="comma-separated point counts")
    p.set_defaults(func=_cmd_asympt)

    p = sub.add_parser("energy", help="energy values and the energy identity")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("check",
                       help="verify the pair-spread potential inequalities")
    p.add_argument("--kernel", required=True, type=_kernel_arg)
    p.add_argument("--pair", type=_pair_arg, action="append", required=True,
                   metavar="Z1,Z2,EPS")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

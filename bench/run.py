#!/usr/bin/env python3
"""Benchmark of circlepol: time its jobs and check their outputs.

    python3 bench/run.py --workload small-n --seed 1 --seconds 20 --trace 0

Runs one workload (see bench/README.md) in this process, on one thread,
repeating whole rounds of its calls for ``--seconds``, then checks every
output.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it gives the round count and the per-job figures.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread: numpy's elementwise work is single-threaded anyway, and this
# keeps any BLAS or OpenMP pool from starting
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

WORKLOADS = ("small-n", "large-n", "optimize")

# set-up is timed in this process and in this many more fresh ones
EXTRA_SETUPS = 4
SETUP_TIMEOUT_S = 120

# job -> (metric name, unit, how the call times reduce to it)
JOB_METRICS = {
    "polarization_small": ("polarization_small_per_s", "calls/s", "rate"),
    "min_curve": ("min_curve_per_s", "curves/s", "rate"),
    "polarization_n256": ("polarization_n256_ms", "ms", "median_ms"),
    "polarization_n1024": ("polarization_n1024_ms", "ms", "median_ms"),
    "profile_n1024": ("profile_n1024_ms", "ms", "median_ms"),
    "polarization_equal": ("polarization_equal_ms", "ms", "median_ms"),
    "optimize": ("optimize_s", "s", "median_s"),
}

# problems printed to stderr at most
MAX_PROBLEMS_SHOWN = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload, seed):
    """Import circlepol from this checkout, make the inputs and warm up."""
    if not (SRC / "circlepol" / "__init__.py").is_file():
        raise SystemExit(f"bench: no circlepol sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import circlepol
    import workloads

    if Path(circlepol.__file__).resolve().parent != SRC / "circlepol":
        raise SystemExit(f"bench: imported circlepol from {circlepol.__file__}, "
                         f"not from {SRC}")
    kernels = workloads.make_kernels(workload)
    ops = workloads.BUILDERS[workload](seed, kernels)
    workloads.warm_up(kernels)
    return kernels, ops


def setup_in_fresh_process(args):
    """Set-up seconds of a new interpreter running this script's set-up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(ops, seconds):
    """Run whole rounds of ``ops`` until ``seconds`` have passed.

    Returns the per-op call times, the results of every round, the round
    times and the wall time of the window.
    """
    times = [[] for _ in ops]
    results = []
    round_s = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        outputs = []
        for op, op_times in zip(ops, times):
            t0 = time.perf_counter()
            try:
                outputs.append(op.call())
            except Exception as exc:  # a raising call is a failed operation
                outputs.append(exc)
            op_times.append(time.perf_counter() - t0)
        round_s.append(time.perf_counter() - round_start)
        results.append(outputs)
    return times, results, round_s, time.perf_counter() - start


def check(ops, results):
    """Check every output; returns (problems, failed operations)."""
    problems, failed = [], 0
    for outputs in results:
        for op, output in zip(ops, outputs):
            if isinstance(output, Exception):
                failed += 1
                print(f"bench: {op.job} raised {output!r}", file=sys.stderr)
                continue
            op_problems, op_failed = op.check(output)
            problems += op_problems
            failed += op_failed
    return problems, failed


def job_metrics(ops, times):
    by_job = {}
    for op, op_times in zip(ops, times):
        by_job.setdefault(op.job, []).extend(op_times)
    out = {}
    for job, job_times in by_job.items():
        name, unit, how = JOB_METRICS[job]
        if how == "rate":
            value = len(job_times) / sum(job_times)
        else:
            value = statistics.median(job_times) * (1e3 if how == "median_ms" else 1.0)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    kernels, ops = setup(args.workload, args.seed)
    setup_s = [time.perf_counter() - _START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        import workloads

        tracer = tracing.Tracer()
        traced = {label: tracer.kernel(k) for label, k in kernels.items()}
        ops = workloads.BUILDERS[args.workload](args.seed, traced)
        tracer.install()
    else:
        setup_s += [setup_in_fresh_process(args) for _ in range(EXTRA_SETUPS)]

    try:
        times, results, round_s, window_s = measure(ops, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, failed = check(ops, results)
    for line in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"bench: wrong output: {line}", file=sys.stderr)

    rounds = len(results)
    attempted = rounds * len(ops)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "rounds": rounds,
        "round_s": statistics.median(round_s),
        "jobs": job_metrics(ops, times),
    }))
    if tracer is not None:
        metrics = tracer.metrics(rounds)
    else:
        # geometric mean over the round's calls of each call's median time:
        # a plain median of a mixed round jumps between kinds of call
        call_s = statistics.geometric_mean(
            statistics.median(op_times) for op_times in times)
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "call_ms": {"value": call_s * 1e3, "unit": "ms"},
            "calls_per_s": {"value": attempted / window_s, "unit": "calls/s"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

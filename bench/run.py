"""Benchmark of adjoint-cauchy descent runs on the FEM and spectral backends.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory. The measurement is split over ``WORKERS`` fresh
interpreters (``worker.py``) started one after another. In each, one thread
runs a closed loop: each descent run starts when the previous one has
ended, and a pass runs every case of the workload once, in a fixed order,
so the cases are interleaved over the whole measurement. Every worker
attempts whole passes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's public functions (see ``tracing.py``) on every other pass and
reports per-layer counts and times per traced pass. The last line of
standard output is one JSON object; raw samples and spans go to
``bench/out/``. Every descent run is checked against values computed from
the harmonic terms, not by the program; the exit code is 1 when a check
fails, 2 when the package cannot be found and 3 when a worker crashes or
the workers outlast their deadline (see ``run_workers``).
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
# one thread for every numerical library in the workers
THREADS_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "fem-armijo": {
        "backend": "fem", "n_radial": 54, "n_angular": 320,
        "strategies": [["Armijo"]],
    },
    "fem-sweep-fine": {
        "backend": "fem", "n_radial": 108, "n_angular": 640,
        "strategies": [["ModeSweep", 0, 2, "ascending"], ["ModeSweep", 0, 2, "descending"]],
    },
    "spectral-strategies": {
        "backend": "spectral", "n_angular": 160,
        "strategies": [
            ["Constant", 1.0 / 3.0],
            ["Armijo"],
            ["OptimalTwoMode", 0, 2],
            ["ModeSweep", 0, 2, "ascending"],
            ["ModeSweep", 0, 2, "descending"],
        ],
    },
}

# Per-mode amplitudes of the paper's example2; a seed only rotates each
# mode's phase (README.md, "Inputs").
MODE_MAGNITUDES = {1: math.hypot(2.0, -0.5), 2: 0.25}
# Each run is split over this many fresh worker processes, one after another
# (README.md, "Steadiness"); each makes at least MIN_PASSES passes.
WORKERS = 5
MIN_PASSES = 1
# What a worker may take beyond its share of --seconds: starting an
# interpreter, set-up, and the pass it starts near the end of its share (or
# the second pass a traced run needs). A fem-sweep-fine pass takes about
# 5 s, so this leaves room for a host phase that runs at half speed.
WORKER_ALLOWANCE_S = 24

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "solves": "count",
    "solves_per_s": "1/s",
    "omega_err": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics are "<span name>.<field>"; ``iters`` and ``trials`` read
# the span's count. Set-up spans are per set-up, the others per traced pass.
PER_LAYER = [
    "mesh.generate_mesh.s",
    "fem.assemble_stiffness.s",
    "problems.cauchy_data.s",
    "iteration.run.calls",
    "iteration.run.s",
    "iteration.run.self_s",
    "fem.solve_mixed_bvp.calls",
    "fem.solve_mixed_bvp.s",
    "fem.solve_mixed_bvp.self_s",
    "fem.cg.calls",
    "fem.cg.s",
    "fem.cg.iters",
    "fem.normal_flux.calls",
    "fem.normal_flux.s",
    "fem.trace.s",
    "fourier.analyze.calls",
    "fourier.analyze.s",
    "fourier.synthesize.calls",
    "fourier.synthesize.s",
    "spectral.solve_series.calls",
    "spectral.solve_series.s",
    "steps.armijo_step.calls",
    "steps.armijo_step.trials",
    "steps.armijo_step.s",
    "boundary.ring_mass_apply.calls",
    "boundary.ring_mass_apply.s",
    "boundary.boundary_norm.calls",
    "boundary.boundary_norm.s",
]
FIELDS = {  # metric suffix -> (field of tracing.Tracer.totals(), unit)
    "calls": ("calls", "count"),
    "s": ("s", "s"),
    "self_s": ("self_s", "s"),
    "iters": ("count", "count"),
    "trials": ("count", "count"),
}
SETUP_SPANS = ("mesh.generate_mesh", "fem.assemble_stiffness", "problems.cauchy_data")
DERIVED_PER_LAYER = {
    "fem.cg.iters_per_call": "count",
    "steps.armijo_step.accept_ratio": "ratio",
    "bench.traced_run_s": "s",
    "bench.untraced_run_s": "s",
    "bench.trace_overhead": "ratio",
}


def harmonic_terms(seed):
    """``(amplitude, mode, kind)`` terms: example2's mode sizes, seeded phases.

    Mode m contributes ``a_m r^m cos(m*theta - phi_m)`` with ``phi_m``
    drawn uniformly from the seed.
    """
    rng = random.Random(seed)
    terms = []
    for mode, magnitude in MODE_MAGNITUDES.items():
        phase = rng.uniform(0.0, 2.0 * math.pi)
        terms.append([magnitude * math.cos(phase), mode, "cos"])
        terms.append([magnitude * math.sin(phase), mode, "sin"])
    return terms


def estimate(repeats):
    """Seconds of one descent run from its repeats in one worker.

    Every repeat makes the same backend calls in the same order (the
    workers check the solve counts), so the run is timed part by part: the
    median repeat of each call plus the median remainder spent in ``run()``
    itself. The median ignores slow phases that hit fewer than half of a
    part's repeats (README.md, "Steadiness").
    """
    calls = [statistics.median(column) for column in zip(*(calls for _, calls in repeats))]
    rest = statistics.median(total - sum(calls_) for total, calls_ in repeats)
    return sum(calls) + rest


def run_workers(job, stem):
    """Raw results of the workers, run one after another.

    All workers together get their shares of the measurement plus
    ``WORKER_ALLOWANCE_S`` each; a worker still running then is killed.
    Returns None if a worker crashed or was killed.
    """
    budget = WORKERS * (job["seconds"] + WORKER_ALLOWANCE_S)
    deadline = time.monotonic() + budget
    results = []
    for index in range(WORKERS):
        worker_job = {**job, "index": index, "spans": f"{stem}-w{index}.spans.jsonl"}
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(worker_job)],
                capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
                env={**os.environ, **THREADS_ENV},
            )
        except subprocess.TimeoutExpired:
            print(f"worker {index} killed: the run outlasted {budget:.0f} s", file=sys.stderr)
            return None
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"worker {index} exited with {done.returncode}", file=sys.stderr)
            return None
        results.append(json.loads(done.stdout.splitlines()[-1]))
    return results


def pass_seconds(samples):
    """Estimated seconds of one pass, from the runs that did not fail."""
    per_case = [[run for run in case if run is not None] for case in zip(*samples)]
    return sum(estimate(case) for case in per_case if case)


def aggregate(results, trace):
    """Metrics and problems of one benchmark run from its workers' results."""
    problems = [problem for result in results for problem in result["problems"]]
    outcomes = results[0]["outcomes"]
    for index, result in enumerate(results[1:], 1):
        if result["outcomes"] != outcomes:
            problems.append(f"worker {index} gave {result['outcomes']}, worker 0 {outcomes}")
    if not trace:
        run_s = statistics.fmean(pass_seconds(r["samples"]["untraced"]) for r in results)
        solves = sum(outcome[1] for outcome in outcomes.values())
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "run_s": run_s,
            "solves": solves,
            "solves_per_s": solves / run_s,
            "omega_err": max((e for r in results for e in r["errors"]), default=math.nan),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        units = END_TO_END_UNITS
    else:
        def summed(span, field):
            return sum(r["run_totals"].get(span, {}).get(field, 0) for r in results)

        traced_passes = sum(len(r["samples"]["traced"]) for r in results)
        metrics, units = {}, dict(DERIVED_PER_LAYER)
        for name in PER_LAYER:
            span, suffix = name.rsplit(".", 1)
            field, units[name] = FIELDS[suffix]
            if span in SETUP_SPANS:
                values = [r["setup_totals"].get(span, {}).get(field, 0) for r in results]
                metrics[name] = statistics.fmean(values)
            else:
                metrics[name] = summed(span, field) / traced_passes
        cg_calls, trials = summed("fem.cg", "calls"), summed("steps.armijo_step", "count")
        metrics["fem.cg.iters_per_call"] = summed("fem.cg", "count") / cg_calls if cg_calls else 0.0
        metrics["steps.armijo_step.accept_ratio"] = (
            summed("steps.armijo_step", "calls") / trials if trials else 0.0
        )
        traced_s = statistics.fmean(pass_seconds(r["samples"]["traced"]) for r in results)
        untraced_s = statistics.fmean(pass_seconds(r["samples"]["untraced"]) for r in results)
        metrics["bench.traced_run_s"] = traced_s
        metrics["bench.untraced_run_s"] = untraced_s
        metrics["bench.trace_overhead"] = traced_s / untraced_s - 1.0
    return metrics, units, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "adjoint_cauchy" / "__init__.py").is_file():
        print(f"adjoint_cauchy not found under {SRC}", file=sys.stderr)
        return 2
    job = {
        **WORKLOADS[args.workload],
        "terms": harmonic_terms(args.seed),
        "src": str(SRC),
        "seconds": args.seconds / WORKERS,
        "min_passes": MIN_PASSES + args.trace,
        "trace": bool(args.trace),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = run_workers(job, stem)
    if results is None:
        return 3
    metrics, units, problems = aggregate(results, args.trace)
    correct = not problems and all(math.isfinite(v) for v in metrics.values())
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"job": job, "workers": results, "metrics": metrics}, handle)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

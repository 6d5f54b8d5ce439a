"""Self-test of the benchmark at its smallest sizes.

    python3 bench/selftest.py

Runs every workload once per mode with FEM meshes shrunk to 27x160, one
worker and one pass, and checks that

* the result line has exactly the keys the benchmark promises, every
  metric that ``BENCHMARK.json`` names for the mode is printed with its
  unit, and the run is correct with no failed operation;
* a deliberately wrong exact trace (the mode-2 terms dropped) makes the
  correctness check fail. That check runs one worker in this process, so
  that the replaced function is the one the worker calls.

Exits 0 when every check holds and 1 otherwise.
"""

import contextlib
import io
import json
import sys

import run as bench
import worker

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, trace):
    """Exit code, parsed last stdout line and stderr of one benchmark run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = bench.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
        )
    return code, json.loads(stdout.getvalue().splitlines()[-1]), stderr.getvalue()


def main():
    with open(bench.BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    for workload in bench.WORKLOADS.values():
        if workload["backend"] == "fem":
            workload.update(n_radial=27, n_angular=160)
    bench.WORKERS = 1

    failures = []
    for entry in declared["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{entry['name']} --trace {trace}"
            code, result, errors = run_bench(entry["name"], trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared[section]}
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
            if printed != wanted:
                failures.append(f"{label}: printed {printed}, declared {wanted}")
            if code != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: exit {code}, result {result}, {errors}")

    job = {
        **bench.WORKLOADS["spectral-strategies"], "terms": bench.harmonic_terms(7),
        "src": str(bench.SRC), "seconds": 0, "min_passes": 1, "trace": False, "index": 0,
    }
    exact = worker.exact_inner_trace
    worker.exact_inner_trace = lambda terms, angles: exact(
        [term for term in terms if term[1] != 2], angles
    )
    try:
        result = worker.measure(job)
    finally:
        worker.exact_inner_trace = exact
    _, _, problems = bench.aggregate([result], trace=False)
    if not any("above the bound" in problem for problem in problems):
        failures.append(f"wrong exact trace passed the check: {problems}")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

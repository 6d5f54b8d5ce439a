"""Reference grid: Armijo on example2 at the mesh sizes the roadmap names.

    python3 bench/reference.py

For FEM 27x160, 54x320, 108x640 and the spectral backend on 160 nodes,
prints one markdown row with the wall time of a descent run (lowest and
median of ``REPEATS`` untraced runs), the direct solves it spent and the
CG iterations per solve, counted on one more run with the wrappers of
``tracing.py`` installed. Writes the same figures to ``bench/out/reference.json``.
"""

import json
import os
import statistics
import sys
import time

import run as bench
import worker
import tracing

GRID = [
    {"backend": "fem", "n_radial": 27, "n_angular": 160},
    {"backend": "fem", "n_radial": 54, "n_angular": 320},
    {"backend": "fem", "n_radial": 108, "n_angular": 640},
    {"backend": "spectral", "n_angular": 160},
]
REPEATS = 3


def main():
    os.environ.update(bench.THREADS_ENV)  # before numpy is imported, as in the workers
    sys.path.insert(0, str(bench.SRC))
    import adjoint_cauchy as ac

    terms = [[t.amplitude, t.mode, t.kind] for t in ac.builtin_terms("example2")]
    rows = []
    print("| backend | mesh | wall s (min) | wall s (median) | solves | CG iters/solve |")
    print("|---|---|---|---|---|---|")
    for point in GRID:
        backend, data = worker.build(ac, {**point, "terms": terms})
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = ac.run(backend, data, ac.Armijo())
            walls.append(time.perf_counter() - start)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            ac.run(backend, data, ac.Armijo())
        cg = tracer.totals()["fem.cg"]
        row = {
            **point,
            "wall_min_s": min(walls),
            "wall_median_s": statistics.median(walls),
            "solves": result.counters.total,
            "cg_iters_per_solve": cg["count"] / cg["calls"] if cg["calls"] else None,
        }
        rows.append(row)
        mesh = f"{point['n_radial']}x{point['n_angular']}" if "n_radial" in point else (
            f"{point['n_angular']} nodes"
        )
        iters = "-" if row["cg_iters_per_solve"] is None else f"{row['cg_iters_per_solve']:.0f}"
        print(
            f"| {point['backend']} | {mesh} | {row['wall_min_s']:.3f} | "
            f"{row['wall_median_s']:.3f} | {row['solves']} | {iters} |"
        )
    bench.OUT.mkdir(exist_ok=True)
    with open(bench.OUT / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)


if __name__ == "__main__":
    main()

"""One worker process of the benchmark: set-up, timed passes and checks.

    python3 bench/worker.py '<job json>'

``run.py`` starts several workers one after another, because each fresh
interpreter settles in a speed of its own (README.md, "Steadiness"). A
worker imports ``adjoint_cauchy`` from the job's source directory and
builds the workload's backend and Cauchy data; that time is one ``setup_s``
sample. It then runs passes for its share of the measurement, checks every
descent run against values computed here from the harmonic terms, and
prints its raw samples as one JSON object on the last line of standard
output. Only the standard library is imported before the set-up clock
starts, so the sample includes importing numpy and scipy.
"""

import contextlib
import json
import math
import resource
import sys
import time

import tracing

R_INNER = 1.0
R_OUTER = 3.0
J_TOL = 1e-5
ARMIJO_XI = 1.0 / 3.0


def build(ac, job):
    """Backend and Cauchy data of ``job`` (a workload plus its terms)."""
    if job["backend"] == "fem":
        mesh = ac.generate_mesh(ac.AnnulusSpec(R_INNER, R_OUTER, job["n_radial"], job["n_angular"]))
        backend = ac.FemBackend(mesh)
    else:
        backend = ac.SpectralBackend(R_INNER, R_OUTER, n_angular=job["n_angular"])
    terms = [ac.HarmonicTerm(amp, mode, kind) for amp, mode, kind in job["terms"]]
    return backend, ac.cauchy_data(terms, backend.outer_ring)


def exact_inner_trace(terms, angles):
    """Closed-form trace of the harmonic field on the inner circle."""
    return [
        sum(
            amp * R_INNER**mode * (math.cos if kind == "cos" else math.sin)(mode * theta)
            for amp, mode, kind in terms
        )
        for theta in angles
    ]


def trace_factor(mode):
    """T_m = 2 q^m / (1 + q^2m), q = r_inner / r_outer."""
    qm = (R_INNER / R_OUTER) ** mode
    return 2.0 * qm / (1.0 + qm * qm)


def omega_error(omega, terms):
    """Relative L2 error of a recovered inner trace.

    On equispaced nodes the discrete norm of a band-limited function is its
    L2 norm up to a constant factor, which cancels in the ratio.
    """
    exact = exact_inner_trace(terms, omega.ring.angles.tolist())
    diff = math.fsum((w - e) ** 2 for w, e in zip(omega.values.tolist(), exact))
    return math.sqrt(diff / math.fsum(e * e for e in exact))


def error_bound(job):
    """Largest relative error that J < J_TOL allows.

    J = 2 pi r_out sum_j (T_|j| |e_j|)^2 and ||e||^2 = 2 pi r_in sum_j |e_j|^2,
    so an error inside the data's modes has ||e|| <= sqrt(r_in/r_out J) / T_M
    with M the highest mode. On FEM the discrete minimiser differs from the
    exact trace by the mesh's discretisation error, allowed for as h_max^2
    (P1 elements are second order; unit constant).
    """
    terms = job["terms"]
    top = max(mode for _, mode, _ in terms)
    exact_norm = math.sqrt(
        math.pi * R_INNER * sum(a * a * R_INNER ** (2 * m) for a, m, _ in terms)
    )
    bound = math.sqrt(R_INNER / R_OUTER * J_TOL) / trace_factor(top) / exact_norm
    if job["backend"] == "fem":
        h_max = max(
            (R_OUTER - R_INNER) / job["n_radial"], 2.0 * math.pi * R_OUTER / job["n_angular"]
        )
        bound += h_max**2
    return bound


def check_result(strategy, result, job):
    """Problems with one descent run, as readable strings (empty if none)."""
    problems = []
    counters = result.counters
    if not (result.converged and result.reason == "j_tol"):
        problems.append(f"stopped by {result.reason}, not j_tol")
    if counters.primary != result.iterations + 1 or counters.adjoint != result.iterations:
        problems.append(
            f"{counters.primary} primary / {counters.adjoint} adjoint solves "
            f"for {result.iterations} iterations"
        )
    err, bound = omega_error(result.omega, job["terms"]), error_bound(job)
    if not err <= bound:
        problems.append(f"omega error {err:.3e} above the bound {bound:.3e}")
    kind = type(strategy).__name__
    if kind == "Armijo":
        for before, after in zip(result.history, result.history[1:]):
            limit = before.j_value - ARMIJO_XI * before.rho * before.grad_norm**2
            if not after.j_value <= limit + 1e-12 * max(before.j_value, 1.0):
                problems.append(f"Armijo decrease fails at k={before.k}")
    if kind == "ModeSweep" and job["backend"] == "spectral":
        band = strategy.mode_max - strategy.mode_min + 1
        if result.iterations > band:
            problems.append(f"sweep took {result.iterations} iterations, band is {band}")
    return problems


def time_calls(backend):
    """Time every call of the backend protocol on ``backend``.

    The timed methods are set on the instance, so ``run()`` still gets the
    backend object and type it expects. Returns the list each call's
    seconds are appended to. Two clock reads per call cost well under 0.1%
    of the cheapest solve, and they let ``run.estimate`` time a run call by
    call.
    """
    calls = []
    for name in ("solve_primary", "solve_adjoint", "functional"):
        def timed(*args, _method=getattr(backend, name)):
            start = time.perf_counter()
            out = _method(*args)
            calls.append(time.perf_counter() - start)
            return out

        setattr(backend, name, timed)
    return calls


def run_pass(ac, backend, calls, data, strategies, stop):
    """One descent run per strategy.

    Returns per run its result (None if it failed), its seconds and the
    seconds of each backend call it made.
    """
    runs = []
    for strategy in strategies:
        calls.clear()
        start = time.perf_counter()
        try:
            result = ac.run(backend, data, strategy, stop)
        except (ac.DivergenceError, ac.SolverError, ac.StepUnderflowError) as exc:
            print(f"{type(strategy).__name__} failed: {exc}", file=sys.stderr)
            result = None
        runs.append((result, time.perf_counter() - start, list(calls)))
    return runs


def measure(job):
    """Set-up, passes and checks of one worker; returns its raw result.

    With ``job["trace"]`` every other pass runs with the wrappers of
    ``tracing.py`` installed: the first pass in even-numbered workers and
    the second in odd-numbered ones, so that neither the traced nor the
    untraced time is always a first pass.
    """
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    import adjoint_cauchy as ac

    setup_tracer = tracing.Tracer()
    with tracing.installed(setup_tracer) if job["trace"] else contextlib.nullcontext():
        backend, data = build(ac, job)
    setup_s = time.perf_counter() - start

    calls = time_calls(backend)
    strategies = [getattr(ac, kind)(*params) for kind, *params in job["strategies"]]
    stop = ac.StopRule(j_tol=J_TOL)
    out = {
        "setup_s": setup_s, "attempted": 0, "failed": 0, "problems": [],
        "outcomes": {}, "errors": [], "samples": {"untraced": [], "traced": []},
    }
    run_tracer = tracing.Tracer()
    passes = 0
    begin = previous = time.perf_counter()
    last_pass = 0.0
    # a pass starts only if it should end within the worker's share of the
    # measurement, so every worker attempts whole passes
    while passes < job["min_passes"] or previous - begin + last_pass <= job["seconds"]:
        traced = job["trace"] and (passes + job["index"]) % 2 == 0
        with tracing.installed(run_tracer) if traced else contextlib.nullcontext():
            runs = run_pass(ac, backend, calls, data, strategies, stop)
        now = time.perf_counter()
        last_pass, previous = now - previous, now
        passes += 1
        out["attempted"] += len(runs)
        for index, (strategy, (result, _, _)) in enumerate(zip(strategies, runs)):
            if result is None:
                out["failed"] += 1
                continue
            outcome = [result.iterations, result.counters.total, result.final_j]
            first = out["outcomes"].setdefault(str(index), outcome)
            if first is outcome:  # the case's first run: check it in full
                out["errors"].append(omega_error(result.omega, job["terms"]))
                out["problems"] += [
                    f"{type(strategy).__name__}: {problem}"
                    for problem in check_result(strategy, result, job)
                ]
            elif outcome != first:
                out["problems"].append(
                    f"{type(strategy).__name__}: run gave {outcome}, first run {first}"
                )
        out["samples"]["traced" if traced else "untraced"].append(
            [None if result is None else [seconds, calls_]
             for result, seconds, calls_ in runs]
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if job["trace"]:
        out["setup_totals"] = setup_tracer.totals()
        out["run_totals"] = run_tracer.totals()
        setup_tracer.write(job["spans"], "setup")
        run_tracer.write(job["spans"], "run", mode="a")
    return out


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))

"""Acceptance suite: one test per advertised guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints the measured numbers behind it.
"""

import math

import numpy as np
import pytest

from adjoint_cauchy import (
    AnnulusSpec,
    Armijo,
    BoundaryFunction,
    Constant,
    ExplicitSchedule,
    FemBackend,
    ModeSweep,
    SpectralBackend,
    StopRule,
    builtin_terms,
    cauchy_data,
    exact_inner_trace,
    generate_mesh,
    gradient_factor,
    run,
)
from adjoint_cauchy.spectral import compression_factor
from adjoint_cauchy.cli import oracle_check

R_IN, R_OUT = 1.0, 3.0
J_ZERO = 243.0 * math.pi / 1681.0


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _random_band(rng, mode_max):
    """rfft-layout coefficients of a random real band: a_0 real, then a_j."""
    draws = rng.standard_normal(2 * mode_max + 1)
    return np.concatenate(([draws[0]], draws[1::2] + 1j * draws[2::2]))


def _gradient_factors(mode_max):
    return np.array([gradient_factor(j, R_IN, R_OUT) for j in range(mode_max + 1)])


def _norm(coeffs, radius=R_IN):
    """L2 norm over the circle: sqrt(2*pi*R * (|a_0|^2 + 2 * sum_{j >= 1} |a_j|^2))."""
    power = np.abs(coeffs) ** 2
    return math.sqrt(2.0 * math.pi * radius * (power[0] + 2.0 * power[1:].sum()))


@pytest.fixture(scope="module")
def fem_runs(fem_default):
    """The comparison runs shared by the iteration-count and Armijo checks."""
    stop = StopRule(j_tol=1e-5, grad_eps=1e-12, max_iters=200)
    data1 = cauchy_data(builtin_terms("example1"), fem_default.outer_ring)
    data2 = cauchy_data(builtin_terms("example2"), fem_default.outer_ring)
    return {
        "ex1_schedule": run(fem_default, data1, ExplicitSchedule((1681.0 / 486.0,), tail_rho=1.0 / 3.0), stop),
        "ex1_armijo": run(fem_default, data1, Armijo(), stop),
        "ex2_sweep": run(fem_default, data2, ModeSweep(0, 2), stop),
        "ex2_constant": run(fem_default, data2, Constant(1.0 / 3.0), stop),
        "ex2_armijo": run(fem_default, data2, Armijo(), stop),
    }


def test_criterion_1_gradient_factor_constants():
    c2 = gradient_factor(2, R_IN, R_OUT)
    c0 = gradient_factor(0, R_IN, R_OUT)
    ok = (
        abs(c2 - 486.0 / 1681.0) <= 1e-14
        and abs(1.0 / c2 - 1681.0 / 486.0) <= 1e-14 * (1681.0 / 486.0)
        and 2.0 / c0 == 1.0 / 3.0
    )
    _report("criterion 1 (factor constants)", ok, f"C_2 = {c2!r}, 1/C_2 = {1.0 / c2!r}, 2/C_0 = {2.0 / c0!r}")


def test_criterion_2_sweep_annihilates_band():
    rng = np.random.default_rng(2024)
    ratios = {}
    for direction in ("descending", "ascending"):
        mu0 = mu = _random_band(rng, 5)
        for k in range(6):
            mode = 5 - k if direction == "descending" else k
            c = gradient_factor(mode, R_IN, R_OUT)
            rho = ModeSweep(0, 5, direction).step_size(k, R_IN, R_OUT)
            assert math.isclose(rho, 1.0 / c, rel_tol=1e-15)
            # 1 - C_j / c, not 1 - rho*C_j: exactly zero on the annihilated mode
            mu = mu * (1.0 - _gradient_factors(5) / c)
        ratios[direction] = _norm(mu) / _norm(mu0)
    ok = all(r <= 1e-12 for r in ratios.values())
    _report("criterion 2 (band sweep exactness)", ok, f"norm ratios after 6 steps: {ratios}")


def test_criterion_3_one_step_recovery():
    backend = SpectralBackend(R_IN, R_OUT, n_angular=160)
    data = cauchy_data(builtin_terms("example1"), backend.outer_ring)
    result = run(backend, data, ExplicitSchedule((1681.0 / 486.0,), tail_rho=1.0 / 3.0))
    omega_star = exact_inner_trace(builtin_terms("example1"), backend.inner_ring)
    err = float(np.max(np.abs(result.omega.values - omega_star.values)))
    ok = result.iterations == 1 and err <= 1e-12
    _report("criterion 3 (one-step recovery)", ok, f"iterations = {result.iterations}, sup error = {err:.3e}")


def test_criterion_4_fem_single_mode_oracle():
    results = oracle_check(
        AnnulusSpec(R_IN, R_OUT, 27, 160), modes=(0, 1, 2, 3), tolerance=0.01, refine=True, min_ratio=3.0
    )
    worst_trace = max(r["trace_error"] for r in results)
    worst_flux = max(r["flux_error"] for r in results)
    ratios = [r[k] for r in results for k in ("trace_ratio", "flux_ratio") if r[k] is not None]
    ok = all(r["passed"] for r in results)
    _report(
        "criterion 4 (FEM vs oracle, modes 0-3)",
        ok,
        f"worst trace {worst_trace:.3e}, worst flux {worst_flux:.3e}, "
        f"min refinement ratio {min(ratios):.2f}",
    )


def test_criterion_5_initial_functional():
    backend = SpectralBackend(R_IN, R_OUT, n_angular=64)
    data = cauchy_data(builtin_terms("example1"), backend.outer_ring)
    v_spec = backend.solve_primary(BoundaryFunction.zeros(backend.inner_ring), data.q_bar)
    j_spec = backend.functional(v_spec, data.u_bar)
    spec_err = abs(j_spec - J_ZERO)

    fem = FemBackend(generate_mesh(AnnulusSpec(R_IN, R_OUT, 54, 320)))
    data_fem = cauchy_data(builtin_terms("example1"), fem.outer_ring)
    v_fem = fem.solve_primary(BoundaryFunction.zeros(fem.inner_ring), data_fem.q_bar)
    j_fem = fem.functional(v_fem, data_fem.u_bar)
    fem_rel = abs(j_fem - J_ZERO) / J_ZERO

    ok = spec_err <= 1e-12 and fem_rel <= 0.02
    _report(
        "criterion 5 (initial functional 243pi/1681)",
        ok,
        f"spectral error {spec_err:.3e}, FEM (54x320) relative error {fem_rel:.4f}",
    )


def test_criterion_6_comparison_runs(fem_runs):
    r = fem_runs
    solves = {name: res.counters.total for name, res in r.items()}
    checks = {
        "ex1 schedule converged": r["ex1_schedule"].converged and r["ex1_schedule"].history[-1].j_value < 1e-5,
        "ex1 schedule <= 40 iters": r["ex1_schedule"].iterations <= 40,
        "ex1 schedule beats armijo": solves["ex1_schedule"] < solves["ex1_armijo"],
        "ex2 sweep converged": r["ex2_sweep"].converged and r["ex2_sweep"].history[-1].j_value < 1e-5,
        "ex2 sweep <= 12 iters": r["ex2_sweep"].iterations <= 12,
        "ex2 sweep beats constant": solves["ex2_sweep"] < solves["ex2_constant"],
        "ex2 sweep beats armijo": solves["ex2_sweep"] < solves["ex2_armijo"],
    }
    iters = {name: res.iterations for name, res in r.items()}
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(
        "criterion 6 (solve-count orderings)",
        ok,
        f"iterations {iters}, total solves {solves}" + (f", FAILED {failed}" if failed else ""),
    )


def test_criterion_7_armijo_inequality(fem_runs):
    xi = 1.0 / 3.0
    worst = -math.inf
    pairs = 0
    for name in ("ex1_armijo", "ex2_armijo"):
        history = fem_runs[name].history
        for before, after in zip(history, history[1:]):
            if not math.isfinite(before.rho):
                continue
            bound = before.j_value - xi * before.rho * before.grad_norm**2
            slack = 1e-12 * max(before.j_value, 1.0)
            worst = max(worst, after.j_value - bound)
            assert after.j_value <= bound + slack
            pairs += 1
    ok = pairs > 0
    _report("criterion 7 (Armijo decrease on accepted steps)", ok, f"{pairs} accepted steps, worst margin {worst:.3e}")


def test_criterion_8_monotone_contraction_window():
    rng = np.random.default_rng(88)
    mode_min, mode_max = 0, 3
    upper = 2.0 / gradient_factor(mode_min, R_IN, R_OUT)
    worst_excess = 0.0
    for rho in np.linspace(0.03 * upper, 0.97 * upper, 10):
        delta = compression_factor(mode_min, mode_max, float(rho), R_IN, R_OUT)
        assert delta < 1.0
        mu = _random_band(rng, mode_max)
        for _ in range(5):
            previous = _norm(mu)
            mu = mu * (1.0 - float(rho) * _gradient_factors(mode_max))
            excess = _norm(mu) - delta * previous
            worst_excess = max(worst_excess, excess)
            assert _norm(mu) <= delta * previous * (1.0 + 1e-12)
    outside = {float(rho): compression_factor(mode_min, mode_max, float(rho), R_IN, R_OUT) for rho in (0.0, 1.01 * upper, upper + 0.5)}
    ok = all(d >= 1.0 for d in outside.values())
    _report(
        "criterion 8 (contraction iff step in window)",
        ok,
        f"window (0, {upper:.4f}), worst per-step excess {worst_excess:.3e}, outside deltas {outside}",
    )


# the random traces carry the Nyquist bin of the even rings, which the
# spectral backend drops from the trace and its band-limited gradient does not see
@pytest.mark.filterwarnings("ignore:ring data has significant content")
def test_criterion_9_fd_gradient_check():
    """On each backend the adjoint gradient, weighted by the backend's inner
    node weight, is the derivative of its own functional."""
    backends = {
        "spectral 16": SpectralBackend(R_IN, R_OUT, n_angular=16),
        "spectral 160": SpectralBackend(R_IN, R_OUT, n_angular=160),
        "FEM 12x64": FemBackend(generate_mesh(AnnulusSpec(R_IN, R_OUT, 12, 64))),
    }
    worst = {}
    for name, backend in backends.items():
        data = cauchy_data(builtin_terms("example2"), backend.outer_ring)
        rng = np.random.default_rng(99)
        n = backend.inner_ring.size
        omega = BoundaryFunction(backend.inner_ring, 0.5 * rng.standard_normal(n))

        def functional_at(trace):
            return backend.functional(backend.solve_primary(trace, data.q_bar), data.u_bar)

        v = backend.solve_primary(omega, data.q_bar)
        g = backend.solve_adjoint(2.0 * (v - data.u_bar))
        h = 1e-5
        worst[name] = 0.0
        for _ in range(10):
            d = BoundaryFunction(backend.inner_ring, rng.standard_normal(n))
            jp = functional_at(omega + h * d)
            jm = functional_at(omega - h * d)
            fd = (jp - jm) / (2 * h)
            pred = backend.inner_weight * float(np.dot(g.values, d.values))
            rel = abs(fd - pred) / max(abs(fd), 1e-300)
            worst[name] = max(worst[name], rel)
    ok = max(worst.values()) <= 1e-6
    detail = ", ".join(f"{name} {value:.3e}" for name, value in worst.items())
    _report("criterion 9 (adjoint vs finite differences)", ok, f"worst relative mismatch over 10 directions: {detail}")

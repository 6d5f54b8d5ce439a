"""The descent loop and its two backends."""

import csv
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import (
    AnnulusSpec,
    BoundaryFunction,
    CauchyData,
    Constant,
    DivergenceError,
    ExplicitSchedule,
    FemBackend,
    ModeSweep,
    OptimalTwoMode,
    SpectralBackend,
    StopRule,
    builtin_terms,
    cauchy_data,
    exact_inner_trace,
    generate_mesh,
    gradient_factor,
    run,
)
from adjoint_cauchy.boundary import boundary_inner_product, make_ring
from adjoint_cauchy.fourier import analyze, synthesize
from adjoint_cauchy.iteration import (
    IterationRecord,
    SolveCounters,
    evaluate_functional,
    gradient,
    write_history_csv,
)
from adjoint_cauchy.spectral import FourierBoundary, solve_series

R_IN, R_OUT = 1.0, 3.0
J_ZERO = 243.0 * math.pi / 1681.0


@pytest.fixture(scope="module")
def spectral():
    return SpectralBackend(R_IN, R_OUT, n_angular=64)


@pytest.fixture(scope="module")
def ex1(spectral):
    return cauchy_data(builtin_terms("example1"), spectral.outer_ring)


@pytest.fixture(scope="module")
def ex2(spectral):
    return cauchy_data(builtin_terms("example2"), spectral.outer_ring)


def test_functional_at_zero(spectral, ex1):
    j, v = evaluate_functional(spectral, BoundaryFunction.zeros(spectral.inner_ring), ex1)
    assert abs(j - J_ZERO) < 1e-12
    th = spectral.outer_ring.angles
    assert_allclose((v - ex1.u_bar).values, -(9.0 / 41.0) * np.cos(2 * th), atol=1e-12)


def test_functional_at_solution(spectral, ex1):
    omega_star = exact_inner_trace(builtin_terms("example1"), spectral.inner_ring)
    j, _ = evaluate_functional(spectral, omega_star, ex1)
    assert j < 1e-12


def test_gradient_at_zero(spectral, ex1):
    _, v = evaluate_functional(spectral, BoundaryFunction.zeros(spectral.inner_ring), ex1)
    g = gradient(spectral, v, ex1)
    th = spectral.inner_ring.angles
    assert_allclose(g.values, -(486.0 / 1681.0) * np.cos(2 * th), atol=1e-12)


def test_gradient_of_zero_misfit(spectral, ex1):
    g = gradient(spectral, ex1.u_bar.copy(), ex1)
    assert np.max(np.abs(g.values)) < 1e-12


def test_counters_book_each_solve(spectral, ex1):
    counters = SolveCounters()
    _, v = evaluate_functional(spectral, BoundaryFunction.zeros(spectral.inner_ring), ex1, counters)
    gradient(spectral, v, ex1, counters)
    assert (counters.primary, counters.adjoint, counters.line_search) == (1, 1, 0)
    assert counters.total == 2


def test_one_step_recovery(spectral, ex1):
    result = run(spectral, ex1, ExplicitSchedule((1681.0 / 486.0,), tail_rho=1.0 / 3.0))
    assert result.converged
    assert result.reason == "j_tol"
    assert result.iterations == 1
    omega_star = exact_inner_trace(builtin_terms("example1"), spectral.inner_ring)
    assert np.max(np.abs(result.omega.values - omega_star.values)) < 1e-12


def test_start_at_solution_stops_at_once(spectral, ex1):
    omega_star = exact_inner_trace(builtin_terms("example1"), spectral.inner_ring)
    result = run(spectral, ex1, Constant(1.0), omega0=omega_star)
    assert result.converged
    assert result.reason == "j_tol"
    assert result.iterations == 0
    assert len(result.history) == 1
    rec = result.history[0]
    assert rec.k == 0
    assert math.isnan(rec.rho) and math.isnan(rec.grad_norm)
    assert rec.primary_solves == 1 and rec.adjoint_solves == 0


def test_max_iters_is_not_convergence(spectral, ex1):
    stop = StopRule(j_tol=1e-30, grad_eps=1e-30, max_iters=3)
    result = run(spectral, ex1, Constant(0.01), stop)
    assert not result.converged
    assert result.reason == "max_iters"
    assert result.iterations == 3
    assert [r.k for r in result.history] == [0, 1, 2, 3]
    assert result.counters.primary == 4
    assert result.counters.adjoint == 3
    for a, b in zip(result.history, result.history[1:]):
        assert b.primary_solves >= a.primary_solves
        assert b.j_value >= 0.0


def test_grad_eps_stop(spectral, ex1):
    omega_star = exact_inner_trace(builtin_terms("example1"), spectral.inner_ring)
    stop = StopRule(j_tol=1e-40, grad_eps=1e-2, max_iters=5)
    result = run(spectral, ex1, Constant(0.01), stop, omega0=omega_star)
    assert result.converged
    assert result.reason == "grad_eps"
    last = result.history[-1]
    assert last.grad_norm < 1e-2
    assert math.isnan(last.rho)


def test_constant_step_contracts_monotonically(spectral, ex2):
    result = run(spectral, ex2, Constant(1.0 / 3.0), StopRule(j_tol=1e-9, max_iters=120))
    js = [r.j_value for r in result.history]
    assert all(b < a for a, b in zip(js, js[1:]))
    assert result.converged


def test_divergence_guard(spectral, ex2):
    # 5.0 is far above 2/C_1, so modes 1..2 blow up until the guard trips
    with pytest.raises(DivergenceError) as err:
        run(spectral, ex2, Constant(5.0), StopRule(max_iters=100))
    assert len(err.value.history) >= 5


def test_optimal_two_mode_above_mode_zero_window_diverges():
    """OptimalTwoMode(1, 2) steps rho = 2/(C_1 + C_2) = 0.817, past 2/C_0 = 1/3.
    The data hold no mode 0, but its rounding error grows |1 - rho*C_0| = 3.9x
    per step, so J grows about 15x per step until the guard trips."""
    backend = SpectralBackend(R_IN, R_OUT)
    data = cauchy_data(builtin_terms("example2"), backend.outer_ring)
    with pytest.raises(DivergenceError) as err:
        run(backend, data, OptimalTwoMode(1, 2))
    history = err.value.history
    c0, c1, c2 = (gradient_factor(j, R_IN, R_OUT) for j in range(3))
    rho = 2.0 / (c1 + c2)
    assert math.isclose(rho, 0.817, abs_tol=5e-4) and rho > 2.0 / c0 == 1.0 / 3.0
    assert all(record.rho == rho for record in history)
    last = [record.j_value for record in history[-4:]]
    ratios = [b / a for a, b in zip(last, last[1:])]
    assert all(13.0 < ratio < 16.0 for ratio in ratios)
    assert math.isclose(ratios[-1], (1.0 - rho * c0) ** 2, rel_tol=1e-2)


def test_run_is_reproducible(spectral, ex2):
    r1 = run(spectral, ex2, ModeSweep(0, 2, "descending"), StopRule())
    r2 = run(spectral, ex2, ModeSweep(0, 2, "descending"), StopRule())
    assert [a.j_value for a in r1.history] == [b.j_value for b in r2.history]
    assert np.array_equal(r1.omega.values, r2.omega.values)


def test_fem_functional_tracks_series_value():
    mesh = generate_mesh(AnnulusSpec(R_IN, R_OUT, 12, 64))
    fem = FemBackend(mesh)
    data = cauchy_data(builtin_terms("example1"), fem.outer_ring)
    j, _ = evaluate_functional(fem, BoundaryFunction.zeros(fem.inner_ring), data)
    # coarse mesh, and the misfit comes from cancellation of O(9) traces
    assert abs(j - J_ZERO) / J_ZERO < 0.25


def test_fem_gradient_differentiates_discrete_functional():
    """Central differences along random directions match the adjoint gradient."""
    mesh = generate_mesh(AnnulusSpec(R_IN, R_OUT, 8, 48))
    fem = FemBackend(mesh)
    data = cauchy_data(builtin_terms("example2"), fem.outer_ring)
    rng = np.random.default_rng(4)
    omega = BoundaryFunction(fem.inner_ring, 0.5 * rng.standard_normal(48))
    _, v = evaluate_functional(fem, omega, data)
    g = gradient(fem, v, data)
    h = 1e-5
    for _ in range(3):
        d = BoundaryFunction(fem.inner_ring, rng.standard_normal(48))
        jp, _ = evaluate_functional(fem, omega + h * d, data)
        jm, _ = evaluate_functional(fem, omega - h * d, data)
        fd = (jp - jm) / (2 * h)
        pred = boundary_inner_product(g, d)
        assert abs(fd - pred) <= 1e-6 * max(abs(fd), 1e-12)


def test_write_history_csv(tmp_path):
    history = [
        IterationRecord(0, 0.5, 0.25, 1.5, 1, 1, 0),
        IterationRecord(1, 1e-7, float("nan"), float("nan"), 2, 1, 0),
    ]
    path = write_history_csv(history, tmp_path / "history.csv")
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["0", "1"]
    assert float(rows[0]["J"]) == 0.5
    assert float(rows[0]["rho"]) == 1.5
    assert math.isnan(float(rows[1]["rho"]))


def test_data_and_stop_validation():
    ring_in = make_ring("inner", 1.0, 16)
    ring_out = make_ring("outer", 3.0, 16)
    with pytest.raises(ValueError):
        CauchyData(BoundaryFunction.zeros(ring_in), BoundaryFunction.zeros(ring_in))
    with pytest.raises(ValueError):
        CauchyData(BoundaryFunction.zeros(ring_out), BoundaryFunction.zeros(make_ring("outer", 3.0, 32)))
    with pytest.raises(ValueError):
        StopRule(j_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(grad_eps=-1.0)
    with pytest.raises(ValueError):
        StopRule(max_iters=0)


def test_run_rejects_foreign_start(spectral, ex1):
    wrong = BoundaryFunction.zeros(make_ring("inner", 1.0, 32))
    with pytest.raises(ValueError):
        run(spectral, ex1, Constant(0.3), omega0=wrong)


def test_non_finite_functional_is_divergence(spectral, ex2):
    # the second iterate is of order 1e199, so J overflows to inf
    with pytest.raises(DivergenceError, match="not finite"):
        run(spectral, ex2, Constant(1e200), StopRule(max_iters=100))


@pytest.mark.parametrize("backend_kind", ["fem", "spectral"])
def test_overflow_raises_divergence_without_runtime_warning(backend_kind):
    if backend_kind == "fem":
        backend = FemBackend(generate_mesh(AnnulusSpec(R_IN, R_OUT, 3, 16)))
    else:
        backend = SpectralBackend(R_IN, R_OUT, n_angular=16)
    data = cauchy_data(builtin_terms("example2"), backend.outer_ring)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="not finite"):
            run(backend, data, Constant(1e200), StopRule(max_iters=100))


def test_cauchy_data_rejects_non_finite_values():
    ring = make_ring("outer", 3.0, 16)
    good = BoundaryFunction(ring, np.cos(ring.angles))
    for bad_value in (math.nan, math.inf):
        bad = good.copy()
        bad.values[3] = bad_value
        with pytest.raises(ValueError, match="u_bar"):
            CauchyData(bad, good)
        with pytest.raises(ValueError, match="q_bar"):
            CauchyData(good, bad)


def random_band(ring, max_mode, rng):
    coeffs = {0: complex(rng.standard_normal(), 0.0)}
    for j in range(1, max_mode + 1):
        a = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[j], coeffs[-j] = a, a.conjugate()
    return synthesize(FourierBoundary(coeffs, ring.radius), ring)


@pytest.mark.parametrize("n_angular, max_mode", [(16, 3), (16, 7), (17, 4), (17, 8)])
def test_prepared_spectral_solves_match_series_oracle(n_angular, max_mode):
    """Per-mode responses reproduce the dict-based series solution; 7 and 8
    are the highest modes that 16 and 17 nodes resolve."""
    backend = SpectralBackend(R_IN, R_OUT, n_angular=n_angular, max_mode=max_mode)
    inner, outer = backend.inner_ring, backend.outer_ring
    rng = np.random.default_rng(n_angular + max_mode)
    for _ in range(5):
        omega, q_bar, driver = (random_band(r, max_mode, rng) for r in (inner, outer, outer))
        series = solve_series(
            analyze(q_bar, max_mode), analyze(omega, max_mode), R_IN, R_OUT
        )
        want = synthesize(series.trace(R_OUT), outer).values
        got = backend.solve_primary(omega, q_bar).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        series = solve_series(analyze(driver, max_mode), FourierBoundary.zero(R_IN), R_IN, R_OUT)
        want = synthesize(series.radial_derivative(R_IN), inner).values
        got = backend.solve_adjoint(driver).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        want_j = analyze(driver - q_bar, max_mode).norm() ** 2
        assert abs(backend.functional(driver, q_bar) - want_j) <= 1e-13 * want_j


def test_prepared_spectral_tail_warning():
    backend = SpectralBackend(R_IN, R_OUT, n_angular=16, max_mode=3)
    inner, outer = backend.inner_ring, backend.outer_ring
    tail_in = BoundaryFunction(inner, np.cos(5 * inner.angles))
    tail_out = BoundaryFunction(outer, np.cos(5 * outer.angles))
    band_out = BoundaryFunction(outer, np.cos(outer.angles))
    with pytest.warns(UserWarning, match="above mode 3"):
        backend.solve_primary(tail_in, band_out)
    with pytest.warns(UserWarning, match="above mode 3"):
        backend.solve_primary(BoundaryFunction.zeros(inner), tail_out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backend.solve_adjoint(tail_out)
        backend.functional(tail_out, band_out)


def test_prepared_spectral_rejects_foreign_rings(spectral):
    inner, outer = spectral.inner_ring, spectral.outer_ring
    on_inner, on_outer = BoundaryFunction.zeros(inner), BoundaryFunction.zeros(outer)
    other = BoundaryFunction.zeros(make_ring("outer", R_OUT, 2 * outer.size))
    shifted = BoundaryFunction.zeros(make_ring("outer", 2.0 * R_OUT, outer.size))
    for foreign in (other, shifted, on_inner):
        with pytest.raises(ValueError):
            spectral.solve_primary(on_inner, foreign)
        with pytest.raises(ValueError):
            spectral.solve_adjoint(foreign)
        with pytest.raises(ValueError):
            spectral.functional(foreign, on_outer)
        with pytest.raises(ValueError):
            spectral.functional(on_outer, foreign)
    with pytest.raises(ValueError):
        spectral.solve_primary(on_outer, on_outer)

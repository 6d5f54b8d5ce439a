"""The descent loop and its two backends."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import (
    AnnulusSpec,
    Armijo,
    BoundaryFunction,
    CauchyData,
    Constant,
    DivergenceError,
    ExplicitSchedule,
    FemBackend,
    HarmonicTerm,
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
from adjoint_cauchy import iteration
from adjoint_cauchy.boundary import BoundaryRing

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


def functional_at(backend, omega, data):
    """J at ``omega`` and the outer trace that produced it: one primary solve."""
    v_trace = backend.solve_primary(omega, data.q_bar)
    return backend.functional(v_trace, data.u_bar), v_trace


def test_functional_at_zero(spectral, ex1):
    j, v = functional_at(spectral, BoundaryFunction.zeros(spectral.inner_ring), ex1)
    assert abs(j - J_ZERO) < 1e-12
    th = spectral.outer_ring.angles
    assert_allclose((v - ex1.u_bar).values, -(9.0 / 41.0) * np.cos(2 * th), atol=1e-12)


def test_functional_at_solution(spectral, ex1):
    omega_star = exact_inner_trace(builtin_terms("example1"), spectral.inner_ring)
    j, _ = functional_at(spectral, omega_star, ex1)
    assert j < 1e-12


def test_gradient_at_zero(spectral, ex1):
    _, v = functional_at(spectral, BoundaryFunction.zeros(spectral.inner_ring), ex1)
    g = spectral.solve_adjoint(2.0 * (v - ex1.u_bar))
    th = spectral.inner_ring.angles
    assert_allclose(g.values, -(486.0 / 1681.0) * np.cos(2 * th), atol=1e-12)


def test_gradient_of_zero_misfit(spectral, ex1):
    g = spectral.solve_adjoint(2.0 * (ex1.u_bar.copy() - ex1.u_bar))
    assert np.max(np.abs(g.values)) < 1e-12


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


def harmonic_band(top):
    """Terms whose inner trace is sum_j cos(j theta) / (1 + j), j = 0..top."""
    return tuple(HarmonicTerm(1.0 / (1 + j) / R_IN**j, j, "cos") for j in range(top + 1))


def test_sweep_rises_are_not_divergence():
    """A descending sweep raises J by design (to 4.5e23 at k = 4 here) and
    then falls; only rises past its steps count toward the guard, so the
    sweep finishes while OptimalTwoMode(1, 2) still trips it."""
    backend = SpectralBackend(R_IN, R_OUT)
    data = cauchy_data(harmonic_band(5), backend.outer_ring)
    with warnings.catch_warnings():
        # the last sweep step cancels iterates of size 1e11, which leaves
        # rounding above the band that the tail check reports
        warnings.simplefilter("ignore", UserWarning)
        result = run(backend, data, ModeSweep(0, 5, "descending"))
    js = [record.j_value for record in result.history]
    assert all(b > a for a, b in zip(js[:5], js[1:6])) and max(js) > 1e23
    assert result.converged and result.iterations == 6
    example2 = cauchy_data(builtin_terms("example2"), backend.outer_ring)
    with pytest.raises(DivergenceError):
        run(backend, example2, OptimalTwoMode(1, 2))
    # a sweep's tail is watched from its first step: 1.0 > 2/C_1 makes J
    # rise at k = 2..6, after the one sweep step
    with pytest.raises(DivergenceError) as err:
        run(backend, example2, ModeSweep(2, 2, tail_rho=1.0))
    assert len(err.value.history) == 6


@pytest.mark.parametrize("direction", ["descending", "ascending"])
def test_sweep_float_limit(direction):
    """Exact arithmetic would annihilate band 0..4 in five sweep steps;
    rounding in mode 0 grows by about prod_i C_0/C_i, which leaves a
    relative error of 1.8e-9 descending and 2.9e-9 ascending."""
    backend = SpectralBackend(R_IN, R_OUT)
    terms = harmonic_band(4)
    data = cauchy_data(terms, backend.outer_ring)
    result = run(backend, data, ModeSweep(0, 4, direction), StopRule(max_iters=5))
    exact = exact_inner_trace(terms, backend.inner_ring).values
    error = np.linalg.norm(result.omega.values - exact) / np.linalg.norm(exact)
    assert result.iterations == 5 and error < 1e-8


@pytest.mark.parametrize("backend_name", ["spectral_160", "fem_default"])
def test_armijo_float_limit(request, backend_name):
    """The exact inner trace of example1 has no mode 0, but rounding puts
    some into every iterate. Armijo accepts beta = 1 at every step, and a
    step rho multiplies mode 0 by 1 - rho*C_0 = -5 on radii 1 and 3."""
    backend = request.getfixturevalue(backend_name)
    data = cauchy_data(builtin_terms("example1"), backend.outer_ring)
    c0 = gradient_factor(0, R_IN, R_OUT)
    full = run(backend, data, Armijo(), StopRule())
    assert full.converged and full.iterations == 16
    # the mean of omega is its mode-0 coefficient
    means = [
        np.mean(run(backend, data, Armijo(), StopRule(max_iters=k)).omega.values)
        for k in range(1, full.iterations)
    ]
    means = [0.0, *means, np.mean(full.omega.values)]
    checked = 0
    for k, record in enumerate(full.history[:-1]):
        if abs(means[k]) > 1e-12:
            assert record.rho == 1.0
            assert means[k + 1] / means[k] == pytest.approx(1.0 - record.rho * c0, rel=0.01)
            checked += 1
    assert checked >= 10
    assert 1e-5 < abs(means[-1]) < 1e-4


def test_run_is_reproducible(spectral, ex2):
    r1 = run(spectral, ex2, ModeSweep(0, 2, "descending"), StopRule())
    r2 = run(spectral, ex2, ModeSweep(0, 2, "descending"), StopRule())
    assert [a.j_value for a in r1.history] == [b.j_value for b in r2.history]
    assert np.array_equal(r1.omega.values, r2.omega.values)


@pytest.fixture(scope="module")
def spectral_160():
    return SpectralBackend(R_IN, R_OUT, n_angular=160)


@pytest.fixture(scope="module")
def fem_fine():
    return FemBackend(generate_mesh(AnnulusSpec(R_IN, R_OUT, 54, 320)))


class SpyBackend:
    """A backend that keeps a copy of every trace ``solve_primary`` receives."""

    def __init__(self, backend):
        self.backend = backend
        self.omegas = []

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def solve_primary(self, omega, q_bar):
        self.omegas.append(omega.values.tobytes())
        return self.backend.solve_primary(omega, q_bar)


@pytest.mark.parametrize("backend_name", ["fem_default", "spectral_160"])
def test_armijo_solves_no_iterate_twice(backend_name, request):
    """The accepted line-search trial is the next iterate's primary solve."""
    backend = request.getfixturevalue(backend_name)
    spy = SpyBackend(backend)
    data = cauchy_data(builtin_terms("example2"), backend.outer_ring)
    result = run(spy, data, Armijo())
    counters = result.counters
    assert len(spy.omegas) == counters.primary + counters.line_search
    assert len(set(spy.omegas)) == len(spy.omegas)
    assert counters.primary == result.iterations + 1
    v_trace = backend.solve_primary(result.omega, data.q_bar)
    assert result.final_j == backend.functional(v_trace, data.u_bar)


STEP_RULES = [
    Constant(1.0 / 3.0),
    Armijo(),
    OptimalTwoMode(0, 2),
    ModeSweep(0, 2),
    ExplicitSchedule((1681.0 / 486.0,), tail_rho=1.0 / 3.0),
]


def resolving_run(backend, data, rule, stop):
    """Descent that asks ``rule.step`` for each step and then solves the
    new iterate again, whatever its line trials solved; returns its J, rho
    and gradient-norm histories, the last iterate and the number of direct
    solves."""
    omega, js, rhos, grad_norms, trials = BoundaryFunction.zeros(backend.inner_ring), [], [], [], 0
    while True:
        j_value, v_trace = functional_at(backend, omega, data)
        js.append(j_value)
        if j_value < stop.j_tol:
            return js, rhos, grad_norms, omega, 2 * len(js) - 1 + trials
        grad = backend.solve_adjoint(2.0 * (v_trace - data.u_bar))
        grad_norms.append(math.sqrt(backend.inner_weight * float(np.dot(grad.values, grad.values))))

        def line(beta):
            nonlocal trials
            trials += 1
            return functional_at(backend, omega - beta * grad, data)[0]

        rhos.append(
            rule.step(len(rhos), line, j_value, grad_norms[-1] ** 2, backend.r_inner, backend.r_outer)
        )
        omega = omega - rhos[-1] * grad


@pytest.mark.parametrize("backend_name", ["fem_fine", "spectral_160"])
@pytest.mark.parametrize(
    "name, iterations, resolved, solves", [("example1", 16, 49, 33), ("example2", 14, 47, 33)]
)
def test_armijo_reuse_is_bit_identical(backend_name, name, iterations, resolved, solves, request):
    """``run`` takes every rule's step through one ``step`` call and reuses
    a line trial taken at the chosen step (Armijo's accepted one) as the
    next primary solve; each rule's run matches the re-solving loop bit for
    bit. The parameters are Armijo's iterations and solve counts."""
    backend = request.getfixturevalue(backend_name)
    data = cauchy_data(builtin_terms(name), backend.outer_ring)
    stop = StopRule()
    for rule in STEP_RULES:
        js, rhos, grad_norms, omega, reference_solves = resolving_run(backend, data, rule, stop)
        result = run(backend, data, rule, stop)
        assert result.reason == "j_tol"
        assert [record.j_value for record in result.history] == js
        assert [record.rho for record in result.history[:-1]] == rhos
        assert [record.grad_norm for record in result.history[:-1]] == grad_norms
        assert result.omega.values.tobytes() == omega.values.tobytes()
        if isinstance(rule, Armijo):
            assert (result.iterations, reference_solves, result.counters.total) == (
                iterations,
                resolved,
                solves,
            )
        else:
            assert result.counters.total == reference_solves == 2 * result.iterations + 1


@pytest.mark.parametrize("backend_name", ["fem_default", "spectral_160"])
@pytest.mark.parametrize("strategy", STEP_RULES, ids=lambda rule: type(rule).__name__)
def test_counters_book_one_primary_per_iterate(backend_name, strategy, request):
    """Every rule books iterate k's primary solve in record k, whether it
    was solved there or reused from the accepted line-search trial."""
    backend = request.getfixturevalue(backend_name)
    data = cauchy_data(builtin_terms("example2"), backend.outer_ring)
    result = run(backend, data, strategy)
    counters, history = result.counters, result.history
    assert result.reason == "j_tol"
    assert counters.primary == result.iterations + 1
    assert counters.adjoint == result.iterations
    assert [record.primary_solves for record in history] == [k + 1 for k in range(len(history))]
    assert [record.adjoint_solves for record in history] == [*range(1, len(history)), len(history) - 1]
    assert history[-1].line_search_solves == counters.line_search


def test_fem_functional_tracks_series_value():
    mesh = generate_mesh(AnnulusSpec(R_IN, R_OUT, 12, 64))
    fem = FemBackend(mesh)
    data = cauchy_data(builtin_terms("example1"), fem.outer_ring)
    j, _ = functional_at(fem, BoundaryFunction.zeros(fem.inner_ring), data)
    # coarse mesh, and the misfit comes from cancellation of O(9) traces
    assert abs(j - J_ZERO) / J_ZERO < 0.25


def test_fem_gradient_differentiates_discrete_functional():
    """Central differences along random directions match the adjoint gradient."""
    mesh = generate_mesh(AnnulusSpec(R_IN, R_OUT, 8, 48))
    fem = FemBackend(mesh)
    data = cauchy_data(builtin_terms("example2"), fem.outer_ring)
    rng = np.random.default_rng(4)
    omega = BoundaryFunction(fem.inner_ring, 0.5 * rng.standard_normal(48))
    _, v = functional_at(fem, omega, data)
    g = fem.solve_adjoint(2.0 * (v - data.u_bar))
    h = 1e-5
    for _ in range(3):
        d = BoundaryFunction(fem.inner_ring, rng.standard_normal(48))
        jp, _ = functional_at(fem, omega + h * d, data)
        jm, _ = functional_at(fem, omega - h * d, data)
        fd = (jp - jm) / (2 * h)
        pred = fem.inner_weight * float(np.dot(g.values, d.values))
        assert abs(fd - pred) <= 1e-6 * max(abs(fd), 1e-12)


def test_data_and_stop_validation():
    ring_in = BoundaryRing("inner", 1.0, 16)
    ring_out = BoundaryRing("outer", 3.0, 16)
    with pytest.raises(ValueError):
        CauchyData(BoundaryFunction.zeros(ring_in), BoundaryFunction.zeros(ring_in))
    with pytest.raises(ValueError):
        CauchyData(BoundaryFunction.zeros(ring_out), BoundaryFunction.zeros(BoundaryRing("outer", 3.0, 32)))
    with pytest.raises(ValueError):
        StopRule(j_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(grad_eps=-1.0)
    # an infinite threshold would stop every run at once
    with pytest.raises(ValueError, match="j_tol"):
        StopRule(j_tol=math.inf)
    with pytest.raises(ValueError, match="grad_eps"):
        StopRule(grad_eps=math.inf)
    with pytest.raises(ValueError):
        StopRule(max_iters=0)
    for max_iters in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="whole number"):
            StopRule(max_iters=max_iters)
    for r_inner, r_outer in ((3.0, 1.0), (1.0, 1.0), (0.0, 3.0)):
        with pytest.raises(ValueError, match="radii"):
            SpectralBackend(r_inner, r_outer, n_angular=16)
    # finite data too large to solve: the square norm of u_bar overflows, on
    # either backend, and so does that of a start of 1e160
    fem = FemBackend(generate_mesh(AnnulusSpec(R_IN, R_OUT, 3, 16)))
    for backend in (fem, SpectralBackend(R_IN, R_OUT, n_angular=16)):
        for amplitude in (1e307, 1e300, 1e160):
            with pytest.raises(ValueError, match="u_bar has a non-finite square norm"):
                cauchy_data([HarmonicTerm(amplitude, 2, "cos")], backend.outer_ring)
        data = cauchy_data(builtin_terms("example2"), backend.outer_ring)
        start = BoundaryFunction(backend.inner_ring, np.full(16, 1e160))
        with pytest.raises(ValueError, match="omega0 has a non-finite square norm"):
            run(backend, data, Constant(1.0 / 3.0), omega0=start)


def test_run_rejects_foreign_start(spectral, ex1, fem_default):
    wrong = BoundaryFunction.zeros(BoundaryRing("inner", 1.0, 32))
    with pytest.raises(ValueError):
        run(spectral, ex1, Constant(0.3), omega0=wrong)
    foreign = cauchy_data(builtin_terms("example1"), BoundaryRing("outer", R_OUT, 32))
    with pytest.raises(ValueError, match="Cauchy data"):
        run(spectral, foreign, Constant(0.3))
    for backend in (spectral, fem_default):
        data = cauchy_data(builtin_terms("example1"), backend.outer_ring)
        for bad_value in (math.nan, math.inf):
            start = BoundaryFunction.zeros(backend.inner_ring)
            start.values[3] = bad_value
            with pytest.raises(ValueError, match="omega0"):
                run(backend, data, Constant(0.3), omega0=start)


def test_non_finite_functional_is_divergence():
    """The start c and the data -c each have a finite square norm, 16 c^2,
    but the functional of their misfit 2c, 2 pi R_OUT (2c)^2, overflows."""
    backend = SpectralBackend(R_IN, R_OUT, n_angular=16)
    c = 2e153
    data = cauchy_data([HarmonicTerm(-c, 0, "cos")], backend.outer_ring)
    start = BoundaryFunction(backend.inner_ring, np.full(16, c))
    with pytest.raises(DivergenceError, match="functional is not finite at iteration 0"):
        run(backend, data, Constant(1e-3), StopRule(max_iters=100), omega0=start)


@pytest.mark.parametrize("backend_kind", ["fem", "spectral"])
def test_overflow_raises_divergence_without_runtime_warning(backend_kind):
    """At 1e200 the square norm of the first step's iterate overflows; at
    1e308 the step itself does."""
    if backend_kind == "fem":
        backend = FemBackend(generate_mesh(AnnulusSpec(R_IN, R_OUT, 3, 16)))
    else:
        backend = SpectralBackend(R_IN, R_OUT, n_angular=16)
    data = cauchy_data(builtin_terms("example2"), backend.outer_ring)
    for rho in (1e200, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="not finite") as caught:
                run(backend, data, Constant(rho), StopRule(max_iters=100))
        assert caught.value.history[-1].rho == rho


def test_cauchy_data_rejects_non_finite_values():
    ring = BoundaryRing("outer", 3.0, 16)
    good = BoundaryFunction(ring, np.cos(ring.angles))
    for bad_value in (math.nan, math.inf):
        bad = good.copy()
        bad.values[3] = bad_value
        with pytest.raises(ValueError, match="u_bar"):
            CauchyData(bad, good)
        with pytest.raises(ValueError, match="q_bar"):
            CauchyData(good, bad)


def harmonic_field(rng, max_mode, r_inner, r_outer, *, zero_inner=False):
    """A random field from the harmonic family 1, log(r/R), and (r/R)^m and
    (r_in/r)^m times cos(m*theta) or sin(m*theta) for 1 <= m <= max_mode;
    the powers are scaled so that none is large on the annulus. With
    ``zero_inner`` the field vanishes on the inner circle.

    Returns a function of the radius giving the field's trace and radial
    derivative there, each as a (2, max_mode + 1) array: the cos and the
    sin coefficient of every mode."""
    grow, decay = rng.standard_normal((2, 2, max_mode + 1))
    grow[1, 0] = decay[1, 0] = 0.0  # sin(0 * theta) is no field
    m = np.arange(max_mode + 1)
    if zero_inner:
        decay[:, 1:] = -grow[:, 1:] * (r_inner / r_outer) ** m[1:]
        grow[0, 0] = -decay[0, 0] * math.log(r_inner / r_outer)

    def at(radius):
        up, down = (radius / r_outer) ** m, (r_inner / radius) ** m
        trace = grow * up + decay * down
        slope = (m / radius) * (grow * up - decay * down)
        trace[0, 0] = grow[0, 0] + decay[0, 0] * math.log(radius / r_outer)
        slope[0, 0] = decay[0, 0] / radius
        return trace, slope

    return at


def pointwise(ring, coeffs):
    """The function with cos and sin coefficients ``coeffs``, evaluated at
    each node of ``ring``; the phase m*k is reduced modulo n exactly."""
    m = np.arange(coeffs.shape[1])
    phase = 2.0 * np.pi * (np.outer(m, np.arange(ring.size)) % ring.size) / ring.size
    return BoundaryFunction(ring, coeffs[0] @ np.cos(phase) + coeffs[1] @ np.sin(phase))


@pytest.mark.parametrize(
    "n_angular, max_mode", [(8, 3), (9, 4), (16, 7), (17, 8), (160, 79)]
)
def test_prepared_spectral_solves_match_series_oracle(n_angular, max_mode):
    """The backend's solves and functional against harmonic fields evaluated
    node by node, on every mode the ring resolves, (n - 1) // 2, and at
    radius ratios 3, 1.05 (thin annulus) and 8 (where the Neumann maps
    differ most from the Dirichlet one). The primary solve of a field's
    inner trace and outer slope is its outer trace; the adjoint solve of
    the outer slope of a field that vanishes on the inner circle is its
    inner slope; the functional of two outer traces is the circle's
    2*pi*R*c_0^2 + pi*R*sum_{m >= 1} (c_m^2 + s_m^2) of their difference."""
    rng = np.random.default_rng(n_angular + max_mode)
    for r_inner, r_outer in ((R_IN, R_OUT), (1.0, 1.05), (1.0, 8.0)):
        backend = SpectralBackend(r_inner, r_outer, n_angular=n_angular)
        assert backend.max_mode == max_mode
        inner, outer = backend.inner_ring, backend.outer_ring
        for _ in range(5):
            field = harmonic_field(rng, max_mode, r_inner, r_outer)
            (inner_trace, _), (outer_trace, outer_slope) = field(r_inner), field(r_outer)
            want = pointwise(outer, outer_trace).values
            got = backend.solve_primary(pointwise(inner, inner_trace), pointwise(outer, outer_slope))
            assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))

            vanishing = harmonic_field(rng, max_mode, r_inner, r_outer, zero_inner=True)
            (_, inner_slope), (other_trace, driver) = vanishing(r_inner), vanishing(r_outer)
            want = pointwise(inner, inner_slope).values
            got = backend.solve_adjoint(pointwise(outer, driver)).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

            misfit = outer_trace - other_trace
            want_j = math.pi * r_outer * (misfit[0, 0] ** 2 + np.sum(misfit**2))
            got_j = backend.functional(pointwise(outer, outer_trace), pointwise(outer, other_trace))
            assert abs(got_j - want_j) <= 1e-13 * want_j


def test_prepared_spectral_tail_warning(spectral_160):
    """Content in the Nyquist bin, mode 80 on 160 nodes, lies above the
    band of 79 modes the ring resolves."""
    backend = spectral_160
    inner, outer = backend.inner_ring, backend.outer_ring
    tail_in = BoundaryFunction(inner, np.cos(80 * inner.angles))
    tail_out = BoundaryFunction(outer, np.cos(80 * outer.angles))
    band_out = BoundaryFunction(outer, np.cos(outer.angles))
    with pytest.warns(UserWarning, match="above mode 79"):
        backend.solve_primary(tail_in, band_out)
    with pytest.warns(UserWarning, match="above mode 79"):
        backend.solve_primary(BoundaryFunction.zeros(inner), tail_out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backend.solve_adjoint(tail_out)
        backend.functional(tail_out, band_out)


def _foreign_to_outer(backend):
    """Data on the backend's inner ring and on two outer rings it does not have."""
    outer = backend.outer_ring
    return (
        BoundaryFunction.zeros(BoundaryRing("outer", R_OUT, 2 * outer.size)),
        BoundaryFunction.zeros(BoundaryRing("outer", 2.0 * R_OUT, outer.size)),
        BoundaryFunction.zeros(backend.inner_ring),
    )


def test_prepared_spectral_rejects_foreign_rings(spectral):
    on_inner = BoundaryFunction.zeros(spectral.inner_ring)
    on_outer = BoundaryFunction.zeros(spectral.outer_ring)
    for foreign in _foreign_to_outer(spectral):
        with pytest.raises(ValueError):
            spectral.solve_primary(on_inner, foreign)
        with pytest.raises(ValueError):
            spectral.solve_adjoint(foreign)
    with pytest.raises(ValueError):
        spectral.solve_primary(on_outer, on_outer)


@pytest.mark.parametrize("backend_name", ["spectral", "fem_default"])
def test_functional_rejects_foreign_rings(backend_name, request):
    """Both backends measure a misfit on their own outer ring only."""
    backend = request.getfixturevalue(backend_name)
    on_outer = BoundaryFunction.zeros(backend.outer_ring)
    for foreign in _foreign_to_outer(backend):
        with pytest.raises(ValueError):
            backend.functional(foreign, on_outer)
        with pytest.raises(ValueError):
            backend.functional(on_outer, foreign)



def test_loop_imports_no_discretisation():
    """The descent loop sees a backend only through its protocol: of the
    package, it imports the boundary functions and the step rules only."""
    imported = set()
    for node in ast.walk(ast.parse(Path(iteration.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            names = [alias.name for alias in node.names]
            imported.update([prefix] if node.module else (prefix + name for name in names))
    package = {
        name.replace("adjoint_cauchy", "", 1)
        for name in imported
        if name.startswith((".", "adjoint_cauchy"))
    }
    assert package <= {".boundary", ".steps"}

"""Semi-analytic mode arithmetic on the annulus, and the band transform
between ring samples and rfft-layout coefficients.

The reference numbers were computed independently with exact rational
arithmetic at radii (1, 3), where q = 1/3:

    T_m = 2 q^m / (1 + q^(2m))        trace damping of mode m
    C_m = 2 (R_out/R_in) T_m^2        gradient factor of mode m

    T_0 = 1        C_0 = 6
    T_1 = 3/5      C_1 = 54/25
    T_2 = 9/41     C_2 = 486/1681
    T_3 = 27/365   C_3 = 4374/133225
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adjoint_cauchy import (
    BoundaryFunction,
    HarmonicTerm,
    SpectralBackend,
    cauchy_data,
    exact_inner_trace,
    gradient_factor,
)
from adjoint_cauchy.boundary import BoundaryRing
from adjoint_cauchy.spectral import (
    band_coefficients,
    band_samples,
    compression_factor,
    trace_factor,
)

R_IN, R_OUT = 1.0, 3.0


def test_trace_factor_values():
    assert trace_factor(0, R_IN, R_OUT) == 1.0
    assert math.isclose(trace_factor(1, R_IN, R_OUT), 3.0 / 5.0, rel_tol=1e-15)
    assert math.isclose(trace_factor(2, R_IN, R_OUT), 9.0 / 41.0, rel_tol=1e-15)
    assert math.isclose(trace_factor(3, R_IN, R_OUT), 27.0 / 365.0, rel_tol=1e-15)


def test_trace_factor_even_in_mode():
    """Mode -j has the factors of mode j; a mode must be a whole number,
    and the radii must satisfy 0 < r_inner < r_outer."""
    for j in (1, 2, 5, 11):
        assert trace_factor(-j, R_IN, R_OUT) == trace_factor(j, R_IN, R_OUT)
    assert gradient_factor(np.int64(-2), R_IN, R_OUT) == gradient_factor(2, R_IN, R_OUT)
    for mode in (2.5, 2.0, True, "2", 10**400, -(10**400)):
        for factor in (trace_factor, gradient_factor):
            with pytest.raises(ValueError, match="whole number"):
                factor(mode, R_IN, R_OUT)
    for factor in (trace_factor, gradient_factor):
        with pytest.raises(ValueError, match="radii"):
            factor(1, R_OUT, R_IN)
    with pytest.raises(ValueError, match="radii"):
        SpectralBackend(R_OUT, R_IN)


def test_gradient_factor_values():
    assert gradient_factor(0, R_IN, R_OUT) == 6.0
    assert math.isclose(gradient_factor(1, R_IN, R_OUT), 54.0 / 25.0, rel_tol=1e-15)
    assert math.isclose(gradient_factor(2, R_IN, R_OUT), 486.0 / 1681.0, rel_tol=1e-14)
    assert math.isclose(gradient_factor(3, R_IN, R_OUT), 4374.0 / 133225.0, rel_tol=1e-14)


def test_gradient_factor_strictly_decreasing():
    values = [gradient_factor(j, R_IN, R_OUT) for j in range(41)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_factor_identity():
    # C_m = 2 (R_out / R_in) T_m^2 ties the two tables together
    for m in range(12):
        t = trace_factor(m, R_IN, R_OUT)
        assert math.isclose(gradient_factor(m, R_IN, R_OUT), 2.0 * R_OUT / R_IN * t * t, rel_tol=1e-14)


def gradient_factors(mode_max):
    """C_0..C_mode_max as an array, each entry exactly ``gradient_factor``."""
    return np.array([gradient_factor(j, R_IN, R_OUT) for j in range(mode_max + 1)])


def random_band(rng, mode_max):
    """rfft-layout coefficients of a random real band: a_0 real, then a_j."""
    draws = rng.standard_normal(2 * mode_max + 1)
    return np.concatenate(([draws[0]], draws[1::2] + 1j * draws[2::2]))


def norm(coeffs, radius=R_IN):
    """L2 norm over the circle: sqrt(2*pi*R * (|a_0|^2 + 2 * sum_{j >= 1} |a_j|^2))."""
    power = np.abs(coeffs) ** 2
    return math.sqrt(2.0 * math.pi * radius * (power[0] + 2.0 * power[1:].sum()))


def test_norm_is_circle_l2():
    # cos(2 theta) on the unit circle has squared norm pi
    assert math.isclose(norm(np.array([0.0, 0.0, 0.5]), 1.0), math.sqrt(math.pi), rel_tol=1e-15)
    assert norm(np.zeros(3), 1.0) == 0.0
    # the spectral functional is the same squared norm of the outer misfit
    backend = SpectralBackend(0.5, 1.0, n_angular=16)
    ring = backend.outer_ring
    cos2 = BoundaryFunction(ring, np.cos(2 * ring.angles))
    assert math.isclose(backend.functional(cos2, BoundaryFunction.zeros(ring)), math.pi, rel_tol=1e-14)


def backend_gradient(backend, mu):
    """Gradient coefficients for inner-trace error ``mu`` through the backend's
    prepared maps: the adjoint response to twice the outer misfit -T*mu."""
    return backend.neumann_gradient[: mu.size] * (-2.0 * backend.dirichlet_trace[: mu.size] * mu)


def test_gradient_coefficients():
    backend = SpectralBackend(R_IN, R_OUT, n_angular=16)
    grad = backend_gradient(backend, np.array([0.0, 0.0, 0.5]))
    assert math.isclose(grad[2].real, -0.5 * 486.0 / 1681.0, rel_tol=1e-15)
    assert grad[2].imag == 0.0
    assert not backend_gradient(backend, np.zeros(3)).any()
    assert backend_gradient(backend, np.array([2.0]))[0] == -12.0


def outer_trace_of(backend, mu):
    """Outer trace of the field with inner trace ``mu`` and zero flux."""
    inner, outer = backend.inner_ring, backend.outer_ring
    omega = BoundaryFunction(inner, band_samples(mu, inner.size))
    return backend.solve_primary(omega, BoundaryFunction.zeros(outer))


def test_functional_value():
    # J at a zero iterate against data from the exact trace mu is J(mu)
    backend = SpectralBackend(R_IN, R_OUT, n_angular=64)
    zero = BoundaryFunction.zeros(backend.outer_ring)
    cos2 = outer_trace_of(backend, np.array([0.0, 0.0, 0.5]))
    assert math.isclose(backend.functional(zero, cos2), 243.0 * math.pi / 1681.0, rel_tol=1e-14)
    assert backend.functional(zero, zero) == 0.0
    c = 0.7
    # constant error: J = 2 pi R_out (T_0 c)^2
    constant = outer_trace_of(backend, np.array([c]))
    assert math.isclose(backend.functional(zero, constant), 6.0 * math.pi * c * c, rel_tol=1e-14)


def test_step_kills_mode_at_exact_reciprocal():
    c2 = gradient_factor(2, R_IN, R_OUT)
    mu = np.array([0.0, 0.0, 0.5])
    # 1 - C_j / c2 cancels to exactly zero on the annihilated mode
    assert not (mu * (1.0 - gradient_factors(2) / c2)).any()


def test_three_step_sweep_annihilates():
    mu = np.array([1.0, 0.5, -0.25])
    for k in range(3):
        c = gradient_factor(2 - k, R_IN, R_OUT)
        mu = mu * (1.0 - gradient_factors(2) / c)
    assert norm(mu) == 0.0


def test_compression_factor_values():
    c2 = gradient_factor(2, R_IN, R_OUT)
    assert compression_factor(2, 2, 1.0 / c2, R_IN, R_OUT) < 1e-15
    rho_opt = 2.0 / (6.0 + 486.0 / 1681.0)
    assert math.isclose(compression_factor(0, 2, rho_opt, R_IN, R_OUT), 800.0 / 881.0, rel_tol=1e-13)
    assert compression_factor(0, 5, 0.0, R_IN, R_OUT) == 1.0


def test_contraction_bound_random_states():
    """One constant step never shrinks worse than the two-edge-mode bound."""
    rng = np.random.default_rng(42)
    c0 = gradient_factor(0, R_IN, R_OUT)
    for _ in range(50):
        mode_max = int(rng.integers(1, 7))
        mu = random_band(rng, mode_max)
        rho = float(rng.uniform(0.01, 0.999 * 2.0 / c0))
        delta = compression_factor(0, mode_max, rho, R_IN, R_OUT)
        stepped = mu * (1.0 - rho * gradient_factors(mode_max))
        assert delta < 1.0
        assert norm(stepped) <= delta * norm(mu) * (1.0 + 1e-12)


# The maps are linear, so the size of the data plays no part; values below
# 1e-6 would only probe underflow (squares of 1e-160 are subnormal).
COEFFICIENT = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@settings(derandomize=True, database=None, deadline=None)
@given(
    draws=st.integers(0, 6).flatmap(
        lambda mode_max: st.lists(
            COEFFICIENT, min_size=2 * mode_max + 1, max_size=2 * mode_max + 1
        )
    ),
    fraction=st.floats(0.01, 0.99),
)
def test_backend_descent_contracts_inside_window(draws, fraction):
    """Five descent steps through the real backend each shrink the inner
    error at least by the band's compression factor: the contraction window
    0 < rho < 2/C_0 checked on the run path, not on coefficients alone.

    The iterate carries rounding of order eps*||omega*||, so once the error
    is a small fraction of omega* the subtraction omega* - omega loses
    digits (M = 0, rho = 3/16 reads 2.9e-12 relative after four steps).
    The bound therefore gets a floor of 1e-14*||e_0||; 4000 random cases
    measured at most 5e-16*||e_0|| above delta*||e_k||."""
    backend = SpectralBackend(R_IN, R_OUT, n_angular=32)
    inner, outer = backend.inner_ring, backend.outer_ring
    mode_max = len(draws) // 2
    draws = np.array(draws)
    coeffs = np.concatenate(([draws[0]], draws[1::2] + 1j * draws[2::2]))
    rho = fraction * 2.0 / gradient_factor(0, R_IN, R_OUT)
    delta = compression_factor(0, mode_max, rho, R_IN, R_OUT)

    omega_star = BoundaryFunction(inner, band_samples(coeffs, inner.size))
    u_bar = backend.solve_primary(omega_star, BoundaryFunction.zeros(outer))
    q_bar = BoundaryFunction.zeros(outer)

    def error_norm(omega):
        return norm(band_coefficients((omega_star - omega).values, warn_tail=False))

    omega = BoundaryFunction.zeros(inner)
    floor = 1e-14 * error_norm(omega)
    for _ in range(5):
        before = error_norm(omega)
        v = backend.solve_primary(omega, q_bar)
        omega = omega - rho * backend.solve_adjoint(2.0 * (v - u_bar))
        assert error_norm(omega) <= delta * before * (1.0 + 1e-12) + floor


def test_gradient_matches_two_solve_composition():
    """Closed-form gradient coefficients -C_j a_j equal the primary/adjoint composition."""
    rng = np.random.default_rng(11)
    mu = random_band(rng, 4)

    backend = SpectralBackend(R_IN, R_OUT, n_angular=16)
    outer_trace = outer_trace_of(backend, mu)
    # d/dr at the inner circle equals +C_j a_j; the gradient flips the sign
    flux = band_coefficients(backend.solve_adjoint(2.0 * outer_trace).values)[: mu.size]

    grad = -gradient_factors(4) * mu
    assert (np.abs(grad + flux) <= 1e-13 * np.abs(flux)).all()


@pytest.mark.parametrize(
    "r_inner, r_outer", [(1.0, 3.0), (2.0, 2.5), (1.0, 1.05), (1.0, 8.0)]
)
def test_prepared_responses_match_closed_forms(r_inner, r_outer):
    """The backend's per-mode responses against their closed forms, with
    q = r/R: the outer trace of unit Dirichlet data is T_m, that of unit
    Neumann data (R/m)(1 - q^2m)/(1 + q^2m) (R*log(R/r) at m = 0), and the
    inner gradient of unit Neumann data (R/r)*T_m."""
    backend = SpectralBackend(r_inner, r_outer, n_angular=160)
    assert backend.max_mode == 79  # every mode 160 nodes resolve
    m = np.arange(1, 80)
    q2m = (r_inner / r_outer) ** (2 * m)
    t = np.array([trace_factor(j, r_inner, r_outer) for j in range(80)])
    neumann_trace = np.concatenate(
        ([r_outer * math.log(r_outer / r_inner)], (r_outer / m) * (1.0 - q2m) / (1.0 + q2m))
    )
    for got, want in (
        (backend.dirichlet_trace, t),
        (backend.neumann_trace, neumann_trace),
        (backend.neumann_gradient, (r_outer / r_inner) * t),
    ):
        assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all()


def test_thin_annulus_carries_every_resolvable_mode():
    """On radii 1 and 1.05, mode 100 reaches the outer circle with
    T_100 = 0.015, so 400 nodes must carry it: the primary solve of the
    exact trace reproduces the outer data, with no tail warning."""
    backend = SpectralBackend(1.0, 1.05, n_angular=400)
    terms = [HarmonicTerm(1.0, 100, "cos")]
    data = cauchy_data(terms, backend.outer_ring)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = backend.solve_primary(exact_inner_trace(terms, backend.inner_ring), data.q_bar)
    error = np.linalg.norm(v.values - data.u_bar.values) / np.linalg.norm(data.u_bar.values)
    assert error < 1e-12


# the band transform between ring samples and rfft-layout coefficients


def test_analyze_cos2theta():
    ring = BoundaryRing("inner", 1.0, 8)
    c = band_coefficients(np.cos(2 * ring.angles))
    assert abs(c[2] - 0.5) < 1e-12
    for j in (0, 1, 3):
        assert abs(c[j]) < 1e-12


def test_analyze_mixed_signal():
    # 2 sin t - cos(t)/2 + cos(2t)/4: a_1 = -1/4 - i, a_2 = 1/8
    ring = BoundaryRing("inner", 1.0, 16)
    th = ring.angles
    c = band_coefficients(2 * np.sin(th) - 0.5 * np.cos(th) + 0.25 * np.cos(2 * th))
    assert abs(c[1] - (-0.25 - 1.0j)) < 1e-12
    assert abs(c[2] - 0.125) < 1e-12


def test_analyze_zero_gives_empty():
    assert not band_coefficients(np.zeros(8)).any()


def test_analyze_band_cap():
    """16 nodes resolve modes 0..7; content in the Nyquist bin, mode 8, is
    discarded with a warning."""
    ring = BoundaryRing("outer", 3.0, 16)
    values = np.cos(8 * ring.angles)
    with pytest.warns(UserWarning, match="above mode 7"):
        band_coefficients(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        truncated = band_coefficients(values, warn_tail=False)
    assert truncated.size == 8


def test_synthesize_cos2theta():
    ring = BoundaryRing("inner", 1.0, 8)
    assert_allclose(band_samples(np.array([0.0, 0.0, 0.5]), 8), np.cos(2 * ring.angles), atol=1e-14)


def test_synthesize_empty_is_zero():
    assert_allclose(band_samples(np.zeros(4), 8), 0.0)


def test_synthesize_validation():
    # 8 nodes resolve modes up to 3
    with pytest.raises(ValueError):
        band_samples(np.zeros(6), 8)


def test_round_trip_band_limited():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = random_band(rng, 9)
        back = band_coefficients(band_samples(c, 32))
        assert np.max(np.abs(back[:10] - c)) <= 1e-12
        assert np.max(np.abs(back[10:])) <= 1e-12


def test_analyze_is_linear():
    # band-limited inputs so the Nyquist bin stays empty
    rng = np.random.default_rng(9)
    f, g = (band_samples(random_band(rng, 7), 16) for _ in range(2))
    lhs = band_coefficients(2.5 * f - 0.5 * g)
    rhs = 2.5 * band_coefficients(f) - 0.5 * band_coefficients(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_parseval():
    """The backend's inner node weight times the sum of squares is
    2 pi r (|a_0|^2 + 2 sum |a_j|^2) for band-limited data."""
    backend = SpectralBackend(1.0, 3.0, n_angular=64)
    rng = np.random.default_rng(21)
    c = random_band(rng, 8)
    g = band_samples(c, backend.inner_ring.size)
    quad = backend.inner_weight * float(np.dot(g, g))
    power = np.abs(c) ** 2
    exact = 2.0 * math.pi * backend.r_inner * (power[0] + 2.0 * power[1:].sum())
    assert abs(quad - exact) / exact < 1e-13

"""Semi-analytic mode arithmetic on the annulus.

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

import numpy as np
import pytest

from adjoint_cauchy import gradient_factor
from adjoint_cauchy.spectral import (
    FourierBoundary,
    ModeState,
    compression_factor,
    functional_value,
    gradient_coefficients,
    solve_series,
    step_error_modes,
    trace_factor,
)

R_IN, R_OUT = 1.0, 3.0


def test_trace_factor_values():
    assert trace_factor(0, R_IN, R_OUT) == 1.0
    assert math.isclose(trace_factor(1, R_IN, R_OUT), 3.0 / 5.0, rel_tol=1e-15)
    assert math.isclose(trace_factor(2, R_IN, R_OUT), 9.0 / 41.0, rel_tol=1e-15)
    assert math.isclose(trace_factor(3, R_IN, R_OUT), 27.0 / 365.0, rel_tol=1e-15)


def test_trace_factor_even_in_mode():
    for j in (1, 2, 5, 11):
        assert trace_factor(-j, R_IN, R_OUT) == trace_factor(j, R_IN, R_OUT)


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


def test_fourier_boundary_basics():
    with pytest.raises(ValueError):
        FourierBoundary({0: 1.0}, -1.0)
    a = FourierBoundary({1: 1.0 + 1.0j, -1: 1.0 - 1.0j}, 1.0)
    b = FourierBoundary({1: -1.0 - 1.0j, -1: -1.0 + 1.0j}, 1.0)
    assert (a + b).coeffs == {}
    assert (a - a).coeffs == {}
    assert a.is_real()
    assert not FourierBoundary({1: 1.0}, 1.0).is_real()
    assert a.max_mode == 1
    assert sorted(a.modes) == [-1, 1]
    with pytest.raises(ValueError):
        a + FourierBoundary({1: 1.0}, 2.0)
    # exact zeros are dropped so the zero function has no modes
    assert FourierBoundary({3: 0.0}, 1.0).coeffs == {}


def test_norm_is_circle_l2():
    # cos(2 theta) on the unit circle has squared norm pi
    mu = FourierBoundary({2: 0.5, -2: 0.5}, 1.0)
    assert math.isclose(mu.norm(), math.sqrt(math.pi), rel_tol=1e-15)
    assert FourierBoundary.zero(1.0).norm() == 0.0


def test_gradient_coefficients():
    mu = FourierBoundary({2: 0.5, -2: 0.5}, R_IN)
    grad = gradient_coefficients(mu, R_OUT)
    assert math.isclose(grad.get(2).real, -0.5 * 486.0 / 1681.0, rel_tol=1e-15)
    assert grad.get(2).imag == 0.0
    assert gradient_coefficients(FourierBoundary.zero(R_IN), R_OUT).coeffs == {}
    const = gradient_coefficients(FourierBoundary({0: 2.0}, R_IN), R_OUT)
    assert const.get(0) == -12.0


def test_functional_value():
    mu = FourierBoundary({2: 0.5, -2: 0.5}, R_IN)
    assert math.isclose(functional_value(mu, R_OUT), 243.0 * math.pi / 1681.0, rel_tol=1e-14)
    assert functional_value(FourierBoundary.zero(R_IN), R_OUT) == 0.0
    c = 0.7
    # constant error: J = 2 pi R_out (T_0 c)^2
    assert math.isclose(functional_value(FourierBoundary({0: c}, R_IN), R_OUT), 6.0 * math.pi * c * c, rel_tol=1e-14)


def test_step_kills_mode_at_exact_reciprocal():
    c2 = gradient_factor(2, R_IN, R_OUT)
    state = ModeState(FourierBoundary({2: 0.5, -2: 0.5}, R_IN))
    stepped = step_error_modes(state, 1.0 / c2, R_OUT, exact_inverse_of=c2)
    assert stepped.coeffs.coeffs == {}
    assert stepped.k == 1


def test_step_rho_zero_is_identity():
    mu = FourierBoundary({1: 1.0 - 2.0j, -1: 1.0 + 2.0j}, R_IN)
    stepped = step_error_modes(ModeState(mu), 0.0, R_OUT)
    assert stepped.coeffs.coeffs == mu.coeffs


def test_three_step_sweep_annihilates():
    state = ModeState(FourierBoundary({0: 1.0, 1: 0.5, -1: 0.5, 2: -0.25, -2: -0.25}, R_IN))
    for k in range(3):
        c = gradient_factor(2 - k, R_IN, R_OUT)
        state = step_error_modes(state, 1.0 / c, R_OUT, exact_inverse_of=c)
    assert state.coeffs.norm() == 0.0
    assert state.k == 3


def test_compression_factor_values():
    c2 = gradient_factor(2, R_IN, R_OUT)
    assert compression_factor(2, 2, 1.0 / c2, R_IN, R_OUT) < 1e-15
    rho_opt = 2.0 / (6.0 + 486.0 / 1681.0)
    assert math.isclose(compression_factor(0, 2, rho_opt, R_IN, R_OUT), 800.0 / 881.0, rel_tol=1e-13)
    assert compression_factor(0, 5, 0.0, R_IN, R_OUT) == 1.0


def test_step_rejects_nonfinite_rho():
    state = ModeState(FourierBoundary({0: 1.0}, R_IN))
    with pytest.raises(ValueError):
        step_error_modes(state, math.nan, R_OUT)
    with pytest.raises(ValueError):
        step_error_modes(state, math.inf, R_OUT)


def test_contraction_bound_random_states():
    """One constant step never shrinks worse than the two-edge-mode bound."""
    rng = np.random.default_rng(42)
    c0 = gradient_factor(0, R_IN, R_OUT)
    for _ in range(50):
        mode_max = int(rng.integers(1, 7))
        coeffs = {0: complex(rng.standard_normal(), 0.0)}
        for j in range(1, mode_max + 1):
            a = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[j], coeffs[-j] = a, a.conjugate()
        mu = FourierBoundary(coeffs, R_IN)
        rho = float(rng.uniform(0.01, 0.999 * 2.0 / c0))
        delta = compression_factor(0, mode_max, rho, R_IN, R_OUT)
        stepped = step_error_modes(ModeState(mu), rho, R_OUT)
        assert delta < 1.0
        assert stepped.coeffs.norm() <= delta * mu.norm() * (1.0 + 1e-12)


def test_solve_series_single_mode_trace():
    w = FourierBoundary({2: 0.5, -2: 0.5}, R_IN)
    series = solve_series(FourierBoundary.zero(R_OUT), w, R_IN, R_OUT)
    outer = series.trace(R_OUT)
    assert math.isclose(outer.get(2).real, (9.0 / 41.0) * 0.5, rel_tol=1e-14)
    assert abs(outer.get(0)) == 0.0


def test_solve_series_reproduces_quadratic_harmonic():
    # flux 6 cos 2t at r = 3 with inner trace cos 2t comes from r^2 cos 2t
    g = FourierBoundary({2: 3.0, -2: 3.0}, R_OUT)
    w = FourierBoundary({2: 0.5, -2: 0.5}, R_IN)
    series = solve_series(g, w, R_IN, R_OUT)
    for r in (1.0, 1.7, 3.0):
        assert math.isclose(series.trace(r).get(2).real, 0.5 * r * r, rel_tol=1e-13)
        assert math.isclose(series.radial_derivative(r).get(2).real, r, rel_tol=1e-13)


def test_solve_series_zero_data():
    series = solve_series(FourierBoundary.zero(R_OUT), FourierBoundary.zero(R_IN), R_IN, R_OUT)
    assert series.trace(2.0).coeffs == {}


def test_solve_series_reproduces_boundary_data():
    rng = np.random.default_rng(7)
    coeffs_g = {0: complex(rng.standard_normal(), 0.0)}
    coeffs_w = {0: complex(rng.standard_normal(), 0.0)}
    for j in range(1, 9):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        coeffs_g[j], coeffs_g[-j] = a, a.conjugate()
        coeffs_w[j], coeffs_w[-j] = b, b.conjugate()
    g = FourierBoundary(coeffs_g, R_OUT)
    w = FourierBoundary(coeffs_w, R_IN)
    series = solve_series(g, w, R_IN, R_OUT)
    inner = series.trace(R_IN)
    outer_flux = series.radial_derivative(R_OUT)
    for j in range(-8, 9):
        assert abs(inner.get(j) - w.get(j)) <= 1e-12 * max(1.0, abs(w.get(j)))
        assert abs(outer_flux.get(j) - g.get(j)) <= 1e-12 * max(1.0, abs(g.get(j)))


def test_solve_series_radius_validation():
    with pytest.raises(ValueError):
        solve_series(FourierBoundary.zero(R_IN), FourierBoundary.zero(R_IN), R_IN, R_OUT)
    with pytest.raises(ValueError):
        solve_series(FourierBoundary.zero(R_OUT), FourierBoundary.zero(R_OUT), R_IN, R_OUT)
    series = solve_series(FourierBoundary.zero(R_OUT), FourierBoundary.zero(R_IN), R_IN, R_OUT)
    with pytest.raises(ValueError):
        series.trace(0.5)


def test_gradient_matches_two_solve_composition():
    """Closed-form gradient coefficients equal the primary/adjoint composition."""
    rng = np.random.default_rng(11)
    coeffs = {0: complex(rng.standard_normal(), 0.0)}
    for j in range(1, 5):
        a = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[j], coeffs[-j] = a, a.conjugate()
    mu = FourierBoundary(coeffs, R_IN)

    primary = solve_series(FourierBoundary.zero(R_OUT), mu, R_IN, R_OUT)
    driver = primary.trace(R_OUT).scaled(2.0)
    adjoint = solve_series(driver, FourierBoundary.zero(R_IN), R_IN, R_OUT)
    # d/dr at the inner circle equals +C_j a_j; the gradient flips the sign
    flux = adjoint.radial_derivative(R_IN)

    grad = gradient_coefficients(mu, R_OUT)
    for j in mu.modes:
        assert abs(grad.get(j) + flux.get(j)) <= 1e-13 * abs(flux.get(j))

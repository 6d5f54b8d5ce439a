"""Step-size rules: backtracking, the two-mode optimum, and mode sweeps."""

import math

import numpy as np
import pytest

from adjoint_cauchy import (
    Armijo,
    Constant,
    ExplicitSchedule,
    ModeSweep,
    OptimalTwoMode,
    StepUnderflowError,
    gradient_factor,
    optimal_step,
)
from adjoint_cauchy.spectral import compression_factor
from adjoint_cauchy.steps import armijo_step, default_tail_rho

R_IN, R_OUT = 1.0, 3.0


def test_armijo_accepts_first_candidate():
    # J(x) = x^2 / 2 from x = 1: the unit step lands on the minimum
    def evaluate(beta):
        return 0.5 * (1.0 - beta) ** 2

    rho, used = armijo_step(evaluate, j_value=0.5, grad_norm_sq=1.0)
    assert rho == 1.0
    assert used == 1


def test_armijo_backtracks_to_quarter():
    def evaluate(beta):
        return 1.0 if beta > 0.3 else 0.0

    rho, used = armijo_step(evaluate, j_value=1.0, grad_norm_sq=1.0)
    assert rho == 0.25
    assert used == 3


def test_armijo_underflow():
    calls = 0

    def evaluate(beta):
        # strictly above every sufficient-decrease bound
        nonlocal calls
        calls += 1
        return 2.0

    with pytest.raises(StepUnderflowError):
        armijo_step(evaluate, j_value=1.0, grad_norm_sq=1.0)
    assert calls == 61


def test_armijo_accepts_saturated_bound():
    # once xi * beta * |g|^2 drops below one ulp of J the test can only
    # saturate; a non-increasing evaluator is then accepted, not an error
    rho, used = armijo_step(lambda beta: 1.0, j_value=1.0, grad_norm_sq=1.0)
    assert 0.0 < rho < 1e-15
    assert used > 40


def test_armijo_inequality_on_random_quadratics():
    rng = np.random.default_rng(17)
    xi = 1.0 / 3.0
    for _ in range(50):
        a = float(rng.uniform(0.05, 20.0))
        x0 = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
        j0 = a * x0 * x0
        g = 2.0 * a * x0
        gn2 = g * g

        def evaluate(beta, a=a, x0=x0, g=g):
            return a * (x0 - beta * g) ** 2

        rho, used = armijo_step(evaluate, j0, gn2)
        assert used >= 1
        assert evaluate(rho) <= j0 - xi * rho * gn2 + 1e-12 * j0


def test_optimal_step_single_mode():
    rho, delta = optimal_step(2, 2, R_IN, R_OUT)
    assert math.isclose(rho, 1681.0 / 486.0, rel_tol=1e-14)
    assert delta == 0.0
    for m in (0, 1, 5, 17):
        assert optimal_step(m, m, R_IN, R_OUT)[1] == 0.0


def test_optimal_step_two_modes():
    # rho = 2 / (C_0 + C_2) = 1681/5286, delta = (C_0 - C_2)/(C_0 + C_2) = 800/881
    rho, delta = optimal_step(0, 2, R_IN, R_OUT)
    assert math.isclose(rho, 1681.0 / 5286.0, rel_tol=1e-14)
    assert math.isclose(delta, 800.0 / 881.0, rel_tol=1e-14)


def test_optimal_step_wide_band_limit():
    # C_64 is negligible against C_0 = 6, so rho collapses to 1/3
    rho, _ = optimal_step(0, 64, R_IN, R_OUT)
    assert rho == 1.0 / 3.0
    assert default_tail_rho(R_IN, R_OUT) == 1.0 / 3.0


def test_optimal_step_minimizes_compression():
    rng = np.random.default_rng(23)
    for mode_min, mode_max in ((0, 2), (1, 4), (0, 7)):
        rho_opt, delta_opt = optimal_step(mode_min, mode_max, R_IN, R_OUT)
        at_opt = compression_factor(mode_min, mode_max, rho_opt, R_IN, R_OUT)
        assert math.isclose(at_opt, delta_opt, rel_tol=1e-13)
        for _ in range(20):
            u = float(rng.uniform(0.01, 0.5))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            rho = rho_opt * (1.0 + sign * u)
            assert compression_factor(mode_min, mode_max, rho, R_IN, R_OUT) >= delta_opt - 1e-12


def test_sweep_step_descending():
    sweep = ModeSweep(0, 2, "descending")
    assert math.isclose(sweep.step_size(0, R_IN, R_OUT), 1681.0 / 486.0, rel_tol=1e-14)
    assert math.isclose(sweep.step_size(1, R_IN, R_OUT), 25.0 / 54.0, rel_tol=1e-14)
    assert math.isclose(sweep.step_size(2, R_IN, R_OUT), 1.0 / 6.0, rel_tol=1e-14)
    # past the band the tail step takes over
    assert ModeSweep(0, 2, "descending", tail_rho=1.0 / 3.0).step_size(3, R_IN, R_OUT) == 1.0 / 3.0
    assert sweep.step_size(9, R_IN, R_OUT) == 1.0 / 3.0


def test_sweep_step_ascending():
    sweep = ModeSweep(0, 2, "ascending")
    assert math.isclose(sweep.step_size(0, R_IN, R_OUT), 1.0 / 6.0, rel_tol=1e-14)
    assert math.isclose(sweep.step_size(1, R_IN, R_OUT), 25.0 / 54.0, rel_tol=1e-14)
    assert math.isclose(sweep.step_size(2, R_IN, R_OUT), 1681.0 / 486.0, rel_tol=1e-14)


def test_fixed_rule_step_sizes():
    assert Constant(0.25).step_size(7, R_IN, R_OUT) == 0.25
    assert OptimalTwoMode(0, 2).step_size(3, R_IN, R_OUT) == optimal_step(0, 2, R_IN, R_OUT)[0]
    schedule = ExplicitSchedule((2.0, 0.5))
    tail = default_tail_rho(R_IN, R_OUT)
    assert [schedule.step_size(k, R_IN, R_OUT) for k in range(4)] == [2.0, 0.5, tail, tail]
    assert ExplicitSchedule((2.0,), tail_rho=0.125).step_size(1, R_IN, R_OUT) == 0.125


def test_sweep_annihilates_band_in_band_width_steps():
    """Either sweep direction zeroes modes 0..5 in exactly six steps."""
    rng = np.random.default_rng(31)
    for direction in ("ascending", "descending"):
        draws = rng.standard_normal(11)
        mu = np.concatenate(([draws[0]], draws[1::2] + 1j * draws[2::2]))
        factors = np.array([gradient_factor(j, R_IN, R_OUT) for j in range(6)])
        for k in range(6):
            mode = k if direction == "ascending" else 5 - k
            c = gradient_factor(mode, R_IN, R_OUT)
            assert math.isclose(
                ModeSweep(0, 5, direction).step_size(k, R_IN, R_OUT), 1.0 / c, rel_tol=1e-15
            )
            mu = mu * (1.0 - factors / c)
        assert not mu.any()


def test_contraction_iff_step_inside_window():
    """delta < 1 exactly on 0 < rho < 2/C_M."""
    mode_min, mode_max = 1, 4
    upper = 2.0 / gradient_factor(mode_min, R_IN, R_OUT)
    for rho in np.linspace(0.01 * upper, 0.99 * upper, 25):
        assert compression_factor(mode_min, mode_max, float(rho), R_IN, R_OUT) < 1.0
    for rho in (0.0, -0.5, upper * 1.001, upper + 2.0):
        assert compression_factor(mode_min, mode_max, float(rho), R_IN, R_OUT) >= 1.0


def test_strategy_validation():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        Constant(-1.0)
    with pytest.raises(ValueError, match="finite"):
        Constant(math.inf)
    with pytest.raises(ValueError):
        Armijo(xi=0.0)
    with pytest.raises(ValueError):
        Armijo(xi=0.5)
    with pytest.raises(ValueError):
        Armijo(tau=1.0)
    with pytest.raises(ValueError):
        OptimalTwoMode(2, 1)
    with pytest.raises(ValueError):
        OptimalTwoMode(-1, 1)
    for band in ((0, 2.5), (0.0, 2), (False, 2), (True, 2), (0, 10**400)):
        with pytest.raises(ValueError, match="whole number"):
            OptimalTwoMode(*band)
        with pytest.raises(ValueError, match="whole number"):
            ModeSweep(*band)
        with pytest.raises(ValueError, match="whole number"):
            optimal_step(*band, R_IN, R_OUT)
        with pytest.raises(ValueError, match="whole number"):
            compression_factor(*band, 0.3, R_IN, R_OUT)
    for band in ((2, 1), (-1, 1)):
        with pytest.raises(ValueError):
            optimal_step(*band, R_IN, R_OUT)
        with pytest.raises(ValueError):
            compression_factor(*band, 0.3, R_IN, R_OUT)
    with pytest.raises(ValueError):
        ModeSweep(0, 2, "sideways")
    with pytest.raises(ValueError):
        ModeSweep(0, 2, tail_rho=0.0)
    with pytest.raises(ValueError, match="tail"):
        ModeSweep(0, 2, tail_rho=math.inf)
    with pytest.raises(ValueError):
        ExplicitSchedule(())
    with pytest.raises(ValueError):
        ExplicitSchedule((1.0, -1.0))
    with pytest.raises(ValueError, match="scheduled"):
        ExplicitSchedule((math.inf,))
    for tail in (0.0, math.inf):
        with pytest.raises(ValueError, match="tail"):
            ExplicitSchedule((1.0,), tail_rho=tail)
    assert ExplicitSchedule([1.0, 0.5]).rhos == (1.0, 0.5)

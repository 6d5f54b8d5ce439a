"""Manufactured harmonic data."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import HarmonicTerm, builtin_terms, cauchy_data, exact_inner_trace
from adjoint_cauchy.boundary import make_ring
from adjoint_cauchy.fourier import analyze
from adjoint_cauchy.problems import BUILTIN_NAMES, exact_coefficients


def test_example1_outer_data():
    # u* = r^2 cos 2t: trace 9 cos 2t and radial slope 6 cos 2t at r = 3
    ring = make_ring("outer", 3.0, 32)
    data = cauchy_data(builtin_terms("example1"), ring)
    th = ring.angles
    assert_allclose(data.u_bar.values, 9 * np.cos(2 * th), atol=1e-13)
    assert_allclose(data.q_bar.values, 6 * np.cos(2 * th), atol=1e-13)


def test_example1_inner_trace():
    inner = make_ring("inner", 1.0, 32)
    w = exact_inner_trace(builtin_terms("example1"), inner)
    assert_allclose(w.values, np.cos(2 * inner.angles), atol=1e-14)


def test_example2_data():
    ring = make_ring("outer", 3.0, 64)
    th = ring.angles
    data = cauchy_data(builtin_terms("example2"), ring)
    assert_allclose(data.u_bar.values, 6 * np.sin(th) - 1.5 * np.cos(th) + 2.25 * np.cos(2 * th), atol=1e-13)
    assert_allclose(data.q_bar.values, 2 * np.sin(th) - 0.5 * np.cos(th) + 1.5 * np.cos(2 * th), atol=1e-13)
    inner = make_ring("inner", 1.0, 64)
    w = exact_inner_trace(builtin_terms("example2"), inner)
    ti = inner.angles
    assert_allclose(w.values, 2 * np.sin(ti) - 0.5 * np.cos(ti) + 0.25 * np.cos(2 * ti), atol=1e-14)


def test_example2_coefficients():
    c = exact_coefficients(builtin_terms("example2"), 1.0)
    assert abs(c.get(1) - (-0.25 - 1.0j)) < 1e-15
    assert abs(c.get(-1) - (-0.25 + 1.0j)) < 1e-15
    assert abs(c.get(2) - 0.125) < 1e-15
    assert abs(c.get(-2) - 0.125) < 1e-15
    assert c.get(0) == 0.0


def test_coefficients_match_sampled_analysis():
    inner = make_ring("inner", 1.0, 32)
    for name in BUILTIN_NAMES:
        terms = builtin_terms(name)
        sampled = analyze(exact_inner_trace(terms, inner))
        exact = exact_coefficients(terms, 1.0)
        for j in range(-8, 9):
            assert abs(sampled.get(j) - exact.get(j)) < 1e-12


def test_term_validation():
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, 0, "sin")
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, -1, "cos")
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, 1, "tan")
    with pytest.raises(ValueError):
        builtin_terms("example3")


def test_data_on_arbitrary_circle():
    # amp r^m trig(m t): trace and d/dr evaluated at r = 2
    ring = make_ring("outer", 2.0, 16)
    data = cauchy_data((HarmonicTerm(3.0, 2, "sin"),), ring)
    assert_allclose(data.u_bar.values, 12.0 * np.sin(2 * ring.angles), atol=1e-13)
    assert_allclose(data.q_bar.values, 12.0 * np.sin(2 * ring.angles), atol=1e-13)


def test_constant_term_has_zero_slope():
    ring = make_ring("outer", 3.0, 16)
    data = cauchy_data((HarmonicTerm(2.5, 0, "cos"),), ring)
    assert_allclose(data.u_bar.values, 2.5)
    assert_allclose(data.q_bar.values, 0.0)

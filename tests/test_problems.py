"""Manufactured harmonic data."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import HarmonicTerm, builtin_terms, cauchy_data, exact_inner_trace
from adjoint_cauchy.boundary import BoundaryRing
from adjoint_cauchy.spectral import band_coefficients
from adjoint_cauchy.problems import BUILTIN_NAMES


def term_coefficients(terms, radius, max_mode):
    """rfft-layout coefficients of the terms' trace at ``radius``: amplitude
    a*r^m splits into a*r^m/2 on mode m for cos and -i*a*r^m/2 for sin,
    and stays whole on mode 0."""
    coeffs = np.zeros(max_mode + 1, dtype=complex)
    for term in terms:
        value = term.amplitude * radius**term.mode
        if term.mode == 0:
            coeffs[0] += value
        else:
            coeffs[term.mode] += 0.5 * value if term.kind == "cos" else -0.5j * value
    return coeffs


def test_example1_outer_data():
    # u* = r^2 cos 2t: trace 9 cos 2t and radial slope 6 cos 2t at r = 3
    ring = BoundaryRing("outer", 3.0, 32)
    data = cauchy_data(builtin_terms("example1"), ring)
    th = ring.angles
    assert_allclose(data.u_bar.values, 9 * np.cos(2 * th), atol=1e-13)
    assert_allclose(data.q_bar.values, 6 * np.cos(2 * th), atol=1e-13)


def test_example1_inner_trace():
    inner = BoundaryRing("inner", 1.0, 32)
    w = exact_inner_trace(builtin_terms("example1"), inner)
    assert_allclose(w.values, np.cos(2 * inner.angles), atol=1e-14)


def test_example2_data():
    ring = BoundaryRing("outer", 3.0, 64)
    th = ring.angles
    data = cauchy_data(builtin_terms("example2"), ring)
    assert_allclose(data.u_bar.values, 6 * np.sin(th) - 1.5 * np.cos(th) + 2.25 * np.cos(2 * th), atol=1e-13)
    assert_allclose(data.q_bar.values, 2 * np.sin(th) - 0.5 * np.cos(th) + 1.5 * np.cos(2 * th), atol=1e-13)
    inner = BoundaryRing("inner", 1.0, 64)
    w = exact_inner_trace(builtin_terms("example2"), inner)
    ti = inner.angles
    assert_allclose(w.values, 2 * np.sin(ti) - 0.5 * np.cos(ti) + 0.25 * np.cos(2 * ti), atol=1e-14)


def test_example2_coefficients():
    c = term_coefficients(builtin_terms("example2"), 1.0, 2)
    assert abs(c[1] - (-0.25 - 1.0j)) < 1e-15
    assert abs(c[2] - 0.125) < 1e-15
    assert c[0] == 0.0
    # the same literals from the sampled inner trace
    inner = BoundaryRing("inner", 1.0, 32)
    sampled = band_coefficients(exact_inner_trace(builtin_terms("example2"), inner).values)[:3]
    assert np.max(np.abs(sampled - [0.0, -0.25 - 1.0j, 0.125])) < 1e-15


def test_coefficients_match_sampled_analysis():
    inner = BoundaryRing("inner", 1.0, 32)
    for name in BUILTIN_NAMES:
        terms = builtin_terms(name)
        sampled = band_coefficients(exact_inner_trace(terms, inner).values)
        exact = term_coefficients(terms, 1.0, 15)
        assert np.max(np.abs(sampled - exact)) < 1e-12


def test_term_validation():
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, 0, "sin")
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, -1, "cos")
    with pytest.raises(ValueError):
        HarmonicTerm(1.0, 1, "tan")
    for mode in (2.5, 2.0, True, 10**400):
        with pytest.raises(ValueError, match="whole number"):
            HarmonicTerm(1.0, mode, "cos")
    with pytest.raises(ValueError):
        builtin_terms("example3")


def test_data_on_arbitrary_circle():
    # amp r^m trig(m t): trace and d/dr evaluated at r = 2
    ring = BoundaryRing("outer", 2.0, 16)
    data = cauchy_data((HarmonicTerm(3.0, 2, "sin"),), ring)
    assert_allclose(data.u_bar.values, 12.0 * np.sin(2 * ring.angles), atol=1e-13)
    assert_allclose(data.q_bar.values, 12.0 * np.sin(2 * ring.angles), atol=1e-13)


def test_constant_term_has_zero_slope():
    ring = BoundaryRing("outer", 3.0, 16)
    data = cauchy_data((HarmonicTerm(2.5, 0, "cos"),), ring)
    assert_allclose(data.u_bar.values, 2.5)
    assert_allclose(data.q_bar.values, 0.0)

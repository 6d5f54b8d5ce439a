"""Ring sampling <-> Fourier coefficients."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import BoundaryFunction, builtin_terms, cauchy_data
from adjoint_cauchy.boundary import BoundaryRing, boundary_inner_product, make_ring
from adjoint_cauchy.fourier import analyze, detect_band, synthesize
from adjoint_cauchy.spectral import FourierBoundary


def test_analyze_cos2theta():
    ring = make_ring("inner", 1.0, 8)
    f = BoundaryFunction(ring, np.cos(2 * ring.angles))
    c = analyze(f)
    assert abs(c.get(2) - 0.5) < 1e-12
    assert abs(c.get(-2) - 0.5) < 1e-12
    for j in (-3, -1, 0, 1, 3):
        assert abs(c.get(j)) < 1e-12
    assert c.radius == 1.0


def test_analyze_mixed_signal():
    # 2 sin t - cos(t)/2 + cos(2t)/4: a_1 = -1/4 - i, a_2 = 1/8
    ring = make_ring("inner", 1.0, 16)
    th = ring.angles
    f = BoundaryFunction(ring, 2 * np.sin(th) - 0.5 * np.cos(th) + 0.25 * np.cos(2 * th))
    c = analyze(f)
    assert abs(c.get(1) - (-0.25 - 1.0j)) < 1e-12
    assert abs(c.get(-1) - (-0.25 + 1.0j)) < 1e-12
    assert abs(c.get(2) - 0.125) < 1e-12


def test_analyze_zero_gives_empty():
    ring = make_ring("inner", 1.0, 8)
    assert analyze(BoundaryFunction.zeros(ring)).coeffs == {}


def test_analyze_band_cap():
    ring = make_ring("outer", 3.0, 16)
    f = BoundaryFunction(ring, np.cos(5 * ring.angles))
    with pytest.warns(UserWarning):
        analyze(f, max_mode=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        truncated = analyze(f, max_mode=3, warn_tail=False)
    assert truncated.max_mode <= 3
    with pytest.raises(ValueError):
        # only modes up to 7 are resolvable on 16 nodes
        analyze(f, max_mode=8)


def test_analyze_requires_equispaced():
    ring = BoundaryRing("inner", 1.0, np.array([0.0, 0.3, 1.0, 4.0]))
    with pytest.raises(ValueError):
        analyze(BoundaryFunction.zeros(ring))


def test_synthesize_cos2theta():
    ring = make_ring("inner", 1.0, 8)
    f = synthesize(FourierBoundary({2: 0.5, -2: 0.5}, 1.0), ring)
    assert_allclose(f.values, np.cos(2 * ring.angles), atol=1e-14)


def test_synthesize_empty_is_zero():
    ring = make_ring("inner", 1.0, 8)
    assert_allclose(synthesize(FourierBoundary.zero(1.0), ring).values, 0.0)


def test_synthesize_validation():
    ring = make_ring("inner", 1.0, 8)
    with pytest.raises(ValueError):
        synthesize(FourierBoundary({2: 0.5, -2: 0.5}, 2.0), ring)
    with pytest.raises(ValueError):
        synthesize(FourierBoundary({5: 0.5, -5: 0.5}, 1.0), ring)
    with pytest.raises(ValueError):
        synthesize(FourierBoundary({1: 1.0}, 1.0), ring)


def test_round_trip_band_limited():
    rng = np.random.default_rng(5)
    ring = make_ring("outer", 3.0, 32)
    for _ in range(20):
        coeffs = {0: complex(rng.standard_normal(), 0.0)}
        for j in range(1, 10):
            a = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[j], coeffs[-j] = a, a.conjugate()
        c = FourierBoundary(coeffs, 3.0)
        back = analyze(synthesize(c, ring))
        for j in range(-10, 11):
            assert abs(back.get(j) - c.get(j)) <= 1e-12


def test_analyze_is_linear():
    # band-limited inputs so the Nyquist bin stays empty
    ring = make_ring("inner", 1.0, 16)
    rng = np.random.default_rng(9)

    def random_band():
        coeffs = {0: complex(rng.standard_normal(), 0.0)}
        for j in range(1, 8):
            a = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[j], coeffs[-j] = a, a.conjugate()
        return synthesize(FourierBoundary(coeffs, 1.0), ring)

    f, g = random_band(), random_band()
    lhs = analyze(2.5 * f - 0.5 * g)
    cf, cg = analyze(f), analyze(g)
    for j in range(-7, 8):
        assert abs(lhs.get(j) - (2.5 * cf.get(j) - 0.5 * cg.get(j))) < 1e-12


def test_detect_band():
    ring = make_ring("outer", 3.0, 32)
    u = BoundaryFunction(ring, 9 * np.cos(2 * ring.angles))
    assert detect_band(analyze(u)) == (2, 2)
    data = cauchy_data(builtin_terms("example2"), ring)
    assert detect_band(analyze(data.u_bar)) == (1, 2)
    assert detect_band(FourierBoundary.zero(3.0)) is None


def test_detect_band_scale_invariant():
    coeffs = {1: 1.0 + 0.5j, -1: 1.0 - 0.5j, 4: 0.25, -4: 0.25, 7: 1e-12, -7: 1e-12}
    c = FourierBoundary(coeffs, 1.0)
    band = detect_band(c)
    assert band == (1, 4)
    for s in (1e-6, 3.7, 1e8):
        assert detect_band(c.scaled(s)) == band


def test_parseval():
    """Quadrature inner product tracks 2 pi R sum |a_j|^2 for band-limited data."""
    ring = make_ring("outer", 3.0, 64)
    rng = np.random.default_rng(21)
    coeffs = {0: complex(rng.standard_normal(), 0.0)}
    for j in range(1, 9):
        a = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[j], coeffs[-j] = a, a.conjugate()
    c = FourierBoundary(coeffs, 3.0)
    f = synthesize(c, ring)
    quad = boundary_inner_product(f, f)
    exact = c.norm() ** 2
    assert abs(quad - exact) / exact < 5e-3

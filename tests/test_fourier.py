"""Ring sampling <-> Fourier coefficients in rfft layout: the band transform
of ``spectral``."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import BoundaryFunction
from adjoint_cauchy.boundary import BoundaryRing, boundary_inner_product
from adjoint_cauchy.spectral import band_coefficients, band_samples


def random_band(rng, mode_max):
    """rfft-layout coefficients of a random real band: a_0 real, then a_j."""
    draws = rng.standard_normal(2 * mode_max + 1)
    return np.concatenate(([draws[0]], draws[1::2] + 1j * draws[2::2]))


def test_analyze_cos2theta():
    ring = BoundaryRing("inner", 1.0, 8)
    c = band_coefficients(np.cos(2 * ring.angles), 3)
    assert abs(c[2] - 0.5) < 1e-12
    for j in (0, 1, 3):
        assert abs(c[j]) < 1e-12


def test_analyze_mixed_signal():
    # 2 sin t - cos(t)/2 + cos(2t)/4: a_1 = -1/4 - i, a_2 = 1/8
    ring = BoundaryRing("inner", 1.0, 16)
    th = ring.angles
    c = band_coefficients(2 * np.sin(th) - 0.5 * np.cos(th) + 0.25 * np.cos(2 * th), 7)
    assert abs(c[1] - (-0.25 - 1.0j)) < 1e-12
    assert abs(c[2] - 0.125) < 1e-12


def test_analyze_zero_gives_empty():
    assert not band_coefficients(np.zeros(8), 3).any()


def test_analyze_band_cap():
    ring = BoundaryRing("outer", 3.0, 16)
    values = np.cos(5 * ring.angles)
    with pytest.warns(UserWarning):
        band_coefficients(values, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        truncated = band_coefficients(values, 3, warn_tail=False)
    assert truncated.size == 4
    with pytest.raises(ValueError):
        # only modes up to 7 are resolvable on 16 nodes
        band_coefficients(values, 8)


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
        back = band_coefficients(band_samples(c, 32), 15)
        assert np.max(np.abs(back[:10] - c)) <= 1e-12
        assert np.max(np.abs(back[10:])) <= 1e-12


def test_analyze_is_linear():
    # band-limited inputs so the Nyquist bin stays empty
    rng = np.random.default_rng(9)
    f, g = (band_samples(random_band(rng, 7), 16) for _ in range(2))
    lhs = band_coefficients(2.5 * f - 0.5 * g, 7)
    rhs = 2.5 * band_coefficients(f, 7) - 0.5 * band_coefficients(g, 7)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_parseval():
    """Quadrature inner product tracks 2 pi R (|a_0|^2 + 2 sum |a_j|^2) for band-limited data."""
    ring = BoundaryRing("outer", 3.0, 64)
    rng = np.random.default_rng(21)
    c = random_band(rng, 8)
    f = BoundaryFunction(ring, band_samples(c, ring.size))
    quad = boundary_inner_product(f, f)
    power = np.abs(c) ** 2
    exact = 2.0 * math.pi * ring.radius * (power[0] + 2.0 * power[1:].sum())
    assert abs(quad - exact) / exact < 5e-3

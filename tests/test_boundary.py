"""Boundary rings, nodal functions, and the trapezoid inner product."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import BoundaryFunction
from adjoint_cauchy.boundary import (
    BoundaryRing,
    boundary_inner_product,
    boundary_norm,
    make_ring,
    ring_mass_apply,
    rings_compatible,
)


def test_make_ring_equispaced():
    ring = make_ring("inner", 1.0, 4)
    assert ring.size == 4
    assert_allclose(ring.angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert ring.node_ids is None


def test_make_ring_rejects_tiny():
    with pytest.raises(ValueError):
        make_ring("inner", 1.0, 2)


def test_ring_validation():
    angles = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        BoundaryRing("top", 1.0, angles)
    with pytest.raises(ValueError):
        BoundaryRing("inner", -1.0, angles)
    with pytest.raises(ValueError):
        BoundaryRing("inner", 1.0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        BoundaryRing("inner", 1.0, np.array([0.0, 1.0, 7.0]))


def test_rings_compatible():
    a = make_ring("inner", 1.0, 8)
    assert rings_compatible(a, make_ring("inner", 1.0, 8))
    assert not rings_compatible(a, make_ring("outer", 1.0, 8))
    assert not rings_compatible(a, make_ring("inner", 2.0, 8))
    assert not rings_compatible(a, make_ring("inner", 1.0, 16))


def test_chord_lengths_regular_polygon():
    ring = make_ring("outer", 3.0, 160)
    h = ring.chord_lengths
    assert_allclose(h, 2 * 3.0 * math.sin(math.pi / 160))
    # inscribed 160-gon perimeter, radius 3
    assert math.isclose(h.sum(), 18.84834476220317, rel_tol=1e-15)


def test_lumped_weights_sum_to_perimeter():
    ring = make_ring("inner", 1.0, 64)
    w = ring.lumped_weights
    assert math.isclose(w.sum(), 6.280662313909506, rel_tol=1e-15)
    assert np.all(w > 0)


def test_mass_apply_matches_dense_assembly():
    """Cyclic assembly of the h/6 * [[2, 1], [1, 2]] edge blocks."""
    ring = make_ring("inner", 2.0, 5)
    h = ring.chord_lengths
    n = ring.size
    dense = np.zeros((n, n))
    for e in range(n):
        a, b = e, (e + 1) % n
        dense[a, a] += 2 * h[e] / 6
        dense[b, b] += 2 * h[e] / 6
        dense[a, b] += h[e] / 6
        dense[b, a] += h[e] / 6
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(n)
        assert_allclose(ring_mass_apply(ring, v), dense @ v, rtol=1e-13, atol=1e-13)


def test_inner_product_constant_is_polygon_perimeter():
    # square inscribed in the unit circle: 4 * sqrt(2)
    ring = make_ring("inner", 1.0, 4)
    one = BoundaryFunction(ring, np.ones(4))
    assert math.isclose(boundary_inner_product(one, one), 5.65685424949238, rel_tol=1e-15)


def test_inner_product_orthogonality():
    ring = make_ring("inner", 1.0, 64)
    f = BoundaryFunction(ring, np.cos(ring.angles))
    g = BoundaryFunction(ring, np.sin(ring.angles))
    assert abs(boundary_inner_product(f, g)) < 1e-10


def test_inner_product_cos_squared_near_pi():
    ring = make_ring("inner", 1.0, 64)
    f = BoundaryFunction(ring, np.cos(2 * ring.angles))
    value = boundary_inner_product(f, f)
    assert abs(value - math.pi) / math.pi < 1e-3


def test_inner_product_symmetric_bilinear():
    ring = make_ring("outer", 3.0, 32)
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = BoundaryFunction(ring, rng.standard_normal(32))
        g = BoundaryFunction(ring, rng.standard_normal(32))
        h = BoundaryFunction(ring, rng.standard_normal(32))
        s = float(rng.uniform(-2, 2))
        fg = boundary_inner_product(f, g)
        assert math.isclose(fg, boundary_inner_product(g, f), rel_tol=1e-13, abs_tol=1e-13)
        lhs = boundary_inner_product(s * f + h, g)
        assert math.isclose(lhs, s * fg + boundary_inner_product(h, g), rel_tol=1e-12, abs_tol=1e-12)


def test_inner_product_ring_mismatch():
    f = BoundaryFunction.zeros(make_ring("inner", 1.0, 8))
    g = BoundaryFunction.zeros(make_ring("outer", 3.0, 8))
    with pytest.raises(ValueError):
        boundary_inner_product(f, g)


def test_function_arithmetic():
    ring = make_ring("inner", 1.0, 8)
    f = BoundaryFunction.from_callable(ring, math.sin)
    assert_allclose(f.values, np.sin(ring.angles))
    g = 2.0 * f - f
    assert_allclose(g.values, f.values)
    assert_allclose((-f).values, -(f.values))
    h = f.copy()
    h.values[0] = 99.0
    assert f.values[0] != 99.0


def test_function_shape_validation():
    ring = make_ring("inner", 1.0, 8)
    with pytest.raises(ValueError):
        BoundaryFunction(ring, np.zeros(7))


def test_boundary_norm_constant():
    ring = make_ring("outer", 3.0, 160)
    one = BoundaryFunction(ring, np.ones(ring.size))
    assert math.isclose(boundary_norm(one), math.sqrt(18.84834476220317), rel_tol=1e-15)

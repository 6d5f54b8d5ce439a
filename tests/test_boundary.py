"""Boundary rings, nodal functions, and the polygon each ring is."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import AnnulusSpec, BoundaryFunction, FemBackend, generate_mesh
from adjoint_cauchy.boundary import BoundaryRing


def test_ring_angles_are_equispaced():
    ring = BoundaryRing("inner", 1.0, 4)
    assert ring.size == 4
    assert_allclose(ring.angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    with pytest.raises(ValueError):
        ring.angles[0] = 1.0  # derived from the size, so read-only


def test_make_ring_rejects_tiny():
    for size in (2, 0, -3, 8.0, True):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            BoundaryRing("inner", 1.0, size)


def test_ring_validation():
    with pytest.raises(ValueError, match="side"):
        BoundaryRing("top", 1.0, 8)
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radius"):
            BoundaryRing("inner", radius, 8)


def test_rings_compare_by_value():
    a = BoundaryRing("inner", 1.0, 8)
    assert a == BoundaryRing("inner", 1.0, 8)
    assert a != BoundaryRing("outer", 1.0, 8)
    assert a != BoundaryRing("inner", 2.0, 8)
    assert a != BoundaryRing("inner", 1.0, 16)
    # equal rings hash alike, so a set holds one of them
    assert len({BoundaryRing("inner", 1.0, 8), BoundaryRing("inner", 1.0, 8)}) == 1


def test_chord_lengths_regular_polygon():
    ring = BoundaryRing("outer", 3.0, 160)
    assert ring.chord == 2 * 3.0 * math.sin(math.pi / 160)
    # inscribed 160-gon perimeter, radius 3
    assert math.isclose(ring.size * ring.chord, 18.84834476220317, rel_tol=1e-15)


def test_lumped_weights_sum_to_perimeter():
    """The finite element backend weighs every inner node by the chord;
    together the weights make the inscribed 64-gon's perimeter."""
    backend = FemBackend(generate_mesh(AnnulusSpec(1.0, 3.0, 2, 64)))
    assert backend.inner_weight == backend.inner_ring.chord > 0
    assert math.isclose(64 * backend.inner_weight, 6.280662313909506, rel_tol=1e-15)


def test_inner_product_constant_is_polygon_perimeter():
    # square inscribed in the unit circle: 4 * sqrt(2)
    ring = BoundaryRing("inner", 1.0, 4)
    assert math.isclose(ring.size * ring.chord, 5.65685424949238, rel_tol=1e-15)


def test_function_arithmetic():
    ring = BoundaryRing("inner", 1.0, 8)
    f = BoundaryFunction(ring, np.sin(ring.angles))
    g = 2.0 * f - f
    assert_allclose(g.values, f.values)
    assert_allclose((-f).values, -(f.values))
    h = f.copy()
    h.values[0] = 99.0
    assert f.values[0] != 99.0
    for other in (BoundaryRing("inner", 1.0, 16), BoundaryRing("outer", 1.0, 8)):
        foreign = BoundaryFunction.zeros(other)
        with pytest.raises(ValueError, match="different rings"):
            f + foreign
        with pytest.raises(ValueError, match="different rings"):
            f - foreign


def test_function_shape_validation():
    ring = BoundaryRing("inner", 1.0, 8)
    with pytest.raises(ValueError):
        BoundaryFunction(ring, np.zeros(7))


def test_boundary_norm_constant():
    """The norm ``run`` reports for a constant on a finite element inner
    ring of radius 3 is the root of the inscribed 160-gon's perimeter."""
    backend = FemBackend(generate_mesh(AnnulusSpec(3.0, 4.0, 2, 160)))
    one = np.ones(backend.inner_ring.size)
    norm = math.sqrt(backend.inner_weight * float(np.dot(one, one)))
    assert math.isclose(norm, math.sqrt(18.84834476220317), rel_tol=1e-15)

"""Structured annulus meshing."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adjoint_cauchy import AnnulusSpec, generate_mesh
from adjoint_cauchy.mesh import triangle_areas


def test_node_and_triangle_counts():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 2, 4))
    assert mesh.n_nodes == 12
    assert mesh.n_triangles == 16
    # lower (a, c, d) then upper (a, d, b) triangles of quad (i, j), whose
    # corners are a=(i,j), b=(i,j+1), c=(i+1,j), d=(i+1,j+1); the last
    # quad of a level wraps around to its first node
    assert mesh.triangles.shape == (16, 3)
    assert mesh.triangles[[0, 3, 8, 11, 15]].tolist() == [
        [0, 4, 5], [3, 7, 4], [0, 5, 1], [3, 4, 0], [7, 8, 4]
    ]


def test_default_resolution_counts():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 27, 160))
    assert mesh.n_nodes == 4480
    assert mesh.n_triangles == 8640


def test_spec_validation():
    with pytest.raises(ValueError):
        AnnulusSpec(1.0, 3.0, 0, 4)
    with pytest.raises(ValueError):
        AnnulusSpec(3.0, 1.0, 2, 4)
    with pytest.raises(ValueError):
        AnnulusSpec(-1.0, 3.0, 2, 4)
    for r_inner, r_outer in ((1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="radii"):
            AnnulusSpec(r_inner, r_outer, 2, 4)
    with pytest.raises(ValueError):
        AnnulusSpec(1.0, 3.0, 2, 2)
    for counts in ((2.5, 16), (2, 16.0), (True, 16)):
        with pytest.raises(ValueError, match="whole number"):
            AnnulusSpec(1.0, 3.0, *counts)


def test_boundary_rings():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 2, 4))
    inner = mesh.inner_ring
    outer = mesh.outer_ring
    assert_allclose(inner.angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert inner.radius == 1.0
    assert outer.radius == 3.0
    assert inner.size == outer.size == 4


def test_boundary_nodes_sit_on_circles():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 5, 32))
    levels = mesh.nodes.reshape(6, 32, 2)
    for ring, xy in ((mesh.inner_ring, levels[0]), (mesh.outer_ring, levels[-1])):
        assert_allclose(np.arctan2(xy[:, 1], xy[:, 0]) % (2 * np.pi), ring.angles, atol=1e-12)
        r = np.hypot(xy[:, 0], xy[:, 1])
        assert np.max(np.abs(r - ring.radius)) <= 1e-12 * ring.radius
        assert np.all(np.diff(ring.angles) > 0)


def test_positive_areas_and_coverage():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 8, 64))
    areas = triangle_areas(mesh)
    assert np.all(areas > 0)
    target = math.pi * (3.0**2 - 1.0**2)
    assert abs(areas.sum() - target) / target < 0.01


def test_edge_sharing_is_manifold():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 3, 8))
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) <= {1, 2}
    boundary_edges = sum(1 for c in counts.values() if c == 1)
    # each circle contributes one cycle of n_angular edges
    assert boundary_edges == 2 * 8


def test_triangle_indices_valid():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 12))
    assert mesh.triangles.min() >= 0
    assert mesh.triangles.max() < mesh.n_nodes
    for tri in mesh.triangles:
        assert len(set(tri)) == 3


def test_determinism():
    spec = AnnulusSpec(1.0, 3.0, 4, 16)
    m1 = generate_mesh(spec)
    m2 = generate_mesh(spec)
    assert np.array_equal(m1.nodes, m2.nodes)
    assert np.array_equal(m1.triangles, m2.triangles)

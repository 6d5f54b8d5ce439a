"""P1 assembly, mixed solves, their (level, position) fields, and boundary flux recovery."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import spsolve

from adjoint_cauchy import (
    AnnulusSpec,
    BoundaryFunction,
    FemBackend,
    SolverError,
    builtin_terms,
    cauchy_data,
    generate_mesh,
)
from adjoint_cauchy import fem
from adjoint_cauchy.boundary import BoundaryRing, boundary_norm, ring_mass_apply
from adjoint_cauchy.fem import assemble_stiffness, local_stiffness, normal_flux, solve_mixed_bvp


def sparse_stiffness(mesh):
    """Reference global stiffness: every triangle's local block scattered
    into a sparse matrix, with no use of the mesh's structure. It acts on a
    field flattened to global node ids, ``field.reshape(-1)``, whose inner
    ring is ids ``0..n_angular - 1`` and outer ring the last
    ``n_angular``."""
    triangles = mesh.triangles
    x, y = np.moveaxis(mesh.nodes[triangles.T], 2, 0)
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, 3).ravel()
    shape = (mesh.n_nodes, mesh.n_nodes)
    return sparse.coo_matrix((local_stiffness(x, y).ravel(), (rows, cols)), shape=shape).tocsr()


def stencil_matrix(mesh, stencils):
    """Global matrix whose every node's row is its level's stencil."""
    nr, na = mesh.spec.n_radial, mesh.spec.n_angular
    level, pos, s, t = np.meshgrid(
        np.arange(nr + 1), np.arange(na), np.arange(-1, 2), np.arange(-1, 2), indexing="ij"
    )
    keep = (level + s >= 0) & (level + s <= nr)
    rows = level * na + pos
    cols = (level + s) * na + (pos + t) % na
    values = np.broadcast_to(stencils[:, None], level.shape)
    shape = (mesh.n_nodes, mesh.n_nodes)
    return sparse.coo_matrix((values[keep], (rows[keep], cols[keep])), shape=shape).tocsr()


def _single_triangle(points):
    """Vertex coordinates ``x, y`` of one triangle, shape ``(3, 1)`` each."""
    return np.asarray(points, dtype=float).T[..., None]


def test_unit_triangle_stiffness():
    k = local_stiffness(*_single_triangle([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert_allclose(k[0], expected, atol=1e-15)


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        local_stiffness(*_single_triangle([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
    # clockwise orientation is an inverted element here
    with pytest.raises(ValueError):
        local_stiffness(*_single_triangle([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]))


def test_stiffness_symmetric_psd_zero_rowsums():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24))
    k = sparse_stiffness(mesh)
    dense = k.toarray()
    assert_allclose(dense, dense.T, atol=1e-14)
    scale = np.abs(dense).max()
    assert np.abs(dense.sum(axis=1)).max() <= 1e-12 * scale
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.standard_normal(mesh.n_nodes)
        assert u @ (k @ u) >= -1e-12 * scale * (u @ u)


@pytest.mark.parametrize("n_radial, n_angular", [(1, 3), (2, 7), (3, 4), (12, 64), (27, 160)])
def test_every_row_equals_its_level_stencil(n_radial, n_angular):
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, n_radial, n_angular))
    stencils = assemble_stiffness(mesh)
    assert stencils.shape == (n_radial + 1, 3, 3)
    # no level below the inner ring or above the outer one
    assert not stencils[0, 0].any() and not stencils[-1, 2].any()
    k = sparse_stiffness(mesh)
    assert abs(k - stencil_matrix(mesh, stencils)).max() <= 1e-13 * abs(k).max()


def test_flux_rows_are_the_inner_rows_over_lumped_weights():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 3, 16))
    field = np.random.default_rng(3).standard_normal((4, 16))
    ring = mesh.inner_ring
    want = (sparse_stiffness(mesh)[:16] @ field.reshape(-1)) / ring.chord
    got = normal_flux(field, FemBackend(mesh))
    assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()


def test_backend_setup_stores_no_mesh_arrays(monkeypatch):
    """Set-up reads only the spec: no node, triangle or per-triangle array
    of the 108x640 mesh (about 32 MB when they were formed) is allocated,
    and the stiffness stencils are assembled once."""
    assemblies = []

    def counted(mesh):
        assemblies.append(mesh)
        return assemble_stiffness(mesh)

    monkeypatch.setattr(fem, "assemble_stiffness", counted)
    tracemalloc.start()
    try:
        FemBackend(generate_mesh(AnnulusSpec(1.0, 3.0, 108, 640)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(assemblies) == 1


def test_package_import_leaves_out_scipy(src_env):
    code = "import sys, adjoint_cauchy; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_solve_constant_dirichlet_gives_constant_field():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24))
    v = solve_mixed_bvp(
        FemBackend(mesh),
        BoundaryFunction.zeros(mesh.outer_ring),
        BoundaryFunction(mesh.inner_ring, np.ones(24)),
    )
    assert np.max(np.abs(v - 1.0)) < 1e-10


def test_solve_reproduces_quadratic_harmonic(default_mesh, fem_default):
    # flux 6 cos 2t, inner trace cos 2t: exact solution r^2 cos 2t
    mesh = default_mesh
    q = BoundaryFunction(mesh.outer_ring, 6 * np.cos(2 * mesh.outer_ring.angles))
    w = BoundaryFunction(mesh.inner_ring, np.cos(2 * mesh.inner_ring.angles))
    v = solve_mixed_bvp(fem_default, q, w)
    got = BoundaryFunction(mesh.outer_ring, v[-1])
    want = BoundaryFunction(mesh.outer_ring, 9 * np.cos(2 * mesh.outer_ring.angles))
    assert boundary_norm(got - want) / boundary_norm(want) < 0.01


def test_solve_single_mode_trace_damping(default_mesh, fem_default):
    # q = 0, w = cos 2t: outer trace (9/41) cos 2t
    mesh = default_mesh
    w = BoundaryFunction(mesh.inner_ring, np.cos(2 * mesh.inner_ring.angles))
    v = solve_mixed_bvp(fem_default, BoundaryFunction.zeros(mesh.outer_ring), w)
    got = BoundaryFunction(mesh.outer_ring, v[-1])
    want = BoundaryFunction(mesh.outer_ring, (9.0 / 41.0) * np.cos(2 * mesh.outer_ring.angles))
    assert boundary_norm(got - want) / boundary_norm(want) < 0.01


def test_trace_extracts_ring_values(default_mesh, fem_default):
    """A field is its (level, position) array: row 0 is the inner ring and
    row -1 the outer one, and the backend's trace is a copy of row -1."""
    mesh = default_mesh
    omega = BoundaryFunction(mesh.inner_ring, np.cos(3 * mesh.inner_ring.angles) + 0.5)
    q = BoundaryFunction(mesh.outer_ring, np.sin(mesh.outer_ring.angles))
    v = solve_mixed_bvp(fem_default, q, omega)
    assert v.shape == (mesh.spec.n_radial + 1, mesh.spec.n_angular)
    # Dirichlet values are pinned exactly, not approximately
    assert np.array_equal(v[0], omega.values)
    got = fem_default.solve_primary(omega, q)
    assert np.array_equal(got.values, v[-1])
    # an owned array: the trace keeps no field alive
    assert got.values.base is None


def test_normal_flux_constant_field(fem_default):
    flux = normal_flux(np.ones((28, 160)), fem_default)
    assert np.max(np.abs(flux.values)) < 1e-10


def test_normal_flux_of_quadratic_harmonic(default_mesh, fem_default):
    """Inward normal at the inner circle: d/dn of r^2 cos 2t is -2 cos 2t."""
    mesh = default_mesh
    q = BoundaryFunction(mesh.outer_ring, 6 * np.cos(2 * mesh.outer_ring.angles))
    w = BoundaryFunction(mesh.inner_ring, np.cos(2 * mesh.inner_ring.angles))
    v = solve_mixed_bvp(fem_default, q, w)
    flux = normal_flux(v, fem_default)
    want = BoundaryFunction(mesh.inner_ring, -2.0 * np.cos(2 * mesh.inner_ring.angles))
    assert boundary_norm(flux - want) / boundary_norm(want) < 0.02


def test_adjoint_flux_recovers_descent_direction(default_mesh, fem_default):
    # At omega = 0 the misfit is -(9/41) cos 2t; the adjoint flux is then
    # +C_2 cos 2t = (486/1681) cos 2t, the negative of the gradient.
    mesh = default_mesh
    data = cauchy_data(builtin_terms("example1"), mesh.outer_ring)
    zero_inner = BoundaryFunction.zeros(mesh.inner_ring)
    v = solve_mixed_bvp(fem_default, data.q_bar, zero_inner)
    misfit = BoundaryFunction(mesh.outer_ring, v[-1]) - data.u_bar
    vhat = solve_mixed_bvp(fem_default, 2.0 * misfit, zero_inner)
    flux = normal_flux(vhat, fem_default)
    want = BoundaryFunction(mesh.inner_ring, (486.0 / 1681.0) * np.cos(2 * mesh.inner_ring.angles))
    assert boundary_norm(flux - want) / boundary_norm(want) < 0.05


def test_discrete_maximum_principle():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24))
    backend = FemBackend(mesh)
    rng = np.random.default_rng(8)
    for _ in range(3):
        w = BoundaryFunction(mesh.inner_ring, rng.uniform(-2.0, 2.0, 24))
        v = solve_mixed_bvp(backend, BoundaryFunction.zeros(mesh.outer_ring), w)
        assert v.min() >= w.values.min() - 1e-8
        assert v.max() <= w.values.max() + 1e-8


def test_solver_linearity():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24))
    backend = FemBackend(mesh)
    rng = np.random.default_rng(14)
    q1 = BoundaryFunction(mesh.outer_ring, rng.standard_normal(24))
    q2 = BoundaryFunction(mesh.outer_ring, rng.standard_normal(24))
    w1 = BoundaryFunction(mesh.inner_ring, rng.standard_normal(24))
    w2 = BoundaryFunction(mesh.inner_ring, rng.standard_normal(24))
    a, b = 1.75, -0.6
    v_combo = solve_mixed_bvp(backend, a * q1 + b * q2, a * w1 + b * w2)
    v_parts = a * solve_mixed_bvp(backend, q1, w1) + b * solve_mixed_bvp(backend, q2, w2)
    assert np.max(np.abs(v_combo - v_parts)) < 1e-12


@pytest.mark.parametrize("n_radial, n_angular", [(1, 3), (2, 7), (3, 4), (5, 25), (12, 64)])
def test_solve_matches_sparse_direct_solve(n_radial, n_angular):
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, n_radial, n_angular))
    rng = np.random.default_rng(n_radial * 100 + n_angular)
    q = BoundaryFunction(mesh.outer_ring, rng.standard_normal(n_angular))
    w = BoundaryFunction(mesh.inner_ring, rng.standard_normal(n_angular))
    got = solve_mixed_bvp(FemBackend(mesh), q, w).reshape(-1)

    k = sparse_stiffness(mesh)
    fixed = np.arange(n_angular)
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[fixed] = False
    load = np.zeros(mesh.n_nodes)
    load[-n_angular:] = ring_mass_apply(mesh.outer_ring, q.values)
    rhs = load[free] - k[free][:, fixed] @ w.values
    want = spsolve(k[free][:, free].tocsc(), rhs)
    assert np.linalg.norm(got[free] - want) <= 1e-12 * np.linalg.norm(want)


def test_dirichlet_values_exact_through_backend(monkeypatch):
    fields = []

    def keep_field(*args, **kwargs):
        fields.append(solve_mixed_bvp(*args, **kwargs))
        return fields[-1]

    monkeypatch.setattr(fem, "solve_mixed_bvp", keep_field)
    backend = FemBackend(generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24)))
    omega = BoundaryFunction(backend.inner_ring, np.random.default_rng(5).standard_normal(24))
    backend.solve_primary(omega, BoundaryFunction.zeros(backend.outer_ring))
    backend.solve_adjoint(BoundaryFunction(backend.outer_ring, np.ones(24)))
    assert np.array_equal(fields[0][0], omega.values)
    assert np.all(fields[1][0] == 0.0)


def test_non_finite_data_raises_solver_error():
    backend = FemBackend(generate_mesh(AnnulusSpec(1.0, 3.0, 3, 16)))
    values = np.zeros(16)
    values[3] = np.nan
    omega = BoundaryFunction(backend.inner_ring, values)
    with pytest.raises(SolverError):
        backend.solve_primary(omega, BoundaryFunction.zeros(backend.outer_ring))


def test_solve_ring_validation():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 2, 8))
    backend = FemBackend(mesh)
    with pytest.raises(ValueError):
        solve_mixed_bvp(
            backend,
            BoundaryFunction.zeros(BoundaryRing("outer", 3.0, 12)),
            BoundaryFunction.zeros(mesh.inner_ring),
        )
    with pytest.raises(ValueError):
        solve_mixed_bvp(
            backend,
            BoundaryFunction.zeros(mesh.outer_ring),
            BoundaryFunction.zeros(BoundaryRing("inner", 1.0, 12)),
        )

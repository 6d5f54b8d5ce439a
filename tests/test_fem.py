"""P1 assembly, mixed solves, traces, and boundary flux recovery."""

import dataclasses
import math
import subprocess
import sys
from types import SimpleNamespace

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
from adjoint_cauchy import iteration
from adjoint_cauchy.boundary import boundary_norm, make_ring
from adjoint_cauchy.fem import (
    FourierSolver,
    assemble_stiffness,
    flux_rows,
    local_stiffness,
    neumann_load,
    normal_flux,
    solve_mixed_bvp,
    trace,
)


def sparse_stiffness(mesh):
    """Reference global stiffness: every triangle's local block scattered
    into a sparse matrix, with no use of the mesh's structure."""
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, 3).ravel()
    shape = (mesh.n_nodes, mesh.n_nodes)
    return sparse.coo_matrix((local_stiffness(mesh).ravel(), (rows, cols)), shape=shape).tocsr()


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
    # the reference assembler only reads nodes / triangles / n_nodes
    nodes = np.asarray(points, dtype=float)
    return SimpleNamespace(nodes=nodes, triangles=np.array([[0, 1, 2]]), n_nodes=3)


def test_unit_triangle_stiffness():
    mesh = _single_triangle([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    k = sparse_stiffness(mesh).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert_allclose(k, expected, atol=1e-15)


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        local_stiffness(_single_triangle([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
    # clockwise orientation is an inverted element here
    with pytest.raises(ValueError):
        local_stiffness(_single_triangle([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]))


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
    field = np.random.default_rng(3).standard_normal(mesh.n_nodes)
    ring = mesh.inner_ring
    want = (sparse_stiffness(mesh)[ring.node_ids] @ field) / ring.lumped_weights
    got = normal_flux(field, mesh, inner_rows=flux_rows(mesh))
    assert np.abs(got.values - want).max() <= 1e-13 * np.abs(want).max()


def test_unstructured_connectivity_rejected():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 3, 16))
    reordered = mesh.triangles[::-1].copy()
    cycled = mesh.triangles.copy()
    cycled[5] = np.roll(cycled[5], 1)  # same triangle and orientation
    for triangles in (reordered, cycled):
        with pytest.raises(ValueError, match="structured"):
            FemBackend(dataclasses.replace(mesh, triangles=triangles))


def test_package_import_leaves_out_scipy(src_env):
    code = "import sys, adjoint_cauchy; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_neumann_load_constant():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 3, 16))
    g = BoundaryFunction(mesh.outer_ring, np.ones(16))
    load = neumann_load(mesh, g)
    perimeter = 2 * 16 * 3.0 * math.sin(math.pi / 16)
    assert math.isclose(load.sum(), perimeter, rel_tol=1e-14)
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[mesh.outer_ring.node_ids] = True
    assert np.all(load[~mask] == 0.0)


def test_neumann_load_mean_zero_data():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 2, 16))
    g = BoundaryFunction(mesh.outer_ring, np.cos(2 * mesh.outer_ring.angles))
    assert abs(neumann_load(mesh, g).sum()) < 1e-10


def test_neumann_load_zero_and_ring_checks():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 2, 16))
    z = neumann_load(mesh, BoundaryFunction.zeros(mesh.outer_ring))
    assert np.all(z == 0.0)
    inner = BoundaryFunction(mesh.inner_ring, np.ones(16))
    load = neumann_load(mesh, inner)
    assert math.isclose(load.sum(), 2 * 16 * 1.0 * math.sin(math.pi / 16), rel_tol=1e-14)
    foreign = BoundaryFunction.zeros(make_ring("outer", 3.0, 12))
    with pytest.raises(ValueError):
        neumann_load(mesh, foreign)


def test_solve_constant_dirichlet_gives_constant_field():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24))
    v = solve_mixed_bvp(
        mesh,
        BoundaryFunction.zeros(mesh.outer_ring),
        BoundaryFunction(mesh.inner_ring, np.ones(24)),
    )
    assert np.max(np.abs(v - 1.0)) < 1e-10


def test_solve_reproduces_quadratic_harmonic(default_mesh):
    # flux 6 cos 2t, inner trace cos 2t: exact solution r^2 cos 2t
    mesh = default_mesh
    q = BoundaryFunction(mesh.outer_ring, 6 * np.cos(2 * mesh.outer_ring.angles))
    w = BoundaryFunction(mesh.inner_ring, np.cos(2 * mesh.inner_ring.angles))
    v = solve_mixed_bvp(mesh, q, w)
    got = trace(v, mesh.outer_ring)
    want = BoundaryFunction(mesh.outer_ring, 9 * np.cos(2 * mesh.outer_ring.angles))
    assert boundary_norm(got - want) / boundary_norm(want) < 0.01


def test_solve_single_mode_trace_damping(default_mesh):
    # q = 0, w = cos 2t: outer trace (9/41) cos 2t
    mesh = default_mesh
    w = BoundaryFunction(mesh.inner_ring, np.cos(2 * mesh.inner_ring.angles))
    v = solve_mixed_bvp(mesh, BoundaryFunction.zeros(mesh.outer_ring), w)
    got = trace(v, mesh.outer_ring)
    want = BoundaryFunction(mesh.outer_ring, (9.0 / 41.0) * np.cos(2 * mesh.outer_ring.angles))
    assert boundary_norm(got - want) / boundary_norm(want) < 0.01


def test_trace_extracts_ring_values(default_mesh):
    mesh = default_mesh
    field = np.full(mesh.n_nodes, 3.25)
    assert_allclose(trace(field, mesh.inner_ring).values, 3.25)
    # Dirichlet values are pinned exactly, not approximately
    v = solve_mixed_bvp(
        mesh,
        BoundaryFunction.zeros(mesh.outer_ring),
        BoundaryFunction(mesh.inner_ring, np.ones(mesh.inner_ring.size)),
    )
    assert np.array_equal(trace(v, mesh.inner_ring).values, np.ones(mesh.inner_ring.size))
    with pytest.raises(ValueError):
        trace(field, make_ring("inner", 1.0, mesh.inner_ring.size))


def test_normal_flux_constant_field(default_mesh):
    flux = normal_flux(np.ones(default_mesh.n_nodes), default_mesh)
    assert np.max(np.abs(flux.values)) < 1e-10


def test_normal_flux_of_quadratic_harmonic(default_mesh):
    """Inward normal at the inner circle: d/dn of r^2 cos 2t is -2 cos 2t."""
    mesh = default_mesh
    q = BoundaryFunction(mesh.outer_ring, 6 * np.cos(2 * mesh.outer_ring.angles))
    w = BoundaryFunction(mesh.inner_ring, np.cos(2 * mesh.inner_ring.angles))
    v = solve_mixed_bvp(mesh, q, w)
    flux = normal_flux(v, mesh)
    want = BoundaryFunction(mesh.inner_ring, -2.0 * np.cos(2 * mesh.inner_ring.angles))
    assert boundary_norm(flux - want) / boundary_norm(want) < 0.02


def test_adjoint_flux_recovers_descent_direction(default_mesh):
    # At omega = 0 the misfit is -(9/41) cos 2t; the adjoint flux is then
    # +C_2 cos 2t = (486/1681) cos 2t, the negative of the gradient.
    mesh = default_mesh
    data = cauchy_data(builtin_terms("example1"), mesh.outer_ring)
    zero_inner = BoundaryFunction.zeros(mesh.inner_ring)
    v = solve_mixed_bvp(mesh, data.q_bar, zero_inner)
    misfit = trace(v, mesh.outer_ring) - data.u_bar
    vhat = solve_mixed_bvp(mesh, 2.0 * misfit, zero_inner)
    flux = normal_flux(vhat, mesh)
    want = BoundaryFunction(mesh.inner_ring, (486.0 / 1681.0) * np.cos(2 * mesh.inner_ring.angles))
    assert boundary_norm(flux - want) / boundary_norm(want) < 0.05


def test_discrete_maximum_principle():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24))
    rng = np.random.default_rng(8)
    for _ in range(3):
        w = BoundaryFunction(mesh.inner_ring, rng.uniform(-2.0, 2.0, 24))
        v = solve_mixed_bvp(mesh, BoundaryFunction.zeros(mesh.outer_ring), w)
        assert v.min() >= w.values.min() - 1e-8
        assert v.max() <= w.values.max() + 1e-8


def test_solver_linearity():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24))
    rng = np.random.default_rng(14)
    q1 = BoundaryFunction(mesh.outer_ring, rng.standard_normal(24))
    q2 = BoundaryFunction(mesh.outer_ring, rng.standard_normal(24))
    w1 = BoundaryFunction(mesh.inner_ring, rng.standard_normal(24))
    w2 = BoundaryFunction(mesh.inner_ring, rng.standard_normal(24))
    a, b = 1.75, -0.6
    v_combo = solve_mixed_bvp(mesh, a * q1 + b * q2, a * w1 + b * w2)
    v_parts = a * solve_mixed_bvp(mesh, q1, w1) + b * solve_mixed_bvp(mesh, q2, w2)
    assert np.max(np.abs(v_combo - v_parts)) < 1e-12


@pytest.mark.parametrize("n_radial, n_angular", [(1, 3), (2, 7), (3, 4), (5, 25), (12, 64)])
def test_solve_matches_sparse_direct_solve(n_radial, n_angular):
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, n_radial, n_angular))
    rng = np.random.default_rng(n_radial * 100 + n_angular)
    q = BoundaryFunction(mesh.outer_ring, rng.standard_normal(n_angular))
    w = BoundaryFunction(mesh.inner_ring, rng.standard_normal(n_angular))
    got = solve_mixed_bvp(mesh, q, w, solver=FourierSolver(mesh))

    k = sparse_stiffness(mesh)
    fixed = mesh.inner_ring.node_ids
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[fixed] = False
    rhs = neumann_load(mesh, q)[free] - k[free][:, fixed] @ w.values
    want = spsolve(k[free][:, free].tocsc(), rhs)
    assert np.linalg.norm(got[free] - want) <= 1e-12 * np.linalg.norm(want)


def test_dirichlet_values_exact_through_backend(monkeypatch):
    fields = []

    def keep_field(*args, **kwargs):
        fields.append(solve_mixed_bvp(*args, **kwargs))
        return fields[-1]

    monkeypatch.setattr(iteration, "solve_mixed_bvp", keep_field)
    backend = FemBackend(generate_mesh(AnnulusSpec(1.0, 3.0, 4, 24)))
    omega = BoundaryFunction(backend.inner_ring, np.random.default_rng(5).standard_normal(24))
    backend.solve_primary(omega, BoundaryFunction.zeros(backend.outer_ring))
    backend.solve_adjoint(BoundaryFunction(backend.outer_ring, np.ones(24)))
    assert np.array_equal(trace(fields[0], backend.inner_ring).values, omega.values)
    assert np.all(trace(fields[1], backend.inner_ring).values == 0.0)


def test_rotation_variant_mesh_rejected():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 3, 16))
    nodes = mesh.nodes.copy()
    nodes[20] *= 1.01  # one interior node moved outward
    skewed = dataclasses.replace(mesh, nodes=nodes)
    with pytest.raises(ValueError):
        FourierSolver(skewed)
    with pytest.raises(ValueError):
        FemBackend(skewed)


def test_non_finite_data_raises_solver_error():
    backend = FemBackend(generate_mesh(AnnulusSpec(1.0, 3.0, 3, 16)))
    values = np.zeros(16)
    values[3] = np.nan
    omega = BoundaryFunction(backend.inner_ring, values)
    with pytest.raises(SolverError):
        backend.solve_primary(omega, BoundaryFunction.zeros(backend.outer_ring))


def test_solve_ring_validation():
    mesh = generate_mesh(AnnulusSpec(1.0, 3.0, 2, 8))
    with pytest.raises(ValueError):
        solve_mixed_bvp(
            mesh,
            BoundaryFunction.zeros(make_ring("outer", 3.0, 12)),
            BoundaryFunction.zeros(mesh.inner_ring),
        )
    with pytest.raises(ValueError):
        solve_mixed_bvp(
            mesh,
            BoundaryFunction.zeros(mesh.outer_ring),
            BoundaryFunction.zeros(make_ring("inner", 1.0, 12)),
        )
    # factors prepared for a mesh of the same shape belong to another mesh
    other = FourierSolver(generate_mesh(AnnulusSpec(1.0, 3.0, 2, 8)))
    with pytest.raises(ValueError):
        solve_mixed_bvp(
            mesh,
            BoundaryFunction.zeros(mesh.outer_ring),
            BoundaryFunction.zeros(mesh.inner_ring),
            solver=other,
        )
    # stencils of a mesh with another number of radius levels
    with pytest.raises(ValueError):
        FourierSolver(mesh, assemble_stiffness(generate_mesh(AnnulusSpec(1.0, 3.0, 3, 8))))

"""Piecewise-linear finite elements for the annulus Laplace problems.

On a triangle with vertices p1, p2, p3 and area A the P1 stiffness is
(b b^T + c c^T) / (4 A) with b = (y2-y3, y3-y1, y1-y2) and
c = (x3-x2, x1-x3, x2-x1). The mixed boundary value problem carries
Neumann data on the outer circle and Dirichlet data on the inner one. The
mesh is invariant under rotation by one angular step, so the stiffness is
block tridiagonal in radius with circulant blocks. An FFT in angle splits
the Dirichlet-reduced system into one tridiagonal system over the free
radius levels per angular mode, which ``FourierSolver`` solves once per
mesh: the Fourier fast Poisson solver (Hockney 1965, Swarztrauber 1977).

The outward normal flux on the inner circle is recovered variationally:
for a discrete solution whose load vanishes at inner-ring nodes, the
stiffness residual restricted to those nodes equals the ring mass applied
to the flux, so dividing by the lumped ring weights gives nodal flux
values. Together with the matching boundary quadratures used for the
Neumann load and the misfit functional, this makes the adjoint gradient
of the discrete functional exact up to rounding.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .boundary import (
    BoundaryFunction,
    BoundaryRing,
    ring_lumped_weights,
    ring_mass_apply,
    rings_compatible,
)
from .mesh import AnnulusMesh

Array = np.ndarray

__all__ = [
    "FourierSolver",
    "SolverError",
    "assemble_stiffness",
    "neumann_load",
    "solve_mixed_bvp",
    "trace",
    "normal_flux",
]

# Deviation from rotation invariance, relative to the largest stiffness
# entry, that counts as rounding; generated meshes deviate by about 5e-14.
ROTATION_RTOL = 1e-10


class SolverError(RuntimeError):
    """A mixed solve produced a non-finite field, as non-finite data do."""


def assemble_stiffness(mesh: AnnulusMesh) -> sparse.csr_matrix:
    """Global P1 stiffness matrix of the Laplace operator on ``mesh``."""
    tris = mesh.triangles
    x = mesh.nodes[tris, 0]
    y = mesh.nodes[tris, 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    if np.any(area2 <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")

    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        2.0 * area2
    )[:, None, None]
    rows = tris[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    cols = tris[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    n = mesh.n_nodes
    return sparse.coo_matrix(
        (local.reshape(-1), (rows, cols)), shape=(n, n)
    ).tocsr()


def _require_mesh_ring(mesh: AnnulusMesh, ring: BoundaryRing) -> None:
    if ring.node_ids is None or not (
        rings_compatible(ring, mesh.inner_ring) or rings_compatible(ring, mesh.outer_ring)
    ):
        raise ValueError("boundary data must live on a ring of this mesh")


def neumann_load(mesh: AnnulusMesh, g: BoundaryFunction) -> Array:
    """Global load vector of Neumann data ``g`` on one boundary ring.

    The ring's piecewise-linear mass matrix is applied to the nodal data,
    i.e. the load is the exact line integral of g against each basis hat.
    """
    _require_mesh_ring(mesh, g.ring)
    load = np.zeros(mesh.n_nodes)
    load[g.ring.node_ids] = ring_mass_apply(g.ring, g.values)
    return load


class FourierSolver:
    """Per-mode response of one mesh's Dirichlet-reduced stiffness.

    Data enter that system at two levels only, so per angular mode a
    solution is ``dirichlet_response`` times the Dirichlet data plus
    ``neumann_response`` times the outer load. Both are found once, by
    substitution through each mode's tridiagonal system, and indexed by
    free level (row f is level f + 1) and mode ``0..n_angular//2``. Raises
    ``ValueError`` unless the stiffness couples adjacent levels only and
    commutes with rotation by one angular step.
    """

    def __init__(self, mesh: AnnulusMesh, stiffness: sparse.csr_matrix | None = None):
        matrix = assemble_stiffness(mesh) if stiffness is None else stiffness
        n_radial, n_angular = mesh.spec.n_radial, mesh.spec.n_angular
        # node j + 1 of each level, for every node j
        rotated = np.roll(np.arange(mesh.n_nodes).reshape(-1, n_angular), -1, axis=1).ravel()
        rows = matrix[::n_angular].tocoo()
        col_level, col_pos = np.divmod(rows.col, n_angular)
        step = col_level - rows.row
        if (
            matrix.shape != (mesh.n_nodes,) * 2
            or np.abs(step).max() > 1
            or abs(matrix[rotated][:, rotated] - matrix).max()
            > ROTATION_RTOL * abs(matrix).max()
        ):
            raise ValueError("stiffness is not block tridiagonal with rotation-invariant blocks")
        stencils = np.zeros((3, n_radial + 1, n_angular))  # below, diagonal, above
        stencils[step + 1, rows.row, col_pos] = rows.data

        # a circulant with stencil s maps x to sum_t s[t] x[j + t], which
        # multiplies angular mode k by conj(fft(s))[k]
        lower, pivots, upper = np.conj(np.fft.rfft(stencils[:, 1:], axis=2))
        response = np.zeros((n_radial, 2, pivots.shape[1]), dtype=complex)
        response[0, 0] = -lower[0]
        response[-1, 1] = 1.0
        for f in range(1, n_radial):
            multiplier = lower[f] / pivots[f - 1]
            pivots[f] -= multiplier * upper[f - 1]
            response[f] -= multiplier * response[f - 1]
        response[-1] /= pivots[-1]
        for f in range(n_radial - 2, -1, -1):
            response[f] = (response[f] - upper[f] * response[f + 1]) / pivots[f]
        self.dirichlet_response, self.neumann_response = response[:, 0], response[:, 1]
        self.mesh = mesh


def solve_mixed_bvp(
    mesh: AnnulusMesh,
    neumann_outer: BoundaryFunction,
    dirichlet_inner: BoundaryFunction,
    solver: FourierSolver | None = None,
) -> Array:
    """Nodal solution of the Laplace problem with outer Neumann data and
    inner Dirichlet data, exact up to rounding.

    Pass ``FourierSolver(mesh)`` as ``solver`` to reuse its responses across
    solves on the same mesh. Raises ``SolverError`` on a non-finite field.
    """
    if not rings_compatible(neumann_outer.ring, mesh.outer_ring):
        raise ValueError("Neumann data must live on the mesh's outer ring")
    if not rings_compatible(dirichlet_inner.ring, mesh.inner_ring):
        raise ValueError("Dirichlet data must live on the mesh's inner ring")
    if solver is None:
        solver = FourierSolver(mesh)
    elif solver.mesh is not mesh:
        raise ValueError("the solver was prepared for another mesh")
    load = ring_mass_apply(mesh.outer_ring, neumann_outer.values)
    modes = solver.dirichlet_response * np.fft.rfft(dirichlet_inner.values)
    modes += solver.neumann_response * np.fft.rfft(load)

    n_angular = mesh.spec.n_angular
    field = np.empty((mesh.spec.n_radial + 1, n_angular))
    field[1:] = np.fft.irfft(modes, n=n_angular, axis=1)
    field[0] = dirichlet_inner.values  # irfft would not return them bit for bit
    if not np.isfinite(field).all():
        raise SolverError("the mixed solve produced a non-finite field")
    return field.reshape(-1)


def trace(field: Array, ring: BoundaryRing) -> BoundaryFunction:
    """Restriction of a nodal field to a mesh boundary ring."""
    if ring.node_ids is None:
        raise ValueError("trace requires a ring attached to a mesh")
    return BoundaryFunction(ring, np.asarray(field, dtype=float)[ring.node_ids].copy())


def normal_flux(
    field: Array,
    mesh: AnnulusMesh,
    inner_rows: sparse.csr_matrix | None = None,
) -> BoundaryFunction:
    """Outward normal derivative of a solution on the inner ring.

    Valid for fields produced by ``solve_mixed_bvp``: their load vanishes
    at inner-ring nodes, so the stiffness residual there is the ring mass
    applied to the flux. The residual divided by the lumped ring weights
    is the nodal flux, with the normal pointing out of the annulus
    (toward the origin). ``inner_rows`` are the stiffness rows of the
    inner-ring nodes; pass them to reuse one slice across calls.
    """
    ring = mesh.inner_ring
    if inner_rows is None:
        inner_rows = assemble_stiffness(mesh)[ring.node_ids]
    residual = inner_rows @ np.asarray(field, dtype=float)
    return BoundaryFunction(ring, residual / ring_lumped_weights(ring))

"""Piecewise-linear finite elements for the annulus Laplace problems.

On a triangle with vertices p1, p2, p3 and area A the P1 stiffness is
(b b^T + c c^T) / (4 A) with b = (y2-y3, y3-y1, y1-y2) and
c = (x3-x2, x1-x3, x2-x1). The mesh is invariant under rotation by one
angular step, so the stiffness is block tridiagonal in radius with
circulant blocks, and each radius level's row is one three-by-three
stencil over (radial offset, angular offset). ``assemble_stiffness``
returns these stencils, one per level, summed from the local blocks of
each node's six triangles; no global matrix is formed. The mixed boundary
value problem carries Neumann data on the outer circle and Dirichlet data
on the inner one. An FFT in angle splits the Dirichlet-reduced system into
one tridiagonal system over the free radius levels per angular mode,
which ``FourierSolver`` solves once per mesh: the Fourier fast Poisson
solver (Hockney 1965, Swarztrauber 1977).

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

from .boundary import (
    BoundaryFunction,
    BoundaryRing,
    ring_mass_apply,
    rings_compatible,
)
from .mesh import AnnulusMesh, structured_triangles

Array = np.ndarray

__all__ = [
    "FourierSolver",
    "SolverError",
    "assemble_stiffness",
    "flux_rows",
    "local_stiffness",
    "neumann_load",
    "solve_mixed_bvp",
    "trace",
    "normal_flux",
]

# Deviation from rotation invariance, relative to the largest stiffness
# entry, that counts as rounding; generated meshes deviate by about 5e-14.
ROTATION_RTOL = 1e-10

# (radial, angular) offset from quad (i, j) of each corner of its lower and
# upper triangle, in the vertex order of ``structured_triangles``
_CORNERS = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


class SolverError(RuntimeError):
    """A mixed solve produced a non-finite field, as non-finite data do."""


def local_stiffness(mesh: AnnulusMesh) -> Array:
    """P1 stiffness block of each triangle, shape ``(n_triangles, 3, 3)``,
    in the vertex order of ``mesh.triangles``."""
    tris = mesh.triangles.T
    x = mesh.nodes[:, 0][tris]
    y = mesh.nodes[:, 1][tris]
    b = [y[(p + 1) % 3] - y[(p + 2) % 3] for p in range(3)]
    c = [x[(p + 2) % 3] - x[(p + 1) % 3] for p in range(3)]
    area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]
    if np.any(area2 <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")

    # stored vertex pair first and filled pair by pair, so that no
    # temporary of the whole array's size is formed
    four_area = 2.0 * area2
    local = np.empty((3, 3, tris.shape[1]))
    for i in range(3):
        for j in range(i, 3):
            local[i, j] = local[j, i] = (b[i] * b[j] + c[i] * c[j]) / four_area
    return local.transpose(2, 0, 1)


def assemble_stiffness(mesh: AnnulusMesh) -> Array:
    """Per-level stencils of the P1 stiffness of the Laplace operator.

    Entry ``[i, s + 1, t + 1]`` couples a node of radius level i to the node
    s levels further out and t angular steps on. Each node's row is summed
    from the local blocks of its six triangles. Raises ``ValueError`` unless
    the mesh has the structured connectivity and every node's row equals
    the others of its level to ``ROTATION_RTOL`` of the largest entry.
    """
    n_radial, n_angular = mesh.spec.n_radial, mesh.spec.n_angular
    if not np.array_equal(mesh.triangles, structured_triangles(n_radial, n_angular)):
        raise ValueError("mesh triangles are not the structured connectivity")
    # vertex pair, lower or upper, quad level, quad position
    blocks = local_stiffness(mesh).transpose(1, 2, 0).reshape(3, 3, 2, n_radial, n_angular)
    # radial offset, angular offset, node level, node position
    rows = np.zeros((3, 3, n_radial + 1, n_angular))
    for t, corners in enumerate(_CORNERS):
        for p, (pi, pj) in enumerate(corners):
            for q, (qi, qj) in enumerate(corners):
                # corner p of quad (i, j) is node (i + pi, j + pj)
                rows[qi - pi + 1, qj - pj + 1, pi : pi + n_radial] += np.roll(
                    blocks[p, q, t], pj, axis=1
                )
    if np.ptp(rows, axis=3).max() > ROTATION_RTOL * max(rows.max(), -rows.min()):
        raise ValueError("stiffness rows are not invariant under rotation by one angular step")
    return rows[..., 0].transpose(2, 0, 1).copy()


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
    free level (row f is level f + 1) and mode ``0..n_angular//2``.
    ``stencils`` are those of ``assemble_stiffness(mesh)``, which is called
    when none are given.
    """

    def __init__(self, mesh: AnnulusMesh, stencils: Array | None = None):
        n_radial, n_angular = mesh.spec.n_radial, mesh.spec.n_angular
        if stencils is None:
            stencils = assemble_stiffness(mesh)
        elif stencils.shape != (n_radial + 1, 3, 3):
            raise ValueError("expected one 3x3 stencil per radius level")

        # a circulant with stencil s maps x to sum_t s[t] x[j + t], which
        # multiplies angular mode k by sum_t s[t] exp(2 pi i k t / n_angular)
        phase = np.exp(2j * np.pi * np.arange(n_angular // 2 + 1) / n_angular)
        free = stencils[1:, :, :, None]
        symbols = free[:, :, 0] * np.conj(phase) + free[:, :, 1] + free[:, :, 2] * phase
        lower, pivots, upper = np.moveaxis(symbols, 1, 0)  # below, diagonal, above
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


def flux_rows(mesh: AnnulusMesh, stencils: Array | None = None) -> tuple[Array, Array]:
    """Inner-ring rows of the stiffness, divided by the lumped ring weights.

    Returns node ids and weights, both of shape ``(n_angular, 6)``: for
    inner node j, the nodes of levels 0 and 1 at angular positions j - 1,
    j and j + 1, and level 0's stencil entries for them divided by node j's
    lumped weight. ``stencils`` default to ``assemble_stiffness(mesh)``.
    """
    if stencils is None:
        stencils = assemble_stiffness(mesh)
    n_angular = mesh.spec.n_angular
    positions = (np.arange(n_angular)[:, None] + np.arange(-1, 2)) % n_angular
    ids = np.hstack((positions, positions + n_angular))
    weights = stencils[0, 1:].ravel() / mesh.inner_ring.lumped_weights[:, None]
    return ids, weights


def normal_flux(
    field: Array,
    mesh: AnnulusMesh,
    inner_rows: tuple[Array, Array] | None = None,
) -> BoundaryFunction:
    """Outward normal derivative of a solution on the inner ring.

    Valid for fields produced by ``solve_mixed_bvp``: their load vanishes
    at inner-ring nodes, so the stiffness residual there is the ring mass
    applied to the flux. The residual divided by the lumped ring weights
    is the nodal flux, with the normal pointing out of the annulus
    (toward the origin). ``inner_rows`` are ``flux_rows(mesh)``; pass them
    to reuse one preparation across calls.
    """
    ids, weights = flux_rows(mesh) if inner_rows is None else inner_rows
    values = np.asarray(field, dtype=float)[ids]
    return BoundaryFunction(mesh.inner_ring, np.einsum("ij,ij->i", values, weights))

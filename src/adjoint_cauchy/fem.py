"""Piecewise-linear finite elements for the annulus Laplace problems.

On a triangle with vertices p1, p2, p3 and area A the P1 stiffness is
(b b^T + c c^T) / (4 A) with b = (y2-y3, y3-y1, y1-y2) and
c = (x3-x2, x1-x3, x2-x1). The mesh is invariant under rotation by one
angular step by construction, so the stiffness is block tridiagonal in
radius with circulant blocks, and each radius level's row is one
three-by-three stencil over (radial offset, angular offset).
``assemble_stiffness`` returns these stencils, one per level, summed from
the two triangles of one quad of the level, of which every other quad is a
rotation; no global matrix is formed. The mixed boundary value problem
carries Neumann data on the outer circle and Dirichlet data on the inner
one. An FFT in angle splits the Dirichlet-reduced system into one
tridiagonal system over the free radius levels per angular mode, which
``FemBackend`` solves once per mesh, at construction: the Fourier fast
Poisson solver (Hockney 1965, Swarztrauber 1977). ``FemBackend`` is the
finite element backend of the descent loop and this module's one
preparation; ``solve_mixed_bvp`` and ``normal_flux`` take it and serve as
the reference its solves are tested against.

A solved field is its ``(n_radial + 1, n_angular)`` array of nodal values
by level and angular position: row 0 is the inner ring, row -1 the outer.

The outward normal flux on the inner circle is recovered variationally:
for a discrete solution whose load vanishes at inner-ring nodes, the
stiffness residual restricted to those nodes equals the ring mass applied
to the flux, so dividing by the lumped ring weight, which on the regular
ring polygon is its one chord length, gives nodal flux values; those rows
are the other half of ``FemBackend``'s preparation. With the ring mass
``ring_mass_apply`` in the Neumann load and the misfit functional, the
gradient is that of the discrete functional in the chord-weighted inner
quadrature (``FemBackend.inner_weight``), exact up to rounding.

``SolverError`` is raised by ``solve_mixed_bvp`` on a field that is not
finite, as non-finite data give. A run never reaches it: ``CauchyData``
and ``run`` require a finite square norm of the data, of a given start
and of every iterate, which keeps every sum a solve forms finite. So it
comes only from a direct ``solve_mixed_bvp`` call on non-finite data.
"""

from __future__ import annotations

import numpy as np

from .boundary import BoundaryFunction, BoundaryRing, _require_ring
from .mesh import QUAD_CORNERS, AnnulusMesh

Array = np.ndarray

__all__ = [
    "FemBackend",
    "SolverError",
    "assemble_stiffness",
    "local_stiffness",
    "solve_mixed_bvp",
    "normal_flux",
    "ring_mass_apply",
]


class SolverError(RuntimeError):
    """A mixed solve produced a non-finite field, as non-finite data do."""


def local_stiffness(x: Array, y: Array) -> Array:
    """P1 stiffness block of each triangle, shape ``(n, 3, 3)``, from its
    vertex coordinates ``x`` and ``y`` of shape ``(3, n)``, vertex first.

    Raises ``ValueError`` on a degenerate or clockwise triangle.
    """
    b = [y[(p + 1) % 3] - y[(p + 2) % 3] for p in range(3)]
    c = [x[(p + 2) % 3] - x[(p + 1) % 3] for p in range(3)]
    area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]
    if np.any(area2 <= 0.0):
        raise ValueError("mesh contains a degenerate or inverted triangle")
    four_area = 2.0 * area2
    local = np.empty((3, 3, x.shape[1]))
    for i in range(3):
        for j in range(i, 3):
            local[i, j] = local[j, i] = (b[i] * b[j] + c[i] * c[j]) / four_area
    return local.transpose(2, 0, 1)


def ring_mass_apply(ring: BoundaryRing, values: Array) -> Array:
    """The ring's P1 mass applied to nodal values, the weak-form load of a
    line density: every edge adds chord/6 * [[2, 1], [1, 2]]."""
    v = np.asarray(values, dtype=float)
    return ring.chord / 6.0 * (4.0 * v + np.roll(v, 1) + np.roll(v, -1))


def assemble_stiffness(mesh: AnnulusMesh) -> Array:
    """Per-level stencils of the P1 stiffness of the Laplace operator.

    Entry ``[i, s + 1, t + 1]`` couples a node of radius level i to the node
    s levels further out and t angular steps on. The stencils are summed
    from the two triangles of quad (i, 0) at each level i: every quad of a
    level is a rotation of that one, and P1 stiffness is invariant under
    rotation. No node or triangle array is formed.
    """
    n_radial = mesh.spec.n_radial
    # corners of quad (i, 0) by vertex, lower or upper, and level i
    radial, angular = np.array(QUAD_CORNERS).T[..., None]
    x, y = mesh.coordinates(radial + np.arange(n_radial), angular)
    blocks = local_stiffness(x.reshape(3, -1), y.reshape(3, -1)).reshape(2, n_radial, 3, 3)
    stencils = np.zeros((n_radial + 1, 3, 3))
    for t, corners in enumerate(QUAD_CORNERS):
        for p, (pi, pj) in enumerate(corners):
            for q, (qi, qj) in enumerate(corners):
                # corner p of quad (i, j) is node (i + pi, j + pj)
                stencils[pi : pi + n_radial, qi - pi + 1, qj - pj + 1] += blocks[t, :, p, q]
    return stencils


class FemBackend:
    """Finite element solves on a fixed annulus mesh, prepared once per mesh.

    Construction assembles the stencils once and keeps the per-mode
    responses of the Dirichlet-reduced stiffness and the inner-ring flux
    rows; nothing is written after that, so instances are safe to share
    between concurrent runs.

    Data enter that system at two levels only, so per angular mode a
    solution is ``dirichlet_response`` times the Dirichlet data plus
    ``neumann_response`` times the outer load. Both are found once, by
    substitution through each mode's tridiagonal system, and indexed by
    free level (row f is level f + 1) and mode ``0..n_angular//2``.

    The flux rows are the inner-ring rows of the stiffness divided by the
    ring's chord: ``flux_ids`` of shape ``(n_angular, 6)`` hold, for inner
    node j, the positions in a field's flattened rows 0 and 1 of the nodes
    there at angular positions j - 1, j and j + 1, and
    ``flux_weights`` the six weights every inner node shares,
    level 0's stencil entries for those nodes divided by the chord, each
    node's lumped ring weight and so the backend's ``inner_weight``.
    """

    def __init__(self, mesh: AnnulusMesh):
        n_radial, n_angular = mesh.spec.n_radial, mesh.spec.n_angular
        stencils = assemble_stiffness(mesh)

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

        positions = (np.arange(n_angular)[:, None] + np.arange(-1, 2)) % n_angular
        self.flux_ids = np.hstack((positions, positions + n_angular))
        self.flux_weights = stencils[0, 1:].ravel() / mesh.inner_ring.chord
        self.inner_ring = mesh.inner_ring
        self.outer_ring = mesh.outer_ring
        self.inner_weight = mesh.inner_ring.chord

    def solve_primary(
        self, omega: BoundaryFunction, q_bar: BoundaryFunction
    ) -> BoundaryFunction:
        outer_row = solve_mixed_bvp(self, q_bar, omega)[-1]
        return BoundaryFunction(self.outer_ring, outer_row.copy())  # keeps no field alive

    def solve_adjoint(self, neumann: BoundaryFunction) -> BoundaryFunction:
        """Descent gradient: minus the inner-ring flux of the adjoint field."""
        field_ = solve_mixed_bvp(self, neumann, BoundaryFunction.zeros(self.inner_ring))
        return BoundaryFunction(self.inner_ring, -normal_flux(field_, self).values)

    def functional(self, v_trace: BoundaryFunction, u_bar: BoundaryFunction) -> float:
        """Piecewise-linear boundary quadrature of |v - u_bar|^2.

        Uses the same ring mass as the Neumann load, so the adjoint
        gradient differentiates exactly this discrete value. An overflow
        gives a non-finite value, on which ``run`` raises.
        """
        _require_ring(v_trace, self.outer_ring)
        _require_ring(u_bar, self.outer_ring)
        misfit = v_trace.values - u_bar.values
        return float(misfit @ ring_mass_apply(self.outer_ring, misfit))


def solve_mixed_bvp(
    backend: FemBackend,
    neumann_outer: BoundaryFunction,
    dirichlet_inner: BoundaryFunction,
) -> Array:
    """Nodal solution on ``backend``'s mesh of the Laplace problem with
    outer Neumann data and inner Dirichlet data, exact up to rounding.

    Raises ``SolverError`` on a non-finite field.
    """
    _require_ring(neumann_outer, backend.outer_ring)
    _require_ring(dirichlet_inner, backend.inner_ring)
    load = ring_mass_apply(backend.outer_ring, neumann_outer.values)
    modes = backend.dirichlet_response * np.fft.rfft(dirichlet_inner.values)
    modes += backend.neumann_response * np.fft.rfft(load)

    n_angular = backend.inner_ring.size
    field = np.empty((len(modes) + 1, n_angular))  # the inner ring and one row per free level
    field[1:] = np.fft.irfft(modes, n=n_angular, axis=1)
    field[0] = dirichlet_inner.values  # irfft would not return them bit for bit
    if not np.isfinite(field).all():
        raise SolverError("the mixed solve produced a non-finite field")
    return field


def normal_flux(field: Array, backend: FemBackend) -> BoundaryFunction:
    """Outward normal derivative on the inner ring of a solution on
    ``backend``'s mesh.

    Valid for fields produced by ``solve_mixed_bvp``: their load vanishes
    at inner-ring nodes, so the stiffness residual there is the ring mass
    applied to the flux. The residual divided by the lumped ring weight
    is the nodal flux, with the normal pointing out of the annulus
    (toward the origin).
    """
    values = field[:2].reshape(-1)[backend.flux_ids] @ backend.flux_weights
    return BoundaryFunction(backend.inner_ring, values)

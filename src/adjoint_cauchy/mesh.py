"""Structured triangulation of an annulus, fixed by its spec.

Nodes sit on concentric circles: ``n_radial + 1`` uniformly spaced radius
levels, each carrying ``n_angular`` equispaced nodes. Every quad cell of
the polar grid is split along the same diagonal into two triangles, so the
mesh is invariant under rotation by one angular step by construction and
angular Fourier modes of the data stay uncoupled in the discrete problems.
A mesh stores its ``AnnulusSpec`` and the two boundary rings derived from
it; node coordinates and triangles are computed when they are read.

Node ``i * n_angular + j`` is the j-th node of radius level i, counted
from the inner circle. Only ``nodes``, ``triangles`` and the CLI's CSV dump
use this numbering; a solved field is indexed by (level, position).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryRing, check_annulus, is_count

Array = np.ndarray

__all__ = [
    "AnnulusSpec",
    "AnnulusMesh",
    "generate_mesh",
    "triangle_areas",
    "QUAD_CORNERS",
]

# (radial, angular) offset from quad (i, j) of each corner of its lower and
# upper triangle: both use the quad's (i, j)-(i+1, j+1) diagonal and list
# their corners counterclockwise
QUAD_CORNERS = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


@dataclass(frozen=True)
class AnnulusSpec:
    """Geometry and resolution of the structured annulus grid."""

    r_inner: float
    r_outer: float
    n_radial: int
    n_angular: int

    def __post_init__(self):
        check_annulus(self.r_inner, self.r_outer)
        if not is_count(self.n_radial) or self.n_radial < 1:
            raise ValueError(f"n_radial must be a whole number >= 1, got {self.n_radial!r}")
        if not is_count(self.n_angular) or self.n_angular < 3:
            raise ValueError(f"n_angular must be a whole number >= 3, got {self.n_angular!r}")


@dataclass(frozen=True, eq=False)
class AnnulusMesh:
    """The structured polar triangulation of ``spec``.

    ``inner_ring`` and ``outer_ring`` are derived at construction;
    ``nodes`` and ``triangles`` are computed on each access.
    """

    spec: AnnulusSpec
    inner_ring: BoundaryRing = field(init=False, repr=False)
    outer_ring: BoundaryRing = field(init=False, repr=False)

    def __post_init__(self):
        spec = self.spec
        object.__setattr__(self, "inner_ring", BoundaryRing("inner", spec.r_inner, spec.n_angular))
        object.__setattr__(self, "outer_ring", BoundaryRing("outer", spec.r_outer, spec.n_angular))

    @property
    def n_nodes(self) -> int:
        return (self.spec.n_radial + 1) * self.spec.n_angular

    @property
    def n_triangles(self) -> int:
        return 2 * self.spec.n_radial * self.spec.n_angular

    def coordinates(self, level: Array, position: Array) -> tuple[Array, Array]:
        """x and y of the nodes at radius levels ``level`` and angular
        positions ``position``, broadcast against each other."""
        spec = self.spec
        r = np.linspace(spec.r_inner, spec.r_outer, spec.n_radial + 1)[level]
        theta = 2.0 * np.pi * position / spec.n_angular
        return r * np.cos(theta), r * np.sin(theta)

    @property
    def nodes(self) -> Array:
        """Node coordinates, shape ``(n_nodes, 2)``."""
        level, position = np.divmod(np.arange(self.n_nodes), self.spec.n_angular)
        return np.column_stack(self.coordinates(level, position))

    @property
    def triangles(self) -> Array:
        """Node ids of each triangle, shape ``(n_triangles, 3)``: the lower
        triangles of every quad, then the upper ones, quads in node order,
        corners in the order of ``QUAD_CORNERS``."""
        nr, na = self.spec.n_radial, self.spec.n_angular
        level, position = np.divmod(np.arange(nr * na)[:, None], na)
        radial, angular = np.moveaxis(np.array(QUAD_CORNERS), -1, 0)[:, :, None]
        return ((level + radial) * na + (position + angular) % na).reshape(-1, 3)


def generate_mesh(spec: AnnulusSpec) -> AnnulusMesh:
    """The structured polar triangulation for ``spec``, with
    ``(n_radial + 1) * n_angular`` nodes and ``2 * n_radial * n_angular``
    positively oriented triangles."""
    return AnnulusMesh(spec)


def triangle_areas(mesh: AnnulusMesh) -> Array:
    """Signed area of each triangle (positive for a valid mesh)."""
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

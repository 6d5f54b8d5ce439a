"""Structured triangulation of an annulus.

Nodes sit on concentric circles: ``n_radial + 1`` uniformly spaced radius
levels, each carrying ``n_angular`` equispaced nodes. Every quad cell of
the polar grid is split along the same diagonal into two triangles, so the
mesh is invariant under rotation by one angular step and angular Fourier
modes of the data stay uncoupled in the discrete problems.

Node ``i * n_angular + j`` is the j-th node of radius level i, counted
from the inner circle, which makes both boundary rings contiguous index
ranges in angle order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import BoundaryRing

Array = np.ndarray

__all__ = [
    "AnnulusSpec",
    "AnnulusMesh",
    "generate_mesh",
    "structured_triangles",
    "triangle_areas",
    "dump_mesh_csv",
]


@dataclass(frozen=True)
class AnnulusSpec:
    """Geometry and resolution of the structured annulus grid."""

    r_inner: float
    r_outer: float
    n_radial: int
    n_angular: int

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer):
            raise ValueError("radii must satisfy 0 < r_inner < r_outer")
        if self.n_radial < 1:
            raise ValueError("n_radial must be at least 1")
        if self.n_angular < 3:
            raise ValueError("n_angular must be at least 3")


@dataclass(frozen=True, eq=False)
class AnnulusMesh:
    spec: AnnulusSpec
    nodes: Array
    triangles: Array
    inner_ring: BoundaryRing
    outer_ring: BoundaryRing

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def generate_mesh(spec: AnnulusSpec) -> AnnulusMesh:
    """Build the structured polar triangulation for ``spec``.

    Returns a mesh with ``(n_radial + 1) * n_angular`` nodes and
    ``2 * n_radial * n_angular`` positively oriented triangles.
    """
    nr, na = spec.n_radial, spec.n_angular
    radii = np.linspace(spec.r_inner, spec.r_outer, nr + 1)
    inner_ring = BoundaryRing("inner", spec.r_inner, na, np.arange(na))
    outer_ring = BoundaryRing("outer", spec.r_outer, na, nr * na + np.arange(na))

    r_grid = np.repeat(radii, na)
    t_grid = np.tile(inner_ring.angles, nr + 1)
    nodes = np.column_stack((r_grid * np.cos(t_grid), r_grid * np.sin(t_grid)))
    triangles = structured_triangles(nr, na)
    return AnnulusMesh(spec, nodes, triangles, inner_ring, outer_ring)


def structured_triangles(n_radial: int, n_angular: int) -> Array:
    """Connectivity of the structured grid: the lower triangles of every
    quad, then the upper ones, quads in node order.

    Quad (i, j) has corners a=(i,j), b=(i,j+1), c=(i+1,j), d=(i+1,j+1);
    both triangles use the a-d diagonal and are counterclockwise: lower
    (a, c, d) and upper (a, d, b).
    """
    a = np.arange(n_radial * n_angular, dtype=np.int64).reshape(n_radial, n_angular)
    b = np.roll(a, -1, axis=1)
    c = a + n_angular
    d = b + n_angular
    lower = np.stack((a, c, d), axis=-1)
    upper = np.stack((a, d, b), axis=-1)
    return np.stack((lower, upper)).reshape(-1, 3)


def triangle_areas(mesh: AnnulusMesh) -> Array:
    """Signed area of each triangle (positive for a valid mesh)."""
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def dump_mesh_csv(mesh: AnnulusMesh, directory: str | Path) -> tuple[Path, Path]:
    """Write ``nodes.csv`` (id, x, y, ring) and ``tris.csv`` (id, n0, n1, n2)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tags = np.full(mesh.n_nodes, "", dtype=object)
    tags[mesh.inner_ring.node_ids] = "inner"
    tags[mesh.outer_ring.node_ids] = "outer"

    nodes_path = directory / "nodes.csv"
    with nodes_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "y", "ring"])
        for idx, (x, y) in enumerate(mesh.nodes):
            writer.writerow([idx, format(x, ".17g"), format(y, ".17g"), tags[idx]])

    tris_path = directory / "tris.csv"
    with tris_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "n0", "n1", "n2"])
        for idx, tri in enumerate(mesh.triangles):
            writer.writerow([idx, tri[0], tri[1], tri[2]])

    return nodes_path, tris_path

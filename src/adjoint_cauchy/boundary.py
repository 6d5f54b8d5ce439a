"""Boundary rings and nodal functions living on them.

The annulus has two boundary circles. Discretely each one is a closed
polygon of nodes at strictly increasing angles, and a function on a ring
is stored by nodal value in that order. Ring quadrature uses the chord
lengths of the polygon rather than arc lengths, so boundary integrals are
consistent with the piecewise-linear finite element space whose nodes sit
on the same polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

__all__ = [
    "BoundaryRing",
    "BoundaryFunction",
    "make_ring",
    "rings_compatible",
    "ring_mass_apply",
    "boundary_inner_product",
    "boundary_norm",
]


@dataclass(frozen=True, eq=False)
class BoundaryRing:
    """Closed ring of boundary nodes in increasing angle order.

    ``node_ids`` holds the global mesh indices of the ring nodes when the
    ring belongs to a mesh; rings used by the spectral backend carry None.
    ``chord_lengths[i]`` is the length of the polygon edge from node i to
    node i+1 (cyclic) and ``lumped_weights[i]`` half the total length of
    the two edges at node i; both are computed once, at construction.
    """

    side: str
    radius: float
    angles: Array
    node_ids: Array | None = None
    chord_lengths: Array = field(init=False, repr=False)
    lumped_weights: Array = field(init=False, repr=False)

    def __post_init__(self):
        if self.side not in ("inner", "outer"):
            raise ValueError(f"ring side must be 'inner' or 'outer', got {self.side!r}")
        if not self.radius > 0.0:
            raise ValueError("ring radius must be positive")
        angles = np.asarray(self.angles, dtype=float)
        if angles.ndim != 1 or angles.size < 3:
            raise ValueError("a ring needs at least 3 nodes")
        if angles[0] < 0.0 or angles[-1] >= 2.0 * np.pi or np.any(np.diff(angles) <= 0.0):
            raise ValueError("ring angles must be strictly increasing within [0, 2*pi)")
        object.__setattr__(self, "angles", angles)
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * np.pi))
        chords = 2.0 * self.radius * np.sin(0.5 * gaps)
        lumped = 0.5 * (chords + np.roll(chords, 1))
        chords.flags.writeable = False
        lumped.flags.writeable = False
        object.__setattr__(self, "chord_lengths", chords)
        object.__setattr__(self, "lumped_weights", lumped)
        if self.node_ids is not None:
            ids = np.asarray(self.node_ids, dtype=int)
            if ids.shape != angles.shape:
                raise ValueError("node_ids must match the number of ring angles")
            object.__setattr__(self, "node_ids", ids)

    @property
    def size(self) -> int:
        return int(self.angles.size)


def make_ring(side: str, radius: float, n_angular: int) -> BoundaryRing:
    """Mesh-free ring of ``n_angular`` equispaced nodes starting at angle 0."""
    if n_angular < 3:
        raise ValueError("n_angular must be at least 3")
    angles = 2.0 * np.pi * np.arange(n_angular) / n_angular
    return BoundaryRing(side=side, radius=radius, angles=angles)


def rings_compatible(a: BoundaryRing, b: BoundaryRing) -> bool:
    """True when functions on the two rings may be combined nodewise."""
    return a is b or (
        a.side == b.side
        and a.size == b.size
        and a.radius == b.radius
        and np.array_equal(a.angles, b.angles)
    )


@dataclass
class BoundaryFunction:
    """Real-valued function on a ring, stored by nodal value."""

    ring: BoundaryRing
    values: Array

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.ring.size,):
            raise ValueError(f"expected {self.ring.size} nodal values, got shape {values.shape}")
        self.values = values

    @classmethod
    def zeros(cls, ring: BoundaryRing) -> BoundaryFunction:
        return cls(ring, np.zeros(ring.size))

    @classmethod
    def from_callable(cls, ring: BoundaryRing, fn) -> BoundaryFunction:
        return cls(ring, np.asarray([fn(t) for t in ring.angles], dtype=float))

    def copy(self) -> BoundaryFunction:
        return BoundaryFunction(self.ring, self.values.copy())

    def _same_ring(self, other: BoundaryFunction) -> None:
        if not rings_compatible(self.ring, other.ring):
            raise ValueError("boundary functions live on different rings")

    def __add__(self, other: BoundaryFunction) -> BoundaryFunction:
        self._same_ring(other)
        return BoundaryFunction(self.ring, self.values + other.values)

    def __sub__(self, other: BoundaryFunction) -> BoundaryFunction:
        self._same_ring(other)
        return BoundaryFunction(self.ring, self.values - other.values)

    def __mul__(self, scalar: float) -> BoundaryFunction:
        return BoundaryFunction(self.ring, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> BoundaryFunction:
        return BoundaryFunction(self.ring, -self.values)


def ring_mass_apply(ring: BoundaryRing, values: Array) -> Array:
    """Apply the ring's piecewise-linear mass matrix to nodal values.

    Edge (a, b) of length h contributes the local mass h/6 * [[2, 1], [1, 2]],
    so the result is the weak-form load of a piecewise-linear line density.
    """
    v = np.asarray(values, dtype=float)
    h = ring.chord_lengths
    nxt = np.roll(v, -1)
    to_first = h * (2.0 * v + nxt) / 6.0
    to_second = h * (v + 2.0 * nxt) / 6.0
    return to_first + np.roll(to_second, 1)


def boundary_inner_product(f: BoundaryFunction, g: BoundaryFunction) -> float:
    """Trapezoidal line integral of f*g over the ring polygon."""
    if not rings_compatible(f.ring, g.ring):
        raise ValueError("inner product requires functions on the same ring")
    return float(np.dot(f.ring.lumped_weights, f.values * g.values))


def boundary_norm(f: BoundaryFunction) -> float:
    return math.sqrt(boundary_inner_product(f, f))

"""Boundary rings and nodal functions living on them.

The annulus has two boundary circles. Discretely each one is a regular
polygon of equispaced nodes, the only rings on which the per-mode theory
and the ``rfft`` of both backends hold, and a function on a ring is
stored by nodal value in angle order. A ring is its side, radius and
size on both backends; it knows no mesh. ``_require_ring`` is the one
check both backends make that data live on their rings. Each backend
owns its boundary quadratures; a ring defines none.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

__all__ = [
    "BoundaryRing",
    "BoundaryFunction",
]


def is_count(value) -> bool:
    """True for a whole number given as an int or numpy integer, not a bool,
    that a float can hold: a mode becomes the power of a float radius."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return whole and -sys.float_info.max <= value <= sys.float_info.max


def check_annulus(r_inner: float, r_outer: float) -> None:
    """The annulus rule for every pair of radii: 0 < r_inner < r_outer < inf."""
    if not 0.0 < r_inner < r_outer < math.inf:
        raise ValueError("an annulus needs radii 0 < r_inner < r_outer < inf")


@dataclass(frozen=True)
class BoundaryRing:
    """Closed ring of ``size`` equispaced boundary nodes, node k at angle
    ``2*pi*k/size``.

    ``angles`` and ``chord``, the length of every polygon edge, are
    derived at construction; rings compare and hash by side, radius and size.
    """

    side: str
    radius: float
    size: int
    angles: Array = field(init=False, repr=False, compare=False)
    chord: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.side not in ("inner", "outer"):
            raise ValueError(f"ring side must be 'inner' or 'outer', got {self.side!r}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("ring radius must be positive and finite")
        if not is_count(self.size) or self.size < 3:
            raise ValueError(f"a ring needs a whole number of at least 3 nodes, got {self.size!r}")
        angles = 2.0 * np.pi * np.arange(self.size) / self.size
        angles.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "chord", 2.0 * self.radius * math.sin(math.pi / self.size))


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

    def copy(self) -> BoundaryFunction:
        return BoundaryFunction(self.ring, self.values.copy())

    def _same_ring(self, other: BoundaryFunction) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
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


def _require_ring(f: BoundaryFunction, ring: BoundaryRing) -> None:
    """The ring check of both backends: ``f`` must live on ``ring``. It runs
    on every solve, so identity, far cheaper than ``!=``, is tried first."""
    if f.ring is not ring and f.ring != ring:
        raise ValueError(f"data must live on the backend's {ring.side} ring")

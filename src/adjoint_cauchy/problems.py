"""Cauchy data generated from explicit harmonic fields.

A term (amplitude, mode, kind) stands for the harmonic polynomial
amplitude * r^mode * cos(mode*theta) (or sin), so the Dirichlet and
Neumann data it induces on the outer circle and the exact inner trace are
all available in closed form. Two term lists ship as named examples:

* ``example1``: r^2 cos(2 theta), a single even mode.
* ``example2``: r (2 sin theta - cos(theta)/2) + r^2 cos(2 theta)/4,
  mixing modes 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boundary import BoundaryFunction, BoundaryRing, is_count
from .iteration import CauchyData

__all__ = [
    "HarmonicTerm",
    "builtin_terms",
    "BUILTIN_NAMES",
    "cauchy_data",
    "exact_inner_trace",
]


@dataclass(frozen=True)
class HarmonicTerm:
    amplitude: float
    mode: int
    kind: str

    def __post_init__(self):
        if not is_count(self.mode) or self.mode < 0:
            raise ValueError(
                f"term mode must be a nonnegative whole number a float holds, got {self.mode!r}"
            )
        if self.kind not in ("cos", "sin"):
            raise ValueError("term kind must be 'cos' or 'sin'")
        if self.kind == "sin" and self.mode == 0:
            raise ValueError("sin(0*theta) vanishes identically")


_BUILTINS: dict[str, tuple[HarmonicTerm, ...]] = {
    "example1": (HarmonicTerm(1.0, 2, "cos"),),
    "example2": (
        HarmonicTerm(2.0, 1, "sin"),
        HarmonicTerm(-0.5, 1, "cos"),
        HarmonicTerm(0.25, 2, "cos"),
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_terms(name: str) -> tuple[HarmonicTerm, ...]:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown example {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None


def _evaluate(
    terms: Iterable[HarmonicTerm],
    radius: float,
    angles: np.ndarray,
    radial_derivative: bool = False,
) -> np.ndarray:
    out = np.zeros_like(angles)
    for term in terms:
        if radial_derivative and term.mode == 0:
            continue
        try:
            power = radius ** (term.mode - 1 if radial_derivative else term.mode)
        except OverflowError:
            raise ValueError(f"a term of mode {term.mode} overflows at radius {radius:g}") from None
        coef = term.amplitude * term.mode * power if radial_derivative else term.amplitude * power
        trig = np.cos if term.kind == "cos" else np.sin
        out += coef * trig(term.mode * angles)
    return out


def cauchy_data(terms: Sequence[HarmonicTerm], outer_ring: BoundaryRing) -> CauchyData:
    """Dirichlet trace and radial flux of the harmonic field on the outer ring."""
    u_bar = BoundaryFunction(outer_ring, _evaluate(terms, outer_ring.radius, outer_ring.angles))
    q_bar = BoundaryFunction(
        outer_ring,
        _evaluate(terms, outer_ring.radius, outer_ring.angles, radial_derivative=True),
    )
    return CauchyData(u_bar=u_bar, q_bar=q_bar)


def exact_inner_trace(terms: Sequence[HarmonicTerm], inner_ring: BoundaryRing) -> BoundaryFunction:
    """The trace the iteration should recover on the inner ring."""
    return BoundaryFunction(inner_ring, _evaluate(terms, inner_ring.radius, inner_ring.angles))


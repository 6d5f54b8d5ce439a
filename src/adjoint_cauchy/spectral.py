"""Separated-variable reference solutions on the annulus.

A harmonic field on the annulus r_inner < r < r_outer splits into angular
modes exp(i*j*theta) with radial parts alpha*r^|j| + beta*r^-|j| (for
j = 0: alpha + beta*log r). Everything the descent iteration does to the
inner-trace error is diagonal in this basis, which yields closed forms
used both as a fast solver backend and as the oracle the finite element
backend is verified against.

Conventions. A function f on a circle of radius R is written
f(theta) = sum_j a_j exp(i*j*theta) with a_{-j} = conj(a_j) for real data,
so an array of a_0..a_M (``rfft`` layout, as ``fourier`` produces) holds a
band-limited real function. The outward normal on the inner circle points
toward the origin, so the outward normal derivative there is minus the
radial one.

Two per-mode factors drive the whole method. With q = r_inner / r_outer
and m = |j|:

* ``trace_factor``    T_m = 2*q^m / (1 + q^(2m)): an inner Dirichlet error
  of amplitude a shows up on the outer circle with amplitude T_m * a.
* ``gradient_factor`` C_m = 8*(r_outer/r_inner)*q^(2m) / (1 + q^(2m))^2:
  the steepest-descent gradient of the misfit functional carries
  coefficient -C_m * a_m, so one descent step multiplies each error mode
  by (1 - rho * C_m).

C_m decreases strictly in m, and the identity
C_m = 2*(r_outer/r_inner)*T_m^2 makes the gradient the exact Riesz
representative of the functional's derivative in L2 of the inner circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import is_count

__all__ = [
    "DEFAULT_BAND_CAP",
    "HarmonicSeries",
    "trace_factor",
    "gradient_factor",
    "compression_factor",
    "solve_series",
]

# Modes above this are never tracked: at radius ratio 3 their gradient
# factors sit below 1e-60 and contribute nothing at double precision.
DEFAULT_BAND_CAP = 64


def _check_radii(r_inner: float, r_outer: float) -> None:
    if not (0.0 < r_inner < r_outer):
        raise ValueError("radii must satisfy 0 < r_inner < r_outer")


def _check_mode(mode: int) -> int:
    """|mode|: mode -j has the factors of mode j."""
    if not is_count(mode):
        raise ValueError(f"mode must be a whole number, got {mode!r}")
    return abs(int(mode))


def _require_band(mode_min: int, mode_max: int) -> None:
    if not (is_count(mode_min) and is_count(mode_max) and 0 <= mode_min <= mode_max):
        raise ValueError(
            "band must be whole numbers with 0 <= mode_min <= mode_max, "
            f"got {mode_min!r}, {mode_max!r}"
        )


def trace_factor(mode: int, r_inner: float, r_outer: float) -> float:
    """Attenuation of inner-trace mode ``mode`` seen on the outer circle."""
    _check_radii(r_inner, r_outer)
    m = _check_mode(mode)
    q = r_inner / r_outer
    qm = q**m
    return 2.0 * qm / (1.0 + qm * qm)


def gradient_factor(mode: int, r_inner: float, r_outer: float) -> float:
    """Per-mode coefficient mapping trace error to (minus) the gradient."""
    _check_radii(r_inner, r_outer)
    m = _check_mode(mode)
    q2m = (r_inner / r_outer) ** (2 * m)
    return 8.0 * (r_outer / r_inner) * q2m / (1.0 + q2m) ** 2


def compression_factor(
    mode_min: int, mode_max: int, rho: float, r_inner: float, r_outer: float
) -> float:
    """Worst-case per-step error contraction over the band [mode_min, mode_max].

    Because C is strictly decreasing in |j|, the maximum of |1 - rho*C_j|
    over the band is attained at one of the two edge modes.
    """
    _require_band(mode_min, mode_max)
    c_lo = gradient_factor(mode_min, r_inner, r_outer)
    c_hi = gradient_factor(mode_max, r_inner, r_outer)
    return max(abs(1.0 - rho * c_lo), abs(1.0 - rho * c_hi))


@dataclass(frozen=True)
class HarmonicSeries:
    """Harmonic field on the annulus as per-mode radial coefficients.

    Entry j of ``a`` and ``b`` (modes 0..M, ``rfft`` layout) stands for
    a_j*(r/r_outer)^j + b_j*(r_inner/r)^j, and entry 0 for
    a_0 + b_0*log(r/r_outer). The scaled basis keeps every evaluation on
    r_inner <= r <= r_outer free of large powers.
    """

    a: np.ndarray
    b: np.ndarray
    r_inner: float
    r_outer: float

    def _check_radius(self, radius: float) -> None:
        if not (self.r_inner <= radius <= self.r_outer):
            raise ValueError("evaluation radius lies outside the annulus")

    def _powers(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        m = np.arange(self.a.size)
        return (radius / self.r_outer) ** m, (self.r_inner / radius) ** m

    def trace(self, radius: float) -> np.ndarray:
        """Fourier coefficients of the field restricted to ``radius``."""
        self._check_radius(radius)
        grow, decay = self._powers(radius)
        out = self.a * grow + self.b * decay
        out[0] = self.a[0] + self.b[0] * math.log(radius / self.r_outer)
        return out

    def radial_derivative(self, radius: float) -> np.ndarray:
        """Fourier coefficients of d/dr of the field at ``radius``."""
        self._check_radius(radius)
        grow, decay = self._powers(radius)
        out = (np.arange(self.a.size) / radius) * (self.a * grow - self.b * decay)
        out[0] = self.b[0] / radius
        return out


def solve_series(
    neumann_outer: np.ndarray,
    dirichlet_inner: np.ndarray,
    r_inner: float,
    r_outer: float,
) -> HarmonicSeries:
    """Harmonic field with radial derivative ``neumann_outer`` on the outer
    circle and trace ``dirichlet_inner`` on the inner one.

    Both data are coefficient arrays of modes 0..M in ``rfft`` layout on
    their own circle; the result solves each mode's two-point radial
    problem in closed form.
    """
    _check_radii(r_inner, r_outer)
    g = np.asarray(neumann_outer, dtype=complex)
    w = np.asarray(dirichlet_inner, dtype=complex)
    if g.ndim != 1 or g.size == 0 or g.shape != w.shape:
        raise ValueError("Neumann and Dirichlet data must both hold modes 0..M")

    q = r_inner / r_outer
    m = np.arange(g.size)
    # mode m > 0: field = A*(r/r_outer)^m + B*(r_inner/r)^m
    #   d/dr at r_outer:  A*m/r_outer - B*(m/r_outer)*q^m = g
    #   value at r_inner: A*q^m + B = w
    qm = q**m
    a = (g * r_outer / np.maximum(m, 1) + w * qm) / (1.0 + qm * qm)
    b = w - a * qm
    # mode 0: field = A + B*log(r/r_outer); d/dr at r_outer gives B/r_outer
    b[0] = g[0] * r_outer
    a[0] = w[0] - b[0] * math.log(q)
    return HarmonicSeries(a, b, r_inner, r_outer)

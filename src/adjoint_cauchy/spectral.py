"""Separated-variable closed forms on the annulus.

A harmonic field on the annulus r_inner < r < r_outer splits into angular
modes exp(i*j*theta) with radial parts alpha*r^|j| + beta*r^-|j| (for
j = 0: alpha + beta*log r). Everything the descent iteration does to the
inner-trace error is diagonal in this basis, which yields closed forms per
mode: the factors below and the three maps of the fast solver backend
``SpectralBackend``, against which ``cli.oracle_check`` verifies the
finite element backend.

Conventions. A function f on a circle of radius R is written
f(theta) = sum_j a_j exp(i*j*theta) with a_{-j} = conj(a_j) for real data,
so an array of a_0..a_M (``rfft`` layout) holds a band-limited real
function; arrays in this layout are the package's only coefficient
format. The outward normal on the inner circle points toward the origin,
so the outward normal derivative there is minus the radial one.

On a ring of n equispaced nodes, ``band_coefficients`` takes the real
discrete Fourier transform (``rfft``) of the samples and keeps every mode
the ring resolves, ``0..(n - 1) // 2``, and ``band_samples`` goes back with
one ``irfft``; the round trip is the identity on band-limited functions.
``SpectralBackend`` holds its per-mode maps as closed forms and solves
through that pair, in the circle's quadrature: an inner node weighs the
arc ``2*pi*r_inner/n``, which gives a band-limited function its L2 norm.

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
import warnings

import numpy as np

from .boundary import BoundaryFunction, BoundaryRing, _require_ring, is_count

__all__ = [
    "SpectralBackend",
    "band_coefficients",
    "band_samples",
    "trace_factor",
    "gradient_factor",
    "compression_factor",
]

Array = np.ndarray

# Relative magnitude below which a coefficient is treated as numerical noise.
BAND_THRESHOLD = 1e-8


def _check_radii(r_inner: float, r_outer: float) -> None:
    if not (0.0 < r_inner < r_outer):
        raise ValueError("radii must satisfy 0 < r_inner < r_outer")


def _check_mode(mode: int) -> int:
    """|mode|: mode -j has the factors of mode j."""
    if not is_count(mode):
        raise ValueError(f"mode must be a whole number a float holds, got {mode!r}")
    return abs(int(mode))


def _require_band(mode_min: int, mode_max: int) -> None:
    if not (is_count(mode_min) and is_count(mode_max) and 0 <= mode_min <= mode_max):
        raise ValueError(
            "band must be whole numbers a float holds with 0 <= mode_min <= mode_max, "
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


def _require_resolvable(max_mode: int, n: int) -> None:
    resolvable = (n - 1) // 2
    if max_mode < 0:
        raise ValueError("max_mode must be nonnegative")
    if max_mode > resolvable:
        raise ValueError(
            f"band {max_mode} exceeds the {resolvable} modes resolvable with {n} samples"
        )


def band_coefficients(values: Array, *, warn_tail: bool = True) -> Array:
    """Coefficients a_0..a_M of samples at n equispaced angles 2*pi*k/n, for
    every mode the samples resolve: M = (n - 1) // 2.

    On even n the Nyquist bin, mode n/2, lies above that band; its content
    is discarded with a warning when it is significant. ``warn_tail=False``
    suppresses the warning; callers that transform data which is
    band-limited by construction (so any tail is roundoff) use it to avoid
    false alarms on all-noise signals.
    """
    n = values.size
    max_mode = (n - 1) // 2
    spectrum = np.fft.rfft(values) / n
    spectrum[0] = spectrum[0].real
    if warn_tail:
        magnitude = np.abs(spectrum)
        if magnitude[max_mode + 1 :].max(initial=0.0) > BAND_THRESHOLD * magnitude.max():
            warnings.warn(
                f"ring data has significant content above mode {max_mode}; "
                "those coefficients were discarded",
                stacklevel=3,  # the caller of whoever asked for the coefficients
            )
    return spectrum[: max_mode + 1]


def band_samples(coeffs: Array, n: int) -> Array:
    """Values at n equispaced angles of the real function with ``rfft``-layout
    coefficients ``coeffs``; the inverse of ``band_coefficients``."""
    _require_resolvable(coeffs.size - 1, n)
    return np.fft.irfft(coeffs * n, n)


class SpectralBackend:
    """Fourier-space solves on nominal rings of equispaced nodes.

    The band is modes ``0..max_mode``, every mode the rings resolve:
    ``max_mode = (n_angular - 1) // 2``. Over the band the backend holds
    three real arrays in closed form, with q = r_inner / r_outer and T_m the
    ``trace_factor``: the outer trace of unit inner Dirichlet data,
    ``dirichlet_trace`` = T_m; the outer trace of unit outer Neumann data,
    ``neumann_trace`` = (R/m)*(1 - q^(2m))/(1 + q^(2m)), and R*log(R/r) at
    m = 0; and the inner radial derivative of unit outer Neumann data,
    ``neumann_gradient`` = (R/r)*T_m. A solve is a product per mode between
    ``band_coefficients`` and ``band_samples``. Data must live on the
    backend's own rings. ``inner_weight`` is the arc per inner node.
    """

    def __init__(self, r_inner: float, r_outer: float, n_angular: int = 160):
        _check_radii(r_inner, r_outer)
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.inner_ring = BoundaryRing("inner", r_inner, n_angular)
        self.outer_ring = BoundaryRing("outer", r_outer, n_angular)
        self.inner_weight = 2.0 * math.pi * r_inner / n_angular
        self.max_mode = (n_angular - 1) // 2

        m = np.arange(self.max_mode + 1)
        qm = (r_inner / r_outer) ** m
        q2m = qm * qm
        self.dirichlet_trace = 2.0 * qm / (1.0 + q2m)
        self.neumann_trace = (r_outer / np.maximum(m, 1)) * (1.0 - q2m) / (1.0 + q2m)
        self.neumann_trace[0] = r_outer * math.log(r_outer / r_inner)
        # gradient = -d/dn on the inner circle = +d/dr there
        self.neumann_gradient = (r_outer / r_inner) * self.dirichlet_trace

    def solve_primary(
        self, omega: BoundaryFunction, q_bar: BoundaryFunction
    ) -> BoundaryFunction:
        _require_ring(omega, self.inner_ring)
        _require_ring(q_bar, self.outer_ring)
        modes = self.dirichlet_trace * band_coefficients(omega.values)
        modes += self.neumann_trace * band_coefficients(q_bar.values)
        return BoundaryFunction(self.outer_ring, band_samples(modes, self.outer_ring.size))

    def solve_adjoint(self, neumann: BoundaryFunction) -> BoundaryFunction:
        # the adjoint data 2(v - u_bar) are band-limited up to roundoff noise;
        # unresolvable user data is already diagnosed by solve_primary
        _require_ring(neumann, self.outer_ring)
        modes = self.neumann_gradient * band_coefficients(neumann.values, warn_tail=False)
        return BoundaryFunction(self.inner_ring, band_samples(modes, self.inner_ring.size))

    def functional(self, v_trace: BoundaryFunction, u_bar: BoundaryFunction) -> float:
        """Squared L2 norm over the outer circle of the misfit's band,
        2*pi*R * (|a_0|^2 + 2 * sum_{j >= 1} |a_j|^2). An overflow gives a
        non-finite value, on which ``run`` raises."""
        _require_ring(v_trace, self.outer_ring)
        _require_ring(u_bar, self.outer_ring)
        # near convergence the misfit is pure roundoff, so skip the tail warning
        misfit = band_coefficients(v_trace.values - u_bar.values, warn_tail=False)
        power = np.abs(misfit) ** 2
        return float(2.0 * math.pi * self.r_outer * (power[0] + 2.0 * power[1:].sum()))

"""Conversion between nodal ring data and Fourier coefficients.

On a ring of n equispaced nodes, ``band_coefficients`` takes the real
discrete Fourier transform (``rfft``) of the samples and keeps modes
``0..max_mode``, and ``band_samples`` goes back with one ``irfft``. Both
the spectral backend and the public ``analyze``/``synthesize`` use this
pair, which works on arrays in ``rfft`` layout: entry j is the coefficient
a_j of exp(i*j*theta), and a_{-j} = conj(a_j) is implied. ``analyze`` and
``synthesize`` wrap it for ``FourierBoundary`` dictionaries, checking that
the ring is equispaced, and ``detect_band`` finds the significant mode
range of a coefficient set. The round trip is the identity on
band-limited functions.
"""

from __future__ import annotations

import warnings

import numpy as np

from .boundary import BoundaryFunction, BoundaryRing
from .spectral import FourierBoundary

__all__ = ["analyze", "synthesize", "detect_band"]

Array = np.ndarray

# Relative magnitude below which a coefficient is treated as numerical noise.
BAND_THRESHOLD = 1e-8


def _require_equispaced(ring: BoundaryRing) -> None:
    n = ring.size
    expected = 2.0 * np.pi * np.arange(n) / n
    if not np.allclose(ring.angles, expected, rtol=0.0, atol=1e-12):
        raise ValueError("analysis requires a ring of equispaced nodes starting at angle 0")


def _require_resolvable(max_mode: int, n: int) -> None:
    resolvable = (n - 1) // 2
    if max_mode < 0:
        raise ValueError("max_mode must be nonnegative")
    if max_mode > resolvable:
        raise ValueError(
            f"band {max_mode} exceeds the {resolvable} modes resolvable with {n} samples"
        )


def band_coefficients(values: Array, max_mode: int, *, warn_tail: bool = True) -> Array:
    """Coefficients a_0..a_max_mode of samples at n equispaced angles 2*pi*k/n.

    A ring of n nodes resolves modes up to (n - 1) // 2; asking beyond that
    raises, while sample content above the returned band (including the
    even-n Nyquist bin) is discarded with a warning when it is significant.
    ``warn_tail=False`` suppresses the warning; callers that transform data
    which is band-limited by construction (so any tail is roundoff) use it
    to avoid false alarms on all-noise signals.
    """
    n = values.size
    _require_resolvable(max_mode, n)
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


def analyze(
    f: BoundaryFunction, max_mode: int | None = None, *, warn_tail: bool = True
) -> FourierBoundary:
    """Fourier coefficients of ring samples, up to ``max_mode``.

    ``max_mode`` defaults to the highest mode the ring resolves; the band
    check and the tail warning are those of ``band_coefficients``.
    """
    _require_equispaced(f.ring)
    if max_mode is None:
        max_mode = (f.ring.size - 1) // 2
    spectrum = band_coefficients(f.values, max_mode, warn_tail=warn_tail)
    coeffs: dict[int, complex] = {0: complex(spectrum[0])}
    for j in range(1, max_mode + 1):
        a = complex(spectrum[j])
        coeffs[j] = a
        coeffs[-j] = a.conjugate()
    return FourierBoundary(coeffs, f.ring.radius)


def synthesize(c: FourierBoundary, ring: BoundaryRing) -> BoundaryFunction:
    """Nodal samples of a coefficient set on ``ring``.

    The ring must be equispaced, the coefficients conjugate-symmetric (real
    data) and their band resolvable on the ring.
    """
    if c.radius != ring.radius:
        raise ValueError("coefficients and ring have different radii")
    _require_equispaced(ring)
    _require_resolvable(c.max_mode, ring.size)
    if not c.is_real():
        raise ValueError("coefficients are not conjugate-symmetric; data would be complex")

    # average a_j with conj(a_{-j}) so that a pair equal only to tolerance
    # gives the real part of the two-sided sum
    coeffs = np.array(
        [0.5 * (c.get(j) + c.get(-j).conjugate()) for j in range(c.max_mode + 1)]
    )
    return BoundaryFunction(ring, band_samples(coeffs, ring.size))


def detect_band(c: FourierBoundary, rel_threshold: float = BAND_THRESHOLD) -> tuple[int, int] | None:
    """Smallest and largest significant |mode| of a coefficient set.

    Significance is relative to the largest coefficient magnitude. Returns
    None when every coefficient vanishes, signalling that no band exists;
    callers typically fall back to mode 0 and a large cap.
    """
    if not c.coeffs:
        return None
    scale = max(abs(a) for a in c.coeffs.values())
    if scale == 0.0:
        return None
    significant = {abs(j) for j, a in c.coeffs.items() if abs(a) > rel_threshold * scale}
    return min(significant), max(significant)

"""Conversion between nodal ring data and Fourier coefficients.

On a ring of n equispaced nodes, ``band_coefficients`` takes the real
discrete Fourier transform (``rfft``) of the samples and keeps modes
``0..max_mode``, and ``band_samples`` goes back with one ``irfft``. Both
work on arrays in ``rfft`` layout: entry j is the coefficient a_j of
exp(i*j*theta), and a_{-j} = conj(a_j) is implied. The round trip is the
identity on band-limited functions. Arrays in this layout are the
package's only coefficient format.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["band_coefficients", "band_samples"]

Array = np.ndarray

# Relative magnitude below which a coefficient is treated as numerical noise.
BAND_THRESHOLD = 1e-8


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


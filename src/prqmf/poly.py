"""Arithmetic on causal z-polynomials.

A polynomial is a 1-D float array whose index k holds the coefficient of
z^(-k). All filters in this package (analysis, synthesis, products,
transfer functions) live in this representation. Public functions validate
their input through `as_poly`.
"""

from __future__ import annotations

import numpy as np

from .prototype import GRID_SIZE_MAX, _check_integer

# Symmetry round-off budget, relative to the max-magnitude coefficient.
SYMMETRY_RTOL = 1e-12


def as_poly(coeffs) -> np.ndarray:
    """Validate and coerce a coefficient sequence to a 1-D float array."""
    p = np.asarray(coeffs)
    if p.dtype.kind == "c":  # a cast to float would drop the imaginary part with a warning
        raise ValueError("polynomial coefficients must be real")
    p = p.astype(float, copy=False)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("polynomial must be a 1-D sequence of at least one coefficient")
    if not np.isfinite(p).all():
        raise ValueError("polynomial coefficients must be finite")
    return p


def alternate(p) -> np.ndarray:
    """Realize p(-z): sign-flip the odd-index coefficients."""
    out = as_poly(p).copy()
    out[1::2] *= -1.0
    return out


def grid_response(p, grid_size: int) -> np.ndarray:
    """Frequency response sum_k p[k] e^{-j w k} on the grid linspace(0, pi, grid_size).

    That is the real FFT of length 2(G-1), since the DFT samples the DTFT. Taps
    past one period are folded onto it, not truncated: e^{-j w k} is
    2(G-1)-periodic in k on this grid, so the values stay exact at any length.
    """
    p = as_poly(p)
    _check_integer(grid_size, 2, GRID_SIZE_MAX, "grid_size")
    period = 2 * (grid_size - 1)
    if p.size > period:
        p = np.bincount(np.arange(p.size) % period, weights=p)
    return np.fft.rfft(p, period)


def _symmetric(p: np.ndarray) -> bool:
    """True for an odd-length mirror-symmetric array that `as_poly` has already validated."""
    d = p - p[::-1]
    return p.size % 2 == 1 and bool(np.abs(d, out=d).max() <= SYMMETRY_RTOL * np.abs(p).max())


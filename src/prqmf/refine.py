"""High-pass refinement.

The basic mate reconstructs perfectly but keeps a gain peak near w=0.
Adding an even-symmetric low-pass correction,

    H1'(z) = z^(-2m) H1(z) + E(z) H0(z),

with E symmetric of order 4m-2 and even powers only, preserves perfect
reconstruction for ANY such E (the added terms cancel in the transfer
function) while its m free coefficients buy m transmission zeros in the
high-pass stop band. The zero-forcing system is diag(A0(w_q)) C; C and its
inverse depend only on the zeros, and cos(k w_q) only on the zeros and n, so
all are memoised: a refined design runs no linear solve of its own.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qmf_core import SingularSystem, solve, unfold

# Smallest admissible 1/||mat^-1||_1, relative to ||h0||_1.
SINGULAR_RTOL = 1e-12


class SingularRefinement(Exception):
    """The zero-forcing system is singular (e.g. coincident frequencies)."""


def build_e(free) -> np.ndarray:
    """Expand m >= 1 free coefficients into the even-powers-only symmetric E(z).

    free[j] lands at degrees 2j and 4m-2-2j; everything else is zero.
    """
    free = np.atleast_1d(np.asarray(free, dtype=float))
    half = np.zeros(2 * free.size)  # free at the even degrees up to the centre 2m-1
    half[::2] = free
    return unfold(half)


@lru_cache(maxsize=32)
def _cosines(zero_freqs: tuple, n: int) -> np.ndarray:
    """cos(k w_q), k = -n..n, read-only and memoised: a sweep refines each band under
    several windows. Full, the cache holds 32 x 787 KB = 25 MB at n = 2048, m = 24, and
    132 KB at n <= 128, m <= 2."""
    cos_k = np.cos(np.multiply.outer(zero_freqs, np.arange(-n, n + 1)))
    cos_k.flags.writeable = False
    return cos_k


@lru_cache(maxsize=32)
def _zero_forcing(zero_freqs: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C[q, j] = 2 cos((2m-1-2j) w_q), C^-1 and the 1-norms of C^-1's columns, read-only
    and memoised: C depends on neither n nor the window, and every default m = 1 design
    shares the zeros (0.0,). Where `solve` raises, C^-1 and the norms are inf. Full, the
    cache holds 32 x 9.4 KB = 0.3 MB at m = 24."""
    m = len(zero_freqs)
    cos = 2.0 * np.cos(np.multiply.outer(zero_freqs, np.arange(2 * m - 1, 0, -2)))
    try:
        inv = solve((cos, np.eye(m)))
    except SingularSystem:
        inv = np.full((m, m), math.inf)
    norms = np.abs(inv).sum(axis=0)
    cos.flags.writeable = inv.flags.writeable = norms.flags.writeable = False
    return cos, inv, norms


def _solve_correction(h0, h1, zero_freqs) -> np.ndarray:
    """E's m = len(zero_freqs) free coefficients forcing amplitude zeros there, on checked inputs.

    Both terms of the refined filter are symmetric about n+2m-1, so its amplitude
    is A1(w) + A0(w) sum_j c_j 2 cos((2m-1-2j) w), A0 and A1 taken about the
    centres of h0 and h1: mat = diag(A0(w_q)) C with C[q, j] = 2 cos((2m-1-2j) w_q).
    """
    cos_k = _cosines(tuple(zero_freqs), h0.size // 2)
    cos, inv, norms = _zero_forcing(tuple(zero_freqs))
    a0 = cos_k @ h0
    # Coincident or unreachable zeros give a singular system, so gate on 1/||mat^-1||_1.
    # mat^-1 = C^-1 diag(1/a0), so ||mat^-1||_1 = max_q norms_q / |a0_q|, compared here
    # without a division; infinite norms (an exact zero pivot in C) always fail.
    if not np.all(norms * (SINGULAR_RTOL * np.abs(h0).sum()) < np.abs(a0)):
        raise SingularRefinement(
            f"singular zero-forcing system: min |A0(w_q)| = {np.abs(a0).min():.3e}, cond(C) = "
            f"{np.linalg.cond(cos):.3e}, min singular value of C = {np.linalg.norm(cos, -2):.3e}"
        )
    return inv @ (-(cos_k[:, 1:-1] @ h1) / a0)  # h1's taps: k = -(n-1)..n-1 about its centre


def refine_h1(h0, h1, zero_freqs) -> np.ndarray:
    """The raw z^(-2m) H1 + E H0, m = len(zero_freqs) >= 1, on the checked pair and zeros
    of a `DesignSpec`; symmetric with 2n+4m-1 taps. `design_bank` normalizes it."""
    m = len(zero_freqs)
    refined = np.convolve(build_e(_solve_correction(h0, h1, zero_freqs)), h0)
    refined[2 * m : 2 * m + h1.size] += h1
    return refined

"""High-pass refinement.

The basic mate reconstructs perfectly but keeps a gain peak near w=0.
Adding an even-symmetric low-pass correction,

    H1'(z) = z^(-2m) H1(z) + E(z) H0(z),

with E symmetric of order 4m-2 and even powers only, preserves perfect
reconstruction for ANY such E (the added terms cancel in the transfer
function) while its m free coefficients buy m transmission zeros in the
high-pass stop band. The zero-forcing system's cosine tables depend only
on the zeros and n, so they are memoised; the system itself is not.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qmf_core import SingularSystem, solve

# Smallest admissible 1/||mat^-1||_1, relative to ||h0||_1.
SINGULAR_RTOL = 1e-12


class SingularRefinement(Exception):
    """The zero-forcing system is singular (e.g. coincident frequencies)."""


def build_e(free) -> np.ndarray:
    """Expand m >= 1 free coefficients into the even-powers-only symmetric E(z).

    free[j] lands at degrees 2j and 4m-2-2j; everything else is zero.
    """
    free = np.atleast_1d(np.asarray(free, dtype=float))
    m = free.size
    e = np.zeros(4 * m - 1)
    e[: 2 * m : 2] = free
    e[2 * m :: 2] = free[::-1]
    return e


@lru_cache(maxsize=32)
def _cosines(zero_freqs: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(k w_q), k = -n..n, and C[q, j] = 2 cos((2m-1-2j) w_q), read-only and memoised:
    a sweep refines each band under several windows. Full, the cache holds 32 x 791 KB
    = 25 MB at n = 2048, m = 24, and 133 KB at n <= 128, m <= 2."""
    cos_k = np.cos(np.multiply.outer(zero_freqs, np.arange(-n, n + 1)))
    cos = 2.0 * np.cos(np.multiply.outer(zero_freqs, np.arange(2 * len(zero_freqs) - 1, 0, -2)))
    cos_k.flags.writeable = cos.flags.writeable = False
    return cos_k, cos


def _solve_correction(h0, h1, zero_freqs) -> np.ndarray:
    """E's m = len(zero_freqs) free coefficients forcing amplitude zeros there, on checked inputs.

    Both terms of the refined filter are symmetric about n+2m-1, so its amplitude
    is A1(w) + A0(w) sum_j c_j 2 cos((2m-1-2j) w), A0 and A1 taken about the
    centres of h0 and h1: mat = diag(A0(w_q)) C with C[q, j] = 2 cos((2m-1-2j) w_q).
    """
    m = len(zero_freqs)
    cos_k, cos = _cosines(tuple(zero_freqs), h0.size // 2)
    a0 = cos_k @ h0
    mat = a0[:, None] * cos
    rhs = -(cos_k[:, 1:-1] @ h1)  # h1's taps sit at k = -(n-1)..n-1 about its centre
    # `solve` returns any finite LU solution, and coincident or unreachable zeros give a
    # singular system that LU may still solve, so gate on 1/||mat^-1||_1, from the same
    # LU; an exact zero pivot counts as an infinite inverse norm.
    both = np.eye(m, m + 1, 1)  # [rhs | I]
    both[:, 0] = rhs
    try:
        sol = solve((mat, both))
        inv_norm = float(np.abs(sol[:, 1:]).sum(axis=0).max())
    except SingularSystem:
        inv_norm = math.inf
    if not 1.0 / inv_norm > SINGULAR_RTOL * np.abs(h0).sum():
        raise SingularRefinement(
            f"singular zero-forcing system: min |A0(w_q)| = {np.abs(a0).min():.3e}, cond(C) = "
            f"{np.linalg.cond(cos):.3e}, min singular value of C = {np.linalg.norm(cos, -2):.3e}"
        )
    return sol[:, 0]


def refine_h1(h0, h1, zero_freqs) -> np.ndarray:
    """The raw z^(-2m) H1 + E H0, m = len(zero_freqs) >= 1, on the checked pair and zeros
    of a `DesignSpec`; symmetric with 2n+4m-1 taps. `design_bank` normalizes it."""
    m = len(zero_freqs)
    refined = np.convolve(build_e(_solve_correction(h0, h1, zero_freqs)), h0)
    refined[2 * m : 2 * m + h1.size] += h1
    return refined

"""High-pass refinement.

The basic mate reconstructs perfectly but keeps a gain peak near w=0.
Adding an even-symmetric low-pass correction,

    H1'(z) = z^(-2m) H1(z) + E(z) H0(z),

with E symmetric of order 4m-2 and even powers only, preserves perfect
reconstruction for ANY such E (the added terms cancel in the transfer
function) while its m free coefficients buy m transmission zeros in the
high-pass stop band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .prototype import BandEdges, _check_integer
from .qmf_core import SingularSystem, normalize_passband, solve

# Smallest admissible 1/||mat^-1||_1, relative to ||h0||_1.
SINGULAR_RTOL = 1e-12


class SingularRefinement(Exception):
    """The zero-forcing system is singular (e.g. coincident frequencies)."""


@dataclass(frozen=True)
class RefinementSpec:
    m: int
    zero_freqs: tuple[float, ...]

    def __post_init__(self):
        _check_integer(self.m, 1, "refinement order m")
        freqs = tuple(float(w) for w in self.zero_freqs)
        if len(freqs) != self.m:
            raise ValueError(f"need exactly m={self.m} zero frequencies, got {len(freqs)}")
        if any(not (0.0 <= w < math.pi) for w in freqs):
            raise ValueError("zero frequencies must lie in [0, pi)")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("zero frequencies must be strictly increasing")
        object.__setattr__(self, "zero_freqs", freqs)


def default_zero_freqs(m: int, edges: BandEdges) -> tuple[float, ...]:
    """Equispaced zeros q*wp/m from DC across the high-pass stop band [0, wp]."""
    _check_integer(m, 1, "refinement order m")
    return tuple(q * edges.wp / m for q in range(m))


def build_e(free) -> np.ndarray:
    """Expand m free coefficients into the even-powers-only symmetric E(z).

    free[j] lands at degrees 2j and 4m-2-2j; everything else is zero.
    """
    free = np.atleast_1d(np.asarray(free, dtype=float))
    m = free.size
    if m < 1:
        raise ValueError("refinement needs at least one coefficient")
    e = np.zeros(4 * m - 1)
    e[: 2 * m : 2] = free
    e[2 * m :: 2] = free[::-1]
    return e


def _solve_correction(h0, h1, spec: RefinementSpec) -> np.ndarray:
    """Free coefficients of E forcing amplitude zeros at spec.zero_freqs, on a checked pair.

    Both terms of the refined filter are symmetric about n+2m-1, so its amplitude
    is A1(w) + A0(w) sum_j c_j 2 cos((2m-1-2j) w), A0 and A1 taken about the
    centres of h0 and h1: mat = diag(A0(w_q)) C with C[q, j] = 2 cos((2m-1-2j) w_q).
    """
    n, m = h0.size // 2, spec.m
    # cos(k w) for k = -n..n; h1's taps sit at k = -(n-1)..n-1 about its centre.
    cos_k = np.cos(np.multiply.outer(spec.zero_freqs, np.arange(-n, n + 1)))
    a0 = cos_k @ h0
    cos = 2.0 * np.cos(np.multiply.outer(spec.zero_freqs, np.arange(2 * m - 1, 0, -2)))
    mat = a0[:, None] * cos
    rhs = -(cos_k[:, 1:-1] @ h1)
    # Coincident or unreachable zeros give a consistent singular system that LU
    # solves to a small residual, so gate on 1/||mat^-1||_1, from the same LU.
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


def refine_h1(h0, h1, spec: RefinementSpec, normalize: bool = True) -> np.ndarray:
    """Apply the correction; the result is symmetric with 2n+4m-1 taps.

    normalize=False skips the passband renormalization and returns the raw
    z^(-2m) H1 + E H0 sum, useful for closed-form cross-checks.
    """
    h0, h1 = poly.require_symmetric(h0, "h0"), poly.require_symmetric(h1, "h1")
    if h1.size != h0.size - 2:
        raise ValueError("h1 must be the 2n-1 tap mate of h0")
    return _refine_h1(h0, h1, spec, normalize)


def _refine_h1(h0, h1, spec: RefinementSpec, normalize: bool = True) -> np.ndarray:
    """refine_h1 on a checked pair; `bank.design_bank` calls it on the mate it solved for."""
    refined = np.convolve(build_e(_solve_correction(h0, h1, spec)), h0)
    refined[2 * spec.m : 2 * spec.m + h1.size] += h1
    return normalize_passband(refined) if normalize else refined

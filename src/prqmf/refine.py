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
from .prototype import BandEdges
from .qmf_core import DenseSystem, SingularSystem, normalize_passband, solve

# Smallest admissible 1/||mat^-1||_1, relative to ||h0||_1.
SINGULAR_RTOL = 1e-12


class SingularRefinement(Exception):
    """The zero-forcing system is singular (e.g. coincident frequencies)."""


@dataclass(frozen=True)
class RefinementSpec:
    m: int
    zero_freqs: tuple[float, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("refinement order m must be >= 1")
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
    if m < 1:
        raise ValueError("refinement order m must be >= 1")
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


def solve_correction(h0, h1, spec: RefinementSpec) -> np.ndarray:
    """Free coefficients of E forcing amplitude zeros at spec.zero_freqs.

    Amplitudes are taken about the shared symmetry center n+2m-1 of both
    terms of the refined filter, so the equations are real.
    """
    h0 = poly.require_symmetric(h0, "h0")
    h1 = poly.require_symmetric(h1, "h1")
    n = (h0.size - 1) // 2
    if h1.size != 2 * n - 1:
        raise ValueError("h1 must be the 2n-1 tap mate of h0")
    m = spec.m
    total = 2 * n + 4 * m - 1
    center = n + 2 * m - 1
    shifted = np.zeros(total)
    shifted[2 * m : 2 * m + h1.size] = h1
    # G_j = (z^(-2j) + z^(-(4m-2-2j))) H0(z), length 2n+4m-1.
    terms = [np.convolve(build_e(unit), h0) for unit in np.eye(m)]
    mat = np.empty((m, m))
    rhs = np.empty(m)
    for q, w in enumerate(spec.zero_freqs):
        rhs[q] = -float(poly.amplitude(shifted, w, center=center))
        for j, g in enumerate(terms):
            mat[q, j] = float(poly.amplitude(g, w, center=center))
    # Coincident or unreachable zeros give a consistent singular system that
    # LU solves to a small residual, so gate on conditioning first.
    if np.linalg.norm(mat, 1) / np.linalg.cond(mat, 1) <= SINGULAR_RTOL * np.abs(h0).sum():
        raise SingularRefinement("singular zero-forcing system: coincident or unreachable zeros")
    try:
        return solve(DenseSystem(mat, rhs))
    except SingularSystem as exc:
        raise SingularRefinement(str(exc)) from exc


def refine_h1(h0, h1, spec: RefinementSpec, normalize: bool = True) -> np.ndarray:
    """Apply the correction; the result is symmetric with 2n+4m-1 taps.

    normalize=False skips the passband renormalization and returns the raw
    z^(-2m) H1 + E H0 sum, useful for closed-form cross-checks.
    """
    h0 = poly.require_symmetric(h0, "h0")
    h1 = poly.require_symmetric(h1, "h1")
    free = solve_correction(h0, h1, spec)
    m = spec.m
    refined = np.convolve(build_e(free), h0)
    refined[2 * m : 2 * m + h1.size] += h1
    return normalize_passband(refined) if normalize else refined

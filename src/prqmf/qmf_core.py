"""High-pass mate of a low-pass prototype.

Given a symmetric low-pass H0 with 2n+1 taps, the product
P(z) = H0(z) H1(-z) must have all odd-power coefficients zero except the
central one. Folding the symmetry of H1 into the unknowns yields a dense
n x n system for the 2n-1 tap mate. The system can be rank-deficient when
H0(z) and H0(-z) nearly share zeros; LU then picks one solution, and the
solve residual and the PR certificate decide whether it is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly

# Post-solve residual budget relative to the rhs.
RESIDUAL_RTOL = 1e-9


class SingularSystem(Exception):
    """The mate system has no usable solution (degenerate prototype)."""


class DegeneratePassband(Exception):
    """Candidate high-pass has numerically zero gain at w = pi."""


@dataclass(frozen=True)
class DenseSystem:
    """A square system matrix @ x = rhs (the mate's taps, or the refinement's E)."""

    matrix: np.ndarray
    rhs: np.ndarray


def build_system(h0) -> DenseSystem:
    """One row per odd power 2r+1, r in {0, ..., n-1}, of P(z).

    The weight on unknown b_j is a_{2r+1-j} (-1)^j, out-of-range terms dropped,
    which is g[2n-1+2r-j] for g = -a(-z) behind 2n-2 zeros: one strided view. Past
    the fold, b_{2n-2-j} = b_j. The rhs is zero except the last (central product
    term) entry, pinned to 1 to exclude the trivial all-zero solution.
    """
    a = poly.require_symmetric(h0, "h0")
    if a.size < 3:
        raise ValueError("h0 needs at least 3 taps; no shorter mate exists")
    n = (a.size - 1) // 2
    g = np.concatenate((np.zeros(2 * n - 2), a))
    g[::2] *= -1.0  # padding too: a dropped term is 0 (-1)^j, -0.0 in odd columns
    s = g.itemsize  # a bounds-checked view of g; as_strided would not check
    full = np.ndarray((n, 2 * n - 1), buffer=g, offset=(2 * n - 1) * s, strides=(2 * s, -s))
    mat = np.empty((n, n))
    np.add(full[:, : n - 1], full[:, : n - 1 : -1], out=mat[:, : n - 1])
    mat[:, n - 1] = full[:, n - 1]
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return DenseSystem(mat, rhs)


def solve(system: DenseSystem) -> np.ndarray:
    """LAPACK LU with partial pivoting, accepted only on a small residual in every rhs column."""
    a = np.asarray(system.matrix, dtype=float)
    b = np.asarray(system.rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[:1] != (n,) or b.ndim > 2:
        raise ValueError("system must be square with a matching rhs")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    residual = np.abs(a @ x - b).max(axis=0)
    # Written as `not <=` so that a NaN residual is rejected too.
    if not np.all(residual <= RESIDUAL_RTOL * np.maximum(np.abs(b).max(axis=0), 1e-300)):
        raise SingularSystem(f"residual {residual.max():.3e} too large; system is ill-conditioned")
    return x


def unfold(b) -> np.ndarray:
    """Expand the n independent taps into the full symmetric 2n-1 sequence."""
    b = np.asarray(b, dtype=float)
    return np.concatenate([b, b[-2::-1]])


def normalize_passband(h1) -> np.ndarray:
    """Scale a symmetric filter so its amplitude at w = pi, the alternating sum of
    h1[k] (-1)^(k - c) about the centre c, is exactly +1. Its callers build h1; it is not checked."""
    h1 = np.asarray(h1, dtype=float)
    gain = float(h1[::2].sum() - h1[1::2].sum()) * (-1) ** (h1.size // 2)
    if abs(gain) < 1e-9:
        raise DegeneratePassband(f"|A(pi)| = {abs(gain):.3e}; mate is not high-pass")
    return h1 / gain


def basic_mate(h0) -> np.ndarray:
    """A passband-normalized 2n-1 tap high-pass mate of h0.

    Where the mate system is rank-deficient the mate is not unique; the
    caller certifies the pair with analysis.verify_pr.
    """
    return normalize_passband(unfold(solve(build_system(h0))))

"""High-pass mate of a low-pass prototype.

Given a symmetric low-pass H0 with 2n+1 taps, the product
P(z) = H0(z) H1(-z) must have all odd-power coefficients zero except the
central one. Folding the symmetry of H1 into the unknowns yields a dense
n x n system for the 2n-1 tap mate. `solve` is the package's one linear
solver, for this system and for the refinement's. A half-band prototype
(wp + ws = pi) skips the system: its unique mate is the pure delay. Otherwise
the system can be rank-deficient when H0(z) and H0(-z) nearly share zeros;
LU then picks one solution, and the PR certificate decides whether it is
accepted.
"""

from __future__ import annotations

import numpy as np

# Largest even off-centre tap of a half-band prototype, relative to its centre tap.
HALF_BAND_RTOL = 1e-12


class SingularSystem(Exception):
    """The mate system has no usable solution (degenerate prototype)."""


class DegeneratePassband(Exception):
    """Candidate high-pass has numerically zero gain at w = pi."""


def build_system(h0) -> tuple[np.ndarray, np.ndarray]:
    """The square mate system (matrix, rhs): one row per odd power 2r+1,
    r in {0, ..., n-1}, of P(z), for the 2n+1 >= 3 tap symmetric h0 that `design_h0` builds.

    The weight on unknown b_j is a_{2r+1-j} (-1)^j, out-of-range terms dropped,
    which is g[2n-1+2r-j] for g = -a(-z) behind 2n-2 zeros: one strided view. Past
    the fold, b_{2n-2-j} = b_j. The rhs is zero except the last (central product
    term) entry, pinned to 1 to exclude the trivial all-zero solution.
    """
    a = np.asarray(h0, dtype=float)
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
    return mat, rhs


def solve(system: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """LAPACK LU with partial pivoting on a square float (matrix, rhs) pair that its caller
    built, so it is not checked: the mate's taps, or the refinement's [rhs | I]. LU is
    backward stable (Higham, Accuracy and Stability of Numerical Algorithms, sec. 7.1), so
    its residual is not tested: every finite solution is returned, and the caller's own
    gate (the PR certificate, or the refinement's inverse norm) judges it. An exact zero
    pivot, or a solution that is not finite, raises SingularSystem."""
    try:
        x = np.linalg.solve(*system)
    except np.linalg.LinAlgError:
        raise SingularSystem("LU met an exact zero pivot: the system is singular") from None
    if not np.isfinite(x).all():
        raise SingularSystem("LU solution is not finite: the system is ill-conditioned")
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


def is_half_band(h0) -> bool:
    """Whether every even off-centre tap of a symmetric 2n+1 tap h0 is at most
    HALF_BAND_RTOL times its centre tap, as for a trapezoid with wp + ws = pi."""
    a = np.asarray(h0, dtype=float)
    n = a.size // 2
    # The taps are symmetric, so the left half holds every even off-centre tap.
    return bool(np.abs(a[n % 2 : n : 2]).max(initial=0.0) <= HALF_BAND_RTOL * abs(a[n]))


def basic_mate(h0) -> np.ndarray:
    """An unnormalized 2n-1 tap high-pass mate of a `design_h0` prototype, unchecked.

    A half-band h0 has H0(z) + (-1)^n H0(-z) = 2 h_c z^-n, so H0(z) and H0(-z)
    share no zero and its mate is unique (the Bezout condition for two-channel PR):
    the pure delay z^-(n-1), of gain 1 at w = pi, returned without building or solving
    the system. Elsewhere, where the mate system is rank-deficient the mate is not unique;
    the caller certifies the pair with analysis.verify_pr.
    """
    if is_half_band(h0):
        h1 = np.zeros(len(h0) - 2)
        h1[len(h1) // 2] = 1.0
        return h1
    return unfold(solve(build_system(h0)))

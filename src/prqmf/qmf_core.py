"""High-pass mate of a low-pass prototype.

Given a symmetric low-pass H0 with 2n+1 taps, the product
P(z) = H0(z) H1(-z) must have all odd-power coefficients zero except the
central one. Folding the symmetry of H1 into the unknowns yields a dense
n x n system for the 2n-1 tap mate. `solve` is the package's one linear
solver, for this system and for the refinement's. A half-band prototype
(wp + ws = pi) skips the system: its unique mate is the pure delay. Otherwise
the system can be rank-deficient when H0(z) and H0(-z) nearly share zeros;
LU then picks one solution (or, at an exact zero pivot, least squares picks
the minimum-norm one), and the solve residual and the PR certificate decide
whether it is accepted.
"""

from __future__ import annotations

import numpy as np

# Post-solve residual budget relative to the rhs (or, after LU, to |A||x| + |b|).
RESIDUAL_RTOL = 1e-9
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
    """LAPACK LU with partial pivoting on a square (matrix, rhs) pair that its caller built,
    so its shape is not checked: the mate's taps, or the refinement's [rhs | I]. Where LU
    meets an exact zero pivot the system is rank-deficient but may be consistent, so
    LAPACK's minimum-norm least-squares solution is taken instead. Either is accepted
    only on a small residual in every rhs column: relative to the column's max |b|, or
    for LU, which may return large taps, to its normwise backward error."""
    a, b = system
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    try:
        x, why = np.linalg.solve(a, b), "system is ill-conditioned"
        lu = True
    except np.linalg.LinAlgError:
        x, _, _, sv = np.linalg.lstsq(a, b, rcond=None)
        ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0  # 0 for the zero matrix
        why = f"inconsistent system, sigma_min/sigma_max = {ratio:.3e}"
        lu = False
    r = a @ x
    r -= b
    residual = np.abs(r, out=r).max(axis=0)
    b_max = np.abs(b).max(axis=0)
    # `<=` is False for a NaN residual, so NaN is rejected too.
    ok = residual <= RESIDUAL_RTOL * np.maximum(b_max, 1e-300)
    if ok.all():
        return x
    if lu:
        # backward stable in the inf-norm (Higham, Accuracy and Stability of Numerical
        # Algorithms, sec. 7.1); computed only here, as it costs a third of a small solve
        bound = RESIDUAL_RTOL * (np.abs(a).sum(axis=1).max() * np.abs(x).max(axis=0) + b_max)
        if (ok | (np.isfinite(bound) & (residual <= bound))).all():
            return x
    raise SingularSystem(f"residual {residual.max():.3e} too large; {why}")


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
    """A passband-normalized 2n-1 tap high-pass mate of a `design_h0` prototype, unchecked.

    A half-band h0 has H0(z) + (-1)^n H0(-z) = 2 h_c z^-n, so H0(z) and H0(-z)
    share no zero and its mate is unique (the Bezout condition for two-channel PR):
    the pure delay z^-(n-1), returned without building or solving the system.
    Elsewhere, where the mate system is rank-deficient the mate is not unique; the
    caller certifies the pair with analysis.verify_pr.
    """
    if is_half_band(h0):
        h1 = np.zeros(len(h0) - 2)
        h1[len(h1) // 2] = 1.0
        return h1
    return normalize_passband(unfold(solve(build_system(h0))))

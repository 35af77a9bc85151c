"""Correctness checks that do not trust the library's own certificates.

Everything here is recomputed from the taps and signals with plain NumPy
(`np.convolve`, `np.fft.rfft`); no prqmf function is called.
"""

from __future__ import annotations

import math

import numpy as np

PR_TOL = 1e-9  # max spurious transfer coefficient, relative to the delay term
RECON_TOL = 1e-8  # steady-state reconstruction error, relative to |scale| * max|x|
DB_TOL = 1.5  # acceptance criterion 7: best sweep match per reference
MSE_RTOL = 1e-8  # library MSE against the FFT-grid recomputation
ZERO_TOL = 1e-9  # forced zero, relative to sum|h1|
GAIN_TOL = 1e-9  # unit DC gain of h0 and unit gain of h1 at pi
RANK_RTOL = 1e-12  # below this smallest/largest singular value the mate system is numerically singular

# Paper scores (lowpass dB, highpass dB) of the four reference designs.
PAPER_DB = {
    "rectangular-n10-m1": (13.24, 17.77),
    "hamming-n10-m1": (13.80, 16.04),
    "gaussian-n10-m1": (13.56, 17.58),
    "kaiser-n20-m2": (12.56, 17.70),
}


def _alt(h: np.ndarray) -> np.ndarray:
    return h * np.where(np.arange(h.size) % 2, -1.0, 1.0)


def pr_terms(h0, h1) -> tuple[int, float, float]:
    """(delay, scale, max spurious) of T(z) = 1/2 [H0(z)H1(-z) - H1(z)H0(-z)]."""
    h0 = np.asarray(h0, dtype=float)
    h1 = np.asarray(h1, dtype=float)
    t = 0.5 * (np.convolve(h0, _alt(h1)) - np.convolve(h1, _alt(h0)))
    mag = np.abs(t)
    k = int(np.argmax(mag))
    rest = np.delete(mag, k)
    return k, float(t[k]), float(rest.max() / mag[k]) if rest.size and mag[k] > 0 else math.inf


def check_bank(bank, n: int, m: int) -> str | None:
    """None if the bank is a correct PR design for half-order n, refinement m."""
    h0 = np.asarray(bank.h0, dtype=float)
    h1 = np.asarray(bank.h1, dtype=float)
    if h0.shape != (2 * n + 1,) or h1.shape != ((2 * n - 1) if m == 0 else (2 * n + 4 * m - 1),):
        return f"tap counts {h0.size}/{h1.size} for n={n} m={m}"
    for name, h in (("h0", h0), ("h1", h1)):
        if not np.allclose(h, h[::-1], rtol=0, atol=1e-12 * np.abs(h).max()):
            return f"{name} not symmetric"
    delay, scale, spurious = pr_terms(h0, h1)
    if not spurious <= PR_TOL:
        return f"spurious transfer term {spurious:.3e}"
    if delay != bank.delay or abs(scale - bank.scale) > 1e-12 * abs(scale):
        return f"delay/scale {bank.delay}/{bank.scale!r}, oracle {delay}/{scale!r}"
    if not (np.array_equal(bank.f0, _alt(h1)) and np.array_equal(bank.f1, -_alt(h0))):
        return "synthesis filters are not F0(z) = H1(-z), F1(z) = -H0(-z)"
    if abs(h0.sum() - 1.0) > GAIN_TOL or abs(_alt(h1).sum() * (-1) ** (h1.size // 2) - 1.0) > GAIN_TOL:
        return "h0 DC gain or h1 gain at pi is not 1"
    bound = ZERO_TOL * np.abs(h1).sum()
    for w in bank.zero_freqs:
        if abs(np.polyval(h1[::-1], np.exp(-1j * w))) > bound:
            return f"h1 has no zero at w={w}"
    return None


def mate_system_rank_ratio(h0) -> float:
    """Smallest over largest singular value of the mate system of a 2n+1 tap h0.

    The unknowns are the n independent taps b_0..b_{n-1} of a symmetric 2n-1
    tap H1; the rows are the odd powers 1, 3, ..., 2n-1 of H0(z) H1(-z), each
    column recomputed with np.convolve from the unit mate that b_j spans.
    """
    h0 = np.asarray(h0, dtype=float)
    n = (h0.size - 1) // 2
    cols = []
    for j in range(n):
        unit = np.zeros(2 * n - 1)
        unit[j] = unit[2 * n - 2 - j] = 1.0
        cols.append(np.convolve(h0, _alt(unit))[1 : 2 * n : 2])
    s = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    return float(s[-1] / s[0])


def magnitudes(h, grid: int) -> np.ndarray:
    """|H(e^jw)| on the closed grid linspace(0, pi, grid), by FFT."""
    return np.abs(np.fft.rfft(np.asarray(h, dtype=float), 2 * (grid - 1)))


def mse(h, ideal: str, grid: int) -> float:
    """Mean squared magnitude error on the closed grid linspace(0, pi, grid), by FFT."""
    mags = magnitudes(h, grid)
    k = np.arange(grid)
    below, above = 2 * k < grid - 1, 2 * k > grid - 1
    target = np.where(below if ideal == "lowpass" else above, 1.0, 0.0)
    target[2 * k == grid - 1] = 0.5
    return float(np.mean((mags - target) ** 2))


def close(value: float, ref: float, rtol: float = MSE_RTOL) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def reconstruction_error(x, y, delay: int, scale: float) -> float:
    """Max |y[n + d] - c x[n]| / (|c| max|x|) over the steady state d <= n < N - d."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = delay, x.size - delay
    if y.size < hi + delay or lo >= hi:
        return math.inf
    err = np.max(np.abs(y[lo + delay : hi + delay] - scale * x[lo:hi]))
    return float(err / (abs(scale) * np.max(np.abs(x))))


def best_match_errors(scores: dict) -> dict:
    """Per reference, the smallest worst-case dB error over its scored points.

    scores maps (reference, point) to (lowpass_mse, highpass_mse).
    """
    best: dict[str, float] = {}
    for (ref, _), (low, high) in scores.items():
        lo_db, hi_db = PAPER_DB[ref]
        err = max(abs(-10 * math.log10(low) - lo_db), abs(-10 * math.log10(high) - hi_db))
        best[ref] = min(best.get(ref, math.inf), err)
    return best

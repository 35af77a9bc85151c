"""Bank certification and quality metrics.

Certifies that an (H0, H1) pair reduces the two-channel analysis/synthesis
cascade to a pure delay and scale, builds the alias-cancelling synthesis
filters, simulates the full bank on real signals, and scores magnitude
responses against ideal brick-wall targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import poly
from .prototype import MSE_GRID_MIN, DesignSpec

PR_TOL = 1e-9
MSE_GRID_SIZE = 1024


class NoDelayFound(Exception):
    """Transfer function is numerically zero (trivial or broken pair)."""


@dataclass(frozen=True)
class PrReport:
    delay: int
    scale: float
    max_spurious: float

    @property
    def passed(self) -> bool:
        return self.max_spurious <= PR_TOL


@dataclass(frozen=True)
class FilterBank:
    """A bank is its analysis pair (h0, h1). The synthesis pair is derived by
    `synthesis_filters`; delay, scale and max_spurious come from one PR
    certificate, computed on first read (NoDelayFound if T(z) vanishes)."""

    h0: np.ndarray
    h1: np.ndarray
    spec: DesignSpec | None = None
    zero_freqs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "h0", poly.as_poly(self.h0))
        object.__setattr__(self, "h1", poly.as_poly(self.h1))
        object.__setattr__(self, "zero_freqs", tuple(float(w) for w in self.zero_freqs))

    @property
    def f0(self) -> np.ndarray:
        return synthesis_filters(self.h0, self.h1)[0]

    @property
    def f1(self) -> np.ndarray:
        return synthesis_filters(self.h0, self.h1)[1]

    @cached_property
    def certificate(self) -> PrReport:
        return verify_pr(self.h0, self.h1)

    @property
    def delay(self) -> int:
        return self.certificate.delay

    @property
    def scale(self) -> float:
        return self.certificate.scale

    @property
    def max_spurious(self) -> float:
        return self.certificate.max_spurious


@dataclass(frozen=True)
class ResponseMetrics:
    """MSE against an ideal brick-wall response, plus -10 log10(MSE)."""

    mse: float
    db: float
    grid_size: int
    ideal: str


@dataclass(frozen=True)
class ProcessReport:
    y: np.ndarray
    max_rel_error: float
    delay: int
    scale: float


def transfer(h0, h1) -> np.ndarray:
    """T(z) = 0.5 [H0(z) H1(-z) - H1(z) H0(-z)], the odd part of P(z) = H0(z) H1(-z).

    The second product is P(-z), so even-power coefficients are exactly zero; a
    perfect-reconstruction pair leaves a single nonzero odd-power coefficient.
    """
    t = np.convolve(poly.as_poly(h0), poly.alternate(h1))
    t[::2] = 0.0
    return t


def verify_pr(h0, h1) -> PrReport:
    """Locate the delay term of T(z) and measure everything else against it."""
    t = transfer(h0, h1)
    mags = np.abs(t)
    idx = int(np.argmax(mags))
    c = float(t[idx])
    # transfer has validated both filters
    floor = 1e-12 * float(np.max(np.abs(h0)) * np.max(np.abs(h1)))
    if abs(c) <= floor:
        raise NoDelayFound("transfer function is numerically zero")
    mags[idx] = 0.0
    return PrReport(delay=idx, scale=c, max_spurious=float(mags.max()) / abs(c))


def synthesis_filters(h0, h1) -> tuple[np.ndarray, np.ndarray]:
    """F0(z) = H1(-z), F1(z) = -H0(-z); cancels the alias component."""
    return poly.alternate(h1), -poly.alternate(h0)


def process_bank(bank: FilterBank, x) -> ProcessReport:
    """Run a signal through the full analyze / down-up sample / synthesize chain.

    The chain runs as overlap-add on FFT blocks of `size` samples, a power of
    two, set by the filter lengths alone. Blocks start at even samples, so
    down-sampling by 2 and then up-sampling by 2, which zeroes the odd samples,
    is the spectral fold V = (S + conj(S[::-1])) / 2 on each block. `y` has
    len(x) + len(h0) + len(h1) - 2 samples and agrees with direct convolution
    to round-off. The reconstruction error is reported over the steady-state
    region only: the `delay` samples at each end of the signal are transients.
    A signal of at most 2 * delay samples has no steady state, and its
    `max_rel_error` is NaN.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("signal must be a nonempty 1-D sequence")
    if not np.isfinite(x).all():
        raise ValueError("signal samples must be finite")
    d, c = bank.delay, bank.scale
    tail = bank.h0.size + bank.h1.size - 2
    # hop > tail, so a block's tail spills into the next block only
    size = max(2048, 1 << (2 * tail + 2).bit_length())
    hop = (size - tail) & ~1
    blocks = -(-x.size // hop)
    ys = np.zeros((blocks + 1, hop))
    H0, H1 = (np.fft.rfft(h, size) for h in (bank.h0, bank.h1))
    # spectra of F0 = H1(-z) and F1 = -H0(-z), times the fold's 1/2 (exact)
    F0, F1 = 0.5 * np.conj(H1[::-1]), -0.5 * np.conj(H0[::-1])
    rows = max(1, 2**17 // size)  # about 1 MB per temporary
    for b in range(0, blocks, rows):
        seg = x[b * hop : (b + rows) * hop]
        xb = np.zeros((min(rows, blocks - b), hop))
        xb.reshape(-1)[: seg.size] = seg
        X = np.fft.rfft(xb, size)
        S0, S1 = X * H0, X * H1
        Y = F0 * (S0 + np.conj(S0[:, ::-1])) + F1 * (S1 + np.conj(S1[:, ::-1]))
        yb = np.fft.irfft(Y, size)
        ys[b : b + len(yb)] += yb[:, :hop]
        ys[b + 1 : b + len(yb) + 1, :tail] += yb[:, hop : hop + tail]
    y = ys.reshape(-1)[: x.size + tail]
    lo, hi = d, x.size - d
    if lo < hi:
        peak = max(float(x.max()), -float(x.min()))
        buf = np.multiply(x[lo:hi], c)
        np.subtract(y[lo + d : hi + d], buf, out=buf)
        max_rel = float(np.abs(buf, out=buf).max()) / (abs(c) * peak) if peak > 0.0 else 0.0
    else:
        max_rel = math.nan
    return ProcessReport(y=y, max_rel_error=max_rel, delay=d, scale=c)


def mse(filt, ideal: str, grid_size: int = MSE_GRID_SIZE) -> ResponseMetrics:
    """Mean squared magnitude error against an ideal half-band response.

    Closed grid w_k = k pi / (G - 1), k = 0..G-1 (`poly.grid_response`); the
    target is 1 in the passband, 0 in the stopband, and 0.5 at the pi/2
    cutoff, which the grid hits when G is odd (2k = G - 1).
    """
    if grid_size < MSE_GRID_MIN:
        raise ValueError(f"grid_size must be >= {MSE_GRID_MIN}")
    if ideal not in ("lowpass", "highpass"):
        raise ValueError("ideal must be 'lowpass' or 'highpass'")
    err = np.abs(poly.grid_response(filt, grid_size)) - _brick_wall(grid_size, ideal)
    value = float(err @ err) / grid_size
    db = -10.0 * math.log10(value) if value > 0.0 else math.inf
    return ResponseMetrics(mse=value, db=db, grid_size=grid_size, ideal=ideal)


@lru_cache(maxsize=8)
def _brick_wall(grid_size: int, ideal: str) -> np.ndarray:
    """The read-only `mse` target on the closed grid of `grid_size` points."""
    twice_k, edge = 2 * np.arange(grid_size), grid_size - 1
    passband = twice_k < edge if ideal == "lowpass" else twice_k > edge
    target = passband + 0.5 * (twice_k == edge)
    target.flags.writeable = False
    return target


def validate_case_a(h0, h1) -> tuple[bool, list[str]]:
    """Check the linear-phase taxonomy class this design targets.

    Both filters symmetric with odd lengths, and the length difference an
    odd multiple of 2. Returns (ok, reasons) rather than raising: this is
    a diagnostic, not a contract violation.
    """
    reasons: list[str] = []
    h0, h1 = poly.as_poly(h0), poly.as_poly(h1)
    for name, f in (("h0", h0), ("h1", h1)):
        if f.size % 2 == 0:
            reasons.append(f"{name} has even length {f.size}")
        elif not poly.is_symmetric(f):
            reasons.append(f"{name} is not mirror-symmetric")
    diff = abs(h1.size - h0.size)
    if diff % 4 != 2:
        reasons.append(f"length difference {diff} is not an odd multiple of 2")
    return (not reasons), reasons

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
from .prototype import MSE_GRID_MIN, DesignSpec, _check_integer

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


@dataclass(frozen=True, eq=False)
class FilterBank:
    """A bank is its analysis pair (h0, h1). The synthesis pair is derived by
    `synthesis_filters`; delay, scale and max_spurious come from one PR
    certificate, computed on first read (NoDelayFound if T(z) vanishes).
    Equality and hashing are by identity, as array fields have no `==`."""

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
    """MSE against an ideal brick-wall response, -10 log10(MSE), and the grid it was taken on."""

    mse: float
    db: float
    grid_size: int


@dataclass(frozen=True, eq=False)
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
    idx = int(mags.argmax())
    c = float(t[idx])
    # transfer has validated both filters
    floor = 1e-12 * float(np.abs(h0).max() * np.abs(h1).max())
    if abs(c) <= floor:
        raise NoDelayFound("transfer function is numerically zero")
    mags[idx] = 0.0
    return PrReport(delay=idx, scale=c, max_spurious=float(mags.max()) / abs(c))


def synthesis_filters(h0, h1) -> tuple[np.ndarray, np.ndarray]:
    """F0(z) = H1(-z), F1(z) = -H0(-z); cancels the alias component."""
    return poly.alternate(h1), -poly.alternate(h0)


def _block_geometry(tail: int) -> tuple[int, int, int]:
    """(size, hop, rows) of `process_bank`'s overlap-add blocks for a chain whose
    impulse response has tail + 1 taps: the FFT size, a power of two; the hop,
    size - tail rounded down to even; and the blocks per batch, about 0.5 MB per
    complex buffer, so that a batch stays in a 2 MB L2 cache."""
    # hop > tail, so a block's tail spills into the next block only
    size = max(1024, 1 << (2 * tail + 2).bit_length())
    return size, (size - tail) & ~1, max(1, 2**16 // size)


def process_bank(bank: FilterBank, x) -> ProcessReport:
    """Run a signal through the full analyze / down-up sample / synthesize chain.

    The chain runs as overlap-add on FFT blocks of `size` samples, a power of
    two, set by the filter lengths alone (`_block_geometry`). Blocks start at
    even samples, so down-sampling by 2 and then up-sampling by 2, which zeroes
    the odd samples, is the spectral fold V = (S + conj(S[::-1])) / 2 on each
    block. Blocks run in batches through spectral, output and score buffers
    allocated once per call; each block's head is written to `y` and its tail
    carried into the next block. `y` has len(x) + len(h0) + len(h1) - 2 samples
    and agrees with direct convolution to round-off. The reconstruction error is
    the max over the steady state, scored batch by batch as each part of `y`
    becomes final: the `delay` samples at each end of the signal are transients.
    A signal of at most 2 * delay samples has no steady state, and its
    `max_rel_error` is NaN.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("signal must be a nonempty 1-D sequence")
    d, c = bank.delay, bank.scale
    tail = bank.h0.size + bank.h1.size - 2
    size, hop, rows = _block_geometry(tail)
    blocks = -(-x.size // hop)
    rows = min(rows, blocks)
    # every element is written: the blocks' heads, then the last tail
    y = np.empty(blocks * hop + tail)
    ys = y[: blocks * hop].reshape(blocks, hop)
    H0, H1 = (np.fft.rfft(h, size) for h in (bank.h0, bank.h1))
    # spectra of F0 = H1(-z) and F1 = -H0(-z), times the fold's 1/2 (exact)
    F0, F1 = 0.5 * np.conj(H1[::-1]), -0.5 * np.conj(H0[::-1])
    # reused by every batch; the fold reverses into R, as in place forces a copy
    X, S, R = np.empty((3, rows, size // 2 + 1), complex)
    yb = np.empty((rows, size))
    buf = np.empty(rows * hop)
    carry = np.zeros(tail)
    peak, err = 0.0, 0.0
    for b in range(0, blocks, rows):
        r = min(rows, blocks - b)
        seg = x[b * hop : (b + r) * hop]
        # NaN and +-inf reach the batch's max or min; checked before its FFT
        top, bottom = seg.max(), seg.min()
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise ValueError("signal samples must be finite")
        xb = seg if seg.size == r * hop else np.concatenate((seg, np.zeros(r * hop - seg.size)))
        np.fft.rfft(xb.reshape(r, hop), size, out=X[:r])
        for H, F, V in ((H0, F0, S[:r]), (H1, F1, X[:r])):
            np.multiply(X[:r], H, out=V)
            np.conjugate(V[:, ::-1], out=R[:r])
            np.add(V, R[:r], out=V)
            np.multiply(F, V, out=V)
        np.add(S[:r], X[:r], out=S[:r])
        np.fft.irfft(S[:r], size, out=yb[:r])
        ys[b : b + r] = yb[:r, :hop]
        ys[b, :tail] += carry
        ys[b + 1 : b + r, :tail] += yb[: r - 1, hop : hop + tail]
        carry[:] = yb[r - 1, hop : hop + tail]
        # rows b .. b + r - 1 are final (the next batch reaches row b + r only)
        peak = max(peak, top, -bottom)
        lo, hi = max(2 * d, b * hop), min(x.size, (b + r) * hop)
        if lo < hi:
            e = np.multiply(x[lo - d : hi - d], c, out=buf[: hi - lo])
            np.subtract(y[lo:hi], e, out=e)
            err = np.maximum(err, np.abs(e, out=e).max())
    y[blocks * hop :] = carry
    y = y[: x.size + tail]
    if 2 * d < x.size:
        max_rel = float(err) / (abs(c) * float(peak)) if peak > 0.0 else 0.0
    else:
        max_rel = math.nan
    return ProcessReport(y=y, max_rel_error=max_rel, delay=d, scale=c)


def mse(filt, ideal: str, grid_size: int = MSE_GRID_SIZE) -> ResponseMetrics:
    """Mean squared magnitude error against an ideal half-band response.

    Closed grid w_k = k pi / (G - 1), k = 0..G-1 (`poly.grid_response`); the
    target is 1 in the passband, 0 in the stopband, and 0.5 at the pi/2
    cutoff, which the grid hits when G is odd (2k = G - 1).
    """
    _check_integer(grid_size, MSE_GRID_MIN, "grid_size")
    if ideal not in ("lowpass", "highpass"):
        raise ValueError("ideal must be 'lowpass' or 'highpass'")
    err = np.abs(poly.grid_response(filt, grid_size)) - _brick_wall(grid_size, ideal)
    value = float(err @ err) / grid_size
    db = -10.0 * math.log10(value) if value > 0.0 else math.inf
    return ResponseMetrics(mse=value, db=db, grid_size=grid_size)


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
        elif not poly._symmetric(f):
            reasons.append(f"{name} is not mirror-symmetric")
    diff = abs(h1.size - h0.size)
    if diff % 4 != 2:
        reasons.append(f"length difference {diff} is not an odd multiple of 2")
    return (not reasons), reasons

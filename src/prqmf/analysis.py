"""Bank certification and quality metrics.

Certifies that an (H0, H1) pair reduces the two-channel analysis/synthesis
cascade to a pure delay and scale, builds the alias-cancelling synthesis
filters, simulates the full bank on real signals, and scores magnitude
responses against ideal brick-wall targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import poly
from .prototype import GRID_SIZE_MAX, MSE_GRID_MIN, MSE_GRID_SIZE, DesignSpec, _check_integer

PR_TOL = 1e-9
PROCESS_TOL = 1e-8  # the largest `max_rel_error` that `process` accepts


class NoDelayFound(Exception):
    """Transfer function is numerically zero (trivial or broken pair)."""


@dataclass(frozen=True)
class PrReport:
    """T(z)'s delay term, and its spurious terms s relative to it: the largest, and their
    sum, which bounds the error on any signal x, as |(s * x)[k]| <= ||s||_1 max|x|."""

    delay: int
    scale: float
    max_spurious: float
    sum_spurious: float

    @property
    def passed(self) -> bool:
        return self.max_spurious <= PR_TOL and self.sum_spurious <= PROCESS_TOL


@dataclass(frozen=True, eq=False)
class FilterBank:
    """A bank is its analysis pair (h0, h1) and its spec, which holds its zeros.
    `synthesis_filters` derives the synthesis pair; one PR certificate, computed
    on first read (NoDelayFound if T(z) vanishes), gives delay, scale and
    max_spurious. Equality and hashing are by identity, as arrays have no `==`."""

    h0: np.ndarray
    h1: np.ndarray
    spec: DesignSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "h0", poly.as_poly(self.h0))
        object.__setattr__(self, "h1", poly.as_poly(self.h1))

    @property
    def zero_freqs(self) -> tuple[float, ...]:
        return self.spec.zero_freqs if self.spec else ()

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
    """`process_bank`'s output `y`, the float signal `x` it filtered and the bank.
    `x` is the caller's float array, not a copy (8.4 MB at 2^20 samples, 12 % of the
    `stream` benchmark's peak RSS), and the score reads it: change `x` before the first
    read of `max_rel_error` and the score changes with it."""

    y: np.ndarray
    x: np.ndarray
    bank: FilterBank

    @property
    def delay(self) -> int:
        return self.bank.delay

    @property
    def scale(self) -> float:
        return self.bank.scale

    @cached_property
    def max_rel_error(self) -> float:
        """max|y[2d:n] - c x[d:n-d]| / (|c| max|x|) over the steady state (the `delay`
        samples at each end are transients), in one pass on first read. NaN for
        n <= 2 * delay, which has no steady state; 0.0 for an all-zero signal."""
        x, d, c = self.x, self.delay, self.scale
        if x.size <= 2 * d:
            return math.nan
        peak = max(float(x.max()), -float(x.min()))
        if peak == 0.0:
            return 0.0
        e = np.multiply(x[d : x.size - d], c)
        np.subtract(self.y[2 * d : x.size], e, out=e)
        return float(np.abs(e, out=e).max()) / (abs(c) * peak)


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
    return PrReport(idx, c, float(mags.max()) / abs(c), float(mags.sum()) / abs(c))


def synthesis_filters(h0, h1) -> tuple[np.ndarray, np.ndarray]:
    """F0(z) = H1(-z), F1(z) = -H0(-z); cancels the alias component."""
    return poly.alternate(h1), -poly.alternate(h0)


def _block_geometry(tail: int) -> tuple[int, int, int]:
    """(size, hop, rows) of `process_bank`'s overlap-add blocks for a chain whose
    impulse response has tail + 1 taps: the FFT size, a power of two; the hop,
    size - tail rounded down to even; and the blocks per batch, about 0.5 MB per
    complex buffer and per real (rows, size) buffer, which holds a batch's FFT
    input and then its inverse FFT, so that a batch stays in a 2 MB L2 cache."""
    # hop > tail, so a block's tail spills into the next block only
    size = max(1024, 1 << (2 * tail + 2).bit_length())
    if size // 2 + 1 > GRID_SIZE_MAX:  # the block grid's cap: blocks of 2^20 samples at most
        raise ValueError(f"filters too long: a tail of {tail} taps passes {GRID_SIZE_MAX // 2 - 2}")
    return size, (size - tail) & ~1, max(1, 2**16 // size)


def process_bank(bank: FilterBank, x) -> ProcessReport:
    """Run a signal through the full analyze / down-up sample / synthesize chain.

    The chain runs as overlap-add on FFT blocks of `size` samples, a power of
    two, set by the filter lengths alone (`_block_geometry`). Blocks start at
    even samples, so down-sampling by 2 and then up-sampling by 2, which zeroes
    the odd samples, is the spectral fold V = (S + conj(S[::-1])) / 2 on each
    block. H0, H1 and the `synthesis_filters` pair F0, F1 are evaluated by
    `poly.grid_response` on the block grid of size // 2 + 1 points. Blocks run
    in batches through spectral and output buffers allocated once per call.
    Each batch is copied into the real buffer's rows, zeroed past `hop`, and
    the forward FFT reads those full-length rows: given rows of `hop` samples
    and `n=size`, NumPy 2.4 pads each row itself on a slower path, for the same
    bits. Each block's head is written to `y` and its tail carried into the next
    block. `y` has len(x) + len(h0) + len(h1) - 2 samples and agrees with direct
    convolution to round-off. A complex or non-finite sample, or a tail past
    `_block_geometry`'s cap, raises ValueError before any output. The report
    scores the reconstruction only when `max_rel_error` is first read.
    """
    x = np.atleast_1d(np.asarray(x))
    if x.dtype.kind == "c":  # a cast to float would drop the imaginary part with a warning
        raise ValueError("signal samples must be real")
    x = x.astype(float, copy=False)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("signal must be a nonempty 1-D sequence")
    bank.certificate  # the report's delay and scale: NoDelayFound is raised before any output
    tail = bank.h0.size + bank.h1.size - 2
    size, hop, rows = _block_geometry(tail)
    blocks = -(-x.size // hop)
    rows = min(rows, blocks)
    # every element is written: the blocks' heads, then the last tail
    y = np.empty(blocks * hop + tail)
    ys = y[: blocks * hop].reshape(blocks, hop)
    # the synthesis pair times the fold's 1/2 (exact), and all four spectra on the block grid
    f0, f1 = (0.5 * f for f in synthesis_filters(bank.h0, bank.h1))
    H0, H1, F0, F1 = (poly.grid_response(h, size // 2 + 1) for h in (bank.h0, bank.h1, f0, f1))
    # reused by every batch; the fold reverses into R, as in place forces a copy
    X, S, R = np.empty((3, rows, size // 2 + 1), complex)
    yb = np.empty((rows, size))
    carry = np.zeros(tail)
    for b in range(0, blocks, rows):
        r = min(rows, blocks - b)
        seg = x[b * hop : (b + r) * hop]
        # NaN and +-inf reach the batch's max or min; checked before its FFT.
        # In this loop that is faster than np.isfinite(seg).all(), though not alone
        if not (math.isfinite(seg.max()) and math.isfinite(seg.min())):
            raise ValueError("signal samples must be finite")
        q, rem = divmod(seg.size, hop)  # rem > 0 in the last batch only
        yb[:q, :hop] = seg[: q * hop].reshape(q, hop)
        yb[:q, hop:] = 0.0  # np.empty or the previous batch's irfft wrote there
        if rem:
            yb[q, :rem] = seg[q * hop :]
            yb[q, rem:] = 0.0
        np.fft.rfft(yb[:r], out=X[:r])
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
    y[blocks * hop :] = carry
    return ProcessReport(y=y[: x.size + tail], x=x, bank=bank)


def mse(filt, ideal: str, grid_size: int = MSE_GRID_SIZE) -> ResponseMetrics:
    """Mean squared magnitude error against an ideal half-band response.

    Closed grid w_k = k pi / (G - 1), k = 0..G-1 (`poly.grid_response`); the
    target is 1 in the passband, 0 in the stopband, and 0.5 at the pi/2
    cutoff, which the grid hits when G is odd (2k = G - 1).
    """
    _check_integer(grid_size, MSE_GRID_MIN, GRID_SIZE_MAX, "grid_size")
    if ideal not in ("lowpass", "highpass"):
        raise ValueError("ideal must be 'lowpass' or 'highpass'")
    err = np.abs(poly.grid_response(filt, grid_size))
    half, odd = divmod(grid_size, 2)
    passband = err[:half] if ideal == "lowpass" else err[half + odd :]  # a view
    passband -= 1.0
    if odd:
        err[half] -= 0.5
    value = float(err @ err) / grid_size
    db = -10.0 * math.log10(value) if value > 0.0 else math.inf
    return ResponseMetrics(mse=value, db=db, grid_size=grid_size)


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

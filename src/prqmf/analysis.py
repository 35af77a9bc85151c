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
        return self.max_spurious <= PR_TOL and abs(self.scale) > 1e-9


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

    Down-sampling by 2 and then up-sampling by 2 zeroes the odd samples, so each
    analysis output is zeroed there in place and synthesized at full rate; `y`
    has len(x) + len(h0) + len(h1) - 2 samples. The reconstruction error is
    reported over the steady-state region only: the `delay` samples at each end
    of the signal are transients. A signal of at most 2 * delay samples has no
    steady state, and its `max_rel_error` is NaN.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("signal must be a nonempty 1-D sequence")
    d, c = bank.delay, bank.scale
    f0, f1 = synthesis_filters(bank.h0, bank.h1)
    s0, s1 = np.convolve(bank.h0, x), np.convolve(bank.h1, x)
    s0[1::2] = s1[1::2] = 0.0
    y = np.convolve(f0, s0) + np.convolve(f1, s1)
    lo, hi = d, x.size - d
    if lo < hi:
        peak = float(np.max(np.abs(x)))
        err = float(np.max(np.abs(y[lo + d : hi + d] - c * x[lo:hi])))
        max_rel = err / (abs(c) * peak) if peak > 0.0 else 0.0
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

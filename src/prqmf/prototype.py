"""Low-pass prototype design.

The prototype is a symmetric odd-length FIR: the taps of a trapezoid in
frequency, products of sines memoised per (edges, n), times a window,
memoised per (window, length), normalized to unit DC gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

WINDOW_KINDS = ("rectangular", "hamming", "gaussian", "kaiser")

GAUSSIAN_DEFAULT_ALPHA = 2.5
KAISER_DEFAULT_BETA = 6.0
# The gaussian window squares alpha * x with |x| <= 1, which overflows above sqrt(DBL_MAX).
GAUSSIAN_ALPHA_MAX = math.sqrt(np.finfo(float).max)
# np.i0(beta) computes exp(beta), which overflows above log(DBL_MAX) = 709.78.
KAISER_BETA_MAX = float(np.log(np.finfo(float).max))
# Smallest and default frequency grid a design is scored on (`analysis.mse`).
MSE_GRID_MIN = 64
MSE_GRID_SIZE = 1024
# Largest sizes a caller can ask for. design_bank at n = 2048 takes about 0.25 s and
# 100 MB (its n x n mate system is 32 MB). The highest m that certifies depends on the
# edges: m = 24 on the default edges at n = 10, 64, 512, but m = 19 raises SingularRefinement
# at wp = 0.3 pi, ws = 0.7 pi. A 2^20-point grid is a 2^21-point FFT of 16 MB per response.
N_MAX = 2048
M_MAX = 24
GRID_SIZE_MAX = 2**20


def _check_integer(value, low: int, high: int, name: str) -> None:
    """Raise ValueError unless value is an int or NumPy integer in [low, high]
    (4.0 and True are not)."""
    if not (type(value) is int or isinstance(value, np.integer)) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer >= {low} and <= {high}, got {value!r}")


def _check_real(value, name: str) -> float:
    """Return value if it is an int or float, NumPy scalars included ("0.5" and True are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _check_zero_freqs(freqs, m: int) -> tuple[float, ...]:
    """The zeros of an order-m refinement as floats: m of them, strictly increasing in [0, pi)."""
    freqs = tuple(float(_check_real(w, "a zero frequency")) for w in freqs)
    if len(freqs) != m:
        raise ValueError(f"need exactly m={m} zero frequencies, got {len(freqs)}")
    if any(not (0.0 <= w < math.pi) for w in freqs):
        raise ValueError("zero frequencies must lie in [0, pi)")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("zero frequencies must be strictly increasing")
    return freqs


@dataclass(frozen=True)
class BandEdges:
    """Passband edge wp and stopband edge ws of the prototype, in radians."""

    wp: float
    ws: float

    def __post_init__(self):
        if not (0.0 < _check_real(self.wp, "wp") < _check_real(self.ws, "ws") < math.pi):
            raise ValueError(
                f"band edges must satisfy 0 < wp < ws < pi, got wp={self.wp}, ws={self.ws}"
            )

    @classmethod
    def symmetric(cls, delta: float = 0.1 * math.pi) -> "BandEdges":
        """Edges mirrored about pi/2, matching the QMF half-band convention."""
        return cls(math.pi / 2 - delta, math.pi / 2 + delta)


@dataclass(frozen=True)
class WindowSpec:
    """Window family plus its shape parameter (gaussian alpha / kaiser beta)."""

    kind: str = "rectangular"
    param: float | None = None

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window {self.kind!r}; choose from {WINDOW_KINDS}")
        if self.param is not None:
            if self.kind in ("rectangular", "hamming"):
                raise ValueError(f"the {self.kind} window takes no parameter, got {self.param}")
            param = _check_real(self.param, f"the {self.kind} window parameter")
            if self.kind == "gaussian" and not 0 < param <= GAUSSIAN_ALPHA_MAX:
                raise ValueError(
                    f"gaussian width alpha must be finite in (0, {GAUSSIAN_ALPHA_MAX:.4g}], "
                    f"got {self.param}"
                )
            if self.kind == "kaiser" and not 0 <= param <= KAISER_BETA_MAX:
                raise ValueError(
                    f"kaiser beta must be finite in [0, {KAISER_BETA_MAX:.2f}], got {self.param}"
                )


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to design one filter bank.

    n is the half-order: the low-pass gets 2n+1 taps and its basic
    high-pass mate 2n-1. m is the refinement order (0 disables it).
    zero_freqs: m stop-band zeros strictly increasing in [0, pi), q*wp/m
    (q = 0..m-1) if None; so `replace(spec, m=...)` needs zero_freqs=None.
    """

    n: int
    edges: BandEdges = field(default_factory=BandEdges.symmetric)
    window: WindowSpec = WindowSpec()
    m: int = 1
    grid_size: int = MSE_GRID_SIZE
    zero_freqs: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_integer(self.n, 1, N_MAX, "half-order n")
        _check_integer(self.m, 0, M_MAX, "refinement order m")
        _check_integer(self.grid_size, MSE_GRID_MIN, GRID_SIZE_MAX, "grid_size")
        if self.zero_freqs is None:  # valid by construction, so not checked again
            zeros = tuple(q * self.edges.wp / self.m for q in range(self.m))
        else:
            zeros = _check_zero_freqs(self.zero_freqs, self.m)
        object.__setattr__(self, "zero_freqs", zeros)


@lru_cache(maxsize=64)
def trapezoid_taps(edges: BandEdges, n: int) -> np.ndarray:
    """Ideal trapezoid taps for signed indices -n..n, stored causally: unit gain up to wp,
    a linear fall to zero at ws. As sin^2 a - sin^2 b = sin(a - b) sin(a + b), the squared
    sincs' difference is 2 sin((ws-wp)k/2) sin((ws+wp)k/2) / (pi (ws-wp) k^2) at k != 0,
    with no terms to cancel, and (ws+wp)/(2 pi) at k = 0. n is a `DesignSpec`'s, unchecked.
    Memoised per (edges, n) and read-only: a sweep windows each band several ways. Full,
    the cache holds 64 x 4,097 x 8 B = 2.1 MB at n = 2048, 132 KB at n <= 128."""
    d, s = edges.ws - edges.wp, edges.ws + edges.wp
    k = np.arange(1.0, n + 1)
    # sin(dk/2) divided by pi d / 2 first: 2 / (pi d) overflows for a subnormal d
    half = np.sin(0.5 * d * k) / (0.5 * math.pi * d) * np.sin(0.5 * s * k) / (k * k)
    taps = np.empty(2 * n + 1)
    taps[n], taps[n + 1 :], taps[:n] = s / (2 * math.pi), half, half[::-1]
    taps.flags.writeable = False
    return taps


@lru_cache(maxsize=1024)
def window_weights(spec: WindowSpec, length: int) -> np.ndarray:
    """Symmetric window weights in (0,1] with peak 1 at the center tap of an odd length >= 3.

    Memoised per (spec, length) and returned read-only, as a sweep designs
    many banks on one window. The cache keeps the last 1024 windows, enough
    for 8 window settings at every n = 32..128 (776 keys, 1.0 MB of weights).
    Full, it holds 1024 x 4,097 x 8 B = 33.6 MB of weights at n = 2048, and
    2.1 MB (under 2.6 MB with array headers and cache entries) at n <= 128.
    """
    if spec.kind == "rectangular":
        w = np.ones(length)
    elif spec.kind == "hamming":  # np.hamming rounds differently at 2,048 of 2,049 odd lengths
        w = 0.54 - 0.46 * np.cos(2 * math.pi * np.arange(length) / (length - 1))
    elif spec.kind == "kaiser":
        w = np.kaiser(length, KAISER_DEFAULT_BETA if spec.param is None else spec.param)
    else:
        mid = (length - 1) // 2
        x = (np.arange(length) - mid) / mid
        alpha = GAUSSIAN_DEFAULT_ALPHA if spec.param is None else spec.param
        w = np.exp(-0.5 * (alpha * x) ** 2)
    w.flags.writeable = False
    return w


def design_h0(spec: DesignSpec) -> np.ndarray:
    """Windowed trapezoid prototype, scaled to unit gain at w=0; symmetric by construction."""
    taps = trapezoid_taps(spec.edges, spec.n) * window_weights(spec.window, 2 * spec.n + 1)
    # The taps are symmetric, so one half holds the largest off-centre tap.
    if np.abs(taps[: spec.n]).max() <= 1e-9 * abs(taps[spec.n]):
        raise ValueError("degenerate prototype: the window leaves only the centre tap")
    dc = taps.sum()
    if abs(dc) <= 1e-9:
        raise ValueError("degenerate prototype: DC gain vanishes before normalization")
    return taps / dc

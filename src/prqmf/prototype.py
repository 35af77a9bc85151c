"""Low-pass prototype design.

The prototype is a symmetric odd-length FIR whose taps come from the
difference of two squared sinc functions (a trapezoid in frequency),
shaped by a selectable window and normalized to unit DC gain.
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
# Smallest frequency grid a design is scored on (`analysis.mse`).
MSE_GRID_MIN = 64


def _check_integer(value, low: int, name: str) -> None:
    """Raise ValueError unless value is an int or NumPy integer >= low (4.0 and True are not)."""
    if not (type(value) is int or isinstance(value, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class BandEdges:
    """Passband edge wp and stopband edge ws of the prototype, in radians."""

    wp: float
    ws: float

    def __post_init__(self):
        if not (0.0 < self.wp < self.ws < math.pi):
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
            if self.kind == "gaussian" and not 0 < self.param <= GAUSSIAN_ALPHA_MAX:
                raise ValueError(
                    f"gaussian width alpha must be finite in (0, {GAUSSIAN_ALPHA_MAX:.4g}], "
                    f"got {self.param}"
                )
            if self.kind == "kaiser" and not 0 <= self.param <= KAISER_BETA_MAX:
                raise ValueError(
                    f"kaiser beta must be finite in [0, {KAISER_BETA_MAX:.2f}], got {self.param}"
                )


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to design one filter bank.

    n is the half-order: the low-pass gets 2n+1 taps and its basic
    high-pass mate 2n-1. m is the refinement order (0 disables it).
    zero_freqs overrides the default stop-band zero placement and must
    hold exactly m frequencies.
    """

    n: int
    edges: BandEdges = field(default_factory=BandEdges.symmetric)
    window: WindowSpec = WindowSpec()
    m: int = 1
    grid_size: int = 1024
    zero_freqs: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_integer(self.n, 1, "half-order n")
        _check_integer(self.m, 0, "refinement order m")
        _check_integer(self.grid_size, MSE_GRID_MIN, "grid_size")
        if self.zero_freqs is not None:
            object.__setattr__(self, "zero_freqs", tuple(float(w) for w in self.zero_freqs))
            if len(self.zero_freqs) != self.m:
                raise ValueError(
                    f"need exactly m={self.m} zero frequencies, got {len(self.zero_freqs)}"
                )


def trapezoid_taps(edges: BandEdges, n: int) -> np.ndarray:
    """Squared-sinc difference taps for signed indices -n..n, stored causally.

    The frequency response of the ideal version is a trapezoid: unit gain
    up to wp, linear fall to zero at ws.
    """
    _check_integer(n, 1, "half-order n")
    denom = 2.0 * math.pi * (edges.ws - edges.wp)
    # sinc(x) = sin(pi x) / (pi x) at x = w k / (2 pi), rounded as np.sinc
    # rounds it but without its wrapper's temporaries. At k = 0 a tiny
    # stand-in for pi x makes sin(y) / y exactly 1, as in np.sinc.
    y = np.array(((edges.ws,), (edges.wp,))) * np.arange(-n, n + 1)
    y /= 2 * math.pi
    y *= math.pi
    y[:, n] = 1e-20
    sinc = np.sin(y)
    sinc /= y
    sinc *= sinc
    return edges.ws**2 / denom * sinc[0] - edges.wp**2 / denom * sinc[1]


@lru_cache(maxsize=1024)
def window_weights(spec: WindowSpec, length: int) -> np.ndarray:
    """Symmetric window weights in (0,1] with peak 1 at the center tap.

    Memoised per (spec, length) and returned read-only, as a sweep designs
    many banks on one window. The cache keeps the last 1024 windows, enough
    for 8 window settings at every n = 32..128 (776 keys, 1.0 MB of
    weights). Full, at 257 taps (n = 128) each, it holds 2.1 MB of weights,
    under 2.6 MB with array headers and cache entries.
    """
    if length < 1 or length % 2 == 0:
        raise ValueError("window length must be odd and >= 1")
    if spec.kind == "rectangular" or length == 1:
        w = np.ones(length)
    elif spec.kind == "hamming":
        w = 0.54 - 0.46 * np.cos(2 * math.pi * np.arange(length) / (length - 1))
    else:
        mid = (length - 1) // 2
        x = (np.arange(length) - mid) / mid
        if spec.kind == "gaussian":
            alpha = GAUSSIAN_DEFAULT_ALPHA if spec.param is None else spec.param
            w = np.exp(-0.5 * (alpha * x) ** 2)
        else:
            beta = KAISER_DEFAULT_BETA if spec.param is None else spec.param
            # The center tap has x = 0, so it holds I0(beta).
            w = np.i0(beta * np.sqrt(1.0 - x * x))
            w /= w[mid]
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

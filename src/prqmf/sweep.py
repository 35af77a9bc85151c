"""Band-edge / window-parameter sweep against reference response scores.

The reference configurations fix (window, n, m) but not the band edges or
the window shape parameter, so exact tap-level reproduction is not
possible. The sweep searches a small documented grid and reports, per
configuration, how close each candidate's -10 log10(MSE) scores come to
the reference (lowpass_db, highpass_db) pair.

The grid has a band-center axis besides the half-width: prototypes
centered exactly on pi/2 are half-band, so H0(z) and H0(-z) share no zero
and their unique high-pass mate is the pure delay (`qmf_core.basic_mate`
returns it without a solve). That caps the refined high-pass score far
below every reference value. The reference designs are only reachable with
the prototype band shifted above pi/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import analysis
from .bank import design_bank
from .prototype import MSE_GRID_SIZE, BandEdges, DesignSpec, WindowSpec

# Band centers and half-widths swept, as fractions of pi.
CENTERS = (0.5, 0.5625, 0.5875, 0.6)
DELTAS = (0.05, 0.075, 0.1, 0.15)

DB_TOL = 1.5


@dataclass(frozen=True)
class ReferenceConfig:
    name: str
    window: str
    n: int
    m: int
    params: tuple[float | None, ...]
    lowpass_db: float
    highpass_db: float


REFERENCES = (
    ReferenceConfig("rectangular-n10-m1", "rectangular", 10, 1, (None,), 13.24, 17.77),
    ReferenceConfig("hamming-n10-m1", "hamming", 10, 1, (None,), 13.80, 16.04),
    ReferenceConfig("gaussian-n10-m1", "gaussian", 10, 1, (2.0, 2.5, 3.0), 13.56, 17.58),
    ReferenceConfig("kaiser-n20-m2", "kaiser", 20, 2, (4.0, 6.0, 8.0), 12.56, 17.70),
)


@dataclass(frozen=True)
class SweepPoint:
    """One scored design of the sweep; its errors are derived from `ref`'s targets."""

    ref: ReferenceConfig
    center: float
    delta: float
    param: float | None
    lowpass_db: float
    highpass_db: float

    @property
    def worst_err(self) -> float:
        ref = self.ref
        return max(abs(self.lowpass_db - ref.lowpass_db), abs(self.highpass_db - ref.highpass_db))

    def within(self) -> bool:
        return self.worst_err <= DB_TOL


def run_sweep(grid_size: int = MSE_GRID_SIZE) -> dict[str, list[SweepPoint]]:
    results: dict[str, list[SweepPoint]] = {}
    for ref in REFERENCES:
        points = results[ref.name] = []
        for center, delta, param in itertools.product(CENTERS, DELTAS, ref.params):
            edges = BandEdges((center - delta) * math.pi, (center + delta) * math.pi)
            window = WindowSpec(ref.window, param)
            spec = DesignSpec(n=ref.n, edges=edges, window=window, m=ref.m)
            bank = design_bank(spec)
            low = analysis.mse(bank.h0, "lowpass", grid_size).db
            high = analysis.mse(bank.h1, "highpass", grid_size).db
            points.append(SweepPoint(ref, center, delta, param, low, high))
    return results


def best_matches(results: dict[str, list[SweepPoint]]) -> dict[str, SweepPoint]:
    """Per reference configuration, the sweep point with the smallest worst-case error."""
    return {name: min(points, key=lambda p: p.worst_err) for name, points in results.items()}

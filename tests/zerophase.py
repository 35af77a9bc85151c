"""Zero-phase amplitude of an odd-length filter at arbitrary frequencies.

No library code needs it: tests use it to check amplitudes, the forced zeros of
acceptance criterion 4 among them."""

import numpy as np

from prqmf.poly import as_poly


def amplitude(p, omegas):
    """Zero-phase amplitude A(w) about the midpoint of an odd-length p.

    For p symmetric about its midpoint c, the response is e^{-j w c} A(w),
    so A is real and carries the sign information the magnitude loses.
    """
    p = as_poly(p)
    if p.size % 2 == 0:
        raise ValueError("amplitude needs an odd-length filter")
    w = np.asarray(omegas, dtype=float)
    k = np.arange(p.size) - (p.size - 1) // 2
    return np.cos(np.multiply.outer(w, k)) @ p

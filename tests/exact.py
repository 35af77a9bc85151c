"""Exact rational reference for the mate and the refinement.

Every float is a rational, so a solve, a product and a transfer function carried
out in fractions.Fraction on float taps have no round-off: they are what the float
code approximates.
"""

import math
from fractions import Fraction


def rational(values) -> list[Fraction]:
    return [Fraction(float(v)) for v in values]


def convolve(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def transfer(h0, h1) -> list[Fraction]:
    """T(z) = 0.5 [H0(z) H1(-z) - H1(z) H0(-z)]: the odd-power coefficients of H0(z) H1(-z)."""
    p = convolve(h0, [-c if k % 2 else c for k, c in enumerate(h1)])
    return [c if k % 2 else Fraction(0) for k, c in enumerate(p)]


def mate_system(h0) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The mate system from its definition: the coefficient of z^-(2r+1) in H0(z) H1(-z),
    r = 0..n-1, with the symmetric mate's taps b_j and b_{2n-2-j} one unknown."""
    n = (len(h0) - 1) // 2
    mat = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for j in range(min(2 * r + 2, 2 * n - 1)):
            mat[r][min(j, 2 * n - 2 - j)] += h0[2 * r + 1 - j] * (-1) ** j
    return mat, [Fraction(0)] * (n - 1) + [Fraction(1)]


def solve(mat, rhs) -> tuple[list[Fraction] | None, int]:
    """(x, rank) with mat x = rhs exactly, the free unknowns of a rank-deficient system 0,
    or (None, rank) if it is inconsistent. Fraction-free (Bareiss) elimination on the
    system scaled to integers, then back substitution in Fractions."""
    scale = math.lcm(*(v.denominator for row in mat for v in row), *(b.denominator for b in rhs))
    rows = [[int(v * scale) for v in (*row, b)] for row, b in zip(mat, rhs)]
    pivots, prev = [], 1
    for c in range(len(mat[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(piv[c] * v - f * w) // prev for v, w in zip(rows[i], piv)]
        prev = piv[c]
        pivots.append(c)
    if any(row[-1] for row in rows[len(pivots) :]):
        return None, len(pivots)
    x = [Fraction(0)] * len(mat[0])
    for r in reversed(range(len(pivots))):
        row, c = rows[r], pivots[r]
        x[c] = Fraction(row[-1] - sum(row[k] * x[k] for k in range(c + 1, len(x))), row[c])
    return x, len(pivots)

"""The mate and the refinement against exact rational arithmetic (`exact.py`), for n <= 12."""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import exact
from prqmf.prototype import BandEdges, DesignSpec, WindowSpec, design_h0
from prqmf.qmf_core import SingularSystem, basic_mate, build_system, is_half_band, solve
from prqmf.refine import build_e

small_specs = st.builds(
    DesignSpec,
    n=st.integers(1, 12),
    edges=st.lists(st.floats(0.01, math.pi - 0.01), min_size=2, max_size=2, unique=True).map(
        lambda e: BandEdges(*sorted(e))
    ),
    window=st.one_of(
        st.builds(WindowSpec, st.sampled_from(["rectangular", "hamming"])),
        st.builds(WindowSpec, st.just("gaussian"), st.floats(0.5, 5.0)),
        st.builds(WindowSpec, st.just("kaiser"), st.floats(0.0, 10.0)),
    ),
)


def prototype(spec) -> np.ndarray:
    """design_h0's taps with the first half mirrored: the hamming window's cosine leaves
    round-off asymmetry, and an exact transfer needs the exact symmetry the mate assumes."""
    try:
        h0 = design_h0(spec)
    except ValueError:  # a degenerate prototype
        assume(False)
    return np.concatenate([h0[: spec.n + 1], h0[spec.n - 1 :: -1]])


half_band_specs = st.builds(
    DesignSpec,
    n=st.integers(1, 12),
    edges=st.sampled_from([0.05, 0.1, 0.25, 0.4]).map(lambda d: BandEdges.symmetric(d * math.pi)),
    window=st.sampled_from([WindowSpec("rectangular"), WindowSpec("hamming"), WindowSpec("kaiser")]),
)


def exact_mate(h0) -> list:
    """The mate's n independent taps, solved exactly; skips an inconsistent system."""
    x, _ = exact.solve(*exact.mate_system(exact.rational(h0)))
    assume(x is not None)
    return x


@settings(max_examples=40, deadline=None)
@given(small_specs)
def test_float_mate_within_cond_eps_of_exact(spec):
    h0 = prototype(spec)
    x, rank = exact.solve(*exact.mate_system(exact.rational(h0)))
    mat, rhs = build_system(h0)
    cond = np.linalg.cond(mat)
    # Where cond * eps nears 1 the float cond is itself round-off, and the bound says nothing.
    assume(rank == spec.n and cond < 1e12)
    try:
        got = solve((mat, rhs))
    except SingularSystem:
        return  # LU met an exact zero pivot or overflowed: no float mate to compare
    want = np.array(x, dtype=float)
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= 2 * spec.n * cond * np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(small_specs)
def test_exact_mate_is_exactly_pr(spec):
    """PR with no tolerance: the exact transfer has one nonzero coefficient, the centre
    odd power pinned to 1, and every spurious one is exactly 0."""
    h0 = exact.rational(prototype(spec))
    x = exact_mate(h0)
    t = exact.transfer(h0, x + x[-2::-1])
    delay = 2 * spec.n - 1
    assert t[delay] == 1
    assert not any(t[:delay] + t[delay + 1 :])


@settings(max_examples=40, deadline=None)
@given(small_specs, st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
def test_refinement_keeps_transfer_exactly(spec, free):
    """Criterion 3 in exact arithmetic: for a random rational E with even powers only
    (build_e's, from float, hence rational, coefficients), z^(-2m) H1 + E H0 has the
    transfer of (H0, H1) shifted by 2m, exactly."""
    h0 = exact.rational(prototype(spec))
    x = exact_mate(h0)
    h1 = x + x[-2::-1]
    m = len(free)
    refined = exact.convolve(exact.rational(build_e(free)), h0)
    for k, c in enumerate(h1):
        refined[2 * m + k] += c
    zeros = [0] * (2 * m)
    assert exact.transfer(h0, refined) == zeros + exact.transfer(h0, h1) + zeros


@settings(max_examples=40, deadline=None)
@given(half_band_specs)
def test_half_band_mate_is_the_pure_delay(spec):
    """With its even off-centre taps (round-off, <= 1e-15) set to 0, a half-band
    prototype's mate system has full rank and its one exact solution is the delay
    z^-(n-1): every tap but the centre is 0. `basic_mate` returns that delay exactly."""
    h0 = prototype(spec)
    n = spec.n
    assert is_half_band(h0)
    centre = h0[n]
    h0[n % 2 :: 2] = 0.0
    h0[n] = centre
    x, rank = exact.solve(*exact.mate_system(exact.rational(h0)))
    assert rank == n
    assert not any(x[:-1]) and x[-1] == (-1) ** (n - 1) / exact.rational([centre])[0]
    assert np.array_equal(basic_mate(design_h0(spec)), np.eye(2 * n - 1)[n - 1])

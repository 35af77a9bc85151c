import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prqmf import poly
from prqmf.prototype import BandEdges, DesignSpec, WindowSpec, design_h0
from prqmf.qmf_core import DegeneratePassband, SingularSystem, basic_mate
from prqmf.analysis import transfer, verify_pr
from prqmf.refine import (
    SINGULAR_RTOL,
    RefinementSpec,
    SingularRefinement,
    _solve_correction,
    build_e,
    default_zero_freqs,
    refine_h1,
)

TOY_REFINED = np.array([1 / 9, 2 / 9, -1 / 18, -5 / 9, -1 / 18, 2 / 9, 1 / 9])


class TestBuildE:
    def test_m1(self):
        assert np.array_equal(build_e([0.3]), [0.3, 0.0, 0.3])

    def test_m2(self):
        assert np.array_equal(build_e([0.5, -0.2]), [0.5, 0, -0.2, 0, -0.2, 0, 0.5])

    def test_zero_coefficient_gives_zero_polynomial(self):
        assert np.array_equal(build_e([0.0]), np.zeros(3))

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            build_e([])

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5))
    def test_even_powers_only_and_symmetric(self, free):
        e = build_e(free)
        assert e.size == 4 * len(free) - 1
        assert np.array_equal(e, e[::-1])
        assert not np.any(e[1::2])


class TestDefaultZeroFreqs:
    def test_m1_is_dc_only(self):
        assert default_zero_freqs(1, BandEdges.symmetric()) == (0.0,)

    def test_m2(self):
        freqs = default_zero_freqs(2, BandEdges(0.4 * math.pi, 0.6 * math.pi))
        assert freqs == pytest.approx((0.0, 0.2 * math.pi))

    def test_m3(self):
        freqs = default_zero_freqs(3, BandEdges(0.4 * math.pi, 0.6 * math.pi))
        assert freqs == pytest.approx((0.0, 2 * math.pi / 15, 4 * math.pi / 15))

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            default_zero_freqs(0, BandEdges.symmetric())

    def test_non_integer_m_rejected(self):
        # 2.0 used to fail with TypeError from range()
        with pytest.raises(ValueError, match="refinement order m must be an integer"):
            default_zero_freqs(2.0, BandEdges.symmetric())


class TestRefinementSpec:
    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            RefinementSpec(2, (0.0,))

    def test_non_increasing(self):
        with pytest.raises(ValueError):
            RefinementSpec(2, (0.3, 0.3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            RefinementSpec(1, (math.pi,))

    @pytest.mark.parametrize("m", [1.0, 1.5, True, np.float64(1.0)])
    def test_non_integer_order_rejected(self, m):
        with pytest.raises(ValueError, match="refinement order m must be an integer"):
            RefinementSpec(m, (0.0,))

    def test_numpy_integer_order_accepted(self):
        spec = RefinementSpec(np.int64(2), (0.0, 0.5))
        assert spec == RefinementSpec(2, (0.0, 0.5))


class TestToyRefinement:
    def test_closed_form_coefficient(self, toy_h0, toy_h1):
        free = _solve_correction(toy_h0, toy_h1, RefinementSpec(1, (0.0,)))
        assert free[0] == pytest.approx(1 / 9, abs=1e-15)
        # spec'd closed form for a DC zero
        assert free[0] == pytest.approx(-toy_h1.sum() / (2 * toy_h0.sum()), abs=1e-15)

    def test_refined_taps(self, toy_h0, toy_h1):
        h1p = refine_h1(toy_h0, toy_h1, RefinementSpec(1, (0.0,)), normalize=False)
        assert np.allclose(h1p, TOY_REFINED, atol=1e-12)
        assert poly.amplitude(h1p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_refined_transfer_is_shifted_delay(self, toy_h0, toy_h1):
        h1p = refine_h1(toy_h0, toy_h1, RefinementSpec(1, (0.0,)), normalize=False)
        report = verify_pr(toy_h0, h1p)
        assert report.delay == 5
        assert report.scale == pytest.approx(1.0, abs=1e-12)
        assert report.max_spurious <= 1e-12

    def test_zero_correction_is_pure_shift(self, toy_h0, toy_h1):
        shifted = np.convolve(build_e([0.0]), toy_h0)
        shifted[2 : 2 + toy_h1.size] += toy_h1
        report = verify_pr(toy_h0, shifted)
        assert report.delay == 5


def certified_pair(n, window=WindowSpec("rectangular"), delta=0.1 * math.pi):
    h0 = design_h0(DesignSpec(n=n, edges=BandEdges.symmetric(delta), window=window))
    return h0, basic_mate(h0)


class TestStructure:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 10),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**31),
    )
    def test_pr_preserved_for_arbitrary_e(self, n, m, seed):
        # strongest structural check: ANY even-symmetric E keeps T a shifted delay
        h0, h1 = certified_pair(n)
        rng = np.random.default_rng(seed)
        e = build_e(rng.uniform(-1.0, 1.0, m))
        h1p = np.convolve(e, h0)
        h1p[2 * m : 2 * m + h1.size] += h1
        t = transfer(h0, h1)
        expected = np.concatenate([np.zeros(2 * m), t, np.zeros(2 * m)])
        got = transfer(h0, h1p)
        assert np.allclose(got, expected, atol=1e-10 * max(1.0, np.abs(t).max()))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_forcing_and_lengths(self, m):
        edges = BandEdges.symmetric()
        h0, h1 = certified_pair(8)
        spec = RefinementSpec(m, default_zero_freqs(m, edges))
        h1p = refine_h1(h0, h1, spec)
        assert h1p.size == 2 * 8 + 4 * m - 1
        poly.require_symmetric(h1p)
        amps = poly.amplitude(h1p, np.array(spec.zero_freqs))
        assert np.all(np.abs(amps) <= 1e-10 * np.abs(h1p).max())

    def test_m1_dc_zero_matches_closed_form(self):
        # independent reference: a DC zero of z^-2 H1 + c (1 + z^-2) H0 needs
        # H1(1) + 2 c H0(1) = 0, i.e. c = -H1(1) / (2 H0(1))
        h0, h1 = certified_pair(6, WindowSpec("hamming"))
        dense = _solve_correction(h0, h1, RefinementSpec(1, (0.0,)))
        assert dense[0] == pytest.approx(-h1.sum() / (2 * h0.sum()), rel=1e-12)

    def test_near_duplicate_zeros_are_singular(self):
        h0, h1 = certified_pair(6)
        spec = RefinementSpec(2, (0.1, 0.1 + 1e-16))
        with pytest.raises(SingularRefinement):
            refine_h1(h0, h1, spec)

    def test_unreachable_single_zero_is_singular(self):
        # (1 + z^-2) H0(z) has zero amplitude at pi/2, so E cannot move it
        h0, h1 = certified_pair(10)
        with pytest.raises(SingularRefinement):
            refine_h1(h0, h1, RefinementSpec(1, (math.pi / 2,)))

    def test_singular_message_names_both_factors(self):
        # mat = diag(A0(w)) C; at pi/2 the cosine column 2 cos(w) vanishes
        h0, h1 = certified_pair(10)
        with pytest.raises(SingularRefinement) as exc:
            refine_h1(h0, h1, RefinementSpec(1, (math.pi / 2,)))
        msg = str(exc.value)
        a0 = abs(float(poly.amplitude(h0, math.pi / 2)))
        assert f"min |A0(w_q)| = {a0:.3e}" in msg
        assert "cond(C) = " in msg
        assert f"min singular value of C = {2 * math.cos(math.pi / 2):.3e}" in msg

    def test_identical_cosine_rows_are_singular(self):
        # zeros 0 and 1e-17 give bit-identical rows of C, and LU meets an exact zero
        # pivot (with OpenBLAS's LAPACK); the least-squares [rhs | I] then fails the gate
        h0 = design_h0(DesignSpec(n=8))
        with pytest.raises(SingularRefinement) as exc:
            refine_h1(h0, basic_mate(h0), RefinementSpec(2, (0.0, 1e-17)))
        msg = str(exc.value)
        assert f"min |A0(w_q)| = {abs(float(poly.amplitude(h0, 0.0))):.3e}" in msg
        assert "cond(C) = " in msg

    def test_wrong_mate_length_rejected(self):
        h0, _ = certified_pair(6)
        with pytest.raises(ValueError):
            refine_h1(h0, np.array([1.0, 2.0, 1.0]), RefinementSpec(1, (0.0,)))

    @pytest.mark.parametrize(
        "name, fault, message",
        [
            ("h0", "asymmetric", "h0 must have odd length and mirror symmetry"),
            ("h1", "asymmetric", "h1 must have odd length and mirror symmetry"),
            ("h1", "even-length", "h1 must have odd length and mirror symmetry"),
            ("h0", "nan", "finite"),
            ("h1", "nan", "finite"),
        ],
    )
    def test_malformed_pair_rejected(self, name, fault, message):
        pair = dict(zip(("h0", "h1"), certified_pair(6)))
        h = pair[name].copy()
        if fault == "asymmetric":
            h[0] += 1.0
        elif fault == "nan":
            h[h.size // 2] = np.nan
        else:
            h = np.append(h, h[0])
        pair[name] = h
        with pytest.raises(ValueError, match=message):
            refine_h1(pair["h0"], pair["h1"], RefinementSpec(1, (0.0,)))


def convolution_system(h0, h1, spec):
    """The zero-forcing system built term by term: column j is the amplitude
    of (z^(-2j) + z^(-(4m-2-2j))) H0(z), and the rhs that of z^(-2m) H1(z),
    all about the shared centre n+2m-1 of the refined filter, the midpoint of
    each of these 2n+4m-1-tap arrays."""
    n, m = (h0.size - 1) // 2, spec.m
    shifted = np.zeros(2 * n + 4 * m - 1)
    shifted[2 * m : 2 * m + h1.size] = h1
    w = np.array(spec.zero_freqs)
    cols = [np.convolve(build_e(unit), h0) for unit in np.eye(m)]
    mat = np.column_stack([poly.amplitude(g, w) for g in cols])
    return mat, -poly.amplitude(shifted, w)


WINDOWS = [WindowSpec(kind) for kind in ("rectangular", "hamming", "gaussian", "kaiser")]


class TestClosedFormSystem:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 40),
        m=st.integers(1, 3),
        window=st.sampled_from(WINDOWS),
        center=st.sampled_from([0.5 * math.pi, 0.5625 * math.pi]),
        delta=st.floats(0.05 * math.pi, 0.15 * math.pi),
    )
    def test_matches_convolution_system(self, n, m, window, center, delta):
        edges = BandEdges(center - delta, center + delta)
        h0 = design_h0(DesignSpec(n=n, edges=edges, window=window))
        try:
            h1 = basic_mate(h0)
        except (SingularSystem, DegeneratePassband):
            return  # no mate to refine
        spec = RefinementSpec(m, default_zero_freqs(m, edges))
        mat, rhs = convolution_system(h0, h1, spec)
        inv_norm = np.linalg.cond(mat, 1) / np.linalg.norm(mat, 1)
        singular = 1.0 / inv_norm <= SINGULAR_RTOL * np.abs(h0).sum()
        try:
            free = _solve_correction(h0, h1, spec)
        except SingularRefinement:
            assert singular
            return
        assert not singular
        want = np.linalg.solve(mat, rhs)
        assert np.abs(free - want).max() <= 1e-12 * np.abs(want).max()

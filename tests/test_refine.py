import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zerophase
from prqmf import poly, refine
from prqmf.bank import design_bank
from prqmf.prototype import BandEdges, DesignSpec, WindowSpec, design_h0
from prqmf.qmf_core import DegeneratePassband, SingularSystem, basic_mate
from prqmf.analysis import transfer, verify_pr
from prqmf.refine import (
    SINGULAR_RTOL,
    SingularRefinement,
    _cosines,
    _solve_correction,
    _zero_forcing,
    build_e,
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

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=5))
    def test_even_powers_only_and_symmetric(self, free):
        e = build_e(free)
        assert e.size == 4 * len(free) - 1
        assert np.array_equal(e, e[::-1])
        assert not np.any(e[1::2])


class TestRefineH1Zeros:
    """The refinement takes its zeros only from a DesignSpec, so zeros that break
    DesignSpec's rules are refused before refine_h1 runs."""

    @staticmethod
    def refuse(monkeypatch, message, **spec):
        def must_not_run(*args):
            raise AssertionError("refine_h1 reached with bad zeros")

        monkeypatch.setattr(refine, "refine_h1", must_not_run)
        with pytest.raises(ValueError, match=message):
            design_bank(DesignSpec(n=6, **spec))

    def test_empty_zeros_rejected(self, monkeypatch):
        self.refuse(monkeypatch, "need exactly m=1 zero frequencies, got 0", m=1, zero_freqs=())

    @pytest.mark.parametrize(
        "zeros, message",
        [
            ((0.5, 0.3), "strictly increasing"),
            ((math.pi,), r"lie in \[0, pi\)"),
            ((-0.1, 0.5), r"lie in \[0, pi\)"),
        ],
        ids=["decreasing", "pi", "negative"],
    )
    def test_bad_zeros_rejected(self, monkeypatch, zeros, message):
        self.refuse(monkeypatch, message, m=len(zeros), zero_freqs=zeros)


class TestToyRefinement:
    def test_closed_form_coefficient(self, toy_h0, toy_h1):
        free = _solve_correction(toy_h0, toy_h1, (0.0,))
        assert free[0] == pytest.approx(1 / 9, abs=1e-15)
        # spec'd closed form for a DC zero
        assert free[0] == pytest.approx(-toy_h1.sum() / (2 * toy_h0.sum()), abs=1e-15)

    def test_refined_taps(self, toy_h0, toy_h1):
        h1p = refine_h1(toy_h0, toy_h1, (0.0,))
        assert np.allclose(h1p, TOY_REFINED, atol=1e-12)
        assert zerophase.amplitude(h1p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_refined_transfer_is_shifted_delay(self, toy_h0, toy_h1):
        h1p = refine_h1(toy_h0, toy_h1, (0.0,))
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
        zs = DesignSpec(n=8, edges=edges, m=m).zero_freqs
        h1p = refine_h1(h0, h1, zs)
        assert h1p.size == 2 * 8 + 4 * m - 1
        assert poly._symmetric(h1p)
        amps = zerophase.amplitude(h1p, np.array(zs))
        assert np.all(np.abs(amps) <= 1e-10 * np.abs(h1p).max())

    def test_m1_dc_zero_matches_closed_form(self):
        # independent reference: a DC zero of z^-2 H1 + c (1 + z^-2) H0 needs
        # H1(1) + 2 c H0(1) = 0, i.e. c = -H1(1) / (2 H0(1))
        h0, h1 = certified_pair(6, WindowSpec("hamming"))
        dense = _solve_correction(h0, h1, (0.0,))
        assert dense[0] == pytest.approx(-h1.sum() / (2 * h0.sum()), rel=1e-12)

    def test_near_duplicate_zeros_are_singular(self):
        h0, h1 = certified_pair(6)
        with pytest.raises(SingularRefinement):
            refine_h1(h0, h1, (0.1, 0.1 + 1e-16))

    def test_unreachable_single_zero_is_singular(self):
        # (1 + z^-2) H0(z) has zero amplitude at pi/2, so E cannot move it
        h0, h1 = certified_pair(10)
        with pytest.raises(SingularRefinement):
            refine_h1(h0, h1, (math.pi / 2,))

    def test_singular_message_names_both_factors(self):
        # mat = diag(A0(w)) C; at pi/2 the cosine column 2 cos(w) vanishes
        h0, h1 = certified_pair(10)
        with pytest.raises(SingularRefinement) as exc:
            refine_h1(h0, h1, (math.pi / 2,))
        msg = str(exc.value)
        a0 = abs(float(zerophase.amplitude(h0, math.pi / 2)))
        assert f"min |A0(w_q)| = {a0:.3e}" in msg
        assert "cond(C) = " in msg
        assert f"min singular value of C = {2 * math.cos(math.pi / 2):.3e}" in msg

    def test_identical_cosine_rows_are_singular(self):
        # zeros 0 and 1e-17 give bit-identical rows of C, and LU meets an exact zero
        # pivot (with OpenBLAS's LAPACK); `solve` raises, an infinite inverse norm
        h0 = design_h0(DesignSpec(n=8))
        with pytest.raises(SingularRefinement) as exc:
            refine_h1(h0, basic_mate(h0), (0.0, 1e-17))
        msg = str(exc.value)
        assert f"min |A0(w_q)| = {abs(float(zerophase.amplitude(h0, 0.0))):.3e}" in msg
        assert "cond(C) = " in msg


class TestCosineMemo:
    ZEROS = (0.0, 0.3, 1.1)

    def test_cached_tables_are_read_only(self):
        table = _cosines(self.ZEROS, 7)
        assert table.shape == (3, 15)
        want = table.copy()
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
        assert np.array_equal(table, want)

    @pytest.mark.parametrize("n", [1, 10, 128])
    @pytest.mark.parametrize("zeros", [(0.0,), ZEROS])
    def test_cache_matches_uncached(self, zeros, n):
        table = _cosines(zeros, n)
        want = _cosines.__wrapped__(zeros, n)
        assert table.shape == want.shape == (len(zeros), 2 * n + 1)
        assert table.tobytes() == want.tobytes()
        assert _cosines(zeros, n) is table

    def test_cache_is_bounded(self):
        # 32 keys hold a reference sweep (17 keys); at n = 2048, m = 24 they are 25 MB
        assert _cosines.cache_info().maxsize == 32


class TestZeroForcingMemo:
    ZERO_SETS = [(0.0,), (0.0, 0.3, 1.1), (0.0, 0.3, 0.32)]
    # m = 1 at pi/2 (C = 2 cos(pi/2), about 1e-16), (w, pi - w), whose second row of C is
    # minus its first, and two zeros whose rows of C are bit-identical
    SINGULAR = [(math.pi / 2,), (0.7, math.pi - 0.7), (0.0, 1e-17)]

    @pytest.mark.parametrize("zeros", ZERO_SETS + SINGULAR)
    def test_cache_matches_uncached_and_is_read_only(self, zeros):
        arrays, m = _zero_forcing(zeros), len(zeros)
        shapes = [(m, m), (m, m), (m,)]
        for got, want, shape in zip(arrays, _zero_forcing.__wrapped__(zeros), shapes):
            assert got.shape == want.shape == shape
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert _zero_forcing(zeros) is arrays

    @pytest.mark.parametrize("zeros", ZERO_SETS)
    def test_inverse_and_its_column_norms(self, zeros):
        cos, inv, norms = _zero_forcing(zeros)
        assert np.allclose(cos @ inv, np.eye(len(zeros)), atol=1e-9)
        assert np.array_equal(norms, np.abs(inv).sum(axis=0))

    def test_exact_zero_pivot_gives_infinite_norms(self):
        # bit-identical rows of C: LU meets an exact zero pivot (with OpenBLAS's LAPACK)
        _, inv, norms = _zero_forcing.__wrapped__((0.0, 1e-17))
        assert np.isinf(inv).all() and np.isinf(norms).all()

    def test_cache_is_bounded(self):
        assert _zero_forcing.cache_info().maxsize == 32

    def test_one_entry_for_every_n(self):
        # the key is the zero set alone, so the default m = 1 designs at n = 10 and 20 share it
        _zero_forcing.cache_clear()
        for n in (10, 20):
            assert design_bank(DesignSpec(n=n, m=1)).zero_freqs == (0.0,)
        assert _zero_forcing.cache_info()[:4] == (1, 1, 32, 1)

    @pytest.mark.parametrize("zeros", SINGULAR)
    def test_singular_message_on_miss_and_hit(self, zeros):
        h0, h1 = certified_pair(10)
        _zero_forcing.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(SingularRefinement) as exc:
                refine_h1(h0, h1, zeros)
            messages.append(str(exc.value))
        assert _zero_forcing.cache_info()[:2] == (1, 1)
        assert messages[0] == messages[1]
        assert messages[0].startswith("singular zero-forcing system: min |A0(w_q)| = ")


def convolution_system(h0, h1, zs):
    """The zero-forcing system built term by term: column j is the amplitude
    of (z^(-2j) + z^(-(4m-2-2j))) H0(z), and the rhs that of z^(-2m) H1(z),
    all about the shared centre n+2m-1 of the refined filter, the midpoint of
    each of these 2n+4m-1-tap arrays."""
    n, m = (h0.size - 1) // 2, len(zs)
    shifted = np.zeros(2 * n + 4 * m - 1)
    shifted[2 * m : 2 * m + h1.size] = h1
    w = np.array(zs)
    cols = [np.convolve(build_e(unit), h0) for unit in np.eye(m)]
    mat = np.column_stack([zerophase.amplitude(g, w) for g in cols])
    return mat, -zerophase.amplitude(shifted, w)


WINDOWS = [WindowSpec(kind) for kind in ("rectangular", "hamming", "gaussian", "kaiser")]
CLOSE_ZEROS = dict(n=20, m=3, window=WINDOWS[1], center=0.5625 * math.pi, delta=0.1 * math.pi)


class TestClosedFormSystem:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 40),
        m=st.integers(1, 3),
        window=st.sampled_from(WINDOWS),
        center=st.sampled_from([0.5 * math.pi, 0.5625 * math.pi]),
        delta=st.floats(0.05 * math.pi, 0.15 * math.pi),
        zeros=st.none(),
    )
    # m = 3 with two close zeros: C is ill-conditioned (0.02 apart; the coefficients agree
    # to 1.5e-13) or singular to the gate (1e-14 apart)
    @example(**CLOSE_ZEROS, zeros=(0.0, 0.3, 0.32))
    @example(**CLOSE_ZEROS, zeros=(0.0, 0.3, 0.3 + 1e-14))
    def test_matches_convolution_system(self, n, m, window, center, delta, zeros):
        edges = BandEdges(center - delta, center + delta)
        h0 = design_h0(DesignSpec(n=n, edges=edges, window=window))
        try:
            h1 = basic_mate(h0)
        except (SingularSystem, DegeneratePassband):
            return  # no mate to refine
        zs = DesignSpec(n=n, edges=edges, m=m, zero_freqs=zeros).zero_freqs
        mat, rhs = convolution_system(h0, h1, zs)
        inv_norm = np.linalg.cond(mat, 1) / np.linalg.norm(mat, 1)
        singular = 1.0 / inv_norm <= SINGULAR_RTOL * np.abs(h0).sum()
        try:
            free = _solve_correction(h0, h1, zs)
        except SingularRefinement:
            assert singular
            return
        assert not singular
        want = np.linalg.solve(mat, rhs)
        assert np.abs(free - want).max() <= 1e-12 * np.abs(want).max()

import dataclasses
import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zerophase
from prqmf import poly
from prqmf.bank import design_bank
from prqmf.prototype import (
    GAUSSIAN_ALPHA_MAX,
    GRID_SIZE_MAX,
    KAISER_BETA_MAX,
    M_MAX,
    N_MAX,
    BandEdges,
    DesignSpec,
    WindowSpec,
    design_h0,
    trapezoid_taps,
    window_weights,
)

EDGES = BandEdges(0.4 * math.pi, 0.6 * math.pi)
# A long-design sweep: 8 window settings at every n = 32..128 are 776 keys.
SWEEP_WINDOWS = (
    [WindowSpec("rectangular"), WindowSpec("hamming")]
    + [WindowSpec("gaussian", alpha) for alpha in (2.0, 2.5, 3.0)]
    + [WindowSpec("kaiser", beta) for beta in (4.0, 6.0, 8.0)]
)
SWEEP_LENGTHS = range(65, 258, 2)


def scalar_tap(edges, k):
    # independent oracle: direct evaluation of the squared-sinc difference
    def sinc(x):
        return 1.0 if x == 0 else math.sin(math.pi * x) / (math.pi * x)

    c0 = edges.ws**2 / (2 * math.pi * (edges.ws - edges.wp))
    b0 = edges.wp**2 / (2 * math.pi * (edges.ws - edges.wp))
    return c0 * sinc(edges.ws * k / (2 * math.pi)) ** 2 - b0 * sinc(edges.wp * k / (2 * math.pi)) ** 2


class TestTrapezoidTaps:
    def test_center_closed_form(self):
        taps = trapezoid_taps(EDGES, 4)
        assert taps[4] == pytest.approx((EDGES.ws + EDGES.wp) / (2 * math.pi))
        assert taps[4] == pytest.approx(0.5)

    def test_first_tap_against_oracle(self):
        taps = trapezoid_taps(EDGES, 4)
        assert taps[5] == pytest.approx(scalar_tap(EDGES, 1), abs=1e-15)
        assert taps[5] == pytest.approx(0.313100, abs=5e-7)

    def test_even_in_k(self):
        taps = trapezoid_taps(BandEdges(0.3 * math.pi, 0.7 * math.pi), 7)
        assert np.array_equal(taps, taps[::-1])

    def test_all_taps_against_oracle(self):
        taps = trapezoid_taps(EDGES, 6)
        expected = [scalar_tap(EDGES, k) for k in range(-6, 7)]
        assert np.allclose(taps, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "wp,ws,reference",
        [
            (1.0, 1.000002, (
                "0.3183102044936768644816513638070279399267",
                "0.2678487053845507112361837510857078802771",
                "0.1447190477560101350069874052570713445819",
                "0.01497298277677522229870326462205967240666",
                "-0.06022463709685302667683058250821999046421",
                "-0.06104692505188410462129424358537135985296",
                "-0.0148231469395641149397191076400532995305",
                "0.0298752870396296455819375887959903114836",
                "0.03936526754393163096988427197376693368349",
            )),
            (5e-324, 1.0, (
                "0.1591549430918953357688837633725143620345",
                "0.1463263206980634634308935080324140591223",
                "0.1126933845902140262290120574115468510895",
                "0.07038158723327613759540518221782665707489",
                "0.03289819454660298760373150180508237835608",
                "0.009120696328573831941881145935144718041138",
                "0.0003521719867515277751534936772174108999899",
                "0.001598680518572860524656712595429182937603",
            )),
            (1.413716694115407, 2.0420352248333655, (  # 0.45 pi, 0.65 pi
                "0.549999999999999978560054921143435043896",
                "0.3092448997815970964799116918153786544908",
                "-0.04600884306499967091667229599071826391599",
                "-0.08115144807490174530171354635809226647405",
                "0.03540016471640733077595853105920096688907",
                "0.02865795841253782391179735559271058946308",
                "-0.02165517630993982399942864006392027874765",
                "-0.007594664337089660026422064689986752337954",
                "0.008850041179101835760615345022704070978992",
                "0.0006046861774706886110846589836141312276029",
                "-1.240826632334101158425001901349383886215e-18",
            )),
        ],
    )
    def test_within_two_ulps_of_a_40_digit_reference(self, wp, ws, reference):
        # Taps k = 0..n of the exact float edges, computed with mpmath at 60 digits and
        # kept to 40. The narrow band cancels 5 digits in a difference of squared sincs.
        n = len(reference) - 1
        taps = trapezoid_taps(BandEdges(wp, ws), n)
        ulp = decimal.Decimal(np.spacing(np.abs(taps).max()))
        for k in range(-n, n + 1):
            err = abs(decimal.Decimal(taps[n + k]) - decimal.Decimal(reference[abs(k)]))
            assert err <= 2 * ulp, k

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, N_MAX),
        st.lists(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
                 min_size=2, max_size=2, unique=True),
    )
    @example(N_MAX, [5e-324, 1.0])
    @example(7, [2.2e-308, 3.0])
    @example(8, [1.0, 1.000002])
    @example(3, [5e-324, 1e-323])
    def test_symmetric_with_exact_centre_near_the_squared_sincs(self, n, band):
        edges = BandEdges(*sorted(band))
        wp, ws = edges.wp, edges.ws
        taps = trapezoid_taps(edges, n)
        assert taps.tobytes() == taps[::-1].tobytes()
        assert taps[n] == (ws + wp) / (2 * math.pi)
        # The squared-sinc difference rounds each term to a few eps of its own size, so
        # it is only as good as 16 eps (ws^2 + wp^2) / (ws^2 - wp^2) max|tap|. The largest
        # tap is the centre, (ws + wp) / (2 pi), which turns that into the form below;
        # squares under the normal range count at `tiny`, where they lose precision.
        k = np.arange(-n, n + 1) / (2 * math.pi)
        denom = 2 * math.pi * (ws - wp)
        sincs = ws**2 / denom * np.sinc(ws * k) ** 2 - wp**2 / denom * np.sinc(wp * k) ** 2
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        tol = 16 * eps * (ws**2 + wp**2 + 2 * tiny) / denom
        assert np.abs(taps - sincs).max() <= tol


class TestTrapezoidMemo:
    def test_cached_taps_are_read_only(self):
        taps = trapezoid_taps(EDGES, 9)
        want = trapezoid_taps.__wrapped__(EDGES, 9).copy()
        with pytest.raises(ValueError):
            taps[0] = 2.0
        assert np.array_equal(trapezoid_taps(EDGES, 9), want)

    @pytest.mark.parametrize("n", [1, 10, 128, N_MAX])
    @pytest.mark.parametrize("edges", [EDGES, BandEdges(0.5125 * math.pi, 0.6625 * math.pi)])
    def test_cache_matches_uncached(self, edges, n):
        taps = trapezoid_taps(edges, n)
        assert taps.tobytes() == trapezoid_taps.__wrapped__(edges, n).tobytes()
        assert trapezoid_taps(edges, n) is taps

    def test_cache_is_bounded(self):
        # 64 bands hold a reference sweep (32 keys); at n = 2048 they are 2.1 MB of taps
        assert trapezoid_taps.cache_info().maxsize == 64

    def test_windows_of_one_band_share_its_taps(self):
        edges = BandEdges(0.4375 * math.pi, 0.6875 * math.pi)  # in no other test
        hits, misses = trapezoid_taps.cache_info()[:2]
        for window in (WindowSpec("hamming"), WindowSpec("kaiser", 4.0)):
            design_h0(DesignSpec(n=12, edges=edges, window=window))
        assert trapezoid_taps.cache_info()[:2] == (hits + 1, misses + 1)


class TestBandEdges:
    def test_rejects_equal_edges(self):
        with pytest.raises(ValueError):
            BandEdges(0.5 * math.pi, 0.5 * math.pi)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            BandEdges(0.6 * math.pi, 0.4 * math.pi)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BandEdges(0.0, 0.5)
        with pytest.raises(ValueError):
            BandEdges(0.5, math.pi)

    def test_symmetric_default(self):
        e = BandEdges.symmetric()
        assert e.wp == pytest.approx(0.4 * math.pi)
        assert e.ws == pytest.approx(0.6 * math.pi)


class TestWindows:
    def test_rectangular(self):
        assert np.array_equal(window_weights(WindowSpec("rectangular"), 5), np.ones(5))

    def test_hamming_endpoints(self):
        w = window_weights(WindowSpec("hamming"), 3)
        assert np.allclose(w, [0.08, 1.0, 0.08])

    def test_kaiser_beta_zero_is_rectangular(self):
        assert np.allclose(window_weights(WindowSpec("kaiser", 0.0), 9), np.ones(9))

    def test_gaussian_peak_and_symmetry(self):
        w = window_weights(WindowSpec("gaussian", 2.5), 11)
        assert w[5] == 1.0
        assert np.array_equal(w, w[::-1])
        assert np.all((w > 0) & (w <= 1))

    def test_largest_gaussian_alpha_rejected_without_a_warning(self):
        # every tap but the centre one gets exp(-huge) = 0: no band split is left
        spec = DesignSpec(n=10, window=WindowSpec("gaussian", GAUSSIAN_ALPHA_MAX))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="only the centre tap"):
                design_bank(spec)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 2048).map(lambda h: 2 * h + 1), st.floats(0.0, KAISER_BETA_MAX))
    @example(3, 0.0)
    @example(4097, KAISER_BETA_MAX)
    def test_kaiser_matches_numpy(self, length, beta):
        # window_weights runs on np.kaiser; the reference is I0(beta sqrt(1 - x^2)) / I0(beta)
        # written out on x = (k - mid) / mid, so a NumPy release that rounds np.kaiser
        # differently fails here instead of moving designs
        mid = (length - 1) // 2
        x = (np.arange(length) - mid) / mid
        want = np.i0(beta * np.sqrt(1.0 - x * x))
        want /= want[mid]
        assert window_weights.__wrapped__(WindowSpec("kaiser", beta), length).tobytes() == want.tobytes()

    def test_cached_window_is_read_only(self):
        spec = WindowSpec("kaiser", 4.0)
        w = window_weights(spec, 21)
        want = window_weights.__wrapped__(spec, 21).copy()
        with pytest.raises(ValueError):
            w[0] = 2.0
        assert np.array_equal(window_weights(spec, 21), want)

    @pytest.mark.parametrize("length", [3, 21, 257])
    @pytest.mark.parametrize(
        "spec",
        [WindowSpec("rectangular"), WindowSpec("hamming"), WindowSpec("gaussian", 2.5)]
        + [WindowSpec("kaiser", beta) for beta in (0.0, 4.0, 709.0)],
        ids=lambda spec: f"{spec.kind}-{spec.param}",
    )
    def test_cache_matches_uncached(self, spec, length):
        w = window_weights(spec, length)
        assert w.tobytes() == window_weights.__wrapped__(spec, length).tobytes()
        assert window_weights(spec, length) is w

    def test_cache_is_bounded(self):
        # 1024 windows hold a long-design sweep (776 keys); unbounded, a long
        # run of seeded designs kept every key it met
        assert window_weights.cache_info().maxsize == 1024

    def test_cache_holds_a_long_design_sweep(self):
        for _ in range(2):
            misses = window_weights.cache_info().misses
            for spec in SWEEP_WINDOWS:
                for length in SWEEP_LENGTHS:
                    window_weights(spec, length)
        assert window_weights.cache_info().misses == misses

    def test_full_cache_stays_within_its_stated_size(self):
        # 1024 windows of 257 taps are 2.1 MB of weights, under 2.6 MB with
        # array headers and cache entries
        window_weights.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1100):
                window_weights(WindowSpec("gaussian", 1.0 + i / 1024), 257)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            window_weights.cache_clear()
        assert held < 2.6e6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec("blackman")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec("gaussian", -1.0)
        with pytest.raises(ValueError):
            WindowSpec("kaiser", -0.1)

    @pytest.mark.parametrize("kind", ["rectangular", "hamming"])
    def test_param_of_parameterless_window_rejected(self, kind):
        # it used to be ignored without a word
        with pytest.raises(ValueError, match=f"the {kind} window takes no parameter"):
            WindowSpec(kind, 3.0)

    @pytest.mark.parametrize(
        "kind, name, param",
        [
            (kind, name, param)
            for param in (math.nan, math.inf, -math.inf)
            for kind, name in (("gaussian", "alpha"), ("kaiser", "beta"))
        ]
        # np.i0(beta) overflows above 709.78, and (alpha * x) ** 2 above sqrt(DBL_MAX)
        + [("kaiser", "beta", 710.0), ("kaiser", "beta", 1000.0), ("gaussian", "alpha", 1e200)]
        + [("gaussian", "alpha", float(np.nextafter(GAUSSIAN_ALPHA_MAX, math.inf)))],
    )
    def test_non_finite_param_names_the_parameter(self, kind, name, param):
        with pytest.raises(ValueError, match=f"{kind} .*{name} must be finite"):
            WindowSpec(kind, param)


class TestDesignSpec:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            DesignSpec(n=0)
        with pytest.raises(ValueError):
            DesignSpec(n=4, m=-1)
        with pytest.raises(ValueError):
            DesignSpec(n=4, grid_size=32)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DesignSpec(n=4.0),
            lambda: DesignSpec(n=10.5),
            lambda: DesignSpec(n=True),
            lambda: DesignSpec(n="10"),
            lambda: DesignSpec(n=10, m=1.0),
            lambda: DesignSpec(n=10, m=np.float64(2.0)),
            lambda: DesignSpec(n=10, grid_size=100.5),
        ],
    )
    def test_non_integer_fields_rejected(self, make):
        # 4.0 used to construct and fail later with IndexError, m=1.0 with TypeError,
        # and grid_size=100.5 with TypeError in the FFT that scores the design
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BandEdges("0.1", "0.2"),
            lambda: BandEdges(True, 2),
            lambda: BandEdges(0.1, np.bool_(True)),
            lambda: WindowSpec("kaiser", "6"),
            lambda: WindowSpec("gaussian", True),
            lambda: DesignSpec(n=4, zero_freqs=[True]),
            lambda: DesignSpec(n=4, zero_freqs=["0.5"]),
        ],
    )
    def test_non_real_fields_rejected(self, make):
        # "0.1" and "6" used to raise TypeError in a comparison, True to be accepted
        # as 1, and "0.5" to pass through float()
        with pytest.raises(ValueError, match="must be a real number"):
            make()

    def test_numpy_real_fields_accepted(self):
        spec = DesignSpec(
            n=4,
            edges=BandEdges(np.float64(1.2), np.int64(2)),
            window=WindowSpec("kaiser", np.float32(4.0)),
            zero_freqs=[np.float64(0.5)],
        )
        assert spec.zero_freqs == (0.5,)

    def test_numpy_integer_fields_accepted(self):
        spec = DesignSpec(n=np.int64(10), m=np.int32(2), grid_size=np.int64(512))
        assert spec == DesignSpec(n=10, m=2, grid_size=512)
        assert np.array_equal(design_h0(spec), design_h0(DesignSpec(n=10, m=2)))

    def test_zero_count_mismatch(self):
        with pytest.raises(ValueError, match="need exactly m=2 zero frequencies, got 1"):
            DesignSpec(n=8, m=2, zero_freqs=(0.0,))

    @pytest.mark.parametrize("zeros", [(0.3, 0.3), (0.5, 0.3)], ids=["repeated", "decreasing"])
    def test_non_increasing_zeros(self, zeros):
        # (0.5, 0.3) used to construct and fail later, in design_bank
        with pytest.raises(ValueError, match="strictly increasing"):
            DesignSpec(n=8, m=2, zero_freqs=zeros)

    def test_out_of_range_zeros(self):
        with pytest.raises(ValueError, match=r"lie in \[0, pi\)"):
            DesignSpec(n=8, m=1, zero_freqs=(math.pi,))

    def test_negative_zero_rejected(self):
        with pytest.raises(ValueError, match=r"lie in \[0, pi\)"):
            DesignSpec(n=8, m=2, zero_freqs=(-0.1, 0.5))

    def test_sizes_at_their_caps_build(self):
        spec = DesignSpec(n=N_MAX, m=M_MAX, grid_size=GRID_SIZE_MAX)
        assert (spec.n, spec.m, spec.grid_size) == (N_MAX, M_MAX, GRID_SIZE_MAX)
        assert len(spec.zero_freqs) == M_MAX

    @pytest.mark.parametrize(
        "field, cap, name",
        [("n", N_MAX, "half-order n"), ("m", M_MAX, "refinement order m"),
         ("grid_size", GRID_SIZE_MAX, "grid_size")],
    )
    def test_sizes_above_their_caps_rejected(self, field, cap, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= \\d+ and <= {cap}, got {cap + 1}"):
            DesignSpec(**{"n": 8, field: cap + 1})

    @pytest.mark.parametrize("m", [1.0, 1.5, True, np.float64(1.0)])
    def test_non_integer_order_with_zeros_rejected(self, m):
        # m = 1.0 would pass the zero count, so the order is checked first
        with pytest.raises(ValueError, match="refinement order m must be an integer"):
            DesignSpec(n=8, m=m, zero_freqs=(0.0,))

    def test_numpy_integer_order_with_zeros_accepted(self):
        spec = DesignSpec(n=8, m=np.int64(2), zero_freqs=np.array([0.0, 0.5]))
        assert spec == DesignSpec(n=8, m=2, zero_freqs=(0.0, 0.5))
        assert type(spec.zero_freqs) is tuple

    def test_default_zeros_m1_is_dc_only(self):
        assert DesignSpec(n=8, edges=BandEdges.symmetric(), m=1).zero_freqs == (0.0,)

    def test_default_zeros_m2(self):
        freqs = DesignSpec(n=8, edges=BandEdges(0.4 * math.pi, 0.6 * math.pi), m=2).zero_freqs
        assert freqs == pytest.approx((0.0, 0.2 * math.pi))

    def test_default_zeros_m3(self):
        freqs = DesignSpec(n=8, edges=BandEdges(0.4 * math.pi, 0.6 * math.pi), m=3).zero_freqs
        assert freqs == pytest.approx((0.0, 2 * math.pi / 15, 4 * math.pi / 15))

    def test_default_zeros_m0_is_empty(self):
        assert DesignSpec(n=8, m=0).zero_freqs == ()

    def test_default_zeros_are_q_wp_over_m(self):
        spec = DesignSpec(n=10, m=2)
        assert spec.zero_freqs == (0.0, spec.edges.wp / 2)
        assert all(type(w) is float for w in spec.zero_freqs)

    def test_non_integer_m_rejected_before_default_zeros(self):
        # 2.0 used to fail with TypeError from range()
        with pytest.raises(ValueError, match="refinement order m must be an integer"):
            DesignSpec(n=8, m=2.0)

    def test_default_zeros_equal_the_same_zeros_given(self):
        spec = DesignSpec(n=8, m=2)
        assert spec == DesignSpec(n=8, m=2, zero_freqs=spec.zero_freqs)
        assert hash(spec) == hash(DesignSpec(n=8, m=2, zero_freqs=spec.zero_freqs))

    def test_replace_needs_zero_freqs_none_to_place_new_defaults(self):
        spec = DesignSpec(n=8, m=2)
        with pytest.raises(ValueError, match="need exactly m=3 zero frequencies, got 2"):
            dataclasses.replace(spec, m=3)
        assert dataclasses.replace(spec, m=3, zero_freqs=None) == DesignSpec(n=8, m=3)


specs = st.builds(
    DesignSpec,
    n=st.integers(1, 16),
    edges=st.builds(
        BandEdges.symmetric, st.floats(0.02 * math.pi, 0.3 * math.pi)
    ),
    window=st.one_of(
        st.builds(WindowSpec, st.just("rectangular")),
        st.builds(WindowSpec, st.just("hamming")),
        st.builds(WindowSpec, st.just("gaussian"), st.floats(0.5, 5.0)),
        st.builds(WindowSpec, st.just("kaiser"), st.floats(0.0, 10.0)),
    ),
)


@st.composite
def any_spec(draw):
    """Any valid DesignSpec: edges anywhere in (0, pi), every window across its parameter
    range, and n up to N_MAX in about one draw of 20."""
    wp, ws = sorted(draw(st.lists(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
                                  min_size=2, max_size=2, unique=True)))
    window = draw(st.one_of(
        st.builds(WindowSpec, st.sampled_from(["rectangular", "hamming"])),
        st.builds(WindowSpec, st.just("gaussian"),
                  st.none() | st.floats(0.0, GAUSSIAN_ALPHA_MAX, exclude_min=True)),
        st.builds(WindowSpec, st.just("kaiser"), st.none() | st.floats(0.0, KAISER_BETA_MAX)),
    ))
    n = draw(st.integers(1, N_MAX) if draw(st.integers(0, 19)) == 0 else st.integers(1, 64))
    return DesignSpec(n=n, edges=BandEdges(wp, ws), window=window)


class TestDesignH0:
    def test_rectangular_keeps_shape(self):
        spec = DesignSpec(n=6, edges=EDGES, window=WindowSpec("rectangular"))
        taps = trapezoid_taps(EDGES, 6)
        h0 = design_h0(spec)
        assert np.allclose(h0, taps / taps.sum())

    def test_unit_dc_gain(self):
        spec = DesignSpec(n=10, edges=EDGES, window=WindowSpec("hamming"))
        h0 = design_h0(spec)
        assert zerophase.amplitude(h0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_lowpass_sanity(self):
        spec = DesignSpec(n=10, edges=EDGES, window=WindowSpec("hamming"))
        h0 = design_h0(spec)
        dc, nyquist = np.abs(poly.grid_response(h0, 2))  # w = 0, pi
        assert nyquist < dc

    def test_vanishing_dc_gain_rejected(self):
        # a band edged below 1e-10 rad leaves three taps of 1.75e-11, summing far below 1e-9
        with pytest.raises(ValueError) as exc:
            design_bank(DesignSpec(n=1, edges=BandEdges(1e-11, 1e-10)))
        assert str(exc.value) == "degenerate prototype: DC gain vanishes before normalization"

    @settings(max_examples=100, deadline=None)
    @given(any_spec())
    def test_symmetric_odd_for_every_spec(self, spec):
        """No stage checks the prototype again: it has 2n+1 finite, mirror-symmetric taps
        for any valid spec, or design_h0 raises its documented ValueError."""
        try:
            h0 = design_h0(spec)
        except ValueError as exc:
            assert str(exc).startswith("degenerate prototype:")
            return
        assert h0.size == 2 * spec.n + 1
        assert np.isfinite(h0).all()
        assert poly._symmetric(h0)

    @settings(max_examples=40, deadline=None)
    @given(specs)
    def test_window_only_attenuates(self, spec):
        raw = trapezoid_taps(spec.edges, spec.n)
        windowed = raw * window_weights(spec.window, 2 * spec.n + 1)
        assert np.all(np.abs(windowed) <= np.abs(raw) + 1e-15)

    def test_response_converges_to_trapezoid(self):
        w = np.linspace(0.0, math.pi, 512)
        target = np.clip((EDGES.ws - w) / (EDGES.ws - EDGES.wp), 0.0, 1.0)
        errs = []
        for n in (8, 16, 32):
            spec = DesignSpec(n=n, edges=EDGES, window=WindowSpec("rectangular"))
            mags = np.abs(poly.grid_response(design_h0(spec), w.size))
            errs.append(float(np.mean((mags - target) ** 2)))
        assert errs[0] >= errs[1] >= errs[2]

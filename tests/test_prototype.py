import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prqmf import poly
from prqmf.bank import design_bank
from prqmf.prototype import (
    GAUSSIAN_ALPHA_MAX,
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

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            trapezoid_taps(EDGES, 0)

    def test_rejects_non_integer_n(self):
        # 4.0 used to fail with IndexError
        with pytest.raises(ValueError, match="half-order n must be an integer"):
            trapezoid_taps(EDGES, 4.0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 128),
        st.lists(st.floats(1e-6, math.pi - 1e-6), min_size=2, max_size=2, unique=True),
    )
    def test_bytes_match_np_sinc(self, n, band):
        # the squared-sinc difference as written before, through np.sinc
        edges = BandEdges(*sorted(band))
        denom = 2.0 * math.pi * (edges.ws - edges.wp)
        c0 = edges.ws**2 / denom
        b0 = edges.wp**2 / denom
        k = np.arange(-n, n + 1)
        want = c0 * np.sinc(edges.ws * k / (2 * math.pi)) ** 2 - b0 * np.sinc(edges.wp * k / (2 * math.pi)) ** 2
        taps = trapezoid_taps(edges, n)
        assert taps.tobytes() == want.tobytes()
        assert taps[n] == c0 - b0
        assert taps.tobytes() == taps[::-1].tobytes()


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

    def test_kaiser_matches_numpy(self):
        # numpy.kaiser is an independent implementation of the same window
        for beta in (1.0, 4.5, 8.0):
            ours = window_weights(WindowSpec("kaiser", beta), 21)
            assert np.allclose(ours, np.kaiser(21, beta), atol=1e-12)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            window_weights(WindowSpec("hamming"), 4)

    def test_cached_window_is_read_only(self):
        spec = WindowSpec("kaiser", 4.0)
        w = window_weights(spec, 21)
        want = window_weights.__wrapped__(spec, 21).copy()
        with pytest.raises(ValueError):
            w[0] = 2.0
        assert np.array_equal(window_weights(spec, 21), want)

    @pytest.mark.parametrize("length", [1, 3, 21, 257])
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

    def test_numpy_integer_fields_accepted(self):
        spec = DesignSpec(n=np.int64(10), m=np.int32(2), grid_size=np.int64(512))
        assert spec == DesignSpec(n=10, m=2, grid_size=512)
        assert np.array_equal(design_h0(spec), design_h0(DesignSpec(n=10, m=2)))


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


class TestDesignH0:
    def test_rectangular_keeps_shape(self):
        spec = DesignSpec(n=6, edges=EDGES, window=WindowSpec("rectangular"))
        taps = trapezoid_taps(EDGES, 6)
        h0 = design_h0(spec)
        assert np.allclose(h0, taps / taps.sum())

    def test_unit_dc_gain(self):
        spec = DesignSpec(n=10, edges=EDGES, window=WindowSpec("hamming"))
        h0 = design_h0(spec)
        assert poly.amplitude(h0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_lowpass_sanity(self):
        spec = DesignSpec(n=10, edges=EDGES, window=WindowSpec("hamming"))
        h0 = design_h0(spec)
        dc, nyquist = np.abs(poly.grid_response(h0, 2))  # w = 0, pi
        assert nyquist < dc

    @settings(max_examples=60, deadline=None)
    @given(specs)
    def test_symmetric_odd_for_every_spec(self, spec):
        h0 = design_h0(spec)
        assert h0.size == 2 * spec.n + 1
        poly.require_symmetric(h0)

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

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prqmf import poly
from prqmf.prototype import (
    BandEdges,
    DesignSpec,
    WindowSpec,
    design_h0,
    trapezoid_taps,
    window_weights,
)

EDGES = BandEdges(0.4 * math.pi, 0.6 * math.pi)


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

    def test_kaiser_matches_numpy(self):
        # numpy.kaiser is an independent implementation of the same window
        for beta in (1.0, 4.5, 8.0):
            ours = window_weights(WindowSpec("kaiser", beta), 21)
            assert np.allclose(ours, np.kaiser(21, beta), atol=1e-12)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            window_weights(WindowSpec("hamming"), 4)

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
        # np.i0(beta) overflows above 709.78
        + [("kaiser", "beta", 710.0), ("kaiser", "beta", 1000.0)],
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
        assert poly.is_symmetric(h0)

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

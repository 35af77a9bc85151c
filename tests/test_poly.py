import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import zerophase
from prqmf import poly
from prqmf.prototype import GRID_SIZE_MAX

coeffs = st.floats(min_value=-10, max_value=10, allow_nan=False)
polys = st.lists(coeffs, min_size=1, max_size=12).map(np.array)


@st.composite
def symmetric_firs(draw, max_half=6):
    half = draw(st.lists(coeffs, min_size=0, max_size=max_half))
    center = draw(coeffs)
    return np.array(half + [center] + half[::-1])


class TestAlternate:
    def test_example(self):
        assert np.array_equal(poly.alternate([1, 2, 3]), [1, -2, 3])

    def test_length_one_fixed_point(self):
        assert np.array_equal(poly.alternate([0.5]), [0.5])

    @given(polys)
    def test_involution(self, p):
        assert np.array_equal(poly.alternate(poly.alternate(p)), p)

    @given(polys, polys)
    def test_alternate_distributes(self, p, q):
        assert np.array_equal(
            poly.alternate(np.convolve(p, q)),
            np.convolve(poly.alternate(p), poly.alternate(q)),
        )


class TestEvaluate:
    """Responses on the closed grid linspace(0, pi, G), through poly.grid_response."""

    def test_constant(self):
        vals = poly.grid_response([1.0], 3)  # w = 0, pi/2, pi
        assert np.allclose(vals, 1.0 + 0.0j)

    def test_dc_sum(self):
        assert abs(poly.grid_response([0.5, 0.5], 2)[0]) == pytest.approx(1.0)

    def test_alternating_sum(self):
        assert abs(poly.grid_response([0.5, 0.5], 2)[-1]) == pytest.approx(0.0, abs=1e-15)


@st.composite
def grid_cases(draw):
    """A grid size G >= 2 and a filter of 1..3 periods of 2(G-1) taps."""
    grid_size = draw(st.integers(2, 129))
    length = draw(st.integers(1, 3 * 2 * (grid_size - 1)))
    return draw(arrays(float, length, elements=coeffs)), grid_size


class TestGridResponse:
    @given(grid_cases())
    def test_matches_direct_sum(self, case):
        p, grid_size = case
        w = np.linspace(0.0, math.pi, grid_size)
        direct = np.exp(-1j * np.outer(w, np.arange(p.size))) @ p
        got = poly.grid_response(p, grid_size)
        assert got.shape == (grid_size,)
        assert np.allclose(got, direct, rtol=0, atol=1e-12 * (1 + np.abs(p).sum()))

    def test_taps_past_one_period_are_folded(self):
        # G = 2 has period 2: H(0) sums every tap, H(pi) alternates them
        assert np.array_equal(poly.grid_response(np.ones(5), 2), [5.0, 1.0])

    @pytest.mark.parametrize("grid_size", [1, 0, -5, GRID_SIZE_MAX + 1])
    def test_grid_needs_both_endpoints(self, grid_size):
        with pytest.raises(ValueError):
            poly.grid_response([1.0], grid_size)

    @pytest.mark.parametrize("grid_size", [10.0, 10.5])
    def test_non_integer_grid_rejected(self, grid_size):
        # NumPy's TypeError used to escape from the FFT length
        with pytest.raises(ValueError, match="grid_size must be an integer >= 2"):
            poly.grid_response([1.0, 2.0, 1.0], grid_size)


class TestAmplitude:
    def test_unit(self):
        assert zerophase.amplitude([1.0], 0.7) == pytest.approx(1.0)

    def test_zero_at_pi(self):
        assert zerophase.amplitude([0.25, 0.5, 0.25], math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_negative_dc(self):
        assert zerophase.amplitude([-0.5, -1.0, -0.5], 0.0) == pytest.approx(-2.0)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            zerophase.amplitude([1.0, 1.0], 0.5)

    @given(symmetric_firs(), st.integers(2, 129))
    def test_matches_evaluate_magnitude(self, p, grid_size):
        # |A(w)| equals the magnitude of the grid response on every grid point
        w = np.linspace(0.0, math.pi, grid_size)
        mag = np.abs(poly.grid_response(p, grid_size))
        amp = np.abs(zerophase.amplitude(p, w))
        assert np.allclose(mag, amp, rtol=0, atol=1e-12 * (1 + np.abs(p).sum()))


class TestValidation:
    def test_rejects_empty(self):
        for not_1d in ([], 1.0, [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="polynomial must be a 1-D sequence"):
                poly.as_poly(not_1d)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            poly.as_poly([1.0, math.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            poly.as_poly([math.inf])

    @pytest.mark.parametrize("taps", [[1 + 1j], np.array([1 + 1j]), np.array([1.0], complex)])
    def test_rejects_complex(self, taps):
        # not cast to float, which would drop the imaginary part
        with pytest.raises(ValueError, match="polynomial coefficients must be real"):
            poly.as_poly(taps)

    def test_symmetry_check(self):
        assert poly._symmetric(np.array([1.0, 2.0, 1.0]))
        for asymmetric in ([1.0, 2.0], [1.0, 2.0, 1.1]):
            assert not poly._symmetric(np.array(asymmetric))

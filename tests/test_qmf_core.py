import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prqmf import poly
from prqmf.analysis import verify_pr
from prqmf.bank import design_bank
from prqmf.prototype import BandEdges, DesignSpec, WindowSpec, design_h0
from prqmf.qmf_core import (
    DegeneratePassband,
    DenseSystem,
    SingularSystem,
    basic_mate,
    build_system,
    normalize_passband,
    solve,
    unfold,
)


def odd_product_coeffs(h0, h1):
    """Brute-force oracle: odd-power coefficients of H0(z) H1(-z)."""
    p = poly.multiply(h0, poly.alternate(h1))
    return p[1::2]


class TestBuildSystem:
    def test_n1(self):
        sys_ = build_system([0.3, 0.5, 0.3])
        assert np.allclose(sys_.matrix, [[0.5]])
        assert np.array_equal(sys_.rhs, [1.0])

    def test_n2_toy(self, toy_h0):
        sys_ = build_system(toy_h0)
        assert np.allclose(sys_.matrix, [[2.0, -1.0], [4.0, -3.0]])
        assert np.array_equal(sys_.rhs, [0.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 160), st.data())
    def test_matches_definition(self, n, data):
        half = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1))
        h0 = np.array(half + half[-2::-1])
        before = h0.copy()
        mat = build_system(h0).matrix
        # Row i is odd power 2i+1: weight a[2i+1-j] (-1)^j, column j >= n folded onto 2n-2-j.
        ref = np.zeros((n, n))
        for i in range(n):
            for j in range(2 * n - 1):
                if 2 * i + 1 - j >= 0:
                    ref[i, min(j, 2 * n - 2 - j)] += h0[2 * i + 1 - j] * (-1) ** j
        assert np.array_equal(mat, ref)
        assert np.array_equal(h0, before)
        assert not np.shares_memory(mat, h0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            build_system([1.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            build_system([1.0, 2.0, 3.0])


class TestSolve:
    def test_scalar_inverse(self):
        x = solve(DenseSystem(np.array([[0.5]]), np.array([1.0])))
        assert x[0] == pytest.approx(2.0)

    def test_toy_solution(self, toy_h0):
        b = solve(build_system(toy_h0))
        assert np.allclose(b, [-0.5, -1.0], atol=1e-12)

    def test_degenerate_prototype_is_singular(self):
        with pytest.raises(SingularSystem):
            solve(build_system([1.0, 0.0, 1.0]))

    def test_singular_leaves_no_partial_result(self):
        sys_ = DenseSystem(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))
        with pytest.raises(SingularSystem):
            solve(sys_)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve(DenseSystem(np.ones((2, 3)), np.ones(2)))


class TestNormalizePassband:
    def test_scalar(self):
        assert np.array_equal(normalize_passband([2.0]), [1.0])

    def test_toy_mate_is_degenerate(self, toy_h1):
        # A(pi) = -0.5 + 1 - 0.5 = 0: not a usable high-pass
        with pytest.raises(DegeneratePassband):
            normalize_passband(toy_h1)

    def test_idempotent(self):
        h = normalize_passband([0.1, -0.7, 0.1])
        assert np.allclose(normalize_passband(h), h, atol=1e-12)

    def test_positive_sign_convention(self):
        h = normalize_passband([-0.1, -0.8, -0.1])
        assert poly.amplitude(h, math.pi) == pytest.approx(1.0)


specs = st.builds(
    DesignSpec,
    n=st.integers(1, 14),
    edges=st.builds(BandEdges.symmetric, st.floats(0.03 * math.pi, 0.25 * math.pi)),
    window=st.sampled_from(
        [WindowSpec("rectangular"), WindowSpec("hamming"), WindowSpec("kaiser", 5.0)]
    ),
)


class TestSystemProperties:
    @settings(max_examples=40, deadline=None)
    @given(specs)
    def test_pre_normalization_pr_exactness(self, spec):
        # oracle: convolve and inspect; independent of the solver path
        h0 = design_h0(spec)
        h1 = unfold(solve(build_system(h0)))
        odd = odd_product_coeffs(h0, h1)
        assert odd.size == 2 * spec.n - 1
        target = np.zeros(odd.size)
        target[spec.n - 1] = 1.0  # central term of P, forced to 1 by the rhs
        assert np.allclose(odd, target, atol=1e-10)

    @pytest.mark.parametrize("lam", [2.0, -3.0, 0.5])
    def test_uniqueness_up_to_scale(self, lam):
        h0 = design_h0(DesignSpec(n=6))
        sys_ = build_system(h0)
        base = solve(sys_)
        scaled = solve(DenseSystem(sys_.matrix, sys_.rhs * lam))
        assert np.allclose(scaled, lam * base, rtol=1e-10)

    @pytest.mark.parametrize("gamma", [0.25, 3.0, 17.5])
    def test_scale_invariance_after_normalization(self, gamma):
        h0 = design_h0(DesignSpec(n=8, window=WindowSpec("hamming")))
        ref = basic_mate(h0)
        scaled = basic_mate(gamma * h0)
        assert np.allclose(scaled, ref, rtol=1e-10, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(specs)
    def test_length_law(self, spec):
        h0 = design_h0(spec)
        assert basic_mate(h0).size == 2 * spec.n - 1


class TestDesignPair:
    """The unrefined pair: design_bank with m = 0."""

    def test_n10_rectangular(self):
        bank = design_bank(DesignSpec(n=10, m=0))
        assert bank.delay == 19
        assert bank.max_spurious <= 1e-9
        assert bank.h0.size == 21
        assert bank.h1.size == 19

    def test_n1_injected_closed_form(self):
        from prqmf.analysis import transfer

        h0 = np.array([0.25, 0.5, 0.25])
        h1 = basic_mate(h0)
        assert np.allclose(h1, [1.0], atol=1e-14)
        t = transfer(h0, h1)
        assert np.allclose(t, [0.0, 0.5, 0.0], atol=1e-15)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            design_bank(DesignSpec(n=0, m=0))


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("window", ["rectangular", "hamming", "gaussian", "kaiser"])
@pytest.mark.parametrize("n", [64, 128])
def test_long_design_certifies(n, window, m):
    """Designs in the n range (32..128) where the mate build and solve dominate."""
    bank = design_bank(DesignSpec(n=n, window=WindowSpec(window), m=m))
    assert bank.max_spurious <= 1e-9
    assert bank.delay == 2 * n - 1 + 2 * m
    assert bank.h0.size == 2 * n + 1
    assert bank.h1.size == 2 * n + 4 * m - 1


# Numerically rank-deficient mate systems (H0(z) and H0(-z) nearly share
# zeros): LU still yields a mate that passes the PR certificate.
RANK_DEFICIENT = [
    (13, "hamming", 0.7265625),
    (8, "hamming", 0.8979661016949153),
    (8, "gaussian", 0.8979661016949153),
    (8, "kaiser", 0.8979661016949153),
]


@pytest.mark.parametrize("n,window,delta", RANK_DEFICIENT)
class TestRankDeficientSystem:
    def spec(self, n, window, delta, m=0):
        return DesignSpec(n=n, edges=BandEdges.symmetric(delta), window=WindowSpec(window), m=m)

    def test_basic_mate_certifies(self, n, window, delta):
        h0 = design_h0(self.spec(n, window, delta))
        assert verify_pr(h0, basic_mate(h0)).max_spurious <= 1e-9

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_design_bank_certifies(self, n, window, delta, m):
        bank = design_bank(self.spec(n, window, delta, m))
        assert bank.max_spurious <= 1e-9
        assert bank.h1.size == 2 * n + 4 * m - 1

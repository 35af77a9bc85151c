import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prqmf
from prqmf import poly
from prqmf.analysis import (
    FilterBank,
    NoDelayFound,
    mse,
    process_bank,
    synthesis_filters,
    transfer,
    validate_case_a,
    verify_pr,
)
from prqmf.bank import design_bank
from prqmf.prototype import BandEdges, DesignSpec, WindowSpec


class TestTransfer:
    def test_toy_pair(self, toy_h0, toy_h1):
        assert np.allclose(transfer(toy_h0, toy_h1), [0, 0, 0, 1, 0, 0, 0], atol=1e-15)

    def test_trivial_pair_cancels(self):
        assert np.array_equal(transfer([1.0], [1.0]), [0.0])

    def test_even_coefficients_cancel_exactly(self):
        # holds for any symmetric odd-length pair, PR or not
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(-2, 2, 4)
            q = rng.uniform(-2, 2, 3)
            h0 = np.concatenate([p, p[-2::-1]])
            h1 = np.concatenate([q, q[-2::-1]])
            assert not np.any(transfer(h0, h1)[0::2])

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_one_product_matches_two_products(self, len0, extra, seed):
        # no symmetry, unequal lengths: T = 0.5 [H0(z) H1(-z) - H1(z) H0(-z)]
        rng = np.random.default_rng(seed)
        h0, h1 = rng.uniform(-2, 2, len0), rng.uniform(-2, 2, len0 + extra)
        alt0 = h0 * (-1.0) ** np.arange(h0.size)
        alt1 = h1 * (-1.0) ** np.arange(h1.size)
        want = 0.5 * (np.convolve(h0, alt1) - np.convolve(h1, alt0))
        got = transfer(h0, h1)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert not np.any(got[0::2])


def test_design_leaves_numpy_fft_unloaded():
    # the mse target cache and the FFT grid must not load numpy.fft at import
    # or design time; it costs every CLI start that does not score
    code = (
        "import sys, prqmf\n"
        "prqmf.design_bank(prqmf.DesignSpec(n=10, m=2))\n"
        "print('numpy.fft' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(prqmf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


class TestVerifyPr:
    def test_toy_pair(self, toy_h0, toy_h1):
        report = verify_pr(toy_h0, toy_h1)
        assert (report.delay, report.scale, report.max_spurious) == (3, 1.0, 0.0)
        assert report.passed

    def test_designed_pair(self):
        bank = design_bank(DesignSpec(n=10, m=0))
        report = verify_pr(bank.h0, bank.h1)
        assert report.delay == 19
        assert report.max_spurious <= 1e-9

    def test_broken_mate_fails(self, toy_h0):
        report = verify_pr(toy_h0, np.array([1.0, 0.0, 1.0]))
        assert report.max_spurious > 0.1
        assert not report.passed

    def test_tiny_scale_passes(self):
        bank = design_bank(DesignSpec(n=10))
        report = verify_pr(1e-5 * bank.h0, 1e-5 * bank.h1)
        assert abs(report.scale) < 1e-9
        assert report.passed

    def test_zero_transfer_raises(self):
        with pytest.raises(NoDelayFound):
            verify_pr([1.0], [1.0])


class TestSynthesisFilters:
    def test_f0_is_alternated_h1(self, toy_h1):
        f0, _ = synthesis_filters([1.0, 2.0, 1.0], toy_h1)
        assert np.array_equal(f0, [-0.5, 1.0, -0.5])

    def test_f1_is_negated_alternated_h0(self, toy_h0):
        _, f1 = synthesis_filters(toy_h0, [1.0])
        assert np.array_equal(f1, [-1.0, 2.0, -3.0, 2.0, -1.0])

    def test_alias_cancellation_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h0 = rng.uniform(-1, 1, 7)
            h1 = rng.uniform(-1, 1, 5)
            f0, f1 = synthesis_filters(h0, h1)
            alias = poly.multiply(poly.alternate(h0), f0) + poly.multiply(
                poly.alternate(h1), f1
            )
            assert np.all(np.abs(alias) <= 1e-12)


@pytest.fixture(scope="module")
def bank10():
    return design_bank(DesignSpec(n=10))


class TestProcessBank:
    def test_impulse_reproduces_transfer(self, bank10):
        report = process_bank(bank10, [1.0])
        t = transfer(bank10.h0, bank10.h1)
        assert np.allclose(report.y[: t.size], t, atol=1e-12)
        assert np.allclose(report.y[t.size :], 0.0, atol=1e-12)

    def test_zeros_give_zeros(self, bank10):
        report = process_bank(bank10, np.zeros(256))
        assert not np.any(report.y)
        assert report.max_rel_error == 0.0

    def test_random_signal_reconstructs(self, bank10):
        x = np.random.default_rng(11).uniform(-1, 1, 4096)
        report = process_bank(bank10, x)
        assert report.max_rel_error <= 1e-9

    def test_delayed_scaled_copy(self, bank10):
        x = np.sin(np.arange(1024) * 0.37)
        report = process_bank(bank10, x)
        d, c = bank10.delay, bank10.scale
        assert np.allclose(report.y[2 * d : 1024], c * x[d : 1024 - d], atol=1e-9)

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_decimate_then_expand(self, len0, extra, size, seed):
        # any pair, not only PR ones; x of odd and even length
        rng = np.random.default_rng(seed)
        h0, h1 = rng.uniform(-2, 2, len0), rng.uniform(-2, 2, len0 + extra)
        x = rng.uniform(-1, 1, size)
        y = process_bank(FilterBank(h0, h1), x).y
        assert y.size == x.size + h0.size + h1.size - 2
        f0, f1 = synthesis_filters(h0, h1)
        want = np.zeros(y.size + 1)
        for h, f in ((h0, f0), (h1, f1)):
            v = np.convolve(h, x)[::2]
            u = np.zeros(2 * v.size)
            u[::2] = v
            branch = np.convolve(f, u)
            want[: branch.size] += branch
        assert not np.any(want[y.size :])
        assert np.abs(y - want[: y.size]).max() <= 1e-12 * (1 + np.abs(y).max())

    def test_empty_rejected(self, bank10):
        with pytest.raises(ValueError):
            process_bank(bank10, [])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(1, 12), (200, 400), (500, 700)]),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_decimate_then_expand(self, lengths, data, seed):
        # Block rule: size is a power of two >= 2048 and > 2 * tail + 2; the
        # hop is size - tail rounded down to even; a batch has 2**17 // size
        # blocks. The long pairs have tail > 1023, so size grows past 2048.
        rng = np.random.default_rng(seed)
        len0 = data.draw(st.integers(*lengths))
        h0, h1 = rng.uniform(-2, 2, len0), rng.uniform(-2, 2, len0 + data.draw(st.integers(*lengths)))
        tail = h0.size + h1.size - 2
        size = max(2048, 1 << (2 * tail + 2).bit_length())
        hop, rows = (size - tail) & ~1, 2**17 // size
        blocks = data.draw(st.sampled_from([1, 2, 3, rows, rows + 1]))
        x = rng.uniform(-1, 1, max(1, blocks * hop + data.draw(st.integers(-1, 1))))
        y = process_bank(FilterBank(h0, h1), x).y
        assert y.size == x.size + tail
        f0, f1 = synthesis_filters(h0, h1)
        want = np.zeros(y.size + 1)
        for h, f in ((h0, f0), (h1, f1)):
            v = np.convolve(h, x)[::2]
            u = np.zeros(2 * v.size)
            u[::2] = v
            branch = np.convolve(f, u)
            want[: branch.size] += branch
        assert np.abs(y - want[: y.size]).max() <= 1e-12 * (1 + np.abs(y).max())

    @pytest.mark.parametrize(
        "spec",
        [
            DesignSpec(n=10, window=WindowSpec("hamming"), m=1),
            DesignSpec(n=40, window=WindowSpec("kaiser"), m=2),
        ],
        ids=["n10-hamming-m1", "n40-kaiser-m2"],
    )
    def test_stream_banks_match_direct_convolution(self, spec):
        # 2**17 + 1 samples: odd length, more than one batch of blocks
        bank = design_bank(spec)
        x = np.random.default_rng(17).standard_normal(2**17 + 1)
        report = process_bank(bank, x)
        f0, f1 = synthesis_filters(bank.h0, bank.h1)
        s0, s1 = np.convolve(bank.h0, x), np.convolve(bank.h1, x)
        s0[1::2] = s1[1::2] = 0.0
        want = np.convolve(f0, s0) + np.convolve(f1, s1)
        assert report.y.shape == want.shape
        assert np.abs(report.y - want).max() <= 1e-14 * np.abs(want).max()
        assert report.max_rel_error <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 150, -1])
    def test_non_finite_sample_rejected(self, bank10, bad, at):
        x = np.ones(301)
        x[at] = bad
        with pytest.raises(ValueError, match="signal"):
            process_bank(bank10, x)


class TestMse:
    def test_all_zero_filter_vs_lowpass(self):
        # oracle: D=1 on 512 of the 1024 grid points, no exact pi/2 sample
        metrics = mse([0.0, 0.0, 0.0], "lowpass", 1024)
        assert metrics.mse == pytest.approx(0.5, abs=1e-12)
        assert metrics.db == pytest.approx(-10 * math.log10(0.5))

    def test_cutoff_sample_when_grid_is_odd(self):
        # 65-point grid hits pi/2 exactly; target there is 0.5
        metrics = mse([0.0], "highpass", 65)
        expected = (32 * 1.0 + 0.25 + 32 * 0.0) / 65  # |H|=0 everywhere
        assert metrics.mse == pytest.approx(expected, abs=1e-12)

    def test_reversal_invariance(self, bank10):
        m1 = mse(bank10.h0, "lowpass")
        m2 = mse(bank10.h0[::-1], "lowpass")
        assert m1.mse == pytest.approx(m2.mse, rel=1e-12)

    def test_db_relation(self, bank10):
        m = mse(bank10.h1, "highpass")
        assert m.db == pytest.approx(-10 * math.log10(m.mse))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            mse([1.0], "bandpass")
        with pytest.raises(ValueError):
            mse([1.0], "lowpass", 32)


class TestValidateCaseA:
    def test_basic_pair(self, bank10):
        ok, reasons = validate_case_a(bank10.h0, bank10.h1)
        assert ok, reasons

    def test_difference_of_four_fails(self):
        ok, reasons = validate_case_a([1, 2, 3, 2, 1], [1, 2, 3, 4, 5, 4, 3, 2, 1])
        assert not ok
        assert any("odd multiple" in r for r in reasons)

    def test_even_length_fails(self):
        ok, reasons = validate_case_a([0.5, 0.5], [1.0])
        assert not ok
        assert any("even length" in r for r in reasons)

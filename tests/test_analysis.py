import dataclasses
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
    PROCESS_TOL,
    PR_TOL,
    FilterBank,
    NoDelayFound,
    PrReport,
    _block_geometry,
    mse,
    process_bank,
    synthesis_filters,
    transfer,
    validate_case_a,
    verify_pr,
)
from prqmf.bank import design_bank
from prqmf.prototype import GRID_SIZE_MAX, BandEdges, DesignSpec, WindowSpec


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
        assert report == PrReport(delay=3, scale=1.0, max_spurious=0.0, sum_spurious=0.0)
        assert report.passed

    def test_designed_pair(self):
        bank = design_bank(DesignSpec(n=10, m=0))
        report = verify_pr(bank.h0, bank.h1)
        assert report.delay == 19
        assert report.max_spurious <= 1e-9

    def test_broken_mate_fails(self, toy_h0):
        report = verify_pr(toy_h0, np.array([1.0, 0.0, 1.0]))
        assert report.max_spurious > 0.1
        assert report.sum_spurious > report.max_spurious
        assert not report.passed

    def test_spurious_sum_is_judged_beside_the_largest_term(self):
        # process's error on a +-1 signal aligned with the spurious terms is their sum
        assert PrReport(1, 1.0, PR_TOL, PROCESS_TOL).passed
        assert not PrReport(1, 1.0, PR_TOL, 2 * PROCESS_TOL).passed
        assert not PrReport(1, 1.0, 2 * PR_TOL, PR_TOL).passed

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
            alias = np.convolve(poly.alternate(h0), f0) + np.convolve(
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

    @pytest.mark.parametrize("x", [np.ones(64, complex), [1.0, 1j]], ids=["array", "list"])
    def test_complex_rejected(self, bank10, x):
        # not cast to float, which would drop the imaginary part
        with pytest.raises(ValueError, match="signal samples must be real"):
            process_bank(bank10, x)

    def test_block_grid_above_its_cap_rejected(self):
        # tail 524,287 needs 2^21-sample blocks, a grid of 2^20 + 1 points; 524,286 is the most
        h0 = np.zeros(524_288)
        h0[1] = 1.0
        with pytest.raises(ValueError, match="a tail of 524287 taps passes 524286"):
            process_bank(FilterBank(h0, [1.0]), np.ones(8))
        assert _block_geometry(524_286)[0] == 2**20

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(1, 12), (200, 400), (500, 700)]),
        st.data(),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_decimate_then_expand(self, lengths, data, seed):
        # Block rule (_block_geometry): size is a power of two >= 1024 and
        # > 2 * tail + 2; the hop is size - tail rounded down to even; a batch
        # has 2**16 // size blocks. Most long pairs have tail > 511, so size
        # grows past 1024.
        rng = np.random.default_rng(seed)
        len0 = data.draw(st.integers(*lengths))
        h0, h1 = rng.uniform(-2, 2, len0), rng.uniform(-2, 2, len0 + data.draw(st.integers(*lengths)))
        tail = h0.size + h1.size - 2
        _, hop, rows = _block_geometry(tail)
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


STREAM_SPECS = (
    DesignSpec(n=10, window=WindowSpec("hamming"), m=1),
    DesignSpec(n=40, window=WindowSpec("kaiser"), m=2),
)


@pytest.fixture(scope="module")
def stream_banks():
    return tuple(design_bank(spec) for spec in STREAM_SPECS)


def block_geometry(bank):
    """(hop, rows) of process_bank's block rule, for choosing signal lengths."""
    return _block_geometry(bank.h0.size + bank.h1.size - 2)[1:]


def draw_bank(data, rng, stream_banks):
    """A stream bank, the toy pair (exact PR, 6-sample tail), or a random pair
    as in the block test."""
    pick = data.draw(st.sampled_from([0, 1, "toy", (1, 12), (200, 400), (500, 700)]))
    if pick == "toy":
        return FilterBank([1.0, 2.0, 3.0, 2.0, 1.0], [-0.5, -1.0, -0.5])
    if isinstance(pick, int):
        return stream_banks[pick]
    len0 = data.draw(st.integers(*pick))
    return FilterBank(rng.uniform(-2, 2, len0), rng.uniform(-2, 2, len0 + data.draw(st.integers(*pick))))


def allocating_process_bank(bank, x):
    """process_bank with fresh FFT outputs and fold temporaries for every batch,
    a zero-filled staging array that heads and tails are added into, and the
    steady state scored in one pass after the loop. The reused buffers, written
    heads, carried tails and the report's lazy score must give the same bits:
    (y, max_rel_error). They can, as IEEE addition commutes and 0 + t == t (up to
    the sign of a zero result)."""
    x = np.asarray(x, dtype=float)
    d, c = bank.delay, bank.scale
    tail = bank.h0.size + bank.h1.size - 2
    size, hop, rows = _block_geometry(tail)
    blocks = -(-x.size // hop)
    ys = np.zeros((blocks + 1, hop))
    H0, H1 = (np.fft.rfft(h, size) for h in (bank.h0, bank.h1))
    F0, F1 = 0.5 * np.conj(H1[::-1]), -0.5 * np.conj(H0[::-1])
    for b in range(0, blocks, rows):
        seg = x[b * hop : (b + rows) * hop]
        xb = np.zeros((min(rows, blocks - b), hop))
        xb.reshape(-1)[: seg.size] = seg
        X = np.fft.rfft(xb, size)
        S0, S1 = X * H0, X * H1
        Y = F0 * (S0 + np.conj(S0[:, ::-1])) + F1 * (S1 + np.conj(S1[:, ::-1]))
        yb = np.fft.irfft(Y, size)
        ys[b : b + len(yb)] += yb[:, :hop]
        ys[b + 1 : b + len(yb) + 1, :tail] += yb[:, hop : hop + tail]
    y = ys.reshape(-1)[: x.size + tail]
    lo, hi = d, x.size - d
    if lo < hi:
        peak = max(float(x.max()), -float(x.min()))
        buf = np.multiply(x[lo:hi], c)
        np.subtract(y[lo + d : hi + d], buf, out=buf)
        max_rel = float(np.abs(buf, out=buf).max()) / (abs(c) * peak) if peak > 0.0 else 0.0
    else:
        max_rel = math.nan
    return y, max_rel


def assert_same_bits(bank, x):
    want_y, want_err = allocating_process_bank(bank, x)
    report = process_bank(bank, x)
    assert report.y.shape == want_y.shape and np.array_equal(report.y, want_y)
    assert report.max_rel_error == want_err or (math.isnan(want_err) and math.isnan(report.max_rel_error))


class TestProcessBankBatches:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_score_is_max_over_final_steady_state(self, stream_banks, data, seed):
        # the largest |x| sits in the first batch or in the last, partial one
        rng = np.random.default_rng(seed)
        bank = draw_bank(data, rng, stream_banks)
        d, c = bank.delay, bank.scale
        hop, rows = block_geometry(bank)
        n = data.draw(
            st.sampled_from([1, 2 * d, 2 * d + 1, rows * hop - 1, rows * hop + 1])
            | st.integers(1, hop).map(lambda k: 2 * rows * hop + k)
        )
        x = rng.uniform(-1, 1, n)
        last = (-(-n // hop) - 1) // rows * rows * hop
        at = data.draw(st.integers(0, min(n, rows * hop) - 1) | st.integers(last, n - 1))
        x[at] = data.draw(st.sampled_from([-3.0, 3.0]))
        report = process_bank(bank, x)
        zero = process_bank(bank, np.zeros(n)).max_rel_error
        if n <= 2 * d:
            assert math.isnan(report.max_rel_error) and math.isnan(zero)
        else:
            want = np.abs(report.y[2 * d : n] - c * x[d : n - d]).max() / (abs(c) * np.abs(x).max())
            assert report.max_rel_error == want
            assert zero == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_reused_buffers_match_allocating_loop(self, stream_banks, data, seed):
        # the lengths of test_blocks_match_decimate_then_expand, on its pairs
        # and on the stream banks; the batches are copied into full-length rows,
        # so the signal may also be a strided or a reversed view
        rng = np.random.default_rng(seed)
        bank = draw_bank(data, rng, stream_banks)
        hop, rows = block_geometry(bank)
        blocks = data.draw(st.sampled_from([1, 2, 3, rows, rows + 1]))
        n = max(1, blocks * hop + data.draw(st.integers(-1, 1)))
        layout = data.draw(st.sampled_from(["contiguous", "every-other", "reversed"]))
        x = rng.uniform(-1, 1, 2 * n)
        x = {"contiguous": x[:n], "every-other": x[::2], "reversed": x[:n][::-1]}[layout]
        assert_same_bits(bank, x)

    @pytest.mark.parametrize("index", [0, 1], ids=["n10-hamming-m1", "n40-kaiser-m2"])
    def test_stream_banks_keep_their_bits(self, stream_banks, index):
        bank = stream_banks[index]
        hop, rows = block_geometry(bank)
        x = np.random.default_rng(19).standard_normal(3 * rows * hop + 5)
        before = x.copy()
        assert_same_bits(bank, x)
        assert np.array_equal(x, before)
        for view in (x[::2], x[::-1]):
            assert np.array_equal(process_bank(bank, view).y, process_bank(bank, view.copy()).y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["first", "batch-end", "batch-start", "last"])
    def test_non_finite_sample_in_any_batch_rejected(self, bank10, bad, where):
        # finiteness is checked batch by batch, so a bad sample must be caught
        # in whichever batch holds it
        hop, rows = block_geometry(bank10)
        x = np.ones(150_000)
        assert x.size > rows * hop
        at = {"first": 0, "batch-end": rows * hop - 1, "batch-start": rows * hop, "last": -1}[where]
        x[at] = bad
        with pytest.raises(ValueError, match="signal samples must be finite"):
            process_bank(bank10, x)

    def test_nan_in_a_later_batch_survives_the_max(self, bank10):
        # an overflowing sample turns part of y into NaN; the score, read after
        # the errstate block, must report NaN and warn about nothing. The second
        # batch holds finite samples only, so it must not raise: +-1.7e308 are
        # finite, but their squares and their difference overflow, which a
        # finiteness check by a sum of squares or by max - min would reject
        hop, rows = block_geometry(bank10)
        for big in ([1.7e308], [1.7e308, -1.7e308]):
            x = np.random.default_rng(23).standard_normal(3 * rows * hop)
            x[rows * hop + 5 : rows * hop + 5 + len(big)] = big
            with np.errstate(all="ignore"):
                want_y, want_err = allocating_process_bank(bank10, x)
                report = process_bank(bank10, x)
            assert math.isnan(want_err) and math.isnan(report.max_rel_error)
            assert np.array_equal(report.y, want_y, equal_nan=True)

    def test_no_stale_memory_reaches_y(self, stream_banks):
        # y comes from np.empty and the batches from reused buffers, so memory
        # that earlier calls freed (NaN from an overflow, another bank's
        # samples) must never show through in a later call's y
        bank10, bank40 = stream_banks
        hop, rows = block_geometry(bank10)
        rng = np.random.default_rng(29)
        x = rng.standard_normal(3 * rows * hop)
        x[rows * hop + 5] = 1.7e308
        with np.errstate(all="ignore"):
            assert np.isnan(process_bank(bank10, x).y).any()
        process_bank(bank40, rng.standard_normal(8 * rows * hop))
        toy = FilterBank([1.0, 2.0, 3.0, 2.0, 1.0], [-0.5, -1.0, -0.5])
        for bank in (bank10, bank40, toy):
            hop, rows = block_geometry(bank)
            # the first y reaches into the last block's carried tail; the
            # second ends before it
            for n in (3 * rows * hop - 1, 3 * rows * hop + 5):
                assert_same_bits(bank, rng.standard_normal(n))


class TestLazyScore:
    """process_bank only filters; the report scores on first read and keeps the score."""

    def test_fields_are_output_signal_and_bank(self, bank10):
        x = np.random.default_rng(31).standard_normal(4096)
        report = process_bank(bank10, x)
        assert [f.name for f in dataclasses.fields(report)] == ["y", "x", "bank"]
        assert report.x is x and report.bank is bank10
        assert (report.delay, report.scale) == (bank10.delay, bank10.scale)

    def test_score_waits_for_its_first_read(self, stream_banks):
        bank = stream_banks[1]
        hop, rows = block_geometry(bank)
        x = np.random.default_rng(37).standard_normal(2 * rows * hop + 7)
        report = process_bank(bank, x)
        assert "max_rel_error" not in report.__dict__
        _, want = allocating_process_bank(bank, x)
        first = report.max_rel_error
        assert first == want
        assert report.max_rel_error is first


def test_bank_and_report_compare_by_identity(bank10):
    pairs = (
        (bank10, FilterBank(bank10.h0, bank10.h1)),
        (process_bank(bank10, [1.0]), process_bank(bank10, [1.0])),
    )
    for a, b in pairs:
        assert a == a and a != b
        assert a in [b, a] and a not in [b]
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2 and a in {a} and b not in {a}


class TestBankZeros:
    """A bank's zeros are its spec's; FilterBank stores no list of its own."""

    def test_fields_are_the_pair_and_the_spec(self):
        assert [f.name for f in dataclasses.fields(FilterBank)] == ["h0", "h1", "spec"]

    def test_no_spec_means_no_zeros(self, toy_h0, toy_h1):
        assert FilterBank(toy_h0, toy_h1).zero_freqs == ()

    def test_zero_freqs_is_no_argument(self, toy_h0, toy_h1):
        with pytest.raises(TypeError):
            FilterBank(toy_h0, toy_h1, zero_freqs=(0.0,))
        with pytest.raises(TypeError):
            FilterBank(toy_h0, toy_h1, None, (0.0,))

    def test_zero_freqs_is_read_only(self, bank10):
        with pytest.raises(AttributeError):
            bank10.zero_freqs = (0.5,)

    def test_design_reads_its_spec(self):
        spec = DesignSpec(n=10, m=2, zero_freqs=(0.0, 0.4))
        assert design_bank(spec).zero_freqs is spec.zero_freqs


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

    @pytest.mark.parametrize("grid", [64, 65, 1024, 1025])
    @pytest.mark.parametrize("ideal", ["lowpass", "highpass"])
    @pytest.mark.parametrize("designed", [True, False], ids=["designed", "all_zero"])
    def test_brick_wall_bit_for_bit(self, bank10, grid, ideal, designed):
        # README's target: 1 where 2k < G - 1 (low-pass) or 2k > G - 1 (high-pass),
        # 0.5 where 2k = G - 1, 0 elsewhere, subtracted as an array
        h = (bank10.h0 if ideal == "lowpass" else bank10.h1) if designed else np.zeros(3)
        twice_k, edge = 2 * np.arange(grid), grid - 1
        passband = twice_k < edge if ideal == "lowpass" else twice_k > edge
        target = np.where(twice_k == edge, 0.5, np.where(passband, 1.0, 0.0))
        err = np.abs(poly.grid_response(h, grid)) - target
        assert mse(h, ideal, grid).mse == float(err @ err) / grid

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
        with pytest.raises(ValueError):
            mse([1.0], "lowpass", GRID_SIZE_MAX + 1)

    def test_non_integer_grid_rejected(self):
        # 100.5 used to fail with TypeError in the FFT
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            mse([1.0], "lowpass", 100.5)


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

    def test_asymmetric_fails(self):
        ok, reasons = validate_case_a([1, 2, 3], [1.0])
        assert not ok
        assert reasons == ["h0 is not mirror-symmetric"]

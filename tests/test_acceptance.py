"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line via the `criterion` helper so a
`pytest -v -s tests/test_acceptance.py` run reads as a checklist.
"""

import math
import time

import numpy as np
import pytest

import zerophase
from prqmf import analysis, cli, sweep
from prqmf.prototype import (
    BandEdges,
    DesignSpec,
    GAUSSIAN_DEFAULT_ALPHA,
    KAISER_DEFAULT_BETA,
    WindowSpec,
    design_h0,
)
from prqmf.bank import design_bank
from prqmf.qmf_core import basic_mate, build_system, solve, unfold
from prqmf.refine import build_e, refine_h1

WINDOWS = (
    WindowSpec("rectangular"),
    WindowSpec("hamming"),
    WindowSpec("gaussian", GAUSSIAN_DEFAULT_ALPHA),
    WindowSpec("kaiser", KAISER_DEFAULT_BETA),
)


def criterion(label, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def all_banks():
    """Every (n, window, m) combination on the default band edges."""
    start = time.perf_counter()
    banks = {
        (n, w.kind, m): design_bank(DesignSpec(n=n, window=w, m=m))
        for n in range(1, 21)
        for w in WINDOWS
        for m in (0, 1, 2)
    }
    return banks, time.perf_counter() - start


def test_criterion_1_pr_certification_grid(all_banks):
    banks, elapsed = all_banks
    ok = True
    for (n, _, m), bank in banks.items():
        ok &= bank.max_spurious <= 1e-9
        ok &= bank.delay == 2 * n - 1 + 2 * m
        ok &= abs(bank.scale) > 1e-9
    ok &= elapsed < 5.0
    criterion(
        f"criterion 1: PR certified for 240 designs "
        f"(n=1..20 x 4 windows x m=0,1,2) in {elapsed:.2f}s",
        ok,
    )


def test_criterion_2_closed_form_values():
    h0 = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    h1 = unfold(solve(build_system(h0)))  # raw mate; the toy example is not normalizable
    ok = np.allclose(h1, [-0.5, -1.0, -0.5], atol=1e-12)

    t = analysis.transfer(h0, h1)
    expected_t = np.zeros(7)
    expected_t[3] = 1.0
    ok &= np.allclose(t, expected_t, atol=1e-12)

    h1p = refine_h1(h0, h1, (0.0,))
    expected = np.array([1 / 9, 2 / 9, -1 / 18, -5 / 9, -1 / 18, 2 / 9, 1 / 9])
    ok &= np.allclose(h1p, expected, atol=1e-12)

    tp = analysis.transfer(h0, h1p)
    expected_tp = np.zeros(11)
    expected_tp[5] = 1.0
    ok &= np.allclose(tp, expected_tp, atol=1e-12)

    criterion("criterion 2: closed-form 5-tap example exact to 1e-12", ok)


def test_criterion_3_pr_invariant_under_any_symmetric_correction():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 4))
        h0 = design_h0(DesignSpec(n=n, window=WINDOWS[int(rng.integers(0, 4))]))
        h1 = basic_mate(h0)
        e = build_e(rng.uniform(-2.0, 2.0, m))
        h1p = np.convolve(e, h0)
        h1p[2 * m : 2 * m + h1.size] += h1
        t = analysis.transfer(h0, h1)
        tp = analysis.transfer(h0, h1p)
        expected = np.concatenate([np.zeros(2 * m), t, np.zeros(2 * m)])
        ok &= np.allclose(tp, expected, atol=1e-10 * max(1.0, float(np.abs(t).max())))
    criterion("criterion 3: transfer is a shifted delay for 200 random corrections", ok)


def test_criterion_4_forced_stopband_zeros(all_banks):
    banks, _ = all_banks
    ok = True
    for (n, _, m), bank in banks.items():
        if m == 0:
            continue
        amps = zerophase.amplitude(bank.h1, np.array(bank.zero_freqs))
        ok &= bool(np.all(np.abs(amps) <= 1e-10))
    criterion("criterion 4: refined high-pass amplitude <= 1e-10 at every forced zero", ok)


def test_criterion_5_end_to_end_processing(all_banks, tmp_path, capsys):
    banks, _ = all_banks
    x = np.random.default_rng(99).uniform(-1.0, 1.0, 4096)
    sig = tmp_path / "x.csv"
    sig.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    ok = True
    worst_err, worst_time = 0.0, 0.0
    for key in ((5, "rectangular", 1), (10, "hamming", 1), (20, "kaiser", 2), (1, "gaussian", 0)):
        bankfile = tmp_path / "bank.json"
        cli.save_bank(banks[key], str(bankfile))
        start = time.perf_counter()
        code = cli.main(
            ["process", str(bankfile), "--in", str(sig), "--out", str(tmp_path / "y.csv")]
        )
        elapsed = time.perf_counter() - start
        err = float(capsys.readouterr().out.split("max_rel_error=")[1].split()[0])
        ok &= code == 0 and err <= 1e-9 and elapsed < 1.0
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    criterion(
        f"criterion 5: 4096-sample round trip, worst error {worst_err:.2e} "
        f"in <= {worst_time:.2f}s per bank",
        ok,
    )


def test_criterion_6_db_metric_convention():
    ok = abs(-10 * math.log10(0.047) - 13.24) <= 0.1
    ok &= abs(-10 * math.log10(0.017) - 17.77) <= 0.1
    criterion("criterion 6: -10 log10(MSE) reproduces the quoted dB scores within 0.1", ok)


def test_criterion_7_reference_score_sweep():
    start = time.perf_counter()
    results = sweep.run_sweep()
    elapsed = time.perf_counter() - start
    best = sweep.best_matches(results)
    ok = elapsed < 30.0
    details = []
    for name, point in best.items():
        ok &= point.within()
        details.append(f"{name}: {point.worst_err:.2f} dB")
    criterion(
        f"criterion 7: every reference figure matched within +/-{sweep.DB_TOL} dB "
        f"({'; '.join(details)}) in {elapsed:.1f}s",
        ok,
    )


def test_criterion_8_structural_validation(all_banks):
    banks, _ = all_banks
    ok = True
    for bank in banks.values():
        valid, reasons = analysis.validate_case_a(bank.h0, bank.h1)
        ok &= valid
        ok &= abs(len(bank.h0) - len(bank.h1)) % 4 == 2
    criterion("criterion 8: every designed pair passes structural validation", ok)

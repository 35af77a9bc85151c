import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prqmf import analysis, cli, poly
from prqmf.bank import design_bank
from prqmf.cli import bank_to_dict, load_bank, main, save_bank
from prqmf.prototype import DesignSpec

# h0 all zero: metrics scores it, but it is no PR bank (T(z) = 0).
ZERO_BANK_DOC = {
    "format_version": 1, "n": 1, "m": 0, "edges": None, "window": None,
    "h0": [0.0, 0.0, 0.0], "h1": [1.0], "f0": [1.0], "f1": [0.0, 0.0, 0.0],
    "delay": 1, "scale": 1.0, "zero_freqs": [],
}


def design(tmp_path, *extra, n=6):
    out = tmp_path / "bank.json"
    code = main(["design", "--n", str(n), "--out", str(out), *extra])
    return code, out


def assert_one_error_line(err: str, kind: str):
    """The central exit-code table's report: exactly one `Type: message` line."""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{kind}: ")


def write_signal(path, samples, header=False):
    lines = (["sample"] if header else []) + [repr(float(v)) for v in samples]
    path.write_text("\n".join(lines) + "\n")


def assert_grid_usage_error(err: str, floor: str):
    """argparse usage line, then one error line naming --grid; no traceback."""
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert "error: argument --grid" in last and floor in last


class TestDesign:
    def test_basic_design(self, tmp_path, capsys):
        code, out = design(tmp_path, "--window", "rect", "--refine", "1", n=10)
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["h0"]) == 21
        assert len(doc["h1"]) == 23
        assert doc["delay"] == 21
        assert doc["format_version"] == 1
        line = capsys.readouterr().out.strip()
        assert "delay=21" in line and "max_spurious=" in line

    def test_minimal_bank(self, tmp_path):
        code, out = design(tmp_path, "--refine", "0", n=1)
        assert code == 0
        assert len(json.loads(out.read_text())["h1"]) == 1

    def test_invalid_n(self, tmp_path):
        code, _ = design(tmp_path, n=0)
        assert code == 2

    def test_explicit_edges_and_zeros(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(
            [
                "design", "--n", "8",
                "--wp", str(0.45 * math.pi), "--ws", str(0.65 * math.pi),
                "--window", "kaiser", "--window-param", "5.0",
                "--refine", "2", "--zeros", f"0,{0.2 * math.pi}",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["zero_freqs"] == pytest.approx([0.0, 0.2 * math.pi])

    def test_unreachable_zero_is_degenerate(self, tmp_path, capsys):
        code, out = design(tmp_path, "--refine", "1", "--zeros", str(math.pi / 2), n=10)
        assert code == 3
        assert "SingularRefinement" in capsys.readouterr().err
        assert not out.exists()

    def test_wp_without_ws(self, tmp_path):
        code = main(["design", "--n", "4", "--wp", "1.0", "--out", str(tmp_path / "b.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ("--refine", "0", "--zeros", "0.5"),  # zeros given but no refinement
            ("--refine", "1", "--zeros", "0,1"),  # two zeros for m = 1
            ("--refine", "1", "--zeros", "4"),  # outside [0, pi)
        ],
    )
    def test_bad_zeros_are_usage_errors(self, tmp_path, capsys, extra):
        code, out = design(tmp_path, *extra)
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, "ValueError")
        assert not out.exists()

    def test_non_finite_window_param_is_usage_error(self, tmp_path, capsys):
        # np.i0 overflows for a kaiser beta above 709.78
        for param in ("nan", "710", "1000"):
            code, out = design(tmp_path, "--window", "kaiser", "--window-param", param)
            assert code == 2
            err = capsys.readouterr().err
            assert_one_error_line(err, "ValueError")
            assert "kaiser beta must be finite" in err
            assert not out.exists()

    def test_huge_gaussian_alpha_is_usage_error(self, tmp_path, capsys):
        # (alpha * x) ** 2 overflows above sqrt(DBL_MAX) = 1.34e154
        code, out = design(tmp_path, "--window", "gauss", "--window-param", "1e200", n=10)
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, "ValueError")
        assert "gaussian width alpha must be finite" in err
        assert not out.exists()

    def test_impulse_prototype_is_usage_error(self, tmp_path, capsys):
        # alpha 1000 zeroes every window weight but the centre one
        code, out = design(tmp_path, "--window", "gauss", "--window-param", "1000", n=10)
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, "ValueError")
        assert "the window leaves only the centre tap" in err
        assert not out.exists()

    def test_bad_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--n", "not-an-int", "--out", str(tmp_path / "b.json")])
        assert exc.value.code == 2


class TestVerify:
    def test_fresh_bank_passes(self, tmp_path):
        _, out = design(tmp_path)
        assert main(["verify", str(out)]) == 0

    def test_perturbed_tap_fails(self, tmp_path, capsys):
        _, out = design(tmp_path, n=8)
        capsys.readouterr()  # discard the design summary line
        doc = json.loads(out.read_text())
        doc["h1"][3] += 1e-3
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1
        report = capsys.readouterr().out
        spur = float(report.split("max_spurious=")[1].split()[0])
        assert spur > 1e-5

    def test_rescaled_bank_passes_as_process_does(self, tmp_path, capsys):
        # T(z) shrinks by 1e-10; the certificate is relative to it, so the bank stays PR.
        doc = bank_to_dict(design_bank(DesignSpec(n=10)))
        for key in ("h0", "h1"):
            doc[key] = [1e-5 * v for v in doc[key]]
        path, sig, out = tmp_path / "bank.json", tmp_path / "x.csv", tmp_path / "y.csv"
        path.write_text(json.dumps(doc))
        write_signal(sig, np.random.default_rng(3).uniform(-1, 1, 4096))
        assert main(["verify", str(path)]) == 0
        scale = float(capsys.readouterr().out.split("scale=")[1].split()[0])
        assert 0.0 < abs(scale) < 1e-9
        assert main(["process", str(path), "--in", str(sig), "--out", str(out)]) == 0
        err = float(capsys.readouterr().out.split("max_rel_error=")[1].split()[0])
        assert err <= 1e-8

    def test_truncated_json(self, tmp_path):
        _, out = design(tmp_path)
        out.write_text(out.read_text()[:50])
        assert main(["verify", str(out)]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 3


class TestResponse:
    def test_csv_shape_and_anchors(self, tmp_path):
        _, bankfile = design(tmp_path, n=10)
        csv = tmp_path / "resp.csv"
        assert main(["response", str(bankfile), "--grid", "1024", "--out", str(csv)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "omega,mag_h0,mag_h1,mag_h0_db,mag_h1_db"
        assert len(lines) == 1025
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(1.0, abs=1e-12)  # unit DC gain
        assert first[2] <= 1e-10  # forced zero at DC (m=1)
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(math.pi)
        assert last[2] == pytest.approx(1.0, abs=1e-12)  # passband normalization

    def test_db_clamp(self, tmp_path):
        _, bankfile = design(tmp_path, n=10)
        csv = tmp_path / "resp.csv"
        main(["response", str(bankfile), "--grid", "256", "--out", str(csv)])
        rows = [r.split(",") for r in csv.read_text().strip().splitlines()[1:]]
        assert all(float(r[3]) >= -160.0 and float(r[4]) >= -160.0 for r in rows)

    def test_unwritable_output(self, tmp_path):
        _, bankfile = design(tmp_path)
        assert main(["response", str(bankfile), "--out", str(tmp_path / "no/dir.csv")]) == 3

    def test_odd_grid_matches_fft_magnitudes(self, tmp_path):
        _, bankfile = design(tmp_path, n=10)
        csv = tmp_path / "resp.csv"
        assert main(["response", str(bankfile), "--grid", "65", "--out", str(csv)]) == 0
        rows = np.array(
            [[float(v) for v in r.split(",")] for r in csv.read_text().strip().splitlines()[1:]]
        )
        bank = load_bank(str(bankfile))
        assert rows.shape == (65, 5)
        assert np.array_equal(rows[:, 0], np.linspace(0.0, math.pi, 65))
        for col, h in ((1, bank.h0), (2, bank.h1)):
            fft_mag = np.abs(np.fft.rfft(h, 128))
            assert np.allclose(rows[:, col], fft_mag, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("grid", ["-5", "0", "1"])
    def test_grid_below_two_is_usage_error(self, tmp_path, capsys, grid):
        _, bankfile = design(tmp_path)
        csv = tmp_path / "resp.csv"
        with pytest.raises(SystemExit) as exc:
            main(["response", str(bankfile), "--grid", grid, "--out", str(csv)])
        assert exc.value.code == 2
        assert_grid_usage_error(capsys.readouterr().err, ">= 2")
        assert not csv.exists()


class TestMetrics:
    def test_designed_bank_in_reported_band(self, tmp_path, capsys):
        _, bankfile = design(tmp_path, "--window", "rect", n=10)
        capsys.readouterr()  # discard the design summary line
        assert main(["metrics", str(bankfile)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("lowpass mse=")
        assert lines[1].startswith("highpass mse=")

    def test_all_zero_filter_fixture(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(ZERO_BANK_DOC))
        assert main(["metrics", str(path)]) == 0
        low = capsys.readouterr().out.splitlines()[0]
        assert float(low.split("mse=")[1].split()[0]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("grid", ["10", "-5", "0", "1"])
    def test_grid_below_mse_floor_is_usage_error(self, tmp_path, capsys, grid):
        _, bankfile = design(tmp_path)
        capsys.readouterr()  # discard the design summary line
        with pytest.raises(SystemExit) as exc:
            main(["metrics", str(bankfile), "--grid", grid])
        assert exc.value.code == 2
        assert_grid_usage_error(capsys.readouterr().err, ">= 64")

    def test_infinite_db_printed_as_inf(self, tmp_path, capsys, monkeypatch):
        _, bankfile = design(tmp_path)
        perfect = analysis.ResponseMetrics(0.0, math.inf, 1024)
        monkeypatch.setattr(analysis, "mse", lambda *a, **k: perfect)
        assert main(["metrics", str(bankfile)]) == 0
        assert "db=inf" in capsys.readouterr().out


class TestProcess:
    def test_impulse_yields_transfer(self, tmp_path):
        _, bankfile = design(tmp_path, n=6)
        sig, out = tmp_path / "x.csv", tmp_path / "y.csv"
        write_signal(sig, [1.0])
        main(["process", str(bankfile), "--in", str(sig), "--out", str(out)])
        y = np.array([float(v) for v in out.read_text().split()])
        bank = load_bank(str(bankfile))
        t = analysis.transfer(bank.h0, bank.h1)
        assert np.allclose(y[: t.size], t, atol=1e-12)

    def test_random_signal_round_trip(self, tmp_path, capsys):
        _, bankfile = design(tmp_path, n=10)
        sig, out = tmp_path / "x.csv", tmp_path / "y.csv"
        x = np.random.default_rng(5).uniform(-1, 1, 4096)
        write_signal(sig, x, header=True)
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(out)]) == 0
        err = float(capsys.readouterr().out.split("max_rel_error=")[1].split()[0])
        assert err <= 1e-9

    def test_y_csv_reads_back_exactly(self, tmp_path):
        _, bankfile = design(tmp_path, n=10)
        sig, out = tmp_path / "x.csv", tmp_path / "y.csv"
        x = np.random.default_rng(6).standard_normal(5001)
        write_signal(sig, x)
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(out)]) == 0
        y = np.array([float(v) for v in out.read_text().split()])
        assert np.array_equal(y, analysis.process_bank(load_bank(str(bankfile)), x).y)

    @pytest.mark.parametrize("samples", [1, 42])
    def test_signal_without_steady_state_is_usage_error(self, tmp_path, capsys, samples):
        # n = 10: delay 21, so a steady state needs 2 * 21 + 1 = 43 samples
        _, bankfile = design(tmp_path, n=10)
        sig, out = tmp_path / "x.csv", tmp_path / "y.csv"
        write_signal(sig, np.ones(samples))
        capsys.readouterr()  # discard the design summary line
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err, "ValueError")
        assert f"signal has {samples} samples" in err and "= 43" in err
        assert len(out.read_text().split()) == samples + 21 + 23 - 2
        write_signal(sig, np.ones(43))
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(out)]) == 0

    def test_empty_signal(self, tmp_path):
        _, bankfile = design(tmp_path)
        sig = tmp_path / "empty.csv"
        sig.write_text("")
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(tmp_path / "y.csv")]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400", "abc"])
    def test_bad_sample_is_file_error(self, tmp_path, capsys, bad):
        _, bankfile = design(tmp_path)
        sig, out = tmp_path / "x.csv", tmp_path / "y.csv"
        sig.write_text(f"sample\n0.5\n{bad}\n-0.25\n")
        capsys.readouterr()  # discard the design summary line
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(out)]) == 3
        assert_one_error_line(capsys.readouterr().err, "SignalFileError")
        assert not out.exists()

    def test_all_zero_bank_fails_verification(self, tmp_path, capsys):
        path, sig = tmp_path / "zero.json", tmp_path / "x.csv"
        path.write_text(json.dumps(ZERO_BANK_DOC))
        write_signal(sig, np.ones(16))
        assert main(["process", str(path), "--in", str(sig), "--out", str(tmp_path / "y.csv")]) == 1
        assert_one_error_line(capsys.readouterr().err, "NoDelayFound")

    def test_missing_signal_file(self, tmp_path):
        _, bankfile = design(tmp_path)
        assert main(["process", str(bankfile), "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "y.csv")]) == 3


class TestBankFile:
    def test_round_trip_is_bit_identical(self, tmp_path):
        bank = design_bank(DesignSpec(n=9, m=2))
        path = tmp_path / "bank.json"
        save_bank(bank, str(path))
        loaded = load_bank(str(path))
        for field in ("h0", "h1", "f0", "f1"):
            assert np.array_equal(getattr(loaded, field), getattr(bank, field))
        assert loaded.delay == bank.delay
        assert loaded.scale == bank.scale

    def test_save_load_save_idempotent(self, tmp_path):
        bank = design_bank(DesignSpec(n=5))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_bank(bank, str(p1))
        save_bank(load_bank(str(p1)), str(p2))
        assert json.loads(p1.read_text())["h0"] == json.loads(p2.read_text())["h0"]

    def test_wrong_version_rejected(self, tmp_path):
        bank = design_bank(DesignSpec(n=4))
        doc = bank_to_dict(bank)
        doc["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 3

    @pytest.mark.parametrize(
        "key, value", [("format_version", True), ("n", "7"), ("m", "1")]
    )
    def test_integer_fields_are_strict(self, tmp_path, capsys, key, value):
        # JSON true equals 1 and int("7") is 7; neither is an integer field
        doc = json.loads(pristine_json(1))
        doc[key] = value
        rc, err = run_on_doc(tmp_path, doc, "verify")
        assert rc == 3
        assert_one_error_line(err, "BankFileError")
        assert f"{key} must be an integer" in err


# Per command, the arguments after the bank file; `process` reads x.csv.
COMMAND_ARGS = {
    "verify": [],
    "metrics": [],
    "response": ["--out", "resp.csv"],
    "process": ["--in", "x.csv", "--out", "y.csv"],
}


def run_on_doc(workdir, doc, command):
    """Write `doc` as the bank file, run one command on it; (rc, stderr)."""
    (workdir / "bank.json").write_text(json.dumps(doc))
    if not (workdir / "x.csv").exists():
        write_signal(workdir / "x.csv", np.random.default_rng(3).uniform(-1, 1, 256))
    argv = [command, str(workdir / "bank.json")]
    argv += [str(workdir / a) if a.endswith(".csv") else a for a in COMMAND_ARGS[command]]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


@cache
def pristine_json(m: int) -> str:
    return json.dumps(bank_to_dict(design_bank(DesignSpec(n=4, m=m))))


class TestDerivedFields:
    """f0, f1, delay and scale in a bank file are written for readers and ignored on load."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(f0=[1.01 * v for v in d["f0"]]),
            lambda d: d.update(delay=3),
            lambda d: d.update(scale=2.0 * d["scale"], f1=[]),
            lambda d: [d.pop(k) for k in ("f0", "f1", "delay", "scale")],
        ],
        ids=["f0x1.01", "delay3", "scale-f1", "dropped"],
    )
    def test_verify_and_process_agree(self, tmp_path, capsys, edit):
        bank = design_bank(DesignSpec(n=10))
        doc = bank_to_dict(bank)
        edit(doc)
        path, sig, out = tmp_path / "bank.json", tmp_path / "x.csv", tmp_path / "y.csv"
        path.write_text(json.dumps(doc))
        write_signal(sig, np.random.default_rng(7).uniform(-1, 1, 4096))
        assert main(["verify", str(path)]) == 0
        assert main(["process", str(path), "--in", str(sig), "--out", str(out)]) == 0
        err = float(capsys.readouterr().out.split("max_rel_error=")[1].split()[0])
        assert err <= 1e-8
        loaded = load_bank(str(path))
        assert (loaded.delay, loaded.scale) == (bank.delay, bank.scale)
        assert np.array_equal(loaded.f0, bank.f0) and np.array_equal(loaded.f1, bank.f1)

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    @pytest.mark.parametrize("h0", [[0.25, math.nan, 0.25], [0.25, math.inf, 0.25], []])
    def test_bad_h0_is_file_error(self, tmp_path, command, h0):
        doc = bank_to_dict(design_bank(DesignSpec(n=4)))
        doc["h0"] = h0
        rc, err = run_on_doc(tmp_path, doc, command)
        assert rc == 3
        assert_one_error_line(err, "BankFileError")


# Short strings that include numeric ones ("1", "-0.5"), which are still no taps.
TEXT = st.text("01.-ae", max_size=4)
# Values of another JSON type than a list of numbers.
NOT_TAPS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    TEXT,
    st.dictionaries(TEXT, st.integers(), max_size=2),
    st.lists(st.one_of(st.none(), TEXT, st.booleans()), min_size=1, max_size=3),
    st.lists(st.lists(st.floats(-1, 1), min_size=1, max_size=2), min_size=1, max_size=2),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def damaged_bank_docs(draw):
    """(doc, must_fail, same_as_pristine) for one damaged field of a designed bank."""
    doc = json.loads(pristine_json(draw(st.integers(0, 2))))
    key = draw(st.sampled_from(sorted(doc) + [None]))
    if key is None:  # the document itself is not an object
        return draw(st.one_of(st.lists(st.integers(), max_size=2), TEXT, st.none())), True, False
    how = draw(st.sampled_from(["drop", "retype", "non-finite", "empty"]))
    if how == "drop":
        del doc[key]
    elif how == "retype":
        doc[key] = draw(NOT_TAPS.filter(lambda v: v != doc[key]))
    elif how == "empty":
        doc[key] = draw(st.sampled_from([[], {}, ""]))
    elif isinstance(doc[key], list) and doc[key]:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(NON_FINITE)
    else:
        doc[key] = draw(NON_FINITE)
    # The bank is format_version, h0 and h1: damage there must fail the load, and
    # so must zero_freqs that are no list of numbers. f0, f1, delay and scale are
    # derived: damage there must change nothing.
    must_fail = key in ("format_version", "h0", "h1") or (key == "zero_freqs" and how == "retype")
    return doc, must_fail, key in ("f0", "f1", "delay", "scale")


# One bad value each, in --flag=value form so that argparse reads a negative
# number as a value, not as a flag. Every case is a usage error (rc 2).
BAD_DESIGN_ARGS = st.one_of(
    st.integers(-5, 0).map(lambda n: [f"--n={n}"]),
    st.sampled_from(["x", "1.5", ""]).map(lambda n: [f"--n={n}"]),
    st.one_of(st.floats(max_value=0.0), st.floats(min_value=0.5)).map(lambda d: [f"--delta={d!r}"]),
    st.floats(0.1, 3.0).map(lambda wp: [f"--wp={wp!r}"]),
    st.floats(0.1, 3.0).map(lambda wp: [f"--wp={wp!r}", f"--ws={wp / 2!r}"]),
    st.integers(-5, -1).map(lambda m: [f"--refine={m}"]),
    st.lists(st.floats(0.0, 3.0), min_size=2, max_size=4).map(
        lambda zs: ["--refine=1", "--zeros=" + ",".join(map(repr, zs))]
    ),
    st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=math.pi), st.just(math.nan)).map(
        lambda z: ["--refine=1", f"--zeros={z!r}"]
    ),
    st.sampled_from(["", "a", "0,,1", "0;1"]).map(lambda z: ["--refine=2", f"--zeros={z}"]),
    st.floats(max_value=-1e-9).map(lambda p: ["--window=kaiser", f"--window-param={p!r}"]),
    st.floats(max_value=0.0).map(lambda p: ["--window=gauss", f"--window-param={p!r}"]),
    st.sampled_from([["--window=bogus"], ["--refine=x"], ["--bogus"]]),
)


class TestMalformedInput:
    @given(case=damaged_bank_docs(), command=st.sampled_from(sorted(COMMAND_ARGS)))
    def test_damaged_bank_file(self, tmp_path_factory, case, command):
        doc, must_fail, same_as_pristine = case
        workdir = tmp_path_factory.mktemp("damaged")
        rc, err = run_on_doc(workdir, doc, command)
        assert "Traceback" not in err
        if must_fail:
            assert rc == 3
            assert_one_error_line(err, "BankFileError")
        elif same_as_pristine:
            pristine = json.loads(pristine_json(doc["m"]))
            assert (rc, err) == run_on_doc(workdir, pristine, command)
        else:  # spec metadata: either ignored or a format error
            assert rc in (0, 3)
            assert rc == 0 or re.fullmatch(r"BankFileError: .*\n", err)

    @given(extra=BAD_DESIGN_ARGS)
    def test_bad_design_arguments(self, tmp_path_factory, extra):
        out = tmp_path_factory.mktemp("args") / "bank.json"
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            try:
                rc = main(["design", "--n=6", *extra, f"--out={out}"])
            except SystemExit as exc:  # argparse rejects the value itself
                rc = exc.code
        assert rc == 2
        assert "Traceback" not in err.getvalue()
        if not err.getvalue().startswith("usage:"):
            assert_one_error_line(err.getvalue(), "ValueError")
        assert not out.exists()


class TestParserReuse:
    """main builds its parser once per process; no call may see an earlier call's state."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_zeros_do_not_carry_over(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["design", "--n", "6", "--refine", "2", "--zeros", "0,0.5", "--out", str(first)]) == 0
        assert main(["design", "--n", "6", "--refine", "1", "--out", str(second)]) == 0
        assert json.loads(first.read_text())["zero_freqs"] == [0.0, 0.5]
        default = list(design_bank(DesignSpec(n=6, m=1)).zero_freqs)
        assert json.loads(second.read_text())["zero_freqs"] == default != [0.0, 0.5]

    def test_usage_error_then_verify(self, tmp_path, capsys):
        _, bankfile = design(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["design", "--n", "6", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["verify", str(bankfile)]) == 0
        assert capsys.readouterr().out.startswith("delay=")

    def test_rebound_command_runs(self, tmp_path, monkeypatch):
        _, bankfile = design(tmp_path)
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.path) or 7)
        assert main(["verify", str(bankfile)]) == 7
        assert seen == [str(bankfile)]


def per_line_read_signal(path):
    """The reader before it read the file in one call: one `float` per line of the file."""
    with open(path, "rb") as fh:
        lines = [ln for ln in fh if ln.strip()]
    for header in (0, 1):
        try:
            x = np.array([float(ln) for ln in lines[header:]])
        except ValueError:
            continue
        if np.all(np.isfinite(x)):
            return x
        break
    raise cli.SignalFileError(f"signal {path} has a sample that is not a finite number")


SIGNAL_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1_0", "abc", "x", "", "  ", "\t ", "0.\r5", "\r0.25"]),
)


def read_outcome(reader, path):
    try:
        return reader(path)
    except Exception as exc:  # the exception type is what must agree
        return type(exc)


class TestSignalReader:
    @given(
        lines=st.lists(st.tuples(SIGNAL_TOKENS, st.sampled_from(["\n", "\r\n"])), max_size=12),
        final_newline=st.booleans(),
    )
    def test_one_read_matches_per_line_reader(self, tmp_path_factory, lines, final_newline):
        text = "".join(tok + end for tok, end in lines)
        if lines and not final_newline:
            text = text[: -len(lines[-1][1])]
        path = tmp_path_factory.mktemp("signal") / "x.csv"
        path.write_bytes(text.encode())
        got = read_outcome(cli._read_signal, str(path))
        want = read_outcome(per_line_read_signal, str(path))
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype
            assert np.array_equal(got, want)
        else:
            assert got is want

    def test_crlf_signal_processes(self, tmp_path):
        _, bankfile = design(tmp_path, n=6)
        x = np.random.default_rng(7).standard_normal(64)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_text("x\n" + "".join(f"{v!r}\n" for v in x.tolist()))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        for sig in (lf, crlf):
            assert main(["process", str(bankfile), "--in", str(sig), "--out", str(tmp_path / f"y-{sig.stem}")]) == 0
        assert (tmp_path / "y-lf").read_bytes() == (tmp_path / "y-crlf").read_bytes()


class TestOutputBytes:
    @pytest.mark.parametrize("grid", [2, 65, 1024])
    def test_response_csv_matches_per_row_writes(self, tmp_path, grid):
        _, bankfile = design(tmp_path, n=10)
        out = tmp_path / "resp.csv"
        assert main(["response", str(bankfile), "--grid", str(grid), "--out", str(out)]) == 0
        bank = load_bank(str(bankfile))
        w = np.linspace(0.0, math.pi, grid)
        mags = [np.abs(poly.grid_response(h, grid)) for h in (bank.h0, bank.h1)]
        want = io.StringIO()
        want.write("omega,mag_h0,mag_h1,mag_h0_db,mag_h1_db\n")
        for row in zip(*(col.tolist() for col in (w, *mags, *map(cli._mag_db, mags)))):
            want.write(",".join(map(repr, row)) + "\n")
        assert out.read_bytes() == want.getvalue().encode()

    def test_design_file_is_indented_json(self, tmp_path):
        _, bankfile = design(tmp_path, "--refine", "2", n=9)
        bank = design_bank(DesignSpec(n=9, m=2))
        assert bankfile.read_text() == json.dumps(bank_to_dict(bank), indent=2) + "\n"
        doc = json.loads(bankfile.read_text())
        assert (doc["f0"], doc["f1"]) == (bank.f0.tolist(), bank.f1.tolist())

import json
import math

import numpy as np
import pytest

from prqmf import analysis
from prqmf.bank import design_bank
from prqmf.cli import bank_to_dict, load_bank, main, save_bank
from prqmf.prototype import DesignSpec


def design(tmp_path, *extra, n=6):
    out = tmp_path / "bank.json"
    code = main(["design", "--n", str(n), "--out", str(out), *extra])
    return code, out


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
        doc = {
            "format_version": 1, "n": 1, "m": 0, "edges": None, "window": None,
            "h0": [0.0, 0.0, 0.0], "h1": [1.0], "f0": [1.0], "f1": [0.0, 0.0, 0.0],
            "delay": 1, "scale": 1.0, "zero_freqs": [],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
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
        perfect = analysis.ResponseMetrics(0.0, math.inf, 1024, "lowpass")
        monkeypatch.setattr(analysis, "mse", lambda *a, **k: perfect)
        assert main(["metrics", str(bankfile)]) == 0
        assert "db=inf" in capsys.readouterr().out


class TestProcess:
    def write_signal(self, path, samples, header=False):
        lines = (["sample"] if header else []) + [repr(float(v)) for v in samples]
        path.write_text("\n".join(lines) + "\n")

    def test_impulse_yields_transfer(self, tmp_path):
        _, bankfile = design(tmp_path, n=6)
        sig, out = tmp_path / "x.csv", tmp_path / "y.csv"
        self.write_signal(sig, [1.0])
        main(["process", str(bankfile), "--in", str(sig), "--out", str(out)])
        y = np.array([float(v) for v in out.read_text().split()])
        bank = load_bank(str(bankfile))
        t = analysis.transfer(bank.h0, bank.h1)
        assert np.allclose(y[: t.size], t, atol=1e-12)

    def test_random_signal_round_trip(self, tmp_path, capsys):
        _, bankfile = design(tmp_path, n=10)
        sig, out = tmp_path / "x.csv", tmp_path / "y.csv"
        x = np.random.default_rng(5).uniform(-1, 1, 4096)
        self.write_signal(sig, x, header=True)
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(out)]) == 0
        err = float(capsys.readouterr().out.split("max_rel_error=")[1].split()[0])
        assert err <= 1e-9

    def test_empty_signal(self, tmp_path):
        _, bankfile = design(tmp_path)
        sig = tmp_path / "empty.csv"
        sig.write_text("")
        assert main(["process", str(bankfile), "--in", str(sig), "--out", str(tmp_path / "y.csv")]) == 2

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

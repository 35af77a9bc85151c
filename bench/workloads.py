"""The four workloads: seeded inputs, the timed op, its check and its digest.

Each workload is built from a seed and the prqmf modules (`lib`). The op
calls the library only through module attributes (`lib.bank.design_bank`),
so the tracer's rebinding reaches it. `check` runs outside the timed region
and returns None or (cause, detail); `digest` reduces an op's outputs to
bytes so the traced and untraced runs can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import re
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle

GRID = 1024
STREAM_SAMPLES = 2**20
CLI_SAMPLES = 4096
CLI_SPECS = 8
DESIGN_LONG_SPECS = 4096
WINDOWS = ("rectangular", "hamming", "gaussian", "kaiser")
WINDOW_PARAMS = {"gaussian": (2.0, 2.5, 3.0), "kaiser": (4.0, 6.0, 8.0)}
CLI_WINDOW = {"rectangular": "rect", "hamming": "hamming", "gaussian": "gauss"}


def _hash(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.digest()


def _bank_digest(bank) -> bytes:
    return _hash(bank.h0.tobytes(), bank.h1.tobytes(), bank.delay, bank.scale)


def design_errors(lib) -> tuple:
    """The exceptions prqmf documents for a design it cannot complete."""
    return (
        lib.qmf_core.SingularSystem,
        lib.qmf_core.DegeneratePassband,
        lib.refine.SingularRefinement,
        lib.analysis.NoDelayFound,
    )


def _strata(rng, values, count: int) -> list:
    """count items: seeded shuffles of `values`, one after another."""
    values = list(values)
    out: list = []
    while len(out) < count:
        out += [values[k] for k in rng.permutation(len(values))]
    return out[:count]


def sweep_points(lib) -> list[tuple[str, tuple, object]]:
    """(reference, (center, delta, param), spec) for every point run_sweep scores."""
    s = lib.sweep
    points = []
    for ref in s.REFERENCES:
        for center in s.CENTERS:
            for delta in s.DELTAS:
                edges = lib.prototype.BandEdges((center - delta) * math.pi, (center + delta) * math.pi)
                for param in ref.params:
                    spec = lib.prototype.DesignSpec(
                        n=ref.n,
                        edges=edges,
                        window=lib.prototype.WindowSpec(ref.window, param),
                        m=ref.m,
                        grid_size=GRID,
                    )
                    points.append((ref.name, (center, delta, param), spec))
    return points


def _check_design(bank, spec):
    """The oracle's verdict first; "uncertified" is a correct bank the library did not certify."""
    problem = oracle.check_bank(bank, spec.n, spec.m)
    if problem:
        return "wrong_output", problem
    if not bank.max_spurious <= oracle.PR_TOL:
        return "uncertified", f"library max_spurious {bank.max_spurious:.3e}"
    return None


class Workload:
    """Defaults: a run may stop after any op, has no end-of-run checks, every
    documented exception an op raises is a failed op, and op times are
    calibrated by the "mixed" kernel (see worker.py)."""

    min_ops = 1
    calibration = "mixed"

    def check_raise(self, i, exc):
        """None if the op was right to raise exc, else (cause, detail)."""
        return type(exc).__name__, str(exc)

    def finish(self) -> list[str]:
        return []


class PaperSweep(Workload):
    """design_bank + mse(h0) + mse(h1) per reference sweep point, seed-shuffled."""

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.points = sweep_points(lib)
        random.Random(seed).shuffle(self.points)
        self.min_ops = len(self.points)  # one full cycle, so criterion 7 can be judged
        self.oracle_mse: dict = {}
        self.library_db: dict = {}

    def warmup(self):
        for n in sorted({spec.n for _, _, spec in self.points}):
            self.op(next(i for i, p in enumerate(self.points) if p[2].n == n))

    def op(self, i):
        spec = self.points[i % len(self.points)][2]
        bank = self.lib.bank.design_bank(spec)
        low = self.lib.analysis.mse(bank.h0, "lowpass", GRID)
        high = self.lib.analysis.mse(bank.h1, "highpass", GRID)
        return bank, low, high

    def check(self, i, out):
        ref, key, spec = self.points[i % len(self.points)]
        bank, low, high = out
        bad = _check_design(bank, spec)
        if bad:
            return bad
        want = (oracle.mse(bank.h0, "lowpass", GRID), oracle.mse(bank.h1, "highpass", GRID))
        if not (oracle.close(low.mse, want[0]) and oracle.close(high.mse, want[1])):
            return "wrong_output", f"mse {low.mse!r}/{high.mse!r}, oracle {want}"
        self.oracle_mse[(ref, key)] = want
        self.library_db[(ref, key)] = (low.db, high.db)
        return None

    def digest(self, out):
        bank, low, high = out
        return _hash(_bank_digest(bank), low.mse, high.mse)

    def finish(self) -> list[str]:
        best = oracle.best_match_errors(self.oracle_mse)
        return [
            f"criterion 7: {ref} best match {best.get(ref, math.inf):.3f} dB > {oracle.DB_TOL} dB"
            for ref in oracle.PAPER_DB
            if not best.get(ref, math.inf) <= oracle.DB_TOL
        ]

    def after_trace(self) -> list[str]:
        """Call run_sweep once; its scores must equal the per-point ops' bit for bit."""
        results = self.lib.sweep.run_sweep(GRID)
        problems = []
        for ref, points in results.items():
            for p in points:
                seen = self.library_db.get((ref, (p.center, p.delta, p.param)))
                if seen is not None and seen != (p.lowpass_db, p.highpass_db):
                    problems.append(f"run_sweep {ref} {p.center}/{p.delta}/{p.param}: {seen}")
        if sum(map(len, results.values())) != len(self.points):
            problems.append("run_sweep point count differs from the benchmark's grid")
        return problems


class DesignLong(Workload):
    """One unscored design_bank call per seeded long spec (n = 32..128).

    About 15 % of these specs give a mate system that is numerically singular
    (ROADMAP item 1), and design_bank raises SingularSystem on them, as it
    documents. The oracle recomputes the system's conditioning for every such
    raise: on a numerically singular system the raise is a correct outcome,
    and on any other system it is a failed op. Every run does at least
    min_ops ops, so the raises among the first min_ops ops repeat exactly
    for a seed.
    """

    min_ops = 256
    calibration = "solver"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        # Bound before any tracing, so the oracle's calls record no spans.
        self.design_h0 = lib.prototype.design_h0
        rng = np.random.default_rng(seed)
        P = lib.prototype
        # Stratified draws: every factor runs through its whole range in each
        # block of ops, so a run's mix of n, m, window and half-width (and with
        # it the op cost and the singular share) varies little between seeds.
        count = DESIGN_LONG_SPECS
        ns = _strata(rng, range(32, 129), count)
        ms = _strata(rng, range(3), count)
        kinds = _strata(rng, WINDOWS, count)
        bins = _strata(rng, range(64), count)
        self.specs = []
        for n, m, kind, b in zip(ns, ms, kinds, bins):
            params = WINDOW_PARAMS.get(kind)
            param = float(params[int(rng.integers(len(params)))]) if params else None
            delta = 0.02 + 1.48 * (b + rng.uniform()) / 64
            centers = [c for c in (0.5 * math.pi, 0.5625 * math.pi) if c + delta < math.pi]
            center = centers[int(rng.integers(len(centers)))]
            edges = P.BandEdges(center - delta, center + delta)
            self.specs.append(P.DesignSpec(n=int(n), edges=edges, window=P.WindowSpec(kind, param), m=int(m)))

    def warmup(self):
        for spec in self.specs[-4:]:
            try:
                self.lib.bank.design_bank(spec)
            except design_errors(self.lib):
                pass  # failures are counted in the timed ops, not here

    def op(self, i):
        return self.lib.bank.design_bank(self.specs[i % len(self.specs)])

    def check(self, i, out):
        return _check_design(out, self.specs[i % len(self.specs)])

    def check_raise(self, i, exc):
        if not isinstance(exc, self.lib.qmf_core.SingularSystem):
            return super().check_raise(i, exc)
        ratio = oracle.mate_system_rank_ratio(self.design_h0(self.specs[i % len(self.specs)]))
        if ratio < oracle.RANK_RTOL:
            return None
        return "SingularSystem", f"raised on a mate system with rank ratio {ratio:.3e}: {exc}"

    def digest(self, out):
        return _bank_digest(out)


class Stream(Workload):
    """process_bank on one seeded 2^20-sample signal; two banks, fast fast slow."""

    ORDER = (0, 0, 1)  # 2:1 so that the median falls inside one bank's cluster

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.x = np.random.default_rng(seed).standard_normal(STREAM_SAMPLES)
        P = lib.prototype
        self.banks = [
            lib.bank.design_bank(P.DesignSpec(n=10, window=P.WindowSpec("hamming"), m=1)),
            lib.bank.design_bank(P.DesignSpec(n=40, window=P.WindowSpec("kaiser"), m=2)),
        ]
        self.terms = [oracle.pr_terms(b.h0, b.h1) for b in self.banks]
        if any(s > oracle.PR_TOL for _, _, s in self.terms):
            raise RuntimeError("stream bank is not PR")

    def warmup(self):
        for b in self.banks:
            self.lib.analysis.process_bank(b, self.x)

    def op(self, i):
        return self.lib.analysis.process_bank(self.banks[self.ORDER[i % 3]], self.x)

    def check(self, i, out):
        delay, scale, _ = self.terms[self.ORDER[i % 3]]
        err = oracle.reconstruction_error(self.x, out.y, delay, scale)
        return None if err <= oracle.RECON_TOL else ("wrong_output", f"reconstruction error {err:.3e}")

    def digest(self, out):
        return _hash(out.y.tobytes(), out.delay, out.scale)


class CliRoundtrip(Workload):
    """In-process cli.main: design, verify, metrics, response, process, through files."""

    COMMANDS = ("design", "verify", "metrics", "response", "process")

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.bank_path = workdir / "bank.json"
        self.resp_path = workdir / "resp.csv"
        self.y_path = workdir / "y.csv"
        self.outputs = (self.bank_path, self.resp_path, self.y_path)
        x_path = workdir / "x.csv"
        self.x = np.random.default_rng(seed).standard_normal(CLI_SAMPLES)
        x_path.write_text("x\n" + "".join(repr(float(v)) + "\n" for v in self.x))
        # n = 10 reference points: all design without error, and cost about the same.
        points = [p for p in sweep_points(lib) if p[2].n == 10]
        self.specs = [spec for _, _, spec in random.Random(seed).sample(points, CLI_SPECS)]
        self.argvs = []
        for spec in self.specs:
            design = ["design", "--n", str(spec.n), "--wp", repr(spec.edges.wp)]
            design += ["--ws", repr(spec.edges.ws), "--window", CLI_WINDOW[spec.window.kind]]
            if spec.window.param is not None:
                design += ["--window-param", repr(spec.window.param)]
            design += ["--refine", str(spec.m), "--out", str(self.bank_path)]
            self.argvs.append(
                [
                    design,
                    ["verify", str(self.bank_path)],
                    ["metrics", str(self.bank_path), "--grid", str(GRID)],
                    ["response", str(self.bank_path), "--grid", str(GRID), "--out", str(self.resp_path)],
                    ["process", str(self.bank_path), "--in", str(x_path), "--out", str(self.y_path)],
                ]
            )
        self.bytes_written = 0

    def warmup(self):
        self.op(0)
        self._remove_outputs()

    def op(self, i):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rcs = [self.lib.cli.main(argv) for argv in self.argvs[i % CLI_SPECS]]
        return rcs, buf.getvalue()

    def _remove_outputs(self):
        for p in self.outputs:
            p.unlink(missing_ok=True)

    def check(self, i, out):
        """Oracle on every file this op wrote, even after a non-zero exit; then remove them,
        so that the next op's check sees only the next op's files."""
        rcs, stdout = out
        try:
            self.bytes_written += sum(p.stat().st_size for p in self.outputs if p.exists())
            problem = self._wrong_output(self.specs[i % CLI_SPECS], rcs, stdout)
        finally:
            self._remove_outputs()
        if problem:
            return "wrong_output", problem
        if any(rcs):
            return "cli_exit", f"exit codes {dict(zip(self.COMMANDS, rcs))}"
        return None

    def _wrong_output(self, spec, rcs, stdout) -> str | None:
        if not self.bank_path.exists():
            return None  # design failed and wrote nothing: a cli_exit failure
        doc = json.loads(self.bank_path.read_text())
        bank = SimpleNamespace(**{k: np.asarray(doc[k], dtype=float) for k in ("h0", "h1", "f0", "f1")})
        bank.delay, bank.scale, bank.zero_freqs = doc["delay"], doc["scale"], doc["zero_freqs"]
        problem = oracle.check_bank(bank, spec.n, spec.m)
        if problem:
            return f"bank file: {problem}"
        got = [float(v) for v in re.findall(r"^\w+ mse=(\S+)", stdout, re.M)]
        want = [oracle.mse(bank.h0, "lowpass", GRID), oracle.mse(bank.h1, "highpass", GRID)]
        if rcs[2] == 0 and not (len(got) == 2 and all(map(oracle.close, got, want))):
            return f"metrics {got}, oracle {want}"
        if self.resp_path.exists():
            resp = np.loadtxt(self.resp_path, delimiter=",", skiprows=1)
            mags = np.stack([oracle.magnitudes(bank.h0, GRID), oracle.magnitudes(bank.h1, GRID)], axis=1)
            if resp.shape != (GRID, 5) or not np.allclose(resp[:, 1:3], mags, rtol=0, atol=1e-9):
                return "response magnitudes"
        if self.y_path.exists():
            delay, scale, _ = oracle.pr_terms(bank.h0, bank.h1)
            err = oracle.reconstruction_error(self.x, np.loadtxt(self.y_path), delay, scale)
            if not err <= oracle.RECON_TOL:
                return f"process reconstruction error {err:.3e}"
        return None

    def digest(self, out):
        return _hash(*out[0], out[1], *(p.read_bytes() if p.exists() else b"" for p in self.outputs))


WORKLOADS = {
    "paper_sweep": PaperSweep,
    "design_long": DesignLong,
    "stream": Stream,
    "cli_roundtrip": CliRoundtrip,
}

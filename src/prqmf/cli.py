"""Command-line front end.

Subcommands: design a bank to JSON, verify a stored bank, export magnitude
responses as CSV, print MSE metrics, and run a signal through the bank.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 I/O / format / degenerate-design error (one table, `EXIT_CODES`).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import analysis, poly
from .analysis import PROCESS_TOL
from .bank import design_bank
from .prototype import BandEdges, DesignSpec, WindowSpec
from .qmf_core import DegeneratePassband, SingularSystem
from .refine import SingularRefinement

FORMAT_VERSION = 1
DB_FLOOR = -160.0
# Rows formatted per write of a CSV file: about 1.6 MB of `response` text.
CSV_CHUNK_ROWS = 16384

WINDOW_ALIASES = {
    "rect": "rectangular",
    "hamming": "hamming",
    "gauss": "gaussian",
    "kaiser": "kaiser",
}


class BankFileError(Exception):
    """Bank file is unreadable, malformed, or has the wrong version."""


class SignalFileError(Exception):
    """Signal file holds a sample that is not a finite number."""


def bank_to_dict(bank: analysis.FilterBank) -> dict:
    """Format 1. f0, f1, delay and scale are derived from h0 and h1; they are
    written for outside readers and ignored by `load_bank`."""
    spec = bank.spec
    f0, f1 = analysis.synthesis_filters(bank.h0, bank.h1)
    # int() and float(): a spec may hold NumPy scalars, which json cannot write
    param = None if spec is None or spec.window.param is None else float(spec.window.param)
    return {
        "format_version": FORMAT_VERSION,
        "n": int(spec.n) if spec else (len(bank.h0) - 1) // 2,
        "m": int(spec.m) if spec else 0,
        "edges": {"wp": float(spec.edges.wp), "ws": float(spec.edges.ws)} if spec else None,
        "window": {"kind": spec.window.kind, "param": param} if spec else None,
        "h0": bank.h0.tolist(),
        "h1": bank.h1.tolist(),
        "f0": f0.tolist(),
        "f1": f1.tolist(),
        "delay": bank.delay,
        "scale": bank.scale,
        "zero_freqs": list(bank.zero_freqs),
    }


def save_bank(bank: analysis.FilterBank, path: str) -> None:
    text = json.dumps(bank_to_dict(bank), indent=2) + "\n"  # first, so a failure writes no file
    with open(path, "w") as fh:
        fh.write(text)


def load_bank(path: str) -> analysis.FilterBank:
    """The bank is rebuilt from h0 and h1 alone; the stored derived fields are not read.
    Its zeros, n and m are checked as `DesignSpec` checks them, and against the taps."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("format_version", "n", "m"):  # JSON true == 1, int("7") == 7
            if type(doc[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        if doc["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {doc['format_version']!r}")
        h0, h1, zeros = doc["h0"], doc["h1"], doc.get("zero_freqs", [])  # no defaults from m
        for key, value in (("h0", h0), ("h1", h1), ("zero_freqs", zeros)):
            if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
                raise ValueError(f"{key} must be a list of numbers")
        spec = None
        if doc.get("edges") and doc.get("window"):
            n, m = doc["n"], doc["m"]
            # Before the spec is built, so that the file's m is bounded by its taps.
            if len(h0) != 2 * n + 1 or len(h1) != 2 * n + 4 * m - 1:
                raise ValueError(f"{len(h0)}/{len(h1)} taps do not fit n={n}, m={m}")
            spec = DesignSpec(
                n=n,
                edges=BandEdges(doc["edges"]["wp"], doc["edges"]["ws"]),
                window=WindowSpec(doc["window"]["kind"], doc["window"]["param"]),
                m=m,
                zero_freqs=zeros,
            )
        elif zeros:
            raise ValueError("zero_freqs need the design's edges and window")
        return analysis.FilterBank(h0, h1, spec)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise BankFileError(f"cannot load bank file {path}: {exc}") from exc


def _mag_db(mag: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(np.maximum(mag, 0.0)), DB_FLOOR)


def _read_signal(path: str) -> np.ndarray:
    """One sample per line (LF or CRLF); a first line that is not a number is a header.
    Read line by line into one float array, so no list of lines or floats is held."""
    with open(path, "rb") as fh:
        lines = filter(bytes.strip, fh)  # blank and whitespace-only lines dropped
        try:
            head = [float(next(lines, b""))]
        except ValueError:  # a header, or no line at all
            head = []
        try:
            x = np.fromiter(itertools.chain(head, map(float, lines)), float)
        except ValueError:
            x = None
    if x is None or not np.all(np.isfinite(x)):
        raise SignalFileError(f"signal {path} has a sample that is not a finite number")
    return x


def _write_rows(path: str, header: str, cols) -> None:
    """Write header, then row i as the columns' i-th reprs joined by "," (one column: no join,
    which cost `process` 6 %), CSV_CHUNK_ROWS rows per write: memory is bounded by a chunk."""
    with open(path, "w") as fh:
        fh.write(header)
        for i in range(0, cols[0].size, CSV_CHUNK_ROWS):
            reprs = [map(repr, col[i : i + CSV_CHUNK_ROWS].tolist()) for col in cols]
            rows = map(",".join, zip(*reprs)) if len(reprs) > 1 else reprs[0]
            fh.write("\n".join(rows) + "\n")


def _certificate_line(report: analysis.PrReport) -> str:
    return (
        f"delay={report.delay} scale={report.scale!r} max_spurious={report.max_spurious:.3e} "
        f"sum_spurious={report.sum_spurious:.3e}"
    )


def cmd_design(args) -> int:
    if (args.wp is None) != (args.ws is None):
        raise ValueError("--wp and --ws must be given together")
    if args.wp is not None:
        edges = BandEdges(args.wp, args.ws)
    else:
        edges = BandEdges.symmetric(args.delta * math.pi)
    zeros = None if args.zeros is None else [float(tok) for tok in args.zeros.split(",")]
    spec = DesignSpec(
        n=args.n,
        edges=edges,
        window=WindowSpec(WINDOW_ALIASES[args.window], args.window_param),
        m=args.refine,
        zero_freqs=zeros,
    )
    bank = design_bank(spec)
    save_bank(bank, args.out)
    low = analysis.mse(bank.h0, "lowpass")
    high = analysis.mse(bank.h1, "highpass")
    report = bank.certificate
    print(f"{_certificate_line(report)} lowpass_db={low.db:.4f} highpass_db={high.db:.4f}")
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    report = load_bank(args.path).certificate
    print(_certificate_line(report))
    return 0 if report.passed else 1


def cmd_response(args) -> int:
    bank = load_bank(args.path)
    # Before linspace, so that a bad grid fails with grid_response's message.
    mags = [np.abs(poly.grid_response(h, args.grid)) for h in (bank.h0, bank.h1)]
    w = np.linspace(0.0, math.pi, args.grid)
    cols = (w, *mags, *map(_mag_db, mags))
    _write_rows(args.out, "omega,mag_h0,mag_h1,mag_h0_db,mag_h1_db\n", cols)
    print(f"wrote {args.grid} rows to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    bank = load_bank(args.path)
    low = analysis.mse(bank.h0, "lowpass", args.grid)
    high = analysis.mse(bank.h1, "highpass", args.grid)
    print(f"lowpass mse={low.mse!r} db={low.db}")
    print(f"highpass mse={high.mse!r} db={high.db}")
    return 0


def cmd_process(args) -> int:
    bank = load_bank(args.path)
    x = _read_signal(args.infile)
    report = analysis.process_bank(bank, x)
    _write_rows(args.out, "", (report.y,))
    # No steady state to score (max_rel_error is NaN), but y is written all the same.
    steady = 2 * report.delay + 1
    if x.size < steady:
        raise ValueError(f"signal has {x.size} samples, fewer than 2*delay + 1 = {steady}")
    print(
        f"max_rel_error={report.max_rel_error!r} delay={report.delay} scale={report.scale!r}"
    )
    return 0 if report.max_rel_error <= PROCESS_TOL else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prqmf", description="Perfect-reconstruction QMF filter pair design"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a bank and write it as JSON")
    p.add_argument("--n", type=int, required=True, help="half-order; H0 gets 2n+1 taps")
    p.add_argument("--delta", type=float, default=0.1, help="band half-width as fraction of pi")
    p.add_argument("--wp", type=float, help="explicit passband edge (radians)")
    p.add_argument("--ws", type=float, help="explicit stopband edge (radians)")
    p.add_argument("--window", choices=sorted(WINDOW_ALIASES), default="rect")
    p.add_argument("--window-param", type=float, default=None)
    p.add_argument("--refine", type=int, default=1, metavar="M", help="refinement order (0 = off)")
    p.add_argument("--zeros", help="comma-separated zero frequencies in radians")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="re-certify a stored bank")
    p.add_argument("path")

    p = sub.add_parser("response", help="export magnitude responses as CSV")
    p.add_argument("path")
    p.add_argument("--grid", type=int, default=analysis.MSE_GRID_SIZE, help="points on [0, pi]")
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="print MSE metrics against ideal responses")
    p.add_argument("path")
    p.add_argument("--grid", type=int, default=analysis.MSE_GRID_SIZE)

    p = sub.add_parser("process", help="run a CSV signal through the bank")
    p.add_argument("path")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    return parser


# The exit code for each error a command can end with; no two entries overlap.
EXIT_CODES = {
    analysis.NoDelayFound: 1,
    ValueError: 2,
    BankFileError: 3,
    SignalFileError: 3,
    OSError: 3,
    SingularSystem: 3,
    DegeneratePassband: 3,
    SingularRefinement: 3,
}


def main(argv=None) -> int:
    """Run one command; an error it ends with becomes one stderr line and its exit code."""
    args = build_parser().parse_args(argv)
    # Looked up per call, not stored in the cached parser, so a rebound cmd_* runs.
    commands = {"design": cmd_design, "verify": cmd_verify, "response": cmd_response,
                "metrics": cmd_metrics, "process": cmd_process}
    try:
        return commands[args.command](args)
    except tuple(EXIT_CODES) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

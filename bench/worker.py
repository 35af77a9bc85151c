"""One run of one workload, in the fresh interpreter run.py starts.

Imports prqmf from the checkout's src/, builds the workload's inputs from
the seed, warms up, prints READY, then runs ops in a closed loop (one
caller; the next op starts when the last returns) and prints one JSON line
of results. With --setup-only it exits after READY; run.py uses that to
time set-up several times.

With --trace 1 the run has two phases over the same op sequence: untraced,
then traced. Outputs must be bit-identical between them; the traced phase
gives the per-layer numbers and the gap between the phases' median op
times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from spans import LAYER_NAMES, OP_SPAN, Tracer
from workloads import CLI_SAMPLES, GRID, STREAM_SAMPLES, WORKLOADS, design_errors

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = BENCH / ".work"
SPAN_DIR = BENCH / "out"

# Per-layer metric for each documented exception (share of ops that raised
# it) and for each other failure cause (share of ops that failed by it).
CAUSE_METRICS = {
    "SingularSystem": "qmf_core.failed.SingularSystem",
    "DegeneratePassband": "qmf_core.failed.DegeneratePassband",
    "SingularRefinement": "refine.failed.SingularRefinement",
    "NoDelayFound": "analysis.failed.NoDelayFound",
    "uncertified": "bench.failed.uncertified",
    "wrong_output": "bench.failed.wrong_output",
    "cli_exit": "cli.failed",
    "error": "bench.failed.error",
}
EXCEPTIONS = ("SingularSystem", "DegeneratePassband", "SingularRefinement", "NoDelayFound")
WRONG = ("wrong_output", "error")

# The reference box (2 shared vCPUs) changes speed by 20-40 % over seconds:
# the same design_bank call measured 5.0 ms in one window and 8.8 ms in the
# next. So a fixed calibration kernel runs just before every op, and op times
# are reported at the kernel's nominal speed, t * nominal / kernel time.
# Library changes cannot move the kernel; machine speed moves both alike.
# Each workload names the kernel whose work is most like its ops' work:
# - "mixed": dense NumPy arithmetic, then interpreter-bound scalar indexing.
#   Over ten seeded 15 s runs of design_long it cut the spread of median op
#   time from 23 % (raw) to 1.5 %.
# - "solver": the same scalar indexing, then row elimination on a small
#   matrix, which is the mate build and solve's kind of work. Over 90 s of
#   three fixed long designs in a loop, the spread of 100-op medians was
#   19-22 % raw, 2-4 % with "mixed" and 0.9-1.6 % with "solver".
# Set-up time is scaled by the "mixed" kernel, timed just after set-up.
CAL_INPUTS = (
    np.linspace(0.0, np.pi, 1024),
    np.arange(24),
    np.random.default_rng(0).standard_normal(24),
    np.random.default_rng(1).standard_normal(48),
    np.random.default_rng(3).standard_normal((24, 24)) + 24 * np.eye(24),
)


def _spectrum() -> None:
    """A dense 24-tap response on 1024 frequencies."""
    w, k, h, _, _ = CAL_INPUTS
    np.abs(np.exp(-1j * np.outer(w, k)) @ h)


def _fill() -> None:
    """A 24 x 24 matrix filled one scalar at a time."""
    a = CAL_INPUTS[3]
    m = np.zeros((24, 24))
    for r in range(24):
        for c in range(24):
            m[r, c] += a[r + c] * (-1) ** c


def _eliminate() -> None:
    """Forward elimination of a 24 x 24 matrix, one row operation per column."""
    m = np.array(CAL_INPUTS[4])
    for col in range(24):
        factors = m[col + 1 :, col] / m[col, col]
        m[col + 1 :, col:] -= np.outer(factors, m[col, col:])


# kernel name: (parts, nominal seconds, a round figure near its time on the reference box)
CAL_KERNELS = {
    "mixed": ((_spectrum, _fill), 2.0e-3),
    "solver": ((_fill, _eliminate), 0.5e-3),
}


def load_library() -> SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import prqmf
    from prqmf import analysis, bank, cli, poly, prototype, qmf_core, refine, sweep

    if Path(prqmf.__file__).resolve().parent != src / "prqmf":
        raise SystemExit(f"prqmf imported from {prqmf.__file__}, not from {src}")
    return SimpleNamespace(
        prqmf=prqmf, analysis=analysis, bank=bank, cli=cli, poly=poly,
        prototype=prototype, qmf_core=qmf_core, refine=refine, sweep=sweep,
    )


def calibrate(kernel: str = "mixed") -> float:
    """Seconds for one run of the named calibration kernel."""
    t0 = perf_counter()
    for part in CAL_KERNELS[kernel][0]:
        part()
    return perf_counter() - t0


def run_phase(lib, wl, seconds: float, min_ops: int, limit: int | None = None,
              tracer=None, digests: list | None = None) -> dict:
    """Closed loop of ops; checks run between ops, outside the timed region."""
    expected = design_errors(lib)
    times: list[float] = []
    cals: list[float] = []
    causes: Counter = Counter()  # failed ops by cause
    raised: list[tuple[int, str]] = []  # (op, exception) for every documented raise
    details: list[str] = []
    checks = 0
    start = perf_counter()
    i = 0
    while True:
        cals.append(calibrate(wl.calibration))
        t0 = perf_counter()
        out = exc = cause = None
        try:
            out = tracer.call_op(i, wl.op, i) if tracer else wl.op(i)
        except expected as e:
            exc = e
        except Exception:
            cause = "error"
            details.append(traceback.format_exc())
        t1 = perf_counter()
        times.append(t1 - t0)
        if digests is not None:
            digests.append(type(exc).__name__ if exc else cause or wl.digest(out))
        bad = None
        if out is not None:
            checks += 1
            bad = wl.check(i, out)
        elif exc is not None:
            checks += 1
            raised.append((i, type(exc).__name__))
            bad = wl.check_raise(i, exc)
        if bad:
            cause = bad[0]
            details.append(f"op {i}: {bad[0]}: {bad[1]}")
        if cause:
            causes[cause] += 1
        i += 1
        if limit is not None and i >= limit:
            break
        if t1 - start >= seconds and i >= min_ops:
            break
    return {"times": times, "cals": cals, "nominal": CAL_KERNELS[wl.calibration][1],
            "causes": causes, "raised": raised, "details": details, "checks": checks}


def calibrated(phase: dict) -> list[float]:
    """Op times at the calibration kernel's nominal speed."""
    return [t * phase["nominal"] / c for t, c in zip(phase["times"], phase["cals"])]


def p50_ms(times) -> float:
    return statistics.median(times) * 1e3


def latency_metrics(phase: dict) -> dict:
    times = calibrated(phase)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": p50_ms(times),
        "op_p90_ms": p90 * 1e3,
        "ok_frac": 1.0 - sum(phase["causes"].values()) / len(times),
    }


def layer_metrics(tracer, ops: int) -> dict:
    totals = tracer.layer_totals(OP_SPAN)
    zero = {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "work": 0}
    m = {}
    for name in LAYER_NAMES:
        if name == "sweep.run_sweep":
            continue
        t = totals.get(name, zero)
        m[f"{name}.self_ms"] = t["self_s"] * 1e3 / ops
        m[f"{name}.calls"] = t["calls"] / ops
    mse_t = totals.get("analysis.mse", zero)
    pb = totals.get("analysis.process_bank", zero)
    m["analysis.mse.grid_points"] = mse_t["work"] / ops
    m["analysis.process_bank.samples"] = pb["work"] / ops
    m["analysis.process_bank.msamples_per_s"] = pb["work"] / pb["busy_s"] / 1e6 if pb["calls"] else 0.0
    sw = tracer.layer_totals("sweep.run_sweep").get("sweep.run_sweep", zero)
    m["sweep.run_sweep.ms"] = sw["busy_s"] * 1e3
    m["sweep.run_sweep.self_ms"] = sw["self_s"] * 1e3
    m["sweep.run_sweep.points"] = sw["work"]
    return m


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "prqmf").glob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    lib = load_library()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl = WORKLOADS[args.workload](lib, args.seed, workdir)
        wl.warmup()
        print("READY", flush=True)
        # Machine speed just after set-up puts setup_s on the ops' scale.
        speed = CAL_KERNELS["mixed"][1] / statistics.median(calibrate() for _ in range(5))
        print(json.dumps({"setup_scale": speed}), flush=True)
        if args.setup_only:
            return 0
        result = measure(lib, wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(lib, wl, args) -> dict:
    problems: list[str] = []
    info: dict = {}
    if not args.trace:
        phases = [run_phase(lib, wl, args.seconds, wl.min_ops)]
        metrics = latency_metrics(phases[0])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info["raw_op_p50_ms"] = p50_ms(phases[0]["times"])
        info["cal_p50_ms"] = p50_ms(phases[0]["cals"])
        if args.workload == "stream":
            info["msamples_per_s"] = metrics["ops_per_s"] * wl.x.size / 1e6
    else:
        plain_digests: list = []
        traced_digests: list = []
        plain = run_phase(lib, wl, args.seconds / 2, wl.min_ops, digests=plain_digests)
        tracer = Tracer()
        tracer.install(vars(lib))
        try:
            traced = run_phase(lib, wl, args.seconds / 2, 1, limit=len(plain["times"]),
                               tracer=tracer, digests=traced_digests)
            if hasattr(wl, "after_trace"):
                problems += wl.after_trace()
        finally:
            tracer.uninstall()
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        phases = [plain, traced]
        ops = len(traced["times"])
        if traced_digests != plain_digests[:ops]:
            problems.append("traced outputs differ from untraced outputs")
        metrics = layer_metrics(tracer, ops)
        metrics["trace.untraced_p50_ms"] = p50_ms(calibrated(plain)[:ops])
        metrics["trace.traced_p50_ms"] = p50_ms(calibrated(traced))
        metrics["trace.overhead_ms"] = metrics["trace.traced_p50_ms"] - metrics["trace.untraced_p50_ms"]
        # Layer self times are raw wall time; with the op span's own self time
        # (bench.op) they add up to the traced phase's raw mean op time.
        info["layer_self_ms_per_op"] = sum(
            v for k, v in metrics.items() if k.endswith(".self_ms") and not k.startswith("sweep.")
        )
        info["traced_op_mean_ms"] = 1e3 * statistics.fmean(traced["times"])

    causes = sum((p["causes"] for p in phases), Counter())
    raised = Counter(name for p in phases for _, name in p["raised"])
    attempted = sum(len(p["times"]) for p in phases)
    checks = sum(p["checks"] for p in phases)
    if args.trace:
        for cause, name in CAUSE_METRICS.items():
            metrics[name] = (raised if cause in EXCEPTIONS else causes).get(cause, 0) / attempted
        metrics["cli.bytes_written"] = getattr(wl, "bytes_written", 0) / max(checks, 1)
    problems += wl.finish()
    details = [d for p in phases for d in p["details"]]
    info.update(
        samples=len(phases[0]["times"]),
        causes=dict(causes),
        raised=dict(raised),
        **{f"raised_in_first_{wl.min_ops}": dict(Counter(
            name for op, name in phases[0]["raised"] if op < wl.min_ops))},
        failed_frac=sum(causes.values()) / attempted,
        oracle_checks=checks,
        problems=problems,
        details=details[:5],
        env={
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": args.seed,
            "seconds": args.seconds,
            "grid": GRID,
            "stream_samples": STREAM_SAMPLES,
            "cli_samples": CLI_SAMPLES,
            "src_lines": src_lines(),
        },
    )
    return {
        "correct": checks > 0 and not problems and not any(causes.get(c) for c in WRONG),
        "attempted": attempted,
        "failed": sum(causes.values()),
        "metrics": metrics,
        "info": info,
    }


if __name__ == "__main__":
    sys.exit(main())

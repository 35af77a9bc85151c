#!/usr/bin/env python3
"""prqmf benchmark: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Times set-up SETUP_RUNS times, each in a fresh interpreter started with a
BLAS/OpenMP thread cap, and reports the median as setup_s; the last of those
interpreters then runs the workload (see worker.py). With --trace 0 the
last stdout line carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Workloads, metrics and the layer-to-metric
map are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper_sweep", "design_long", "stream", "cli_roundtrip")
SETUP_RUNS = 9  # set-up is noisier than ops: one sample per interpreter, no per-op calibration
DEADLINE_S = 170  # the whole run, set-ups included, must end within 180 s
THREAD_CAP = "1"  # one BLAS/OpenMP thread: a single closed-loop caller, steadier timings
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def spawn(worker_args: list[str], deadline: float) -> tuple[float, list[dict]]:
    """Start a worker; return its set-up time and the JSON lines it printed after READY.

    Set-up time is from process start to READY. The worker is killed if it
    is still running at `deadline` (a perf_counter value).
    """
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: THREAD_CAP for v in THREAD_VARS})
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *worker_args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        raise BenchError(f"worker {' '.join(worker_args)} failed (exit {rc})")
    lines = [json.loads(line) for line in rest.splitlines()]
    return setup, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")
    if not (ROOT / "src" / "prqmf" / "__init__.py").is_file():
        print(f"error: no prqmf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in contract["per_layer" if args.trace else "end_to_end"]}

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = perf_counter() + DEADLINE_S
    try:
        runs = [spawn(base + ["--seconds", "0", "--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
        runs.append(spawn(base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], deadline))
        result = runs[-1][1][-1]
        # Each set-up time is scaled to the calibration kernel's nominal speed,
        # measured just after that set-up, like the op times (see worker.py).
        setups = [setup * lines[0]["setup_scale"] for setup, lines in runs]
    except (BenchError, ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    info = result["info"]
    info["setup_s_runs"] = setups
    info["raw_setup_s"] = statistics.median(setup for setup, _ in runs)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"ops={info['samples']} attempted={result['attempted']} failed={result['failed']} "
          f"oracle_checks={info['oracle_checks']} correct={result['correct']}")
    for name in wanted:
        print(f"#   {name:<40} {metrics[name]:>14.6g} {wanted[name]}")
    for line in info["problems"] + info["details"]:
        print(f"# problem: {line.strip().splitlines()[-1]}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": wanted[n]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

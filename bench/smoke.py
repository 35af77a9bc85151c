#!/usr/bin/env python3
"""Smoke test: every workload briefly, untraced and traced.

    python3 bench/smoke.py [--seconds S] [--seed N]

Asserts that each run prints every metric of BENCHMARK.json with its unit,
that the correctness oracle ran and passed, and that no op failed. Then
prints every end-to-end metric of all four workloads in one table. Exits 1
on the first failed assertion.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check(workload: str, trace: int, info: dict, result: dict, contract: dict) -> None:
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    want = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{where}: metric names or units differ from BENCHMARK.json"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), where
    assert info["oracle_checks"] > 0, f"{where}: the correctness oracle did not run"
    assert result["correct"], f"{where}: incorrect output: {info['problems'] + info['details']}"
    assert result["attempted"] >= 1, where
    assert result["failed"] == 0, f"{where}: {result['failed']} failed ops {info['causes']}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {}
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                info, result = run_once(workload, args.seed, args.seconds, trace)
                check(workload, trace, info, result, contract)
                if not trace:
                    table[workload] = (result, info)
    except (AssertionError, subprocess.TimeoutExpired) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    names = [(m["name"], m["unit"]) for m in contract["end_to_end"]]
    print(f"{'metric':<14}{'unit':<7}" + "".join(f"{w:>15}" for w in WORKLOADS))
    for name, unit in names:
        row = "".join(f"{table[w][0]['metrics'][name]['value']:>15.5g}" for w in WORKLOADS)
        print(f"{name:<14}{unit:<7}{row}")
    print(f"{'failed_frac':<14}{'frac':<7}" + "".join(f"{table[w][1]['failed_frac']:>15.5g}" for w in WORKLOADS))
    print(f"{'oracle_checks':<14}{'count':<7}" + "".join(f"{table[w][1]['oracle_checks']:>15}" for w in WORKLOADS))
    print("smoke OK: every metric printed with its unit; oracle ran and passed on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that two checkouts of prqmf design byte-identical banks.

    python3 scripts/design_identity.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout is run in its own interpreter on the same designs: the 128
points of `sweep.run_sweep` (each design it makes, and its scores) and the
4,096 `design_long` specs of each of bench seeds 1-4, built by the NEW
checkout's `bench/workloads.py`. For every design it compares h0, h1,
delay, scale, max_spurious and zero_freqs bit for bit, or the type and
message of the exception raised. It also compares the SHA-256 of
`process_bank(bank, x).y` on the `stream` workload's seed-1 2^20-sample
signal and on a 150,001-sample prefix of it, which ends in a partial batch,
for four banks: the workload's two, which run on 1,024-sample blocks, and
two on larger blocks (n = 300, kaiser, m = 2: tail 1,206 on 4,096-sample
blocks; n = 1024, hamming, m = 1: tail 4,098 on 16,384-sample blocks). It
prints one count per group and exits 1 on any difference. For each group of
designs it also counts how many of the moved designs have a half-band
prototype, by NEW's `qmf_core.is_half_band` on the recorded h0: the designs
whose mate is the pure delay.

Each interpreter then runs every group a second time, with the library's
memos warm, and the script prints, per checkout, how many of those outcomes
match the cold pass (`warm pass: N of N identical`): a memo hit that differs
from a miss is a difference too.

A change may move designs on purpose, by round-off. So the `run_sweep scores`
line also gives the largest |delta| in dB among the moved scores, the
`run_sweep best matches` line whether each reference's best match (criterion 7,
`sweep.best_matches`) is unchanged, and each design group's line how many
designs raise in NEW where they did not in OLD, and how far the moved designs
moved: the largest max|NEW - OLD| / max|OLD| of h0 and of h1 over the moved
designs that raise in neither checkout (0 when none moved).
"""

from __future__ import annotations

import hashlib
import pickle
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3, 4)
PREFIX = 150_001  # not a whole number of batches for any of the four banks
LARGE_BLOCKS = ((300, "kaiser", 2), (1024, "hamming", 1))  # (n, window, m)


def outcome(design_bank, spec):
    try:
        bank = design_bank(spec)
    except Exception as exc:  # a raise is an outcome to compare, not an error
        return ("raised", type(exc).__name__, str(exc))
    zeros = tuple(float(w).hex() for w in bank.zero_freqs)
    return (bank.h0.tobytes(), bank.h1.tobytes(), bank.delay, bank.scale.hex(), bank.max_spurious.hex(), zeros)


def record(lib_root: str, bench_root: str) -> tuple[dict[str, list], dict[str, list]]:
    """Every group, designed twice in this interpreter: cold, then with the memos warm."""
    sys.path[:0] = [str(Path(lib_root) / "src"), str(Path(bench_root) / "bench")]
    import prqmf.bank
    import prqmf.sweep
    from workloads import DesignLong, Stream

    design_bank = prqmf.bank.design_bank
    specs = {seed: DesignLong(prqmf, seed, Path(".")).specs for seed in SEEDS}
    stream = Stream(prqmf, 1, Path("."))
    P = prqmf.prototype
    large = [design_bank(P.DesignSpec(n=n, window=P.WindowSpec(w), m=m)) for n, w, m in LARGE_BLOCKS]
    banks = stream.banks + large

    def groups() -> dict[str, list]:
        sweep_designs = []

        def recorded(spec):  # a raise aborts run_sweep, and with it this check
            sweep_designs.append(outcome(design_bank, spec))
            return design_bank(spec)

        prqmf.sweep.design_bank = recorded
        sweep = prqmf.sweep.run_sweep()
        scores = [(p.lowpass_db.hex(), p.highpass_db.hex()) for points in sweep.values() for p in points]
        best = [(name, p.center, p.delta, p.param) for name, p in prqmf.sweep.best_matches(sweep).items()]
        out = {"run_sweep designs": sweep_designs, "run_sweep scores": scores, "run_sweep best matches": best}
        for seed in SEEDS:
            out[f"design_long seed {seed}"] = [outcome(design_bank, s) for s in specs[seed]]
        out["stream signal path"] = [
            hashlib.sha256(prqmf.analysis.process_bank(bank, x).y.tobytes()).hexdigest()
            for bank in banks
            for x in (stream.x, stream.x[:PREFIX])
        ]
        return out

    return groups(), groups()


def largest_move(moved, i: int) -> float:
    """The largest max|NEW - OLD| / max|OLD| of tap array i (0: h0, 1: h1) over the moved
    designs that raise on neither side and keep their length."""
    import numpy as np

    moves = [0.0]
    for a, b in moved:
        if a[0] != "raised" and b[0] != "raised" and len(a[i]) == len(b[i]):
            old, new = np.frombuffer(a[i]), np.frombuffer(b[i])
            moves.append(float(np.abs(new - old).max() / np.abs(old).max()))
    return max(moves)


def run(lib_root: str, bench_root: str) -> tuple[dict[str, list], dict[str, list]]:
    out = subprocess.run(
        [sys.executable, __file__, "--record", lib_root, bench_root], check=True, capture_output=True
    ).stdout
    return pickle.loads(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:
        sys.stdout.buffer.write(pickle.dumps(record(*argv[1:])))
        return 0
    old_root, new_root = argv
    (old, old_warm), (new, new_warm) = run(old_root, new_root), run(new_root, new_root)
    sys.path.insert(0, str(Path(new_root) / "src"))
    import numpy as np
    from prqmf.qmf_core import is_half_band

    same_everywhere = True
    for group, want in old.items():
        got = new[group]
        same = sum(a == b for a, b in zip(want, got)) if len(want) == len(got) else 0
        raised = sum(a[0] == "raised" for a in want)
        line = f"{group}: {same} of {len(want)} identical, {raised} raised"
        if group.startswith(("run_sweep designs", "design_long")) and len(want) == len(got):
            # a moved design's h0, from whichever side did not raise
            moved = [(a, b) for a, b in zip(want, got) if a != b]
            h0s = [next((o[0] for o in pair if o[0] != "raised"), None) for pair in moved]
            half = sum(h0 is not None and is_half_band(np.frombuffer(h0)) for h0 in h0s)
            newly = sum(a[0] != "raised" and b[0] == "raised" for a, b in moved)
            line += f", {half} of the {len(h0s)} moved half-band, {newly} newly raised"
            for i, name in enumerate(("h0", "h1")):
                line += f", largest max|d{name}|/max|{name}| {largest_move(moved, i):.2g}"
        if group == "run_sweep scores" and len(want) == len(got):
            deltas = [abs(float.fromhex(x) - float.fromhex(y)) for a, b in zip(want, got) for x, y in zip(a, b)]
            line += f", largest |delta| {max(deltas):.2g} dB"
        print(line)
        same_everywhere &= same == len(want)
    for name, cold, warm in (("OLD", old, old_warm), ("NEW", new, new_warm)):
        pairs = [(a, b) for group in cold for a, b in zip(cold[group], warm[group])]
        same = sum(a == b for a, b in pairs)
        print(f"{name} warm pass: {same} of {len(pairs)} identical")
        same_everywhere &= same == len(pairs)
    print("identical" if same_everywhere else "DIFFERENT")
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

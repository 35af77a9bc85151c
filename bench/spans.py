"""In-memory spans around prqmf's functions, recorded from outside the library.

`Tracer.install` rebinds each function named in LAYERS, in every prqmf module
that holds it, to a wrapper that records a span: name, parent span, op index,
start, end, a work count and the exception that escaped, if any. Nothing in
the library changes; `uninstall` restores the original bindings.

A span's self time is its duration minus the durations of its direct
children, so the self times of one op's spans add up to the op's time.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

OP_SPAN = "bench.op"


def _mse_points(args, kwargs, out):
    return out.grid_size


def _signal_samples(args, kwargs, out):
    return len(args[1]) if len(args) > 1 else len(kwargs["x"])


def _sweep_points(args, kwargs, out):
    return sum(len(points) for points in out.values())


# (module, attribute, span name, work counter or None)
LAYERS = (
    ("bank", "design_bank", "bank.design_bank", None),
    ("prototype", "design_h0", "prototype.design_h0", None),
    ("qmf_core", "basic_mate", "qmf_core.basic_mate", None),
    ("qmf_core", "build_system", "qmf_core.build_system", None),
    ("qmf_core", "solve", "qmf_core.solve", None),
    ("refine", "refine_h1", "refine.refine_h1", None),
    ("analysis", "verify_pr", "analysis.verify_pr", None),
    ("analysis", "mse", "analysis.mse", _mse_points),
    ("analysis", "process_bank", "analysis.process_bank", _signal_samples),
    ("sweep", "run_sweep", "sweep.run_sweep", _sweep_points),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_design", "cli.design", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_metrics", "cli.metrics", None),
    ("cli", "cmd_response", "cli.response", None),
    ("cli", "cmd_process", "cli.process", None),
    ("cli", "load_bank", "cli.load_bank", None),
    ("cli", "save_bank", "cli.save_bank", None),
)

LAYER_NAMES = tuple(name for _, _, name, _ in LAYERS) + (OP_SPAN,)


class Tracer:
    """Collects spans; each is (name, parent, op, start, end, work, error)."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self.op, 0.0, 0.0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        # A tuple of plain values drops out of the garbage collector's scans,
        # so a long trace does not slow the collections the library triggers.
        self.spans[self._stack.pop()] = tuple(rec)

    def _run(self, name: str, work, fn, args, kwargs):
        rec = self._open(name)
        rec[3] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            rec[4] = perf_counter()
            rec[6] = type(exc).__name__
            self._close(rec)
            raise
        rec[4] = perf_counter()
        if work is not None:
            rec[5] = work(args, kwargs, out)
        self._close(rec)
        return out

    def _wrap(self, fn, name: str, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, work, fn, args, kwargs)

        return traced

    def call_op(self, op: int, fn, *args):
        """Run fn(*args) as the root span of op number `op`."""
        self.op = op
        return self._run(OP_SPAN, None, fn, args, {})

    def install(self, modules: dict) -> None:
        """Rebind every LAYERS function, wherever a prqmf module holds it."""
        for modname, attr, name, work in LAYERS:
            orig = getattr(modules[modname], attr)
            wrapper = self._wrap(orig, name, work)
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [rec[4] - rec[3] - child[i] for i, rec in enumerate(self.spans)]

    def _roots(self) -> list[int]:
        root = [0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            root[i] = i if rec[1] < 0 else root[rec[1]]
        return root

    def layer_totals(self, root_name: str) -> dict:
        """Per span name: self and busy seconds, calls and work, under roots named root_name."""
        totals = defaultdict(lambda: {"self_s": 0.0, "busy_s": 0.0, "calls": 0, "work": 0})
        roots = self._roots()
        for i, (rec, self_s) in enumerate(zip(self.spans, self.self_times())):
            if self.spans[roots[i]][0] != root_name:
                continue
            t = totals[rec[0]]
            t["self_s"] += self_s
            t["busy_s"] += rec[4] - rec[3]
            t["calls"] += 1
            t["work"] += rec[5]
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line, times in microseconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (rec, self_s) in enumerate(zip(self.spans, self.self_times())):
                name, parent, op, start, end, work, error = rec
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start_us": round((start - t0) * 1e6, 3),
                            "dur_us": round((end - start) * 1e6, 3),
                            "self_us": round(self_s * 1e6, 3),
                            "work": work,
                            "error": error,
                        }
                    )
                    + "\n"
                )

"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.install` replaces
public functions of the `extinction` modules with timing wrappers, in
every module that binds them (so `cli`'s `shooter.classify(...)` and
`shooter.find_profile`'s internal `classify(...)` both hit the wrapper).
Nothing under `src/` changes.  `uninstall` puts the originals back.

A span is (id, name, start, end, parent id, operation id, extra counts).
Spans stay in memory and are written as JSONL once, at the end of a run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

# module -> public functions wrapped in the traced run
TRACED = {
    "shooter": ("find_bracket", "find_profile", "classify",
                "integrate_profile", "trajectory_csv", "read_profile_csv"),
    "tail": ("w_transform", "certify_B", "fit_tail"),
    "phase": ("map_to_phase", "extract_rates", "phasepath_csv"),
    "pde": ("build_initial", "run_and_measure"),
    "cli": ("main",),
}


def _extra(name, args, kwargs, result):
    """Counts recorded at the span boundary, from the call and its result."""
    if name == "shooter.classify":
        return {"label": result.label}
    if name == "shooter.find_profile":
        r_max = kwargs.get("r_max", args[4] if len(args) > 4 else 100.0)
        steps = result[2]["steps"]
        doublings = sum(round(math.log2(s["r_max"] / r_max)) for s in steps)
        return {"n_heuristic": result[2]["n_heuristic"],
                "rmax_doublings": doublings}
    if name == "shooter.trajectory_csv":
        return {"bytes": len(result)}   # ASCII text: one byte a character
    if name == "pde.run_and_measure":
        grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
        return {"M": grid.M, "steps": result.steps,
                "n_clipped": result.n_clipped,
                "selfsim_error": result.selfsim_error}
    return None


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = None   # id of the operation being run, set by the caller

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "op": self.op, "start": time.perf_counter(),
                           "end": None})
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> dict:
        sp = self.spans[sid]
        sp["end"] = time.perf_counter()
        self._stack.pop()
        return sp

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp = self.end(sid)
            extra = _extra(name, args, kwargs, result)
            if extra:
                sp.update(extra)
            return result
        return traced

    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if k == "extinction" or k.startswith("extinction.")}
        for modname, funcs in TRACED.items():
            owner = mods[f"extinction.{modname}"]
            for fname in funcs:
                orig = getattr(owner, fname)
                wrapped = self._wrap(f"{modname}.{fname}", orig)
                for mod in mods.values():
                    if getattr(mod, fname, None) is orig:
                        self._saved.append((mod, fname, orig))
                        setattr(mod, fname, wrapped)

    def uninstall(self):
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                row = dict(sp, start=sp["start"] - self.t0,
                           end=sp["end"] - self.t0)
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def duration(sp: dict) -> float:
    return sp["end"] - sp["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    child = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += duration(sp)
    out = defaultdict(float)
    for sp in spans:
        out[sp["name"]] += duration(sp) - child[sp["id"]]
    return dict(out)


def cost_per_span(n: int = 20000) -> float:
    """Seconds a wrapper adds to one call, from a wrapped and a bare no-op.

    The traced run's overhead is far below the run-to-run noise of a wall
    time difference, so it is estimated as spans times this cost.
    """
    def noop():
        return None
    wrapped = Tracer()._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)

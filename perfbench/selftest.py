#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload prints, as its last line, the result object
with every metric BENCHMARK.json names and with that metric's unit (the
end-to-end metrics untraced, the per-layer metrics traced); that a
deliberately wrong reference a* is reported as incorrect and as failed
operations; and that the benchmark exits non-zero without a result where
the program's source is missing.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "1", "--ladder", "50,100", "--scan-limit", "2",
        "--setup-reps", "1"]


def run(script: Path, workload: str, trace: int, *extra: str):
    r = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--trace", str(trace), *TINY, *extra],
        cwd=script.parent.parent, capture_output=True, text=True,
        timeout=300)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None, r.stderr


def expect(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        raise SystemExit(1)


def check_metrics(result: dict, wanted: list[dict], exact: bool, what: str):
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    expect(names == set(got) if exact else names <= set(got),
           f"{what}: every metric printed")
    expect(all(got[m["name"]]["unit"] == m["unit"] for m in wanted),
           f"{what}: units as in BENCHMARK.json")
    expect(all(isinstance(v["value"], (int, float)) for v in got.values()),
           f"{what}: numeric values")


def main() -> int:
    script = HERE / "run.py"
    for wl in (w["name"] for w in SPEC["workloads"]):
        rc, res, err = run(script, wl, 0)
        expect(rc == 0 and res is not None, f"{wl}: exit 0 ({err[-300:]})")
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"{wl}: result keys")
        expect(res["correct"] is True and res["attempted"] >= 1,
               f"{wl}: correct")
        check_metrics(res, SPEC["end_to_end"], True, f"{wl} untraced")
        if wl == "profile":
            expect(2 * res["failed"] == res["attempted"],
                   "profile: the N=2 chain fails (exit 3), fail_frac 0.5")
        rc, res, err = run(script, wl, 1)
        expect(rc == 0 and res is not None and res["correct"] is True,
               f"{wl} traced: exit 0, correct ({err[-300:]})")
        check_metrics(res, SPEC["per_layer"], False, f"{wl} traced")

    rc, res, _ = run(script, "profile", 0, "--ref-a-n1", "2.31")
    expect(rc == 0 and res["correct"] is False
           and res["failed"] == res["attempted"],
           "a wrong reference a* is incorrect and fails every operation")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, res, _ = run(bare / HERE.name / "run.py", "profile", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and res is None,
           "without the program's source: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Benchmark of the extinction pipeline, driven through its command line.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout: the program is imported from
`src/` of that checkout, once per run, and every operation is one
in-process call to `extinction.cli.main([...])`, as a user runs the
command.  One process, no worker threads or processes of its own; the
only child processes are the sequential fresh-interpreter imports that
time set-up.

Workloads (see perfbench/README.md for why each exists):

  profile     the certification chain find -> tail -> phase at
              (1, 1.2, 0.5) and at (2, 1.5, 0.6) --a-tol 3e-16 --rmax 60;
              one operation is one triple's chain
  box-scan    `find` on the 15-point (p, q) grid at N=1; one operation
              is one `find`
  pde-refine  `pde --profile <N=1 profile> --M m` for m in 100, 200, 400;
              one operation is one rung

A run sets up (imports, makes inputs), runs one untimed warm-up
operation, then repeats whole passes over the workload's operations until
--seconds have passed; the pass that crosses the limit is completed.  The
seed sets the order of the operations within a pass.  All times come from
this file's monotonic clock.  `--trace 1` wraps the program's public
functions (perfbench/spans.py) and reports per-layer metrics instead of
the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record of a run goes to
perfbench/out/<workload>-seed<n>-trace<t>.json (and the spans of a
traced run to perfbench/out/<workload>-seed<n>.spans.jsonl).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LADDER = (100, 200, 400)
A_STAR_N1 = 2.3028967658101465
A_STAR_N2 = 1.0571865673537144
PDE_REF = {"M": 400, "alpha": 3.5, "l1": 2.0, "tol": 0.2, "selfsim": 0.05}

CHILD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import extinction.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def fresh_import_s() -> float:
    """Import time of extinction.cli in a new interpreter."""
    r = subprocess.run([sys.executable, "-c", CHILD_IMPORT, str(SRC)],
                       cwd=ROOT, capture_output=True, text=True,
                       timeout=120, check=True)
    return float(r.stdout.split()[-1])


def digest(opdir: Path, outputs: list[str]) -> str:
    """Hash of every file an operation wrote plus its standard outputs."""
    h = hashlib.sha256()
    for f in sorted(opdir.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(opdir).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    for text in outputs:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Op:
    """One timed operation: the commands it ran and what was checked."""

    def __init__(self, op_id, key: str, opdir: Path):
        self.id = op_id
        self.key = key
        self.dir = opdir
        self.seconds = 0.0
        self.exit_codes: list = []
        self.stdout: list[str] = []
        self.crash = None
        self.checks_failed: list[str] = []
        self.info: dict = {}

    @property
    def ok(self) -> bool:
        return (all(rc == 0 for rc in self.exit_codes)
                and not self.checks_failed)

    def record(self) -> dict:
        return {"id": self.id, "key": self.key, "seconds": self.seconds,
                "exit_codes": self.exit_codes, "ok": self.ok,
                "checks_failed": self.checks_failed, "crash": self.crash,
                **self.info}


class Bench:
    """Runs commands in-process and keeps the state checks need."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.tracer = None
        self.first_digest: dict[str, str] = {}
        self.check_failures: list[str] = []

    def run_op(self, op_id, key: str, commands) -> Op:
        """Run `commands(opdir)` -> list of argv, timing them as one
        operation; the op's directory starts empty."""
        op = Op(op_id, key, self.work / f"op-{op_id}")
        shutil.rmtree(op.dir, ignore_errors=True)
        op.dir.mkdir(parents=True)
        argvs = commands(op.dir)
        tr = self.tracer
        if tr is not None:
            tr.op = op_id
            sid = tr.begin("op")
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        for argv in argvs:
            out.seek(0)
            out.truncate()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(argv)
                except Exception:   # a crash is recorded, not fatal
                    rc = None
                    op.crash = traceback.format_exc(limit=3)
            op.exit_codes.append(rc)
            op.stdout.append(out.getvalue())
            if rc is None:
                break
        op.seconds = time.perf_counter() - t0
        if tr is not None:
            tr.end(sid)
            tr.op = None
        if op.crash:
            op.checks_failed.append("uncaught exception")
        d = digest(op.dir, op.stdout)
        first = self.first_digest.setdefault(key, d)
        if d != first:
            op.checks_failed.append("artifacts differ from the first "
                                    "repetition")
        return op

    def finish_op(self, op: Op):
        """Record check failures and remove the op's files."""
        self.check_failures.extend(f"{op.key}: {c}"
                                   for c in op.checks_failed)
        shutil.rmtree(op.dir, ignore_errors=True)


# ---------------------------------------------------------------- workloads

class Workload:
    """A pass runs `run` once on each of `items`, in seed order."""

    items: list

    def prepare(self, bench, rep):
        """Input generation, timed into `setup_s`; nothing by default."""

    def check_pass(self, ops):
        """Checks that span the operations of one pass."""

    def summary(self, ops) -> dict:
        return {}


class Profile(Workload):
    """find -> tail -> phase at the two reference triples."""

    def __init__(self, args, rng):
        self.items = [
            {"key": "N1", "flags": ["--N", "1", "--p", "1.2", "--q", "0.5"],
             "ref": args.ref_a_n1, "rel": 1e-10, "must_certify": True},
            {"key": "N2", "flags": ["--N", "2", "--p", "1.5", "--q", "0.6",
                                    "--a-tol", "3e-16", "--rmax", "60"],
             "ref": A_STAR_N2, "rel": 1e-12, "must_certify": False},
        ]
        rng.shuffle(self.items)
        self.warmup = next(t for t in self.items if t["key"] == "N1")

    def run(self, bench, op_id, spec) -> Op:
        def commands(d):
            prof = str(d / "profile.csv")
            return [["find", *spec["flags"], "--outdir", str(d)],
                    ["tail", "--profile", prof, "--out",
                     str(d / "tail.json")],
                    ["phase", "--from-profile", prof, "--outdir", str(d)]]
        op = bench.run_op(op_id, spec["key"], commands)
        cert = read_json(op.dir / "certify.json") or {}
        a = cert.get("a_star")
        op.info.update(a_star=a, certified=cert.get("ok"))
        if a is None or abs(a - spec["ref"]) > spec["rel"] * spec["ref"]:
            op.checks_failed.append(
                f"a* = {a!r}, reference {spec['ref']!r} (rel {spec['rel']})")
        if spec["must_certify"] and op.exit_codes[:1] != [0]:
            op.checks_failed.append("find did not certify")
        return op


class BoxScan(Workload):
    """`find` over p in {1.15, 1.5, 1.85} x q at 10..90 % of (p-1, p/2)."""

    P = (1.15, 1.5, 1.85)
    Q_FRAC = (0.1, 0.3, 0.5, 0.7, 0.9)

    def __init__(self, args, rng):
        grid = []
        for p in self.P:
            for fr in self.Q_FRAC:
                q = (p - 1.0) + fr * (p / 2.0 - (p - 1.0))
                grid.append({"key": f"p={p!r},q={q!r}", "p": p, "q": q,
                             "q_frac": fr})
        rng.shuffle(grid)
        self.items = grid[:args.scan_limit] if args.scan_limit else grid
        self.warmup = self.items[0]

    def run(self, bench, op_id, spec) -> Op:
        op = bench.run_op(op_id, spec["key"], lambda d: [
            ["find", "--N", "1", "--p", repr(spec["p"]),
             "--q", repr(spec["q"]), "--outdir", str(d)]])
        rc = op.exit_codes[0]
        try:
            printed = json.loads(op.stdout[0])
        except ValueError:
            printed = {}
        op.info.update(p=spec["p"], q=spec["q"],
                       error=printed.get("error", printed.get("violations")))
        if rc not in (0, 2, 3):
            op.checks_failed.append(f"exit code {rc!r} outside 0/2/3")
        if rc == 0 and not (read_json(op.dir / "certify.json") or {}).get(
                "ok"):
            op.checks_failed.append("exit 0 without a certified profile")
        return op

    def summary(self, ops):
        table = {}
        for op in ops:
            table.setdefault(op.key, {"p": op.info["p"], "q": op.info["q"],
                                      "exit_code": op.exit_codes[0],
                                      "error": op.info["error"]})
        return {"exit_code_table": list(table.values())}


class PdeRefine(Workload):
    """`pde --profile <N=1 profile> --M m` along the ladder."""

    def __init__(self, args, rng):
        self.items = list(args.ladder)
        rng.shuffle(self.items)
        self.warmup = min(self.items)
        self.profile = None

    def prepare(self, bench, rep):
        op = bench.run_op(f"setup-{rep}", "setup-find", lambda d: [
            ["find", "--N", "1", "--p", "1.2", "--q", "0.5",
             "--outdir", str(d)]])
        a = (read_json(op.dir / "certify.json") or {}).get("a_star")
        if op.exit_codes != [0] or a is None \
                or abs(a - A_STAR_N1) > 1e-10 * A_STAR_N1:
            op.checks_failed.append(f"set-up find: exit {op.exit_codes}, "
                                    f"a* = {a!r}")
        if self.profile is None:
            self.profile = bench.work / "profile.csv"
            shutil.copyfile(op.dir / "profile.csv", self.profile)
        bench.finish_op(op)

    def run(self, bench, op_id, m) -> Op:
        op = bench.run_op(op_id, f"M{m}", lambda d: [
            ["pde", "--profile", str(self.profile), "--M", str(m),
             "--out", str(d / "metrics.json")]])
        res = read_json(op.dir / "metrics.json") or {}
        op.info.update(M=m, **{k: res.get(k) for k in (
            "steps", "n_clipped", "selfsim_error", "alpha_est",
            "l1_exponent_est", "stable")})
        if res.get("stable") is not True:
            op.checks_failed.append("rung not stable")
        return op

    def check_pass(self, ops):
        # a rung without results has already failed "rung not stable"
        rungs = sorted((op for op in ops if op.info["stable"]),
                       key=lambda op: op.info["M"])
        sel = [op.info["selfsim_error"] for op in rungs]
        for prev, op in zip(rungs, rungs[1:]):
            if not op.info["selfsim_error"] < prev.info["selfsim_error"]:
                op.checks_failed.append(
                    f"selfsim not decreasing along the ladder: {sel}")
        for op in rungs:
            i = op.info
            if i["M"] == PDE_REF["M"] and not (
                    abs(i["alpha_est"] - PDE_REF["alpha"]) <= PDE_REF["tol"]
                    and abs(i["l1_exponent_est"] - PDE_REF["l1"])
                    <= PDE_REF["tol"]
                    and i["selfsim_error"] <= PDE_REF["selfsim"]):
                op.checks_failed.append(
                    f"criterion 7 tolerances: alpha {i['alpha_est']}, "
                    f"l1 {i['l1_exponent_est']}, "
                    f"selfsim {i['selfsim_error']}")


WORKLOADS = {"profile": Profile, "box-scan": BoxScan,
             "pde-refine": PdeRefine}


# ------------------------------------------------------------------ metrics

def layer_metrics(tracer, n_passes: int, ladder) -> dict:
    """Per-layer numbers, per pass, from the spans of the timed passes
    (tracing starts after the warm-up)."""
    sp = tracer.spans
    by_name: dict[str, list] = {}
    for s in sp:
        by_name.setdefault(s["name"], []).append(s)
    dur = spans.duration

    def total(name):
        return sum(dur(s) for s in by_name.get(name, ())) / n_passes

    def count(name, key=None):
        rows = by_name.get(name, ())
        return sum(s.get(key, 0) if key else 1 for s in rows) / n_passes

    cls = by_name.get("shooter.classify", [])
    decided = sum(s.get("label") in ("A", "C") for s in cls)
    # the final dense solve is the last integrate_profile under find_profile
    finals = {}
    for s in by_name.get("shooter.integrate_profile", ()):
        if s["parent"] is not None and \
                tracer.spans[s["parent"]]["name"] == "shooter.find_profile":
            finals[s["parent"]] = s
    mains = {s["id"] for s in by_name.get("cli.main", ())}
    covered = sum(dur(s) for s in sp if s["parent"] in mains) / n_passes
    m = {
        "cli.other_s": total("op") - covered,
        "shooter.find_bracket_s": total("shooter.find_bracket"),
        "shooter.find_profile_s": total("shooter.find_profile"),
        "shooter.classify_n": count("shooter.classify"),
        "shooter.classify_s": total("shooter.classify"),
        "shooter.classify_decided_frac": decided / len(cls) if cls else 0.0,
        "shooter.rmax_doublings": count("shooter.find_profile",
                                        "rmax_doublings"),
        "shooter.heuristic_n": count("shooter.find_profile", "n_heuristic"),
        "shooter.integrate_s": sum(dur(s) for s in finals.values())
        / n_passes,
        "shooter.trajectory_csv_s": total("shooter.trajectory_csv"),
        "shooter.trajectory_csv_bytes": count("shooter.trajectory_csv",
                                              "bytes"),
        "shooter.read_profile_csv_s": total("shooter.read_profile_csv"),
        "tail.w_transform_s": total("tail.w_transform"),
        "tail.certify_B_s": total("tail.certify_B"),
        "tail.fit_tail_s": total("tail.fit_tail"),
        "phase.map_to_phase_s": total("phase.map_to_phase"),
        "phase.extract_rates_s": total("phase.extract_rates"),
        "phase.phasepath_csv_s": total("phase.phasepath_csv"),
        "pde.build_initial_s": total("pde.build_initial"),
    }
    runs = by_name.get("pde.run_and_measure", [])
    for M in sorted(set(LADDER) | set(ladder)):
        rows = [s for s in runs if s.get("M") == M]
        run_s = sum(dur(s) for s in rows) / n_passes
        steps = rows[-1]["steps"] if rows else 0
        m[f"pde.M{M}.run_s"] = run_s
        m[f"pde.M{M}.steps"] = steps
        m[f"pde.M{M}.step_us"] = 1e6 * run_s / steps if steps else 0.0
        m[f"pde.M{M}.n_clipped"] = rows[-1]["n_clipped"] if rows else 0
        m[f"pde.M{M}.selfsim_err"] = (rows[-1]["selfsim_error"]
                                      if rows else 0.0)
    m["trace.spans"] = len(sp) / n_passes
    return m


LAYER_UNITS = {"_s": "s", "_n": "count", "_frac": "ratio",
               "_bytes": "bytes", "_us": "us", "_err": "ratio",
               "doublings": "count", "steps": "count", "clipped": "count",
               "spans": "count"}


def layer_unit(name: str) -> str:
    return next(u for suf, u in LAYER_UNITS.items() if name.endswith(suf))


# --------------------------------------------------------------------- main

def environment(args, wl) -> dict:
    import numpy
    import scipy
    env = {k: v for k, v in os.environ.items()
           if k.split("_")[0] in ("OMP", "OPENBLAS", "MKL", "BLIS",
                                  "VECLIB", "NUMEXPR", "GOTO", "NPY")}
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version, "platform": platform.platform(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_env": env, "seed": args.seed, "seconds": args.seconds,
            "ladder": list(args.ladder),
            "inputs": wl.items}


def git_commit():
    """HEAD of the checkout, read without running git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # sizes and references for the self-test (perfbench/selftest.py)
    ap.add_argument("--ladder", default=",".join(map(str, LADDER)),
                    help="comma-separated PDE grid sizes")
    ap.add_argument("--scan-limit", type=int, default=0,
                    help="box-scan: use only the first k triples")
    ap.add_argument("--ref-a-n1", type=float, default=A_STAR_N1,
                    help="profile: reference a* at N=1")
    ap.add_argument("--setup-reps", type=int, default=3)
    args = ap.parse_args(argv)
    args.ladder = tuple(int(s) for s in args.ladder.split(","))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "extinction" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'extinction'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("extinction.cli")
    inproc_import_s = time.perf_counter() - t0
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, cli, work, tag, inproc_import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, work, tag, inproc_import_s) -> int:
    rng = random.Random(args.seed)
    bench = Bench(cli, work)
    wl = WORKLOADS[args.workload](args, rng)

    # this process's import is the first fresh-process sample
    import_samples = [inproc_import_s] + [
        fresh_import_s() for _ in range(args.setup_reps - 1)]
    prep_samples = []
    for rep in range(args.setup_reps):
        t0 = time.perf_counter()
        wl.prepare(bench, rep)
        prep_samples.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_samples) + \
        statistics.median(prep_samples)

    warmup = wl.run(bench, "warmup", wl.warmup)
    bench.finish_op(warmup)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        bench.tracer = tracer

    timed, pass_s = [], []
    t_start = time.perf_counter()
    while True:
        ops = [wl.run(bench, len(timed) + i, spec)
               for i, spec in enumerate(wl.items)]
        wl.check_pass(ops)
        for op in ops:
            bench.finish_op(op)
        timed += ops
        pass_s.append(sum(op.seconds for op in ops))
        if time.perf_counter() - t_start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    op_s = [op.seconds for op in timed]
    failed = sum(not op.ok for op in timed)
    if args.trace:
        metrics = layer_metrics(tracer, len(pass_s), args.ladder)
        metrics["cli.import_s"] = statistics.median(import_samples)
        metrics["trace.wall_s"] = statistics.median(pass_s)
        metrics["trace.overhead_s"] = \
            metrics["trace.spans"] * spans.cost_per_span()
        units = {k: layer_unit(k) for k in metrics}
        tracer.write_jsonl(OUT / f"{args.workload}-seed{args.seed}"
                                 ".spans.jsonl")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(pass_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    correct = not bench.check_failures
    record = {
        "workload": args.workload, "trace": args.trace,
        "environment": environment(args, wl),
        "correct": correct, "check_failures": bench.check_failures,
        "attempted": len(timed), "failed": failed,
        "fail_frac": failed / len(timed), "passes": len(pass_s),
        "pass_s": pass_s, "op_s": op_s,
        "op_p50_s": statistics.median(op_s),
        "setup": {"import_s": import_samples, "inputs_s": prep_samples},
        "metrics": metrics,
        "self_s": spans.self_times(tracer.spans) if tracer else None,
        "ops": [op.record() for op in [warmup] + timed],
        **wl.summary(timed),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": len(timed), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

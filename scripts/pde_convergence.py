#!/usr/bin/env python
"""Extinction-rate measurement under grid refinement.

Drives the `extinction` command line: `constants` and `find` once for the
profile, then `pde` on each grid of --M, and reports the fitted sup-norm
and L1 extinction exponents against their exact values alpha and
alpha - N beta, plus the self-similar shape error at the end of the run.
The time steps are lagged-mobility implicit BDF2 steps with
dt ~ 1e-3 (T-t), 1611 of them to t = 0.8 T, with a time error of
O(dt_frac^2); the step count does not grow with M.  The shape error
should shrink as M grows; the exponent fits saturate early because they
average over checkpoints.  Artifacts land in --outdir: constants.json, the `find`
files, metrics_M<M>.json per grid, and sweep.json.
"""

import argparse
import json
import pathlib
import sys
import time

from extinction import cli, exponents


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--p", type=float, default=1.2)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--M", type=int, nargs="+", default=[100, 200, 400])
    ap.add_argument("--L", type=float, default=40.0)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--tend", type=float, default=0.8)
    ap.add_argument("--outdir", default="runs/convergence")
    args = ap.parse_args()

    out = pathlib.Path(args.outdir)
    triple = ["--N", str(args.N), "--p", repr(args.p), "--q", repr(args.q)]
    rc = cli.main(["constants", *triple, "--out", str(out / "constants.json")])
    if rc:
        return rc
    rc = cli.main(["find", *triple, "--outdir", str(out)])
    if rc:
        return rc
    c = json.loads((out / "constants.json").read_text())
    a_star = json.loads((out / "certify.json").read_text())["a_star"]
    print(f"profile: a* = {a_star:.12f}, exact alpha = {c['alpha']}, "
          f"exact L1 exponent = {c['alpha'] - args.N * c['beta']}")
    print(f"{'M':>6} {'alpha_est':>10} {'l1_est':>10} {'selfsim':>9} "
          f"{'steps':>9} {'wall':>7}")

    rows = []
    for M in args.M:
        mfile = out / f"metrics_M{M}.json"
        t0 = time.perf_counter()
        rc = cli.main(["pde", "--profile", str(out / "profile.csv"),
                       "--M", str(M), "--L", repr(args.L),
                       "--T", repr(args.T), "--tend", repr(args.tend * args.T),
                       "--out", str(mfile)])
        wall = time.perf_counter() - t0
        if rc:
            return rc
        row = json.loads(mfile.read_text())
        print(f"{M:>6} {row['alpha_est']:>10.4f} "
              f"{row['l1_exponent_est']:>10.4f} {row['selfsim_error']:>9.4f} "
              f"{row['steps']:>9} {wall:>6.1f}s")
        row["M"] = M
        rows.append(row)

    (out / "sweep.json").write_text(exponents.json_text(rows))
    errs = [r["selfsim_error"] for r in rows]
    if len(errs) > 1 and not all(a > b for a, b in zip(errs, errs[1:])):
        print("warning: self-similar error not monotone under refinement",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

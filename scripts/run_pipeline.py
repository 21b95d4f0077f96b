#!/usr/bin/env python
"""Full certification chain for one exponent triple.

Drives the `extinction` command line: `constants`, then `find` (shoot for
the fast-decay profile, certify the tail band, fit the second-order
correction), then `phase --from-profile` (map the profile into the
autonomous phase coordinates and extract the stable decay rates), and
prints a summary of the estimates beside their closed-form values.
Artifacts land in --outdir:

    constants.json   every derived constant and the spectrum
    profile.csv      sampled ODE state (r, f, F) with events; f' and E
                     are derived from F on read
    certify.json     the five-check report
    tailfit.json     (K_est, A_est, theta_est) plus windows
    phasepath.csv    mapped (eta, X, Y, Z)
    ratefit.json     lambda2/lambda3 estimates, Uinf, A-from-Vinf
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

from extinction import cli, exponents


def _run(*argv):
    """cli.main with its stdout report captured and parsed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, json.loads(buf.getvalue() or "{}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--p", type=float, default=1.2)
    ap.add_argument("--q", type=float, default=0.5)
    # find's own default, 100^(1/theta), where --rmax is not given
    ap.add_argument("--rmax", type=float, default=None)
    ap.add_argument("--a-tol", type=float, default=1e-10)
    ap.add_argument("--outdir", default="runs/pipeline")
    args = ap.parse_args()

    out = pathlib.Path(args.outdir)
    triple = ["--N", str(args.N), "--p", repr(args.p), "--q", repr(args.q)]
    rc, rep = _run("constants", *triple, "--out", str(out / "constants.json"))
    if rc:
        sys.stderr.write(exponents.json_text(rep))
        return rc
    c = json.loads((out / "constants.json").read_text())
    print(f"(N,p,q) = ({args.N}, {args.p}, {args.q}): "
          f"alpha = {c['alpha']:.6f}, mu = {c['mu']:.6f}, "
          f"K* = {c['Kstar']:.6f}")

    rmax = [] if args.rmax is None else ["--rmax", repr(args.rmax)]
    rc, rep = _run("find", *triple, *rmax, "--a-tol", repr(args.a_tol),
                   "--outdir", str(out))
    if "error" in rep:
        print(f"find failed: {rep['error']}", file=sys.stderr)
        return rc
    cert = json.loads((out / "certify.json").read_text())
    fit = json.loads((out / "tailfit.json").read_text())
    print(f"a* = {cert['a_star']!r}  "
          f"({cert['n_heuristic_steps']} heuristic bisection steps)")
    tag = "certified" if cert["ok"] else "NOT certified"
    print(f"tail band: {tag}  " + " ".join(
        f"{k}={'ok' if v else 'FAIL'}" for k, v in cert["checks"].items()))
    print(f"second order: theta_est = {fit['theta_est']:.6f} "
          f"(exact {c['theta']:.6f}), A_est = {fit['A_est']:.6e}")

    rc, rates = _run("phase", "--from-profile", str(out / "profile.csv"),
                     "--outdir", str(out))
    if rc:
        print(f"phase: rate extraction skipped: {rates.get('error')}")
    else:
        print(f"phase: lambda2_est = {rates['lambda2_est']:.6f} "
              f"(exact {c['lambda2']:.6f})")
        print(f"  lambda3_est = {rates['lambda3_est']:.6f} "
              f"(exact {c['lambda3']:.6f})")

    if not cert["ok"]:
        print("warning: profile not certified; downstream artifacts are "
              "exploratory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

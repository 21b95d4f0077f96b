#!/usr/bin/env python
"""Scan q across (p-1, p/2) and print the stable-rate ordering.

The two stable eigenvalues of the critical-point linearization swap
dominance at q = q*(N, p).  Below q* the tail mode -theta is the slow
one; above it the mode -(p-2q)/(q-p+1) takes over.  The scan prints
both rates and marks the crossover row.  Every number comes from the
`extinction constants` report of each q.
"""

import argparse
import contextlib
import io
import json
import sys

from extinction import cli, exponents


def constants(N, p, q):
    """`extinction constants` for one triple: exit code and parsed report."""
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        rc = cli.main(["constants", "--N", str(N), "--p", repr(p),
                       "--q", repr(q)])
    return rc, json.loads(buf.getvalue() or "{}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--p", type=float, default=1.2)
    ap.add_argument("--steps", type=int, default=15)
    args = ap.parse_args()

    N, p = args.N, args.p
    h = (p / 2.0 - (p - 1.0)) / (args.steps + 1)
    print(f"{'q':>9} {'lambda2':>10} {'lambda3':>10} {'slow rate':>10}")
    prev = qstar = None
    for k in range(1, args.steps + 1):
        q = (p - 1.0) + k * h
        rc, c = constants(N, p, q)
        if rc:
            sys.stderr.write(exponents.json_text(c))
            return rc
        dom = "lambda2" if c["LambdaMax"] == c["lambda2"] else "lambda3"
        qstar = c["qstar"]
        if prev is not None and dom != prev:
            print(f"{'-- crossover, q* = ':>20}{qstar:.6f} --")
        prev = dom
        print(f"{q:>9.5f} {c['lambda2']:>10.5f} {c['lambda3']:>10.5f} "
              f"{dom:>10}")
    print(f"\nq*(N={N}, p={p}) = {qstar:.10f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: constants -> bracket -> bisection -> certificate
-> tail fit -> phase rates -> PDE check.

Exit codes; commands raise, and `main` maps every exception through
`_report`:

  0  success
  1  usage: bad flags or config (a tail --window not finite with lo < hi);
     an unreadable or malformed profile (shooter.load_profile's refusals,
     such as an a or tol that is not finite and > 0):
     "cannot read profile: ..."
  2  exponents outside the admissible box (exponents.RangeViolation; N
     and p alone for qstar); the library's own input checks (a
     non-finite --a, --tol or --rmax, --a <= 0, --tol <= 0, --rmax below
     the series start, a find --rmax whose 16 --rmax overflows, an
     --a-tol that is not finite and >= 0, a phase --span end that is not
     finite or two equal ends, a phase --x0 component not finite or at or
     beyond the 1e12 blow-up guard, bad --L/--M, a pde --T that is not
     finite and > 0 or whose (T - t)^(alpha + beta) leaves double range,
     a --tend outside (0, 0.8 T], a triple in the box whose K* overflows
     double precision); an artifact that cannot be written (an --out
     that is a directory, an --outdir that is a file): "cannot write
     output: ..."
  3  algorithmic failure: no bracket (a downward scan that reaches a
     series start not below r_max too), fit, certification, phase
     non-convergence (a profile with no sample that maps into phase
     space too), a phase --x0 integration past its budget of right-side
     evaluations, PDE (an initial datum vanishing in the first cell too)

The library prints nothing; `phase --from-profile` names the samples it
skipped in one `warning: ...` line on stderr.
Explicit flags always win over --config.  Files are made only by
`_write_or_print` (a refused run makes none); reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

from . import exponents, phase, pde, shooter, tail

EXIT_OK, EXIT_USAGE, EXIT_RANGE, EXIT_ALGO = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # Abbreviated flags are disabled: --p must not silently bind to
    # --profile on subcommands that take no exponent flags.
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    # exit-code contract: usage problems are 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_config(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments ignored."""
    cfg = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"config line without '=': {ln!r}")
        k, v = ln.split("=", 1)
        cfg[k.strip()] = v.strip()
    return cfg


class UsageError(Exception):
    """Exit 1, reported as `error: ...` on stderr."""


@contextlib.contextmanager
def _algorithmic():
    """A ValueError raised inside is an algorithmic failure (exit 3);
    outside, it is one of the library's own input checks (exit 2)."""
    try:
        yield
    except ValueError as e:
        raise RuntimeError(str(e)) from e


def _report(exc: Exception) -> int:
    """The one failure path: print the report for `exc` and return its
    exit code."""
    if isinstance(exc, UsageError):
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(exc, exponents.RangeViolation):
        report, code = {"violations": exc.violations}, EXIT_RANGE
    elif isinstance(exc, OSError):
        # a read turns its OSError into a UsageError, so this one came
        # from writing an artifact
        report, code = {"error": f"cannot write output: {exc}"}, EXIT_RANGE
    else:
        report = {"error": str(exc)}
        code = EXIT_ALGO if isinstance(exc, RuntimeError) else EXIT_RANGE
    _write_or_print(None, exponents.json_text({"ok": False, **report}))
    return code


def _config_defaults(args) -> dict:
    """--config as parser defaults: keys are flag names, values strings
    that argparse converts with each flag's type."""
    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, ValueError) as e:
        raise UsageError(f"bad config: {e}") from e
    known = set(vars(args)) - {"command", "config", "fn"}
    for key in cfg:
        if key.replace("-", "_") not in known:
            raise UsageError(f"bad config: unknown config key: {key}")
    return {k.replace("-", "_"): v for k, v in cfg.items()}


def _require(args, *flags):
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise UsageError("the following arguments are required: "
                         + ", ".join(missing))


def _params(args):
    """Constants of the exponents --N/--p/--q (derive_constants refuses a
    triple outside the box).  Where the command takes --rmax and it was
    left out, fills in the default."""
    _require(args, "N", "p", "q")
    consts = exponents.derive_constants(args.N, args.p, args.q)
    if "rmax" in vars(args) and args.rmax is None:
        # radius where the second-order tail term has decayed to 1% of Kstar
        args.rmax = 100.0 ** (1.0 / consts.theta)
    return consts


def _load_profile(path):
    """Constants and trajectory of a profile CSV.  An unreadable or
    malformed file is a usage error: "error: cannot read profile: ..."."""
    try:
        return shooter.load_profile(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read profile: {e}") from e


def cmd_constants(args) -> int:
    _write_or_print(args.out, exponents.constants_json(_params(args)))
    return EXIT_OK


def cmd_qstar(args) -> int:
    _require(args, "N", "p")
    lam = exponents.lambdastar(args.N, args.p)
    _write_or_print(args.out, exponents.json_text(
        {"N": args.N, "p": args.p, "lambdastar": lam,
         "qstar": lam + args.p - 1.0}))
    return EXIT_OK


def cmd_classify(args) -> int:
    consts = _params(args)
    cl = shooter.classify(consts, args.a, args.rmax, args.tol)
    _write_or_print(None, exponents.json_text(
        {"a": args.a, "label": cl.label, "witness_r": cl.witness_r,
         "detail": cl.detail}))
    return EXIT_OK


def cmd_shoot(args) -> int:
    consts = _params(args)
    traj = shooter.integrate_profile(consts, args.a, args.rmax, args.tol)
    _write_or_print(args.out, shooter.trajectory_csv(traj, consts))
    return EXIT_OK


def cmd_find(args) -> int:
    consts = _params(args)
    br = shooter.find_bracket(consts, args.rmax, args.tol)
    a_star, traj, rec = shooter.find_profile(
        consts, br, a_tol=args.a_tol, r_max=args.rmax, tol=args.tol)
    with _algorithmic():
        cert = tail.certify_B(traj, consts)
    report = {
        "a_star": a_star,
        "bracket": [rec["lo"], rec["hi"]],
        "a_tol": args.a_tol,
        "r_max": args.rmax,
        "n_heuristic_steps": rec["n_heuristic"],
        "ok": cert.ok,
        "checks": cert.checks,
        "r_end": cert.r_end,
        "w_end": cert.w_end,
    }
    if args.N >= 2:
        report["caveat"] = (
            "N >= 2: the located parameter is a fast-decay candidate; "
            "uniqueness of the fast-decay profile is conjectural in this "
            "regime, and the asymptotic certificate checks are out of "
            "reach at bisection-limited radii (double-precision parameter "
            "resolution departs from the tail branch before it settles)")
    # the certificate is written before the tail fit, which can fail
    outdir = Path(args.outdir)
    _write_or_print(outdir / "profile.csv",
                    shooter.trajectory_csv(traj, consts))
    _write_or_print(outdir / "certify.json", exponents.json_text(report))
    with _algorithmic():
        fit = tail.fit_tail(traj, consts)
    _write_or_print(outdir / "tailfit.json", tail.tailfit_json(fit))
    _write_or_print(None, exponents.json_text(
        {"a_star": a_star, "certified": cert.ok,
         "theta_est": fit.theta_est, "A_est": fit.A_est}))
    return EXIT_OK if cert.ok and fit.accepted else EXIT_ALGO


def cmd_tail(args) -> int:
    if args.window and not (all(map(math.isfinite, args.window))
                            and args.window[0] < args.window[1]):
        raise UsageError("--window must be finite with lo < hi, got "
                         f"{args.window}")
    consts, traj = _load_profile(args.profile)
    with _algorithmic():
        fit = tail.fit_tail(traj, consts, args.window)
    _write_or_print(args.out, tail.tailfit_json(fit))
    return EXIT_OK if fit.accepted else EXIT_ALGO


def cmd_phase(args) -> int:
    if bool(args.from_profile) == bool(args.x0):
        raise UsageError("need exactly one of --from-profile / --x0")
    if args.from_profile and (args.N, args.p, args.q) != (None, None, None):
        raise UsageError("--N/--p/--q do not apply to --from-profile: "
                         "the exponents come from the profile")
    outdir = Path(args.outdir)
    if args.from_profile:
        consts, traj = _load_profile(args.from_profile)
        path = phase.map_to_phase(traj, consts)
        if path.detail:
            print(f"warning: {path.detail}", file=sys.stderr)
        _write_or_print(outdir / "phasepath.csv", phase.phasepath_csv(path))
        with _algorithmic():
            rates = phase.extract_rates(path, consts)
        text = phase.ratefit_json(rates)
        _write_or_print(outdir / "ratefit.json", text)
        _write_or_print(None, text)
        return EXIT_OK
    consts = _params(args)
    pth = phase.integrate_phase(args.x0, args.span, consts, tol=args.tol)
    _write_or_print(outdir / "phasepath.csv", phase.phasepath_csv(pth))
    _write_or_print(None, exponents.json_text(
        {"source": pth.source, "detail": pth.detail, "n": len(pth)}))
    return EXIT_OK


def cmd_pde(args) -> int:
    consts, traj = _load_profile(args.profile)
    grid = pde.RadialGrid(L=args.L, M=args.M)
    if not (math.isfinite(args.T) and args.T > 0.0):
        raise ValueError(f"--T must be finite and > 0, got {args.T!r}")
    if not 0.0 < args.tend <= 0.8 * args.T:
        raise ValueError(f"--tend must lie in (0, 0.8 T], got {args.tend!r}")
    # the run scales by (T - t)^alpha, (T - t)^beta and, in the mobility
    # floor, (T - t)^(alpha + beta), the largest power: it must stay a
    # normal double over [0, tend]
    ab = consts.alpha + consts.beta
    if not (ab * math.log10(args.T) < sys.float_info.max_10_exp
            and ab * math.log10(args.T - args.tend)
            > sys.float_info.min_10_exp):
        raise ValueError(f"--T must keep (T - t)^(alpha + beta) within "
                         f"double range, got {args.T!r}")
    with _algorithmic():
        fld = pde.build_initial(traj, consts, args.T, grid)
        metrics = pde.run_and_measure(fld, grid, t_end=args.tend)
    if args.snapshots is not None:
        for k, (t, u) in enumerate(metrics.snapshots):
            _write_or_print(Path(args.snapshots) / f"snapshot_{k:03d}.csv",
                            pde.snapshot_csv(t, grid, u))
    _write_or_print(args.out, pde.metrics_json(metrics))
    print(f"wall: {metrics.wall_s}s, steps: {metrics.steps}",
          file=sys.stderr)
    return EXIT_OK if metrics.stable else EXIT_ALGO


def _write_or_print(out, text: str):
    """Write text to the file `out`, making its directories, or to stdout."""
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# Exponent flags default to None rather than required=True so that a
# --config file can supply them; `_require` checks them after the merge.
def _add_params(sp, with_q=True):
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    if with_q:
        sp.add_argument("--q", type=float, default=None)


def _floats(names: str):
    """argparse type: comma-separated numbers, as many as in `names`."""
    def parse(text):
        try:
            vals = tuple(float(s) for s in text.split(","))
        except ValueError:
            vals = ()
        if len(vals) != names.count(",") + 1:
            raise argparse.ArgumentTypeError(f"expected {names}, "
                                             f"got {text!r}")
        return vals
    return parse


def build_parser() -> _Parser:
    ap = _Parser(prog="extinction",
                 description="self-similar extinction profiles of the "
                             "singular diffusion equation with gradient "
                             "absorption")
    ap.add_argument("--config", default=None,
                    help="flat key=value file; explicit flags override")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices   # name -> subparser, for --config defaults

    sp = sub.add_parser("constants", help="derived exponents and spectrum")
    _add_params(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("qstar", help="eigenvalue-crossover absorption "
                                      "exponent")
    _add_params(sp, with_q=False)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_qstar)

    sp = sub.add_parser("classify", help="classify one shooting parameter")
    _add_params(sp)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--rmax", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("shoot", help="integrate one trajectory to CSV")
    _add_params(sp)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--rmax", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_shoot)

    sp = sub.add_parser("find", help="bisect the fast-decay parameter, "
                                     "certify, fit the tail")
    _add_params(sp)
    sp.add_argument("--a-tol", type=float, default=1e-10)
    sp.add_argument("--rmax", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--outdir", default=".")
    sp.set_defaults(fn=cmd_find)

    sp = sub.add_parser("tail", help="fit the second-order tail of a "
                                     "profile CSV")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--window", type=_floats("lo,hi"), default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_tail)

    sp = sub.add_parser("phase", help="map a profile into phase space / "
                                      "integrate the autonomous system")
    sp.add_argument("--from-profile", default=None)
    sp.add_argument("--x0", type=_floats("X,Y,Z"), default=None)
    sp.add_argument("--span", type=_floats("eta_lo,eta_hi"),
                    default="0,10")
    _add_params(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--outdir", default=".")
    # profile mode takes the exponents from the CSV header
    sp.set_defaults(fn=cmd_phase)

    sp = sub.add_parser("pde", help="evolve the reconstructed solution and "
                                    "measure extinction exponents")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--M", type=int, default=400)
    sp.add_argument("--L", type=float, default=40.0)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--tend", type=float, default=0.8)
    sp.add_argument("--snapshots", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_pde)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            # config values become defaults, so every explicit flag wins
            ap.commands[args.command].set_defaults(**_config_defaults(args))
            args = ap.parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        # argparse exits on usage errors and -h; report as a return code
        # so in-process callers see the same contract as the shell.
        return int(e.code or 0)
    except (UsageError, ValueError, RuntimeError, OSError) as e:
        return _report(e)


if __name__ == "__main__":
    raise SystemExit(main())

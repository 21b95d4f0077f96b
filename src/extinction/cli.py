"""Command-line pipeline: constants -> bracket -> bisection -> certificate
-> tail fit -> phase rates -> PDE check.

Exit codes: 0 success, 1 usage error, 2 parameter-range violation,
3 algorithmic failure (bracket scan, certification, non-convergence).
All commands are deterministic; reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
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


def config_text(cfg: dict) -> str:
    return "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))


def _apply_config(args, parser_defaults: dict, parser_types: dict):
    """Config file supplies values for flags the user left at default."""
    if not getattr(args, "config", None):
        return args
    cfg = parse_config(Path(args.config).read_text())
    for key, raw in cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"unknown config key: {key}")
        if getattr(args, attr) == parser_defaults.get(attr):
            cast = parser_types.get(attr)
            if cast is None:
                cur = parser_defaults.get(attr)
                cast = type(cur) if cur is not None else str
            if cast is bool:
                setattr(args, attr, raw.lower() in ("1", "true", "yes"))
            else:
                setattr(args, attr, cast(raw))
    return args


def _params(args):
    rep = exponents.validate_range(args.N, args.p, args.q)
    if not rep.ok:
        print(json.dumps({"ok": False, "violations": rep.violations,
                          "warnings": rep.warnings}, sort_keys=True,
                         indent=1))
        return None, None
    pr = exponents.ExponentParams(N=args.N, p=args.p, q=args.q)
    return pr, exponents.derive_constants(pr)


def _auto_rmax(consts) -> float:
    # radius where the second-order tail term has decayed to 1% of Kstar
    return 100.0 ** (1.0 / consts.theta)


def _load_profile(path):
    meta, cols, events = shooter.read_profile_csv(Path(path).read_text())
    pr = exponents.ExponentParams(N=int(meta["N"]), p=meta["p"], q=meta["q"])
    traj = shooter.ProfileTrajectory(
        a=meta["a"], r=cols["r"], f=cols["f"], fprime=cols["fprime"],
        F=cols["F"], energy=cols["E"], events=events, r0=meta["r0"],
        tol=meta["tol"])
    return pr, exponents.derive_constants(pr), traj


def cmd_constants(args) -> int:
    pr, consts = _params(args)
    if pr is None:
        return EXIT_RANGE
    spec = exponents.spectral_data(consts)
    out = exponents.constants_json(consts, spec)
    _write_or_print(args.out, out)
    return EXIT_OK


def cmd_qstar(args) -> int:
    if not (2.0 * args.N / (args.N + 1.0) < args.p < 2.0):
        print(json.dumps({"ok": False,
                          "violations": ["p outside (2N/(N+1), 2)"]},
                         sort_keys=True, indent=1))
        return EXIT_RANGE
    lam = exponents.lambdastar(args.N, args.p)
    out = json.dumps({"N": args.N, "p": args.p, "lambdastar": lam,
                      "qstar": lam + args.p - 1.0}, sort_keys=True, indent=1)
    _write_or_print(args.out, out)
    return EXIT_OK


def cmd_classify(args) -> int:
    pr, consts = _params(args)
    if pr is None:
        return EXIT_RANGE
    rmax = args.rmax if args.rmax else _auto_rmax(consts)
    cl = shooter.classify(pr, consts, args.a, rmax, args.tol)
    print(json.dumps({"a": args.a, "label": cl.label,
                      "witness_r": cl.witness_r, "detail": cl.detail},
                     sort_keys=True, indent=1))
    return EXIT_OK


def cmd_shoot(args) -> int:
    pr, consts = _params(args)
    if pr is None:
        return EXIT_RANGE
    rmax = args.rmax if args.rmax else _auto_rmax(consts)
    traj = shooter.integrate_profile(pr, consts, args.a, rmax, args.tol)
    _write_or_print(args.out, shooter.trajectory_csv(traj, pr, consts))
    return EXIT_OK


def cmd_find(args) -> int:
    pr, consts = _params(args)
    if pr is None:
        return EXIT_RANGE
    rmax = args.rmax if args.rmax else _auto_rmax(consts)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        br = shooter.find_bracket(pr, consts, rmax, args.tol)
    except RuntimeError as e:
        print(json.dumps({"ok": False, "error": str(e)}, sort_keys=True,
                         indent=1))
        return EXIT_ALGO
    a_star, traj, rec = shooter.find_profile(
        pr, consts, br, a_tol=args.a_tol, r_max=rmax, tol=args.tol)
    cert = tail.certify_B(traj, consts)
    fit = tail.fit_tail(tail.w_transform(traj, consts), consts)
    report = {
        "a_star": a_star,
        "bracket": [rec["lo"], rec["hi"]],
        "a_tol": args.a_tol,
        "r_max": rmax,
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
    (outdir / "profile.csv").write_text(
        shooter.trajectory_csv(traj, pr, consts))
    (outdir / "certify.json").write_text(
        json.dumps(report, sort_keys=True, indent=1) + "\n")
    (outdir / "tailfit.json").write_text(tail.tailfit_json(fit) + "\n")
    print(json.dumps({"a_star": a_star, "certified": cert.ok,
                      "theta_est": fit.theta_est, "A_est": fit.A_est},
                     sort_keys=True, indent=1))
    return EXIT_OK if cert.ok else EXIT_ALGO


def cmd_tail(args) -> int:
    try:
        pr, consts, traj = _load_profile(args.profile)
    except (OSError, KeyError, ValueError) as e:
        print(f"error: cannot read profile: {e}", file=sys.stderr)
        return EXIT_USAGE
    st = tail.w_transform(traj, consts)
    window = None
    if args.window:
        lo, hi = (float(s) for s in args.window.split(","))
        window = (lo, hi)
    try:
        fit = tail.fit_tail(st, consts, window)
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}, sort_keys=True,
                         indent=1))
        return EXIT_ALGO
    out = tail.tailfit_json(fit)
    _write_or_print(args.out, out)
    return EXIT_OK


def cmd_phase(args) -> int:
    if bool(args.from_profile) == bool(args.x0):
        print("error: need exactly one of --from-profile / --x0",
              file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.from_profile:
        try:
            pr, consts, traj = _load_profile(args.from_profile)
        except (OSError, KeyError, ValueError) as e:
            print(f"error: cannot read profile: {e}", file=sys.stderr)
            return EXIT_USAGE
        path = phase.map_to_phase(traj, consts)
        (outdir / "phasepath.csv").write_text(phase.phasepath_csv(path))
        try:
            rates = phase.extract_rates(path, consts)
        except ValueError as e:
            print(json.dumps({"ok": False, "error": str(e)},
                             sort_keys=True, indent=1))
            return EXIT_ALGO
        (outdir / "ratefit.json").write_text(
            phase.ratefit_json(rates) + "\n")
        print(phase.ratefit_json(rates))
        return EXIT_OK
    pr, consts = _params(args)
    if pr is None:
        return EXIT_RANGE
    x0 = tuple(float(s) for s in args.x0.split(","))
    span = tuple(float(s) for s in args.span.split(","))
    pth = phase.integrate_phase(x0, span, consts, tol=args.tol)
    (outdir / "phasepath.csv").write_text(phase.phasepath_csv(pth))
    print(json.dumps({"source": pth.source, "detail": pth.detail,
                      "n": len(pth)}, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_pde(args) -> int:
    try:
        pr, consts, traj = _load_profile(args.profile)
    except (OSError, KeyError, ValueError) as e:
        print(f"error: cannot read profile: {e}", file=sys.stderr)
        return EXIT_USAGE
    grid = pde.RadialGrid(L=args.L, M=args.M, N=pr.N)
    try:
        fld = pde.build_initial(traj, consts, args.T, grid)
        metrics = pde.run_and_measure(
            fld, grid, pr, consts, t_end=args.tend, kappa=args.kappa,
            snapshot_dir=args.snapshots)
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}, sort_keys=True,
                         indent=1))
        return EXIT_ALGO
    out = pde.metrics_json(metrics)
    _write_or_print(args.out, out)
    print(f"wall: {metrics.wall_s}s, steps: {metrics.steps}",
          file=sys.stderr)
    return EXIT_OK if metrics.stable else EXIT_ALGO


def _write_or_print(out, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# Exponent flags default to None rather than required=True so that a
# --config file can supply them; presence is enforced after the merge.
def _add_params(sp, with_q=True):
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    if with_q:
        sp.add_argument("--q", type=float, default=None)
    sp.set_defaults(needs_params=True)


def build_parser() -> _Parser:
    ap = _Parser(prog="extinction",
                 description="self-similar extinction profiles of the "
                             "singular diffusion equation with gradient "
                             "absorption")
    ap.add_argument("--config", default=None,
                    help="flat key=value file; explicit flags override")
    sub = ap.add_subparsers(dest="command", required=True)

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
    sp.add_argument("--window", default=None, help="lo,hi")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_tail)

    sp = sub.add_parser("phase", help="map a profile into phase space / "
                                      "integrate the autonomous system")
    sp.add_argument("--from-profile", default=None)
    sp.add_argument("--x0", default=None, help="X,Y,Z")
    sp.add_argument("--span", default="0,10", help="eta_lo,eta_hi")
    _add_params(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--outdir", default=".")
    # profile mode takes the exponents from the CSV header
    sp.set_defaults(fn=cmd_phase, needs_params="unless_profile")

    sp = sub.add_parser("pde", help="evolve the reconstructed solution and "
                                    "measure extinction exponents")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--M", type=int, default=400)
    sp.add_argument("--L", type=float, default=40.0)
    sp.add_argument("--T", type=float, default=1.0)
    sp.add_argument("--tend", type=float, default=0.8)
    sp.add_argument("--kappa", type=float, default=0.016)
    sp.add_argument("--snapshots", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_pde)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse raises on usage errors and -h; report as a return code
        # so in-process callers see the same contract as the shell.
        return int(e.code or 0)
    actions = [a for g in ap._subparsers._group_actions
               for a in g.choices[args.command]._actions]
    defaults = {a.dest: a.default for a in actions}
    types = {a.dest: a.type for a in actions}
    try:
        args = _apply_config(args, defaults, types)
    except (OSError, ValueError) as e:
        print(f"error: bad config: {e}", file=sys.stderr)
        return EXIT_USAGE
    need = getattr(args, "needs_params", False)
    if need == "unless_profile":
        need = not args.from_profile
    if need:
        missing = [f"--{n}" for n in ("N", "p", "q")
                   if hasattr(args, n) and getattr(args, n) is None]
        if missing:
            print("error: the following arguments are required: "
                  + ", ".join(missing), file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.fn(args)
    except ValueError as e:
        print(json.dumps({"ok": False, "error": str(e)}, sort_keys=True,
                         indent=1))
        return EXIT_RANGE
    except RuntimeError as e:
        print(json.dumps({"ok": False, "error": str(e)}, sort_keys=True,
                         indent=1))
        return EXIT_ALGO


if __name__ == "__main__":
    raise SystemExit(main())

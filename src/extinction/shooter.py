"""Shooting construction of the self-similar profile.

The profile f solves, radially,

    (|f'|^{p-2}f')' + (N-1)/r |f'|^{p-2}f' + alpha f + beta r f' - |f'|^q = 0,
    f(0) = a > 0,  f'(0) = 0,

integrated as a first-order system in (f, F) with momentum F = -|f'|^{p-2}f'
(F >= 0 while f decreases; f' = -|F|^{(2-p)/(p-1)} F).  The center r = 0 is
singular, so integration starts from a series expansion at a small r0.

Shooting parameter a is classified by the first decisive event of
w(r) = r^mu f(r):

    A  w' vanishes at a maximum of w, or F hits zero      (profile dies)
    C  w exceeds Kstar                                    (tail too fat)
    UNDETERMINED  r_max reached with 0 < w < Kstar, w' > 0

The fast-decay profile sits on the A/C boundary and is located by bisection.
A midpoint still undetermined at the bisection's largest radius is put on
a side by the end-state rule: C when the gap Kstar - w closes there faster
than the pure power r^{-theta}, i.e. r w' > theta (Kstar - w), else A.
The bracket scan and the midpoints far from a* are solved at a looser
tolerance, and the search still returns the full-tolerance a*, bit for
bit; `find_profile` states the law and the argument.

Every solve runs on `dop853`'s driver, with the kernel of `_RHS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dop853
from .exponents import DerivedConstants, csv_text, derive_constants, deta

__all__ = [
    "ProfileTrajectory",
    "Classification",
    "Bracket",
    "series_start",
    "integrate_profile",
    "classify",
    "find_bracket",
    "find_profile",
    "energy",
    "ode_residual",
    "trajectory_csv",
    "read_profile_csv",
    "load_profile",
]

OVERFLOW_GUARD = 1e12

# profile.csv's comment-header parameters and its columns (the ODE state)
PROFILE_META = ("a", "N", "p", "q", "tol")
PROFILE_COLUMNS = ("r", "f", "F")

# event kinds, in the order of _make_events' values; each fires as its
# value crosses 0 upward
_EVENT_KINDS = (
    "W_PRIME_VANISHES",   # -w' crosses 0: interior maximum of w -> A
    "W_EXCEEDS_KSTAR",    # w - Kstar crosses 0 -> C
    "F_HITS_ZERO",        # -F crosses 0: slope vanishes with f > 0 -> A
    "OVERFLOW_GUARD",     # |f|+|F| reaches 1e12 (finite-precision safety)
)


@dataclass
class ProfileTrajectory:
    """Samples of one solve, geometric in r from the series start r[0]."""
    a: float
    r: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    F: np.ndarray
    energy: np.ndarray
    events: list[tuple[str, float]]
    tol: float

    @property
    def r_end(self) -> float:
        return float(self.r[-1])


@dataclass(frozen=True)
class Classification:
    label: str                 # "A" | "C" | "UNDETERMINED"
    witness_r: float
    detail: str = ""
    # r w' / (Kstar - w) at an UNDETERMINED end, inf if the gap is closed:
    # the gap's local decay exponent, which the end-state rule tests > theta
    gap_exponent: float = math.nan


@dataclass(frozen=True)
class Bracket:
    lo: float   # classified C
    hi: float   # classified A
    # the radius and tolerance of the solves that labelled lo and hi; a
    # bracket given without them is taken as labelled at any tol
    r_max: float = math.inf
    tol: float = 0.0


def series_start(consts: DerivedConstants, a: float,
                 r0: float) -> tuple[float, float]:
    """The state (f, F) at r0 from the local expansion at the singular
    center.

    F grows linearly, F'(0) = alpha*a/N, and the profile bends like
    f(r0) = a - ((p-1)/p) (alpha a/N)^{1/(p-1)} r0^{p/(p-1)}.  The dropped
    terms of F' (the absorption |f'|^q and the drift beta r f') are left
    out; `_default_r0` states the margin its radius keeps on a*.  Where a
    factor of the bend overflows (a huge a, or a huge r0) the start has
    no double to take: ValueError names a and r0.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    p, N = consts.p, consts.N
    c0 = consts.alpha * a / N
    try:
        f0 = a - (p - 1.0) / p * c0 ** (1.0 / (p - 1.0)) \
            * r0 ** (p / (p - 1.0))
    except OverflowError:
        raise ValueError(f"the series start at a={a!r}, r0={r0:.6g} "
                         "overflows double precision") from None
    return f0, c0 * r0


def _default_r0(consts: DerivedConstants, a: float) -> float:
    # a-dependent scale keeps the series bend ~1e-30*a across the whole
    # bracket scan range.  1e-3 times this r0 leaves a* bit-identical at
    # (1, 1.2, 0.5) and (1, 1.5, 0.675); 10 times it moves a* by 2.8e-9
    # relative at (1, 1.5, 0.675), beyond a_tol = 1e-10: one decade of
    # margin
    return 1e-5 * a ** (-(2.0 - consts.p) / consts.p)


def _pow(x: float, e: float) -> float:
    """x ** e for x >= 0, inf where the float power overflows."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _slope(F: float, e1: float) -> float:
    """The slope f' = -sign(F)|F|^e1 at momentum F, e1 = 1/(p-1):
    infinite where the power overflows."""
    return -math.copysign(_pow(abs(F), e1), F)


def _make_events(consts: DerivedConstants):
    """The four event functions, in _EVENT_KINDS order, as one function
    of the state (r, f, F); the slope f' is formed from F by `_slope`,
    with the float operations of the right side's f'.  Each
    event is signed to fire as it crosses 0 upward, so the two that fire
    downward, w' and F, are negated: negation is exact, and the root
    search finds the same root of -g as of g.  Every event is terminal,
    and its root is found on this same function at a step's interpolant
    (`dop853.drive`)."""
    mu, Kst = consts.mu, consts.Kstar
    e1 = 1.0 / (consts.p - 1.0)

    def events(r, f, F):
        # the sign of -w' = -r^{mu-1} (mu f + r f')
        return (-(r * _slope(F, e1) + mu * f),
                _pow(r, mu) * f - Kst,
                -F,
                abs(f) + abs(F) - OVERFLOW_GUARD)

    return events


def energy(consts: DerivedConstants, f: np.ndarray,
           fprime: np.ndarray) -> np.ndarray:
    """E = ((p-1)/p)|f'|^p + (alpha/2) f^2, non-increasing while f > 0."""
    p = consts.p
    return (p - 1.0) / p * np.abs(fprime) ** p + 0.5 * consts.alpha * f ** 2


# The right side (f', F') at (r, f, F), written once as source: the
# shooting kernel's `rhs` closure and the stages inlined into `_trial` and
# `_dense_segment` are generated from it (`dop853.kernel`).  Its constants are
# al = alpha, be = beta, Nm1 = N - 1, e1 = 1/(p-1) and e2 = q/(p-1)
# (`_rhs_constants`).  A power that overflows raises OverflowError, which
# rejects a trial step.
_RHS = ("aF = abs({F}); {kf} = -copysign(aF ** e1, {F}); "
        "{kF} = al * {f} - Nm1 * {F} / {r} + be * {r} * {kf} - aF ** e2")
_RHS_CONSTANTS = "al, be, Nm1, e1, e2"
_FF = ("f", "F")   # the state's components, as `_RHS` names them


def _rhs_constants(consts: DerivedConstants):
    """(al, be, Nm1, e1, e2) of `_RHS` for the triple."""
    p = consts.p
    return (consts.alpha, consts.beta, consts.N - 1.0, 1.0 / (p - 1.0),
            consts.q / (p - 1.0))


def _shoot(consts: DerivedConstants, a: float, r_max: float, tol: float,
           dense: bool):
    """One solve of the (f, F) kernel by `dop853.drive`, from the series
    start to the first decisive event or r_max.

    Its event radii match scipy's DOP853 solver to about 1e-9 relative
    (the step sizes follow a cancelling error estimate, so they agree only
    to rounding noise).  The 7th-order interpolant is kept per step only when
    `dense` is set: it keeps the sampled trajectory at the integration
    tolerance, where lower-order interpolants would dominate the
    ODE-residual check.

    a, tol and r_max must be finite, or the step-size control cannot
    end, and tol > 0 (a positive tol below 100 ulp is raised to it).
    Kstar must be finite: where it overflows (q close to p-1) the C event
    cannot be tested, and the solve is refused.

    Returns (r0, events, r_end, f_end, F_end, segments): events is
    [(kind, r_end)] for the event, RMAX_REACHED or INTEGRATOR_FAILURE that
    ended the solve, and segments (for dop853.sample) is None unless dense.
    """
    if not (0.0 < a < math.inf):
        raise ValueError(f"a must be positive and finite, got {a!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not math.isfinite(consts.Kstar):
        raise ValueError(
            "Kstar overflows double precision (q too close to p-1): the "
            "C event w > Kstar cannot be tested")
    r0 = _default_r0(consts, a)
    if not r0 < r_max < math.inf:
        raise ValueError("r_max must be finite and exceed the series-start "
                         f"radius {r0:.6g}, got {r_max!r}")
    try:
        status, r_end, (f_end, F_end), k, segments = dop853.drive(
            dop853.kernel(_RHS, _FF, _RHS_CONSTANTS), _rhs_constants(consts),
            _make_events(consts), r0, series_start(consts, a, r0), r_max,
            tol, dense)
    except RuntimeError as e:
        raise RuntimeError(f"the solve at a={a!r} failed: {e}") from None
    if status == 1:
        kind = _EVENT_KINDS[k]
    else:
        kind = "RMAX_REACHED" if status == 0 else "INTEGRATOR_FAILURE"
    return r0, [(kind, r_end)], r_end, f_end, F_end, segments


def integrate_profile(consts: DerivedConstants, a: float, r_max: float,
                      tol: float = 1e-10,
                      n_samples: int = 4000) -> ProfileTrajectory:
    """Adaptive integration from the series start to the first decisive
    event or r_max.  Samples are geometric in r (uniform in ln r) from the
    dense output, so downstream log-log fits and finite differences in
    ln r see a uniform grid.

    The default count is the smallest rung of the ladder 2,000 ... 32,000
    at (1, 1.2, 0.5) that keeps `ode_residual` below 100 tol (3.0e-9;
    2,000 gives 1.9e-8) and puts the tail, phase and PDE values within
    1.5e-6 relative of their 32,000-sample values.  A solve the integrator
    gives up on ends in an INTEGRATOR_FAILURE event, in profile.csv too.
    A solve that ends at its start has no step to sample (RuntimeError).
    """
    r0, events, r_end, _, _, segments = _shoot(consts, a, r_max, tol,
                                               dense=True)
    if not segments:
        raise RuntimeError(f"no step to sample: the solve at a={a!r} ends "
                           f"at its series start on {events[0][0]}")
    rs = np.geomspace(r0, r_end, n_samples)
    f, F = dop853.sample(dop853.kernel(_RHS, _FF, _RHS_CONSTANTS), segments,
                         r_end, rs)
    return _trajectory(consts, a, rs, f, F, events, tol)


def _trajectory(consts: DerivedConstants, a: float, r, f, F, events,
                tol: float) -> ProfileTrajectory:
    """The samples (r, f, F) with f' = -sign(F)|F|^{1/(p-1)} and E: the one
    place a ProfileTrajectory is built, so a solve and its profile.csv read
    back give the same f' and E, bit for bit."""
    fprime = -np.sign(F) * np.abs(F) ** (1.0 / (consts.p - 1.0))
    return ProfileTrajectory(a, r, f, fprime, F, energy(consts, f, fprime),
                             events, tol)


def classify(consts: DerivedConstants, a: float, r_max: float,
             tol: float = 1e-10) -> Classification:
    """Map the first decisive event to the shooting class.  Only the
    endpoint is read, so the solve keeps no dense output.  An UNDETERMINED
    end (r, f, F) carries gap_exponent = r w' / (Kstar - w), where w = r^mu f
    and r w' = mu w + r^{mu+1} f' (as in tail._wprime)."""
    _, events, r_end, f_end, F_end, _ = _shoot(consts, a, r_max, tol,
                                               dense=False)
    kind = events[0][0]
    if kind in ("W_PRIME_VANISHES", "F_HITS_ZERO"):
        return Classification("A", r_end, kind)
    if kind == "W_EXCEEDS_KSTAR":
        return Classification("C", r_end, kind)
    mu = consts.mu
    w = _pow(r_end, mu) * f_end
    fprime = _slope(F_end, 1.0 / (consts.p - 1.0))
    rwp = mu * w + _pow(r_end, mu + 1.0) * fprime
    gap = consts.Kstar - w
    if kind == "RMAX_REACHED":
        detail = f"r_max reached, w={w:.6g} in (0, Kstar), w' > 0"
    elif kind == "OVERFLOW_GUARD":
        detail = "overflow guard tripped"
    else:
        detail = ("integrator failure: step size fell below ten ulps at "
                  f"r={r_end:.6g}")
    return Classification("UNDETERMINED", r_end, detail,
                          rwp / gap if gap > 0 else math.inf)


# the graded tolerance of a solve that labels an a, from the bracket it
# halves: max(tol, min(_TOL_CAP, _TOL_SLOPE * (hi - lo) / lo)); the
# bracket scan labels its powers of ten at the cap
_TOL_SLOPE = 1e-2
_TOL_CAP = 1e-4


def find_bracket(consts: DerivedConstants, r_max: float,
                 tol: float = 1e-10) -> Bracket:
    """Scan a over powers of ten until one C (low side) and one A (high
    side) are found; RuntimeError at an a whose series start overflows
    double precision or, on the downward scan (the start grows as a
    falls, p < 2), is not below r_max.  Each power is labelled by one
    solve at max(tol, 1e-4), the cap of the graded law; `find_profile`
    re-solves at tol an end that stays in its final bracket."""
    return _scan(consts, r_max, max(tol, _TOL_CAP))


def _scan(consts: DerivedConstants, r_max: float, tol: float) -> Bracket:
    """find_bracket's scan, every power labelled at tol."""
    lo = hi = None
    for k in range(0, 13):
        lab = _scan_label(consts, 10.0 ** k, r_max, tol)
        if lab == "A":
            hi = 10.0 ** k
            break
        if lab == "C":
            lo = 10.0 ** k
    # a = 1 (k = 0) was classified by the upward pass
    for k in range(-1, -13, -1):
        if lo is not None:
            break
        a = 10.0 ** k
        if not (r0 := _default_r0(consts, a)) < r_max:
            raise RuntimeError(
                f"bracket scan exhausted at a={a:g}: its series-start "
                f"radius {r0:.6g} is not below r_max={r_max:.6g} "
                f"(hi={hi})")
        if _scan_label(consts, a, r_max, tol) == "C":
            lo = a
    if lo is None or hi is None:
        raise RuntimeError(
            f"bracket scan exhausted (|k| <= 12): lo={lo}, hi={hi}")
    return Bracket(lo, hi, r_max, tol)


def _scan_label(consts: DerivedConstants, a: float, r_max, tol) -> str:
    """classify's label of the scan's power a; RuntimeError where its
    series start overflows, as the scan, not the caller, chose a."""
    try:
        series_start(consts, a, _default_r0(consts, a))
    except ValueError:
        raise RuntimeError(f"bracket scan exhausted at a={a:g}: its series "
                           "start overflows double precision") from None
    return classify(consts, a, r_max, tol).label


def _midpoint_step(consts: DerivedConstants, m: float, r_max: float,
                   tol_m: float, tol: float) -> dict:
    """The transcript step of midpoint m: its label from one solve to
    16 r_max at tol_m.  A solve at a looser tol_m that ends undetermined
    is repeated at tol, so the end-state rule only reads solves at tol."""
    r_top = 16.0 * r_max
    cl = classify(consts, m, r_top, tol_m)
    if cl.label == "UNDETERMINED" and tol_m > tol:
        tol_m = tol
        cl = classify(consts, m, r_top, tol)
    heuristic = cl.label == "UNDETERMINED"
    if heuristic:
        lab = "C" if cl.gap_exponent > consts.theta else "A"
        rm = r_top
    else:
        lab = cl.label
        rm = r_max
        while rm < cl.witness_r and rm < r_top:
            rm *= 2.0
    return {"a": m, "label": lab, "r_max": rm, "heuristic": heuristic,
            "tol": tol_m}


def _bisect(consts: DerivedConstants, lo: float, hi: float, a_tol: float,
            r_max: float, tol: float, graded: bool):
    """Halve [lo, hi] until hi - lo <= a_tol * lo; each midpoint solved at
    the graded tolerance when `graded` is set, else at tol.  Returns (lo,
    hi, steps)."""
    steps = []
    while hi - lo > a_tol * lo:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            break   # double precision exhausted
        tol_m = tol
        if graded:
            tol_m = max(tol, min(_TOL_CAP, _TOL_SLOPE * (hi - lo) / lo))
        step = _midpoint_step(consts, m, r_max, tol_m, tol)
        steps.append(step)
        if step["label"] == "C":
            lo = m
        else:
            hi = m
    return lo, hi, steps


def find_profile(consts: DerivedConstants, bracket: Bracket,
                 a_tol: float = 1e-10, r_max: float = 100.0,
                 tol: float = 1e-10):
    """Bisect the bracket until hi - lo <= a_tol * lo, or at a_tol = 0
    until lo and hi are adjacent doubles.

    Each midpoint is classified by one solve out to 16 r_max.  The solve
    stops at the first decisive event, so its label is the first one the
    radii r_max, 2 r_max, ..., 16 r_max would give, and the transcript
    records the smallest of those radii at or above the witness.  Midpoints
    still undetermined at 16 r_max are assigned by the end-state rule of
    that same solve at tol: C when the gap Kstar - w closes faster than
    r^{-theta} there (classify's gap_exponent > theta), else A; the
    transcript flags them.  The one dense solve is at a_star.  An r_max
    whose 16 r_max overflows raises ValueError before any solve.

    Graded tolerance.  A midpoint that halves [lo, hi] is solved at
    tol_m = max(tol, min(1e-4, 1e-2 (hi - lo) / lo)): a solve at tol_m
    moves the computed switch point by O(tol_m) relative (tolerance
    proportionality), far less than the bracket's width until the last
    few steps, which run at tol.  tol is the floor, so with tol >= 1e-4
    no solve is loose.  A loose solve that ends undetermined is repeated
    at tol before the end-state rule reads it.  After the loop, each end
    of the final bracket that was labelled at a looser tolerance is
    solved again at tol: a midpoint as it was, a scan end (labelled at
    the cap by `find_bracket`) by the scan's own solve.  If a label or
    heuristic flag changes, the scan, where it was loose, and the whole
    bisection are run again at tol (the transcript's `fallback`).

    Why a_star is the full-tolerance value, bit for bit.  The bisection
    is deterministic, so if every loose label equals the label at tol,
    the midpoints, labels and a_star are the full-tolerance run's.  Where
    the labels at tol are monotone in a (C below one switch, A above),
    let m be the last midpoint whose loose label is wrong, say C where
    tol gives A.  Every later midpoint lies above m, so above the switch,
    and is labelled A: m stays the final lo, and its re-solve at tol
    catches the error (A symmetrically).  The bracket scan extends the
    argument: it is deterministic too, so with every scan label as at
    tol the bracket is the full-tolerance run's.  A scan end whose label
    is wrong, with every midpoint right, has no midpoint on its side (a
    scan label decided before the scan's radius is the bisection's label
    too): it stays, and its re-solve catches the error.  The fallback
    then is the full-tolerance run itself.  Two loose scan labels are
    not re-solved: one that is not an end of the bracket, and an end that
    tol leaves undetermined at the scan's radius, which a midpoint solved
    out to 16 r_max may replace.  Either needs a power of ten within the
    cap's O(1e-4) switch-point error of the scan's label boundaries; a
    test checks the scan's labels at the cap against tol at the
    reference triples and on the benchmark's box grid.

    Returns (a_star, trajectory at r_max with integrate_profile's default
    sampling, transcript): the transcript holds the final `lo` and `hi`,
    the `steps` (a, label, r_max, heuristic and the tol of the solve that
    labelled it), `n_heuristic` and `fallback`.
    """
    if not 0.0 <= a_tol < math.inf:
        raise ValueError(f"a_tol must be finite and >= 0, got {a_tol!r}")
    if not math.isfinite(16.0 * r_max):
        raise ValueError(f"r_max must keep 16 r_max finite, got {r_max!r}")
    args = (a_tol, r_max, tol)
    lo, hi, steps = _bisect(consts, bracket.lo, bracket.hi, *args,
                            graded=True)
    fallback = False
    for i, step in enumerate(steps):
        if step["a"] in (lo, hi) and step["tol"] > tol:
            full = _midpoint_step(consts, step["a"], r_max, tol, tol)
            if (full["label"], full["heuristic"]) != (step["label"],
                                                      step["heuristic"]):
                fallback = True
                break
            steps[i] = full
    if bracket.tol > tol and not fallback:
        fallback = any(
            end in (lo, hi)
            and classify(consts, end, bracket.r_max, tol).label != lab
            for end, lab in ((bracket.lo, "C"), (bracket.hi, "A")))
    if fallback:
        if bracket.tol > tol:
            bracket = _scan(consts, bracket.r_max, tol)
        lo, hi, steps = _bisect(consts, bracket.lo, bracket.hi, *args,
                                graded=False)
    a_star = 0.5 * (lo + hi)
    traj = integrate_profile(consts, a_star, r_max, tol)
    return a_star, traj, {"lo": lo, "hi": hi, "steps": steps,
                          "n_heuristic": sum(s["heuristic"] for s in steps),
                          "fallback": fallback}


def ode_residual(traj: ProfileTrajectory, consts: DerivedConstants) -> float:
    """Relative residual of the first-order system on the sampled grid.

    Differentiates the geometric samples with 4th-order central
    differences in ln r and compares against the right side, normalized
    by the local magnitude of the larger term.  Dense-output samples are
    smooth, so the bound is set by the integration tolerance, not the
    differencing.

    The f-equation residual is only meaningful where the profile bend
    a - f(r) rises above double-precision resolution of a: near the
    center f is flat to rounding (bend ~ r^{p/(p-1)}) and differencing
    it is pure noise against a vanishing slope scale, so those samples
    enter through the F-equation only.
    """
    r, f, F = traj.r, traj.f, traj.F
    q, N = consts.q, consts.N
    al, be = consts.alpha, consts.beta
    eta = np.log(r)
    rm = r[2:-2]
    fm, Fm, slope = f[2:-2], F[2:-2], traj.fprime[2:-2]
    dF_rhs = al * fm - (N - 1.0) * Fm / rm + be * rm * slope \
        - np.abs(slope) ** q
    dF_num = deta(eta, F) / rm
    df_num = deta(eta, f) / rm
    scale_F = np.maximum.reduce([np.abs(al * fm), np.abs(dF_num),
                                 np.full_like(fm, 1e-300)])
    scale_f = np.maximum(np.abs(slope), 1e-300)
    res_F = np.abs(dF_num - dF_rhs) / scale_F
    res_f = np.abs(df_num - slope) / scale_f
    resolved = (traj.a - fm) > 1e-3 * traj.a
    res_f = res_f[resolved]
    n = len(res_F) + len(res_f)
    return float(np.sqrt((np.sum(res_F ** 2) + np.sum(res_f ** 2)) / n))


def trajectory_csv(traj: ProfileTrajectory, consts: DerivedConstants) -> str:
    """Profile CSV: the run's parameters as comments, one row (r, f, F)
    per sample, events as comment lines.  `load_profile` reads it back."""
    meta = list(zip(PROFILE_META, (traj.a, consts.N, consts.p, consts.q,
                                   traj.tol)))
    return csv_text(meta, {k: getattr(traj, k) for k in PROFILE_COLUMNS},
                    [("event", *ev) for ev in traj.events])


def read_profile_csv(text: str):
    """Parse trajectory_csv output back into (meta, arrays, events).  The
    first line that is not a comment must name PROFILE_COLUMNS in order,
    and an event line must hold a kind and a radius."""
    meta, body, events = {}, [], []
    for line in filter(None, map(str.strip, text.splitlines())):
        if not line.startswith("#"):
            body.append(line)
            continue
        parts = [s.strip() for s in line[1:].split(",")]
        if parts[0] == "event":
            if len(parts) != 3:
                raise ValueError(f"event line must be '# event,kind,r', "
                                 f"got {line!r}")
            events.append((parts[1], float(parts[2])))
        elif len(parts) == 2:
            meta[parts[0]] = float(parts[1])
    header = ",".join(PROFILE_COLUMNS)
    if not body or body[0] != header:
        raise ValueError(f"header must be {header!r}, got "
                         f"{body[0] if body else ''!r}")
    if len(body) == 1:
        raise ValueError("no data rows")
    arr = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    return meta, dict(zip(PROFILE_COLUMNS, arr.T)), events


def load_profile(text: str):
    """The inverse of trajectory_csv: (consts, trajectory), built by
    `_trajectory` as for a solve.  Header keys outside PROFILE_META (the
    `# r0` line of older files) are ignored: r0 is the first r.  ValueError
    where read_profile_csv refuses the text, a parameter is missing, N is
    not a finite integer, a or tol is not finite and > 0, a sample read or
    derived is not finite, r is not > 0 and strictly increasing, or the
    triple leaves the box (RangeViolation)."""
    meta, cols, events = read_profile_csv(text)
    if missing := [k for k in PROFILE_META if k not in meta]:
        raise ValueError(f"missing parameters: {', '.join(missing)}")
    N = meta["N"]
    if not N.is_integer():
        raise ValueError(f"N must be a finite integer, got {N!r}")
    for k in ("a", "tol"):
        if not 0.0 < meta[k] < math.inf:
            raise ValueError(f"{k} must be finite and > 0, got {meta[k]!r}")
    consts = derive_constants(int(N), meta["p"], meta["q"])
    with np.errstate(over="ignore"):
        traj = _trajectory(consts, meta["a"], *cols.values(), events,
                           meta["tol"])
    names = [f"column {k}" for k in cols] + ["derived f'", "derived E"]
    for name, v in zip(names, (*cols.values(), traj.fprime, traj.energy)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has a sample that is not finite")
    if not traj.r[0] > 0.0:
        raise ValueError(f"r must be > 0, got {float(traj.r[0])!r}")
    if not (np.diff(traj.r) > 0.0).all():
        raise ValueError("r must be strictly increasing")
    return consts, traj

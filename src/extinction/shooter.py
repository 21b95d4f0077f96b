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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .exponents import (ExponentParams, DerivedConstants, csv_text, deta,
                        validate_range)

__all__ = [
    "ProfileState",
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
]

OVERFLOW_GUARD = 1e12

# event kinds, in solve_ivp event-list order
_EVENT_KINDS = (
    "W_PRIME_VANISHES",   # w' crosses 0 downward: interior maximum of w -> A
    "W_EXCEEDS_KSTAR",    # w crosses Kstar upward -> C
    "F_HITS_ZERO",        # momentum hits 0: slope vanishes with f > 0 -> A
    "PROFILE_HITS_ZERO",  # f crosses 0 (redundant guard; w' fires first) -> A
    "OVERFLOW_GUARD",     # |f|+|F| >= 1e12 (finite-precision safety)
)


@dataclass(frozen=True)
class ProfileState:
    r: float
    f: float
    F: float
    fprime: float


@dataclass
class ProfileTrajectory:
    a: float
    r: np.ndarray
    f: np.ndarray
    fprime: np.ndarray
    F: np.ndarray
    energy: np.ndarray
    events: list[tuple[str, float]]
    r0: float
    tol: float
    detail: str = ""

    @property
    def r_end(self) -> float:
        return float(self.r[-1])


@dataclass(frozen=True)
class Classification:
    label: str                 # "A" | "C" | "UNDETERMINED"
    witness_r: float
    detail: str = ""


@dataclass(frozen=True)
class Bracket:
    lo: float   # classified C
    hi: float   # classified A
    tol: float


def series_start(params: ExponentParams, consts: DerivedConstants,
                 a: float, r0: float) -> tuple[ProfileState, dict]:
    """Local expansion at the singular center.

    F grows linearly, F'(0) = alpha*a/N, and the profile bends like
    f(r0) = a - ((p-1)/p) (alpha a/N)^{1/(p-1)} r0^{p/(p-1)}.
    Returns the state and bounds on the dropped truncation terms.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    p, q, N = params.p, params.q, params.N
    c0 = consts.alpha * a / N
    f0 = a - (p - 1.0) / p * c0 ** (1.0 / (p - 1.0)) * r0 ** (p / (p - 1.0))
    F0 = c0 * r0
    # neglected contributions to F' at r0, relative to the leading alpha*a/N:
    # the absorption term |f'|^q and the beta r f' drift
    sig = q / (p - 1.0)
    trunc = {
        "F_rel_absorption": c0 ** (sig - 1.0) * r0 ** sig,
        "F_rel_drift": consts.beta * c0 ** ((2.0 - p) / (p - 1.0))
                       * r0 ** (p / (p - 1.0)),
        "f_abs_bend": a - f0,
    }
    fp0 = -abs(F0) ** ((2.0 - p) / (p - 1.0)) * F0
    return ProfileState(r0, f0, F0, fp0), trunc


def _default_r0(params: ExponentParams, a: float) -> float:
    # a-dependent scale keeps the series bend ~1e-30*a across the whole
    # bracket scan range
    return 1e-5 * a ** (-(2.0 - params.p) / params.p)


def _make_rhs(params: ExponentParams, consts: DerivedConstants):
    p, q, N = params.p, params.q, params.N
    al, be = consts.alpha, consts.beta
    e1 = 1.0 / (p - 1.0)
    e2 = q / (p - 1.0)

    def rhs(r, y):
        f, F = y
        aF = abs(F)
        slope = -math.copysign(aF ** e1, F)
        dF = al * f - (N - 1.0) * F / r + be * r * slope - aF ** e2
        return (slope, dF)

    return rhs


def _make_events(params: ExponentParams, consts: DerivedConstants):
    mu, Kst = consts.mu, consts.Kstar
    e1 = 1.0 / (params.p - 1.0)

    def ev_wprime(r, y):
        # sign of w' = r^{mu-1}(mu f + r f')
        f, F = y
        slope = -math.copysign(abs(F) ** e1, F)
        return r * slope + mu * f
    ev_wprime.terminal = True
    ev_wprime.direction = -1

    def ev_wK(r, y):
        return r ** mu * y[0] - Kst
    ev_wK.terminal = True
    ev_wK.direction = 1

    def ev_F0(r, y):
        return y[1]
    ev_F0.terminal = True
    ev_F0.direction = -1

    def ev_f0(r, y):
        return y[0]
    ev_f0.terminal = True
    ev_f0.direction = -1

    def ev_guard(r, y):
        return abs(y[0]) + abs(y[1]) - OVERFLOW_GUARD
    ev_guard.terminal = True
    ev_guard.direction = 1

    return [ev_wprime, ev_wK, ev_F0, ev_f0, ev_guard]


def energy(params: ExponentParams, consts: DerivedConstants,
           f: np.ndarray, fprime: np.ndarray) -> np.ndarray:
    """E = ((p-1)/p)|f'|^p + (alpha/2) f^2, non-increasing while f > 0."""
    p = params.p
    return (p - 1.0) / p * np.abs(fprime) ** p + 0.5 * consts.alpha * f ** 2


def _shoot(params: ExponentParams, consts: DerivedConstants, a: float,
           r_max: float, tol: float, dense: bool):
    """One DOP853 solve from the series start to the first decisive event
    or r_max.  Returns (sol, r0, events, r_end, detail); `sol.sol` is the
    dense interpolant only when `dense` is set.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    rep = validate_range(params.N, params.p, params.q)
    if not rep.ok:
        raise ValueError("; ".join(rep.violations))
    r0 = _default_r0(params, a)
    if r_max <= r0:
        raise ValueError("r_max must exceed the series-start radius")
    state0, _ = series_start(params, consts, a, r0)
    # DOP853: its 7th-order dense output keeps the sampled trajectory at
    # the integration tolerance; lower-order interpolants dominate the
    # ODE-residual check otherwise
    sol = solve_ivp(_make_rhs(params, consts), (r0, r_max),
                    (state0.f, state0.F), method="DOP853",
                    rtol=tol, atol=0.0,
                    events=_make_events(params, consts), dense_output=dense)
    events: list[tuple[str, float]] = []
    r_end = sol.t[-1]
    detail = ""
    if sol.status == 1:
        first = None
        for kind, te in zip(_EVENT_KINDS, sol.t_events):
            if len(te) and (first is None or te[0] < first[1]):
                first = (kind, float(te[0]))
        events.append(first)
        r_end = first[1]
    elif sol.status == 0:
        events.append(("RMAX_REACHED", float(r_end)))
    else:
        detail = f"integrator failure: {sol.message}"
    return sol, r0, events, r_end, detail


def integrate_profile(params: ExponentParams, consts: DerivedConstants,
                      a: float, r_max: float, tol: float = 1e-10,
                      n_samples: int = 16000) -> ProfileTrajectory:
    """Adaptive integration from the series start to the first decisive
    event or r_max.  Samples are geometric in r (uniform in ln r) from the
    dense output, so downstream log-log fits and finite differences in
    ln r see a uniform grid.
    """
    sol, r0, events, r_end, detail = _shoot(params, consts, a, r_max, tol,
                                            dense=True)
    rs = np.geomspace(r0, r_end, n_samples)
    ys = sol.sol(rs)
    f, F = ys[0], ys[1]
    p = params.p
    fprime = -np.sign(F) * np.abs(F) ** (1.0 / (p - 1.0))
    traj = ProfileTrajectory(
        a=a, r=rs, f=f, fprime=fprime, F=F,
        energy=energy(params, consts, f, fprime),
        events=events, r0=r0, tol=tol, detail=detail)
    return traj


def classify(params: ExponentParams, consts: DerivedConstants, a: float,
             r_max: float, tol: float = 1e-10) -> Classification:
    """Map the first decisive event to the shooting class.  Only the
    endpoint is read, so the solve keeps no dense output."""
    sol, _, events, r_end, detail = _shoot(params, consts, a, r_max, tol,
                                           dense=False)
    if detail:
        return Classification("UNDETERMINED", float(r_end), detail)
    kind, r_e = events[0]
    if kind in ("W_PRIME_VANISHES", "F_HITS_ZERO", "PROFILE_HITS_ZERO"):
        return Classification("A", r_e, kind)
    if kind == "W_EXCEEDS_KSTAR":
        return Classification("C", r_e, kind)
    if kind == "OVERFLOW_GUARD":
        return Classification("UNDETERMINED", r_e, "overflow guard tripped")
    w_end = r_e ** consts.mu * sol.y[0, -1]
    return Classification(
        "UNDETERMINED", r_e,
        f"r_max reached, w={w_end:.6g} in (0, Kstar), w' > 0")


def find_bracket(params: ExponentParams, consts: DerivedConstants,
                 r_max: float, tol: float = 1e-10) -> Bracket:
    """Scan a over powers of ten until one C (low side) and one A (high
    side) are found."""
    lo = hi = None
    for k in range(0, 13):
        lab = classify(params, consts, 10.0 ** k, r_max, tol).label
        if lab == "A":
            hi = 10.0 ** k
            break
        if lab == "C":
            lo = 10.0 ** k
    for k in range(0, -13, -1):
        if lo is not None:
            break
        lab = classify(params, consts, 10.0 ** k, r_max, tol).label
        if lab == "C":
            lo = 10.0 ** k
    if lo is None or hi is None:
        raise RuntimeError(
            f"bracket scan exhausted (|k| <= 12): lo={lo}, hi={hi}")
    return Bracket(lo=lo, hi=hi, tol=tol)


def _heuristic_side(params, consts, a, r_max, tol):
    """Nearness-to-Kstar heuristic for bisection midpoints that stay
    undetermined out to 16 times the bisection radius: compare the gap
    Kstar - w at r_max against the pure-power contraction of the gap at
    r_max/2.  A gap closing faster than r^{-theta} is heading across Kstar
    (C side); slower means the profile is falling away (A side).
    """
    traj = integrate_profile(params, consts, a, r_max, tol, n_samples=512)
    mu, Kst, th = consts.mu, consts.Kstar, consts.theta
    r_end = traj.r_end
    w_end = r_end ** mu * traj.f[-1]
    i_half = int(np.searchsorted(traj.r, 0.5 * r_end))
    r_h = traj.r[i_half]
    w_h = r_h ** mu * traj.f[i_half]
    gap_end = Kst - w_end
    gap_pred = (Kst - w_h) * (r_end / r_h) ** (-th)
    return "C" if gap_end < gap_pred else "A"


def find_profile(params: ExponentParams, consts: DerivedConstants,
                 bracket: Bracket, a_tol: float = 1e-10,
                 r_max: float = 100.0, tol: float = 1e-10):
    """Bisect the bracket until hi - lo <= a_tol * lo.

    Each midpoint is classified by one solve out to 16 r_max.  The solve
    stops at the first decisive event, so its label is the first one the
    radii r_max, 2 r_max, ..., 16 r_max would give, and the transcript
    records the smallest of those radii at or above the witness.  Midpoints
    still undetermined at 16 r_max are assigned by the gap-contraction
    heuristic there (flagged in the transcript).  Returns (a_star,
    trajectory at r_max with integrate_profile's default sampling,
    transcript).
    """
    lo, hi = bracket.lo, bracket.hi
    r_top = 16.0 * r_max
    transcript = []
    n_heuristic = 0
    while hi - lo > a_tol * lo:
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            break   # double precision exhausted
        cl = classify(params, consts, m, r_top, tol)
        heuristic = cl.label == "UNDETERMINED"
        if heuristic:
            lab = _heuristic_side(params, consts, m, r_top, tol)
            rm = r_top
            n_heuristic += 1
        else:
            lab = cl.label
            rm = r_max
            while rm < cl.witness_r and rm < r_top:
                rm *= 2.0
        transcript.append({"a": m, "label": lab, "r_max": rm,
                           "heuristic": heuristic})
        if lab == "C":
            lo = m
        else:
            hi = m
    a_star = 0.5 * (lo + hi)
    traj = integrate_profile(params, consts, a_star, r_max, tol)
    if n_heuristic:
        traj.detail = (f"{n_heuristic} bisection step(s) resolved by the "
                       "gap-contraction heuristic (undecidable at finite r)")
    return a_star, traj, {"lo": lo, "hi": hi, "steps": transcript,
                          "n_heuristic": n_heuristic}


def ode_residual(traj: ProfileTrajectory, params: ExponentParams,
                 consts: DerivedConstants) -> float:
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
    p, q, N = params.p, params.q, params.N
    al, be = consts.alpha, consts.beta
    h = math.log(r[1] / r[0])
    rm = r[2:-2]
    fm, Fm = f[2:-2], F[2:-2]
    slope = -np.sign(Fm) * np.abs(Fm) ** (1.0 / (p - 1.0))
    dF_rhs = al * fm - (N - 1.0) * Fm / rm + be * rm * slope \
        - np.abs(slope) ** q
    dF_num = deta(F, h) / rm
    df_num = deta(f, h) / rm
    scale_F = np.maximum.reduce([np.abs(al * fm), np.abs(dF_num),
                                 np.full_like(fm, 1e-300)])
    scale_f = np.maximum(np.abs(slope), 1e-300)
    res_F = np.abs(dF_num - dF_rhs) / scale_F
    res_f = np.abs(df_num - slope) / scale_f
    resolved = (traj.a - fm) > 1e-3 * traj.a
    res_f = res_f[resolved]
    n = len(res_F) + len(res_f)
    return float(np.sqrt((np.sum(res_F ** 2) + np.sum(res_f ** 2)) / n))


def trajectory_csv(traj: ProfileTrajectory, params: ExponentParams,
                   consts: DerivedConstants) -> str:
    """Profile CSV: the run's parameters as comments, one row per sample,
    events appended as comment lines."""
    mu = consts.mu
    meta = [("a", traj.a), ("N", params.N), ("p", params.p),
            ("q", params.q), ("r0", traj.r0), ("tol", traj.tol)]
    cols = {"r": traj.r, "f": traj.f, "fprime": traj.fprime, "F": traj.F,
            "w": traj.r ** mu * traj.f,
            "Wtail": traj.r ** (mu + 1.0) * traj.fprime, "E": traj.energy}
    return csv_text(meta, cols, [("event", *ev) for ev in traj.events])


def read_profile_csv(text: str):
    """Parse trajectory_csv output back into (params_dict, arrays, events)."""
    meta = {}
    rows = []
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = [s.strip() for s in line[1:].split(",")]
            if parts[0] == "event":
                events.append((parts[1], float(parts[2])))
            elif len(parts) == 2:
                meta[parts[0]] = float(parts[1])
            continue
        if line[0].isalpha():   # header
            continue
        rows.append(line)
    if not rows:
        raise ValueError("no data rows")
    arr = np.loadtxt(rows, delimiter=",", ndmin=2)
    cols = dict(zip(("r", "f", "fprime", "F", "w", "Wtail", "E"), arr.T))
    return meta, cols, events

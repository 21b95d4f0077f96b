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

Every solve runs through one scalar DOP853 kernel, `_dop853`: a plain
Python loop over the two floats (f, F) that keeps scipy's DOP853 method
(Hairer, Norsett & Wanner, Solving ODEs I, II.5) -- its initial step,
error norm, step control and event location.  On a two-component system
scipy's array-based driver spends most of its time on numpy call
overhead (array wrapping, small dot products, event bookkeeping) rather
than arithmetic.  The Butcher tableau is scipy's (scipy.integrate.DOP853),
written here as float literals and checked bit for bit by a test, so the
module imports no scipy and the kernel can be checked against scipy's own
solver.  The step and the interpolant are generated from those literals
and from the right side's one source template at import (`_step`,
`_dense_segment`): every stage is inlined, and each tableau row is one
literal sum over its nonzero coefficients, k0 * c0 + k3 * c3 + ..., left
to right, except the rows that sum to zero (the error estimate's and the
interpolant's), which are correctly rounded, fsum((k0 * c0, ...)).  So
no step loops over the tableau or calls the right side.  Event roots are
found on the step's interpolant by `_illinois`, regula falsi with the
Illinois modification, to brentq's stopping width at xtol = rtol = 4 eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

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
    of (r, f, F) and the slope f' there.  The kernel passes the slope of
    a step's last stage; where it is not given (the root search on the
    interpolant) it is formed from F.  Each event is signed to fire as
    it crosses 0 upward, so the two that fire downward, w' and F, are
    negated: negation is exact, and `_illinois` finds the same root of
    -g as of g.  Every event is terminal."""
    mu, Kst = consts.mu, consts.Kstar
    e1 = 1.0 / (consts.p - 1.0)

    def events(r, f, F, slope=None):
        if slope is None:
            slope = _slope(F, e1)
        # the sign of -w' = -r^{mu-1} (mu f + r f')
        return (-(r * slope + mu * f),
                _pow(r, mu) * f - Kst,
                -F,
                abs(f) + abs(F) - OVERFLOW_GUARD)

    return events


def energy(consts: DerivedConstants, f: np.ndarray,
           fprime: np.ndarray) -> np.ndarray:
    """E = ((p-1)/p)|f'|^p + (alpha/2) f^2, non-increasing while f > 0."""
    p = consts.p
    return (p - 1.0) / p * np.abs(fprime) ** p + 0.5 * consts.alpha * f ** 2


# scipy's DOP853 tableau (scipy.integrate.DOP853's class attributes) as
# float literals, written with repr(float(x)); row s of A is cut to the s
# stages it combines.  A test checks every literal against scipy's bit for
# bit, so the kernel steps with the coefficients of scipy's own solver.
_N_STAGES = 12
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
_A_EXTRA = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
_EPS = float(np.finfo(float).eps)


def _rms(u, v):
    return math.sqrt(u * u + v * v) / 2 ** 0.5


def _initial_step(rhs, r0, f0, F0, k0f, k0F, r_bound, rtol):
    """scipy's select_initial_step for an error estimator of order 7 and
    atol = 0, on the two components."""
    span = r_bound - r0
    sf, sF = abs(f0) * rtol, abs(F0) * rtol
    d0 = _rms(f0 / sf, F0 / sF)
    d1 = _rms(k0f / sf, k0F / sF)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    k1f, k1F = rhs(r0 + h0, f0 + h0 * k0f, F0 + h0 * k0F)
    d2 = _rms((k1f - k0f) / sf, (k1F - k0F) / sF) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


# The right side (f', F') at (r, f, F), written once as source: the
# `rhs` closure and the stages inlined into `_step` and `_dense_segment`
# are generated from it.  Its constants are al = alpha, be = beta,
# Nm1 = N - 1, e1 = 1/(p-1) and e2 = q/(p-1) (`_rhs_constants`).  A power
# that overflows raises OverflowError, which rejects a trial step.
_RHS = ("aF = abs({F}); {kf} = -copysign(aF ** e1, {F}); "
        "{kF} = al * {f} - Nm1 * {F} / {r} + be * {r} * {kf} - aF ** e2")


def _rhs_constants(consts: DerivedConstants):
    """(al, be, Nm1, e1, e2) of `_RHS` for the triple."""
    p = consts.p
    return (consts.alpha, consts.beta, consts.N - 1.0, 1.0 / (p - 1.0),
            consts.q / (p - 1.0))


def _sum_src(k, row):
    """Source of the sum of row[i] * k<i> over the nonzero row[i] only.

    A row that sums to c_s or 1 is a plain sum, left to right in row
    order: its terms are dominated by the state's own scale, and Python
    never reassociates a literal expression.  A row whose coefficients
    sum to zero, to the rounding of their literals (the error rows and
    the interpolant's), is fsum, correctly rounded: on a near-constant
    derivative its value is pure cancellation, so the error estimate,
    and with it the step control, does not depend on summation order."""
    terms = [f"{k}{i} * {c!r}" for i, c in enumerate(row) if c]
    if abs(fsum(row)) <= _EPS * fsum(map(abs, row)):
        return "fsum((%s,))" % ", ".join(terms)
    return "(%s)" % " + ".join(terms)


def _stage_src(s, r, a=None):
    """Source of stage s: the right side at radius r, at the state
    advanced by h times the combination `a` of the stages before it, or
    at (f_new, F_new) without one."""
    if a is None:
        head, f, F = "", "f_new", "F_new"
    else:
        head = (f"fs = f + {_sum_src('kf', a)} * h; "
                f"Fs = F + {_sum_src('kF', a)} * h; ")
        f, F = "fs", "Fs"
    return (f"    rs = {r}; {head}"
            + _RHS.format(r="rs", f=f, F=F, kf=f"kf{s}", kF=f"kF{s}"))


def _compile(name, lines):
    """The function `name` defined by the source lines, with fsum and
    copysign in its globals: built once at import, as dataclasses and
    namedtuple build their methods."""
    ns = {"fsum": fsum, "copysign": math.copysign}
    exec("\n".join(lines), ns)
    return ns[name]


def _names(k, stages):
    return ", ".join(f"{k}{s}" for s in stages)


# The right side as a closure over the constants of `_rhs_constants`.
_rhs = _compile("_rhs", [
    "def _rhs(al, be, Nm1, e1, e2):",
    "    def rhs(r, f, F):",
    "        " + _RHS.format(r="r", f="f", F="F", kf="kf", kF="kF"),
    "        return kf, kF",
    "    return rhs"])

# One trial step of size h from (r, f, F), with the right side's
# constants cs; Kf[0], KF[0] hold stage 0 on entry, and stages 1-12 on
# return (stage 12 is (f', F') at the new point: the next step's stage 0
# and the events' slope; the interpolant reads them all).  Returns
# (f_new, F_new) and the error rows' sums E5.Kf, E5.KF, E3.Kf, E3.KF.
# Its source lines are kept, for reading and for tests.
_STEP_SRC = [
    "def _step(r, h, f, F, Kf, KF, cs):",
    "    al, be, Nm1, e1, e2 = cs",
    "    kf0, kF0 = Kf[0], KF[0]",
    *(_stage_src(s, f"r + {_C[s]!r} * h", _A[s])
      for s in range(1, _N_STAGES)),
    f"    f_new = f + h * {_sum_src('kf', _B)}",
    f"    F_new = F + h * {_sum_src('kF', _B)}",
    _stage_src(_N_STAGES, "r + h"),
    f"    Kf[1:] = {_names('kf', range(1, _N_STAGES + 1))}",
    f"    KF[1:] = {_names('kF', range(1, _N_STAGES + 1))}",
    "    return (f_new, F_new,",
    *(f"            {_sum_src(k, e)}," for e in (_E5, _E3)
      for k in ("kf", "kF")),
    "            )"]
_step = _compile("_step", _STEP_SRC)

# The 7th-order interpolant of the step of size h from (r, f, F) to
# (f_new, F_new), whose 13 stages are in Kf, KF: the tuple (r, h, f, F,
# seven f coefficients, seven F coefficients).  Its three extra stages
# are computed here and kept nowhere else.
_dense_segment = _compile("_dense_segment", [
    "def _dense_segment(r, h, f, F, f_new, F_new, Kf, KF, cs):",
    "    al, be, Nm1, e1, e2 = cs",
    f"    {_names('kf', range(_N_STAGES + 1))} = Kf",
    f"    {_names('kF', range(_N_STAGES + 1))} = KF",
    *(_stage_src(s, f"r + {c!r} * h", a) for s, (a, c) in
      enumerate(zip(_A_EXTRA, _C_EXTRA), start=_N_STAGES + 1)),
    "    df, dF = f_new - f, F_new - F",
    "    return (r, h, f, F,",
    "            df, h * kf0 - df, 2 * df - h * (kf12 + kf0),",
    *(f"            h * {_sum_src('kf', d)}," for d in _D),
    "            dF, h * kF0 - dF, 2 * dF - h * (kF12 + kF0),",
    *(f"            h * {_sum_src('kF', d)}," for d in _D),
    "            )"])


def _interpolate(seg, r):
    """One step's interpolant at r, evaluated as scipy's Dop853DenseOutput
    does: from the highest coefficient down, times x and 1 - x in turn.
    Also takes arrays: seg as columns, one step per radius in r."""
    x = (r - seg[0]) / seg[1]
    yf = yF = 0.0
    for i in range(6, -1, -1):
        yf += seg[4 + i]
        yF += seg[11 + i]
        w = x if i % 2 == 0 else 1 - x
        yf *= w
        yF *= w
    return yf + seg[2], yF + seg[3]


def _sample(segments, r_end, rs):
    """(f, F) at the ascending radii rs, vectorised: each radius takes the
    earliest step whose closed interval holds it, as scipy's OdeSolution
    picks."""
    seg = np.array(segments)
    ts = np.append(seg[:, 0], r_end)
    k = np.clip(np.searchsorted(ts, rs, side="left") - 1, 0, len(seg) - 1)
    return _interpolate(seg[k].T, rs)


def _illinois(g, a, b, maxiter=100):
    """A root of g in [a, b], a < b, by regula falsi with the Illinois
    modification (Dowell & Jarratt, BIT 11, 1971): the secant through the
    bracket's ends, with the value at an end kept twice in a row halved.
    Each trial point is held 2 eps (1 + max |r|) inside the bracket, so
    the bracket shrinks on every step; once it is at most 4 eps (1 + min
    |r|) wide (brentq's stopping width at xtol = rtol = 4 eps), the end
    with the smaller |g|, as halved, is returned, or earlier a zero of g.
    Raises ValueError when g(a) and g(b) have the same sign or g returns
    NaN, RuntimeError after maxiter trial points."""
    def call(x):
        gx = g(x)
        if math.isnan(gx):
            raise ValueError(f"g({x!r}) is NaN")
        return gx

    ga, gb = call(a), call(b)
    if ga == 0 or gb == 0:
        return a if ga == 0 else b
    if (ga > 0) == (gb > 0):
        raise ValueError("g(a) and g(b) must have different signs")
    kept = 0   # -1 or +1 when the last trial point replaced b or a
    for _ in range(maxiter):
        if b - a <= 4 * _EPS * (1 + min(abs(a), abs(b))):
            return a if abs(ga) <= abs(gb) else b
        tol = 2 * _EPS * (1 + max(abs(a), abs(b)))
        x = min(b - tol, max(a + tol, a + ga / (ga - gb) * (b - a)))
        gx = call(x)
        if gx == 0:
            return x
        if (gx > 0) == (ga > 0):
            a, ga, gb, kept = x, gx, gb / 2 if kept > 0 else gb, 1
        else:
            b, gb, ga, kept = x, gx, ga / 2 if kept < 0 else ga, -1
    raise RuntimeError(f"no root to tolerance after {maxiter} trial points")


def _event_root(events, k, seg, r_old, r_new):
    return _illinois(lambda r: events(r, *_interpolate(seg, r))[k],
                     r_old, r_new)


def _dop853(consts: DerivedConstants, r, f, F, r_bound, rtol, dense):
    """Integrate the first-order system of consts from (r, f, F) towards
    r_bound with DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5),
    on floats.

    This is scipy's DOP853 solver, driven the way scipy drives it with
    atol = 0 and every event terminal: the same initial step, error
    norm, step factors and step-size floor, and the same event rule.
    Event k fires when the events' value k (`_make_events`) crosses 0
    upward over a step, from <= 0 to >= 0; its root is found by
    _illinois on the step's interpolant, and the earliest root among the
    events that fired ends the solve.  The events of an accepted step
    take its slope from stage 12, f' at the new point, and the list of
    those that fired is formed only where a value reached 0.
    Two departures: the tableau's sums are generated (`_step`,
    `_dense_segment`) over the nonzero coefficients only, and correctly
    rounded (fsum) only where the row sums to zero, and an event root is
    held to brentq's stopping width, not to brentq's own iterates.  The
    rows that cancel are the error rows and the interpolant's; fsum
    rounds the exact sum of their terms once, so the error estimate and
    the step control do not depend on summation order.  The stage and
    solution rows (summing to c_s and 1) are plain left-to-right sums,
    which differ from BLAS's dot by rounding only.  A trial step with a
    non-finite stage is rejected, as scipy rejects the NaN error such a
    step gives it: stages 0 and 5-11 enter the error sums, stages 1-4
    reach stage 5 through nonzero weights (and each stage taken at a
    non-finite state is non-finite), and stage 12, which the error rows
    weigh by 0, is tested on its own; so is an accepted step whose
    interpolant's extra stages overflow (at a loose rtol).

    Returns (status, r_end, f_end, F_end, k, segments): status 0 when
    r_bound is reached, 1 when event k fires at r_end, -1 when the step
    size falls below ten ulps of r.  segments holds every step's
    interpolant (for _sample) when `dense` is set, else is None.  The
    solve runs forward only: r_bound <= r raises ValueError, where the
    step loop would otherwise never reach it.
    """
    if not r < r_bound:   # a NaN bound too
        raise ValueError(f"r_bound must exceed the start r={r!r}, "
                         f"got {r_bound!r}")
    rtol = max(rtol, 100 * _EPS)
    cs = _rhs_constants(consts)
    rhs = _rhs(*cs)
    events = _make_events(consts)
    Kf, KF = [0.0] * (_N_STAGES + 1), [0.0] * (_N_STAGES + 1)
    Kf[0], KF[0] = rhs(r, f, F)
    h_abs = _initial_step(rhs, r, f, F, Kf[0], KF[0], r_bound, rtol)
    g = events(r, f, F, Kf[0])
    segments = [] if dense else None
    while True:
        min_step = 10 * abs(math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:   # a NaN step too
                return -1, r, f, F, None, segments
            r_new = min(r + h_abs, r_bound)
            h = r_new - r
            h_abs = abs(h)
            try:
                f_new, F_new, e5f, e5F, e3f, e3F = _step(r, h, f, F,
                                                         Kf, KF, cs)
                sf = max(abs(f), abs(f_new)) * rtol
                sF = max(abs(F), abs(F_new)) * rtol
                e5f, e5F, e3f, e3F = e5f / sf, e5F / sF, e3f / sf, e3F / sF
                e5 = e5f * e5f + e5F * e5F
                e3 = e3f * e3f + e3F * e3F
                # stage 12 meets only zero weights in the error sums
                if not (math.isfinite(Kf[12]) and math.isfinite(KF[12])):
                    err = math.nan
                elif e5 == 0 and e3 == 0:
                    err = 0.0
                else:
                    err = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
                if err < 1:
                    g_new = events(r_new, f_new, F_new, Kf[12])
                    fired = () if max(g_new) < 0 else [
                        k for k, v in enumerate(g) if v <= 0 <= g_new[k]]
                    if dense or fired:
                        seg = _dense_segment(r, h, f, F, f_new, F_new,
                                             Kf, KF, cs)
            except (OverflowError, ZeroDivisionError, ValueError):
                err = math.nan   # inf - inf in fsum is a ValueError
            # scipy's SAFETY 0.9, MIN_FACTOR 0.2, MAX_FACTOR 10 and error
            # exponent -1/(7 + 1)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        if dense:
            segments.append(seg)
        if fired:
            r_end, k = min((_event_root(events, k, seg, r, r_new), k)
                           for k in fired)
            return (1, r_end, *_interpolate(seg, r_end), k, segments)
        if r_new >= r_bound:
            return 0, r_new, f_new, F_new, None, segments
        r, f, F, g = r_new, f_new, F_new, g_new
        Kf[0], KF[0] = Kf[12], KF[12]


def _shoot(consts: DerivedConstants, a: float, r_max: float, tol: float,
           dense: bool):
    """One solve of the scalar DOP853 kernel `_dop853` from the series
    start to the first decisive event or r_max.

    The kernel's coefficients are scipy.integrate.DOP853's, as
    literals checked bit for bit against scipy's by a test, and its event
    radii match scipy's solver to about 1e-9 relative (its step sizes
    follow a cancelling error estimate, so they agree only to rounding
    noise).  The 7th-order interpolant is kept per step only when
    `dense` is set: it keeps the sampled trajectory at the integration
    tolerance, where lower-order interpolants would dominate the
    ODE-residual check.

    a, tol and r_max must be finite, or the step-size control cannot
    end, and tol > 0 (a positive tol below 100 ulp is raised to it).
    Kstar must be finite: where it overflows (q close to p-1) the C event
    cannot be tested, and the solve is refused.

    Returns (r0, events, r_end, f_end, F_end, segments): events is
    [(kind, r_end)] for the event, RMAX_REACHED or INTEGRATOR_FAILURE that
    ended the solve, and segments (for _sample) is None unless `dense`.
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
    status, r_end, f_end, F_end, k, segments = _dop853(
        consts, r0, *series_start(consts, a, r0), r_max, tol, dense)
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
    """
    r0, events, r_end, _, _, segments = _shoot(consts, a, r_max, tol,
                                               dense=True)
    rs = np.geomspace(r0, r_end, n_samples)
    return _trajectory(consts, a, rs, *_sample(segments, r_end, rs),
                       events, tol)


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
        detail = ("integrator failure: Required step size is less than "
                  "spacing between numbers.")
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
    side) are found.  The series start grows as a falls (p < 2), so the
    downward scan ends at the first a whose start is not below r_max.
    Each power is labelled by one solve at max(tol, 1e-4), the cap of the
    graded law; `find_profile` re-solves at tol an end that stays in its
    final bracket."""
    return _scan(consts, r_max, max(tol, _TOL_CAP))


def _scan(consts: DerivedConstants, r_max: float, tol: float) -> Bracket:
    """find_bracket's scan, every power labelled at tol."""
    lo = hi = None
    for k in range(0, 13):
        lab = classify(consts, 10.0 ** k, r_max, tol).label
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
        if classify(consts, a, r_max, tol).label == "C":
            lo = a
    if lo is None or hi is None:
        raise RuntimeError(
            f"bracket scan exhausted (|k| <= 12): lo={lo}, hi={hi}")
    return Bracket(lo, hi, r_max, tol)


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

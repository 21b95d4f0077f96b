"""The DOP853 integrator of every ODE solve: the profile's (f, F) system in
r (`shooter`) and the autonomous (X, Y, Z) flow in eta (`phase`).

It keeps scipy's DOP853 method (Hairer, Norsett & Wanner, Solving ODEs
I, II.5) -- its tableau, initial step, error norm, step control and event
location -- on plain floats: on a two- or three-component system scipy's
array-based driver spends most of its time on numpy call overhead rather
than arithmetic.  A system enters as its right side's source template and
its component names (`kernel`): the step, the interpolant and the error
norm are generated from them and from the tableau, as literals (`_A`
...), written out per component, so no loop over components runs in a
step.  `drive` is the one driver, forward or backward; it states its
departures from scipy and its step budget.  The kernel's `interp` and
`sample` read the 7th-order interpolant of the steps a dense solve keeps.
Importing this module generates nothing: each caller builds its kernels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import fsum

import numpy as np

__all__ = ["kernel", "drive", "sample", "STEP_BUDGET", "RTOL_FLOOR"]

# budgets: trial steps (accepted plus rejected) of one solve of `drive`,
# the profile's or the phase flow's, and regula falsi points of one event
# root before `_illinois` bisects; the 17 benchmark finds take at most 125
# and 26 (over 519 solves, 503 roots), `phase --x0` over eta in [0, 10]
# takes 129
STEP_BUDGET = 100_000
_SECANT_POINTS = 50

# scipy's DOP853 tableau (the class attributes of scipy's DOP853 solver) as
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
# the least rtol a solve takes, 100 ulp (as scipy raises a smaller one)
RTOL_FLOOR = 100 * _EPS


def _rms(xs, scale):
    """The rms of xs / scale, its squares summed left to right."""
    s = 0.0
    for x, c in zip(xs, scale):
        u = x / c
        s += u * u
    return math.sqrt(s) / len(xs) ** 0.5


def _initial_step(rhs, t0, y0, k0, t_bound, rtol, atol):
    """scipy's select_initial_step for an error estimator of order 7, from
    the state y0 and its derivative k0 at t0 towards t_bound, as a size.
    It runs once a solve, so it loops over the components."""
    span = t_bound - t0
    scale = [atol + abs(y) * rtol for y in y0]
    d0, d1 = _rms(y0, scale), _rms(k0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(span))
    h = math.copysign(h0, span)
    k1 = rhs(t0 + h, *[y + h * k for y, k in zip(y0, k0)])
    d2 = _rms([b - a for a, b in zip(k0, k1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, abs(span))


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


def _stage_src(rhs, ys, s, r, a=None):
    """Source of stage s of the right side rhs over the components ys: rhs
    at radius r, at the state advanced by h times the combination `a` of
    the stages before it, or at the new state (y_new) without one."""
    if a is None:
        head, at = "", {y: f"{y}_new" for y in ys}
    else:
        head = "".join(f"{y}s = {y} + {_sum_src('k' + y, a)} * h; "
                       for y in ys)
        at = {y: f"{y}s" for y in ys}
    return (f"    rs = {r}; {head}"
            + rhs.format(r="rs", **at, **{f"k{y}": f"k{y}{s}" for y in ys}))


def _list(fmt, ys):
    """fmt formatted with each of ys (component names or stages),
    comma-separated."""
    return ", ".join(fmt.format(y) for y in ys)


def _rhs_src(rhs, ys, cs):
    """The right side as a closure over the constants cs."""
    return [f"def _rhs({cs}):",
            f"    def rhs(r, {_list('{}', ys)}):",
            "        " + rhs.format(r="r", **{y: y for y in ys},
                                    **{f"k{y}": f"k{y}" for y in ys}),
            f"        return {_list('k{}', ys)}",
            "    return rhs"]


def _step_src(rhs, ys, cs):
    """One trial step of size h from (r, *ys), with the right side's
    constants cs; K<y>[0] holds stage 0 of component y on entry, and
    stages 1-12 on return (stage 12 is the derivative at the new point:
    the next step's stage 0, and the events' slope; the interpolant reads
    them all).  Returns the new state and the error rows' sums, E5 then
    E3, each over the components in order."""
    return [
        f"def _step(r, h, {_list('{}', ys)}, {_list('K{}', ys)}, cs):",
        f"    {cs} = cs",
        f"    {_list('k{}0', ys)} = {_list('K{}[0]', ys)}",
        *(_stage_src(rhs, ys, s, f"r + {_C[s]!r} * h", _A[s])
          for s in range(1, _N_STAGES)),
        *(f"    {y}_new = {y} + h * {_sum_src('k' + y, _B)}" for y in ys),
        _stage_src(rhs, ys, _N_STAGES, "r + h"),
        *(f"    K{y}[1:] = {_list(f'k{y}{{}}', range(1, _N_STAGES + 1))}"
          for y in ys),
        f"    return ({_list('{}_new', ys)},",
        *(f"            {_sum_src('k' + y, e)}," for e in (_E5, _E3)
          for y in ys),
        "            )"]


def _segment_src(rhs, ys, cs):
    """The 7th-order interpolant of the step of size h from (r, *ys) to
    the new state, whose 13 stages are in the K lists: the tuple (r, h,
    the state, seven coefficients per component).  Its three extra stages
    are computed here and kept nowhere else."""
    last = _N_STAGES
    return [
        f"def _dense_segment(r, h, {_list('{}', ys)}, {_list('{}_new', ys)}, "
        f"{_list('K{}', ys)}, cs):",
        f"    {cs} = cs",
        *(f"    {_list(f'k{y}{{}}', range(last + 1))} = K{y}" for y in ys),
        *(_stage_src(rhs, ys, s, f"r + {c!r} * h", a) for s, (a, c) in
          enumerate(zip(_A_EXTRA, _C_EXTRA), start=last + 1)),
        f"    {_list('d{}', ys)} = {_list('{0}_new - {0}', ys)}",
        f"    return (r, h, {_list('{}', ys)},",
        *(line for y in ys for line in (
            f"            d{y}, h * k{y}0 - d{y}, "
            f"2 * d{y} - h * (k{y}{last} + k{y}0),",
            *(f"            h * {_sum_src('k' + y, d)}," for d in _D))),
        "            )"]


def _interp_src(ys):
    """Every component of one step's interpolant at r, from
    `_dense_segment`'s tuple seg, evaluated as scipy's Dop853DenseOutput
    does: from 0, the highest coefficient down, times x and 1 - x in
    turn.  Also takes arrays: seg as columns, one step per radius in r."""
    n = len(ys)
    src = ["def _interp(seg, r):",
           "    x = (r - seg[0]) / seg[1]",
           "    u = 1 - x"]
    for i, y in enumerate(ys):
        c = 2 + n + 7 * i
        src += [f"    {y} = (0.0 + seg[{c + 6}]) * x",
                *(f"    {y} = ({y} + seg[{c + j}]) * {'xu'[j % 2]}"
                  for j in range(5, 0, -1)),
                f"    {y} = ({y} + seg[{c}]) * x + seg[{2 + i}]"]
    return src + [f"    return {_list('{}', ys)}"]


def _trial_src(ys, atol):
    """One trial step: `_step`, called by name, from the state y at r,
    then scipy's error norm on the scale atol + max(|y|, |y_new|) rtol.
    Returns (err, y_new), err NaN where stage 12, which the error rows
    weigh by 0, is not finite; a zero scale raises ZeroDivisionError."""
    scale = " * rtol" + (f" + {atol!r}" if atol else "")
    errs = [f"e{o}{y}" for o in (5, 3) for y in ys]
    new = _list("{}_new", ys)
    return [
        "def _trial(r, h, y, K, cs, rtol):",
        f"    {_list('{}', ys)} = y",
        f"    {_list('K{}', ys)} = K",
        f"    {new}, {', '.join(errs)} = _step(r, h, {_list('{}', ys)}, "
        f"{_list('K{}', ys)}, cs)",
        *(f"    s{y} = max(abs({y}), abs({y}_new)){scale}" for y in ys),
        f"    {', '.join(errs)} = "
        + ", ".join(f"{e} / s{e[2:]}" for e in errs),
        *(f"    e{o} = " + " + ".join(f"e{o}{y} * e{o}{y}" for y in ys)
          for o in (5, 3)),
        "    if not (" + " and ".join(
            f"isfinite(K{y}[{_N_STAGES}])" for y in ys) + "):",
        f"        return nan, ({new})",
        "    if e5 == 0 and e3 == 0:",
        f"        return 0.0, ({new})",
        f"    return abs(h) * e5 / sqrt((e5 + 0.01 * e3) * {len(ys)}), ({new})"]


# A system's DOP853 kernel (`kernel`): var names the independent variable
# in messages, atol floors the error scale, rhs(*cs) -> rhs(r, *y), then
# segment, trial, carry and interp; ns is their namespace, src the source
# run there.
_Kernel = namedtuple("_Kernel",
                     "var atol rhs segment trial carry interp ns src")


def kernel(template, names, constants, atol=0.0, var="r"):
    """The DOP853 kernel of the system whose right side is the source
    template: {r} is the independent variable, and for each component
    name y in names, {y} its value and {ky} the derivative the template
    assigns.  constants names the constants the caller passes as one
    tuple.  Each function is written out per component, so no loop over
    components runs in a step: `_rhs`, `_step`, `_dense_segment`,
    `_trial` (a call of `_step` and its error norm on the scale atol + |y|
    rtol), `_carry`, which moves an accepted step's stage 12 to stage 0,
    and `_interp`, every component of one step's interpolant.  They are
    defined, once, in a namespace of their own, with the math they call,
    as dataclasses and namedtuple build their methods; `_trial` reads
    `_step` there by name.  Every call generates and compiles anew,
    so a caller builds each kernel once."""
    rhs, ys, cs = template, names, constants
    ns = dict(fsum=fsum, copysign=math.copysign, isfinite=math.isfinite,
              nan=math.nan, sqrt=math.sqrt)
    src = (*_rhs_src(rhs, ys, cs), *_step_src(rhs, ys, cs),
           *_segment_src(rhs, ys, cs), *_trial_src(ys, atol),
           f"def _carry({_list('K{}', ys)}):",
           *(f"    K{y}[0] = K{y}[{_N_STAGES}]" for y in ys),
           *_interp_src(ys))
    exec("\n".join(src), ns)
    return _Kernel(var, atol, ns["_rhs"], ns["_dense_segment"], ns["_trial"],
                   ns["_carry"], ns["_interp"], ns, src)


def sample(system, segments, r_end, rs):
    """The components at the radii rs of a dense solve of the kernel
    `system`, ordered as the solve ran, vectorised: each radius takes the
    earliest step whose closed interval holds it, as scipy's OdeSolution
    picks."""
    seg = np.array(segments)
    d = math.copysign(1.0, seg[0, 1])
    ts = np.append(seg[:, 0], r_end)
    k = np.clip(np.searchsorted(d * ts, d * rs, side="left") - 1, 0,
                len(seg) - 1)
    return system.interp(seg[k].T, rs)


def _illinois(g, a, b, maxiter=_SECANT_POINTS + 1100):
    """A root of g in [a, b], a < b, by regula falsi with the Illinois
    modification (Dowell & Jarratt, BIT 11, 1971): the secant through the
    bracket's ends, with the value at an end kept twice in a row halved;
    past _SECANT_POINTS trial points, bisection, which cannot stall on one
    end (Brent, Algorithms for Minimization without Derivatives, ch. 4).
    Each trial point is held 2 eps (1 + max |r|) inside the bracket, so
    the bracket shrinks on every step; once it is at most 4 eps (1 + min
    |r|) wide (brentq's stopping width at xtol = rtol = 4 eps), the end
    with the smaller |g|, as halved, is returned, or earlier a zero of g.
    maxiter leaves room for 1,075 halvings, 2^1025 to 2^-50.  Raises
    ValueError when g(a) and g(b) have the same sign, RuntimeError when g
    returns NaN or after maxiter trial points."""
    def call(x):
        gx = g(x)
        if math.isnan(gx):
            raise RuntimeError(f"g({x!r}) is NaN")
        return gx

    ga, gb = call(a), call(b)
    if ga == 0 or gb == 0:
        return a if ga == 0 else b
    if (ga > 0) == (gb > 0):
        raise ValueError("g(a) and g(b) must have different signs")
    kept = 0   # -1 or +1 when the last trial point replaced b or a
    for i in range(maxiter):
        if b - a <= 4 * _EPS * (1 + min(abs(a), abs(b))):
            return a if abs(ga) <= abs(gb) else b
        tol = 2 * _EPS * (1 + max(abs(a), abs(b)))
        x = (a + ga / (ga - gb) * (b - a) if i < _SECANT_POINTS
             else 0.5 * a + 0.5 * b)
        x = min(b - tol, max(a + tol, x))
        gx = call(x)
        if gx == 0:
            return x
        if (gx > 0) == (ga > 0):
            a, ga, gb, kept = x, gx, gb / 2 if kept > 0 else gb, 1
        else:
            b, gb, ga, kept = x, gx, ga / 2 if kept < 0 else ga, -1
    raise RuntimeError(f"no root to tolerance after {maxiter} trial points")


def drive(system, cs, events, t, y, t_bound, rtol, dense):
    """Integrate the system of the kernel `system` (`kernel`), with
    constants cs, from the state y at t towards t_bound, on either side
    (a negative step size backward), with DOP853, on floats: the one
    driver of every solve.

    This is scipy's DOP853 solver, driven the way scipy drives it with every
    event terminal: the same initial step, error norm, step factors,
    step-size floor and rtol floor (RTOL_FLOOR), and the same event rule.
    events(t, *y, dy0) returns the events' values, dy0 the first component's
    derivative there, which events forms itself where it is not given.
    Event k fires when value k crosses 0 upward over a step, from <= 0 to
    >= 0; its root is found by _illinois on value k of events at the step's
    interpolant (`_interp`), and the first root the solve reaches among the
    events that fired ends the solve.  The events of an accepted step take
    dy0 from stage 12, the derivative at the new point, and the list of
    those that fired is formed only where a value reached 0.  Two
    departures: the tableau's sums (`_sum_src`), which differ from BLAS's
    dot by rounding only, and an event root held to brentq's stopping
    width, not to brentq's own iterates.  A trial step with a non-finite
    stage is rejected, as scipy rejects the NaN error such a step gives it:
    stages 0 and 5-11 enter the error sums, stages 1-4 reach stage 5
    through nonzero weights (and each stage taken at a non-finite state is
    non-finite), and stage 12, which the error rows weigh by 0, is tested
    on its own (`_trial`); so is an accepted step whose interpolant's extra
    stages overflow (at a loose rtol).  The state is a tuple, and every
    component-wise operation of a step is generated (`kernel`).

    Returns (status, t_end, y_end, k, segments): status 0 when t_bound is
    reached, 1 when event k fires at t_end, -1 when the step size falls
    below ten ulps of t, measured towards t_bound; an event already > 0
    at the start, which no crossing reports, fires there (the guard
    first).  segments holds every step's interpolant (for `sample`) when
    `dense` is set, else None.  A t_bound equal to t, or NaN, raises
    ValueError, where the step loop would otherwise never reach it.  A
    solve past STEP_BUDGET trial steps raises RuntimeError, naming the
    rtol it ran at and its step size as a fraction of |t|.
    """
    var = system.var
    if not abs(t_bound - t) > 0:   # a NaN bound too
        raise ValueError(f"{var}_bound must differ from the start "
                         f"{var}={t!r}, got {t_bound!r}")
    d = math.copysign(1.0, t_bound - t)
    clip = min if d > 0 else max
    rtol = max(rtol, RTOL_FLOOR)
    segment, trial, carry, interp = (system.segment, system.trial,
                                     system.carry, system.interp)
    rhs = system.rhs(*cs)
    k0 = rhs(t, *y)
    K = tuple([k] + [0.0] * _N_STAGES for k in k0)
    g = events(t, *y, k0[0])
    segments = [] if dense else None
    if max(g) > 0:
        return 1, t, y, max(k for k, v in enumerate(g) if v > 0), segments
    h_abs = _initial_step(rhs, t, y, k0, t_bound, rtol, system.atol)
    budget = STEP_BUDGET
    while True:
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:   # a NaN step too
                return -1, t, y, None, segments
            budget -= 1
            if budget < 0:
                raise RuntimeError(
                    f"step budget of {STEP_BUDGET} trial steps exhausted "
                    f"at {var}={t!r} (rtol {rtol:.3g}, step "
                    f"{h_abs / abs(t) if t else math.inf:.3g} |{var}|)")
            t_new = clip(t + d * h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            try:
                err, y_new = trial(t, h, y, K, cs, rtol)
                if err < 1:
                    g_new = events(t_new, *y_new, K[0][12])
                    fired = () if max(g_new) < 0 else [
                        k for k, v in enumerate(g) if v <= 0 <= g_new[k]]
                    if dense or fired:
                        seg = segment(t, h, *y, *y_new, *K, cs)
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
            t_end, k = min(((_illinois(
                lambda r: events(r, *interp(seg, r))[k], *sorted((t, t_new))),
                k) for k in fired), key=lambda e: (d * e[0], e[1]))
            return 1, t_end, interp(seg, t_end), k, segments
        if t_new == t_bound:
            return 0, t_new, y_new, None, segments
        t, y, g = t_new, y_new, g_new
        carry(*K)

"""Radial solver for u_t - div(|grad u|^{p-2} grad u) + |grad u|^q = 0.

Evolves the reconstructed self-similar solution
u(t,x) = (T-t)^alpha f(|x| (T-t)^beta) on a fixed radial grid and measures
the extinction exponents (sup-norm slope alpha, weighted-L1 slope
alpha - N beta) and the maximal relative deviation from exact
self-similarity across geometric checkpoints.

Space: conservative finite volumes on cells centered at (i+1/2) dx with
face flux Phi_eps(s) = (s^2 + eps^2)^{(p-2)/2} s (mobility regularized:
|s|^{p-2} is unbounded at s = 0 for p < 2), symmetry at r = 0, and a
time-dependent Dirichlet ghost carrying the exact self-similar value at
r = L + dx/2.  The absorption term uses the raw magnitude |s|^q: the
regularized magnitude would make u = 0 a strict subsolution (a spurious
sink -eps^q) and break nonnegativity of compactly supported data.

Time: implicit_step is one update formula, variable-step BDF2 with the
mobility lagged and the absorption explicit, both at the extrapolated
state (one tridiagonal solve per step, by LAPACK's dgtsv); at step ratio
0 it is backward Euler.  run_and_measure steps through the same kernel at
dt ~ dt_frac (T-t), planned in tau = ln(T/(T-t)), with a time error of
O(dt_frac^2).  The explicit absorption's bound dt <= 0.4 dx / (q G^{q-1})
(G the largest slope) is planned in as a cap, half the bound at the
self-similar slope G(t) = G0 ((T-t)/T)^{alpha+beta} from the initial
datum's G0, and still checked on every step.  That schedule depends on t
and the initial datum alone, so it is fixed before the first step: one
`exact` call gives every Dirichlet ghost, one step kernel holds the grid
geometry, and the loop advances a bare array.

The mobility floor eps under-transports wherever the true |s| < eps, so a
fixed eps stalls refinement; eps shrinks with both the mesh and the
solution scale, eps(t) = KAPPA dx (T-t)^{alpha+beta}, matching the decay
of the self-similar slope field.  KAPPA is fixed, so metrics.json does
not record it.

SelfSimilarField.exact is the one reconstruction of the exact solution
(initial data, Dirichlet ghost, reference of the self-similar error).
The module writes no file: metrics_json and snapshot_csv return text.

The tridiagonal solve calls LAPACK's dgtsv (Anderson et al., LAPACK
Users' Guide, 3rd ed., SIAM 1999) through ctypes in the LAPACK that numpy
links: the shared object of numpy.linalg.lapack_lite exports it as the
ILP64 symbol scipy_dgtsv_64_, whose integer arguments are 64-bit.  With
a numpy that lacks the symbol, building a step kernel raises RuntimeError.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from dataclasses import dataclass, field
from operator import ipow

import numpy as np

from .exponents import DerivedConstants, csv_text, json_text, log_fit
from .tail import certify_B, fit_tail

__all__ = [
    "RadialGrid",
    "SelfSimilarField",
    "ExtinctionMetrics",
    "profile_interpolant",
    "build_initial",
    "implicit_step",
    "run_and_measure",
    "metrics_json",
    "snapshot_csv",
]

NEG_CLIP_TOL = 1e-10
# mobility floor eps(t) = KAPPA dx (T-t)^{alpha+beta} of run_and_measure
KAPPA = 0.016
# zero-stability limit of the variable-step BDF2 step ratio
_OMEGA_MAX = 1.0 + math.sqrt(2.0)
# explicit absorption bound dt <= _CFL dx / (q G^{q-1}), G the max slope:
# checked on every step, and planned into run_and_measure's schedule
_CFL = 0.4


@dataclass(frozen=True)
class RadialGrid:
    """M cells on [0, L]; face areas and volumes take the profile's N."""
    L: float
    M: int
    dx: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0) or self.M < 1:
            raise ValueError("need a finite L > 0 and M >= 1")
        object.__setattr__(self, "dx", self.L / self.M)

    def centers(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.dx

    def faces(self) -> np.ndarray:
        return np.arange(self.M + 1) * self.dx

    def face_areas(self, N: int) -> np.ndarray:
        return self.faces() ** (N - 1)

    def cell_volumes(self, N: int) -> np.ndarray:
        rf = self.faces()
        return (rf[1:] ** N - rf[:-1] ** N) / N


@dataclass
class SelfSimilarField:
    T: float
    t: float
    values: np.ndarray
    profile: object        # callable f(r), vectorized
    consts: DerivedConstants
    n_clipped: int = 0

    def exact(self, t, x) -> np.ndarray:
        """Exact self-similar solution at the times t and radii x."""
        al, be = self.consts.alpha, self.consts.beta
        return (self.T - t) ** al * self.profile(x * (self.T - t) ** be)


@dataclass
class ExtinctionMetrics:
    alpha_est: float
    l1_exponent_est: float
    selfsim_error: float
    stable: bool
    grid_L: float
    grid_M: int
    t_end: float
    steps: int
    n_clipped: int
    snapshots: list = field(default_factory=list, repr=False)


def profile_interpolant(traj, consts: DerivedConstants, A_est: float):
    """Piecewise profile beyond the sampled range.

    r < r0: the center series a - ((p-1)/p)(alpha a / N)^{1/(p-1)}
    r^{p/(p-1)} (exact value a at r = 0).  Sampled range: cubic Hermite
    in log-log with exact slopes, the solve's r f'/f.  r > r_max: the
    fitted tail Kstar r^{-mu} (1 - (A_est/Kstar) r^{-theta}).
    """
    p, N = consts.p, consts.N
    al, mu, Kst, th = consts.alpha, consts.mu, consts.Kstar, consts.theta
    r = np.asarray(traj.r, float)
    f = np.asarray(traj.f, float)
    pos = f > 0.0
    r, f, fp = r[pos], f[pos], np.asarray(traj.fprime, float)[pos]
    lr, lf, d = np.log(r), np.log(f), r * fp / f
    r0, r1 = r[0], r[-1]
    a = traj.a
    c_bend = (p - 1.0) / p * (al * a / N) ** (1.0 / (p - 1.0))

    def hermite(x):
        # t in [0, 1] on [lr[k], lr[k+1]]; value basis as lf[k] + (2t - 3)
        # t^2 (lf[k] - lf[k+1]), slope basis t (t - 1)^2 and (t - 1) t^2
        z = np.log(x)
        k = np.clip(np.searchsorted(lr, z, side="right") - 1, 0, len(lr) - 2)
        h = lr[k + 1] - lr[k]
        t = (z - lr[k]) / h
        t2 = t * t
        return np.exp((2.0 * t - 3.0) * t2 * (lf[k] - lf[k + 1]) + lf[k]
                      + h * ((t2 - 2.0 * t + 1.0) * t * d[k]
                             + (t - 1.0) * t2 * d[k + 1]))

    def f_of(x):
        x = np.asarray(x, float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x).astype(float)
        out = np.empty_like(x)
        lo = x < r0
        hi = x > r1
        mid = ~(lo | hi)
        out[lo] = a - c_bend * x[lo] ** (p / (p - 1.0))
        out[mid] = hermite(x[mid])
        xh = x[hi]
        out[hi] = Kst * xh ** (-mu) * (1.0 - (A_est / Kst) * xh ** (-th))
        return out[0] if scalar else out

    return f_of


def _scale_ok(s: float, consts: DerivedConstants) -> bool:
    e = (consts.alpha + consts.beta) * math.log10(s) if s > 0.0 else -math.inf
    return sys.float_info.min_10_exp < e < sys.float_info.max_10_exp


def build_initial(traj, consts: DerivedConstants, T: float,
                  grid: RadialGrid) -> SelfSimilarField:
    """Sample u(0, x) = T^alpha f(x T^beta) onto the grid.

    T must be finite and > 0 with T^(alpha + beta), the run's largest
    power of T - t (the mobility floor's), a normal double (ValueError).
    The trajectory must certify as fast-decay (the tail extension and the
    Dirichlet ghost are only exact for that branch), and L must make
    u(0, L) <= 1e-3 u(0, 0) and u(0, x) > 0 in cell 0 (RuntimeError).
    """
    if not _scale_ok(T, consts):
        raise ValueError("T must be finite and > 0 with T^(alpha + beta) a "
                         f"normal double, got {T!r}")
    cert = certify_B(traj, consts)
    if not cert.ok:
        bad = [k for k, v in cert.checks.items() if not v]
        raise RuntimeError(f"profile not certified fast-decay: {bad}")
    fit = fit_tail(traj, consts)
    f_of = profile_interpolant(traj, consts, fit.A_est)
    fld = SelfSimilarField(T=T, t=0.0, values=None, profile=f_of,
                           consts=consts)
    u0 = fld.values = fld.exact(0.0, grid.centers())
    if not u0[0] > 0.0:
        raise RuntimeError(f"L too large: u(0,x) = {u0[0]:.3g} in cell 0")
    if u0[-1] > 1e-3 * u0[0]:
        raise RuntimeError(
            f"L too small: u(0,L)/u(0,0) = {u0[-1] / u0[0]:.3g} > 1e-3")
    return fld


@functools.cache
def _dgtsv():
    """LAPACK's dgtsv(n, nrhs, dl, d, du, b, ldb, info) from numpy's LAPACK,
    every argument by reference and the integers 64-bit; looked up once."""
    from numpy.linalg import lapack_lite
    try:
        fn = ctypes.CDLL(lapack_lite.__file__).scipy_dgtsv_64_
    except AttributeError:
        raise RuntimeError("numpy's LAPACK (numpy.linalg.lapack_lite) does "
                           "not export scipy_dgtsv_64_") from None
    fn.restype = None
    return fn


def _tridiagonal_solve(dl, d, du, b):
    """solve() runs dgtsv on these float64 buffers in place: b becomes the
    solution of the system with sub-, main and super-diagonals dl, d and
    du, which it overwrites; info != 0 raises RuntimeError.  The arguments
    (whose pointers keep their buffers alive) are built here once:
    building them costs about three times the call."""
    n, nrhs = ctypes.c_int64(d.size), ctypes.c_int64(1)
    info = ctypes.c_int64()
    args = (ctypes.byref(n), ctypes.byref(nrhs),
            *(a.ctypes.data_as(ctypes.c_void_p) for a in (dl, d, du, b)),
            ctypes.byref(n), ctypes.byref(info))
    fn = _dgtsv()

    def solve():
        fn(*args)
        if info.value != 0:
            raise RuntimeError(f"tridiagonal solve failed: info={info.value}")

    return solve


def _make_step(grid: RadialGrid, consts: DerivedConstants):
    """implicit_step's update on `grid` as step(u, u_prev, om, eps, dt,
    ghost, sup) -> (new, n_clip, max(new)), with sup = ||u||_inf; om = 0
    is backward Euler.  The work arrays ([u*, ghost], face slopes and
    weights, both 0 at face 0, mobilities, absorption, the right side) and
    the dgtsv call on them (_tridiagonal_solve) are made here once; `new`
    is a fresh array.  The weights are stored negated, as the matrix's
    off-diagonals."""
    M, dx, q, e_mob = grid.M, grid.dx, consts.q, 0.5 * (consts.p - 2.0)
    V, Af1 = grid.cell_volumes(consts.N), grid.face_areas(consts.N)[1:]
    ext, s, w = np.empty(M + 1), np.zeros(M + 1), np.zeros(M + 1)
    mob, ab, tmp, h = np.empty(M), np.empty(M), np.empty(M), np.empty(M)
    du = np.empty(M - 1)
    us, ext1 = ext[:M], ext[1:]
    s0, s1, w0, w1, wm = s[:-1], s[1:], w[:-1], w[1:], w[1:M]
    # dgtsv overwrites both off-diagonals: the sub one is w's interior
    # faces, rebuilt every step, and the super one their copy in du
    solve = _tridiagonal_solve(wm, tmp, du, h)

    def step(u, u_prev, om, eps, dt, ghost, sup):
        a0 = (1.0 + 2.0 * om) / (1.0 + om)
        np.multiply(1.0 + om, u, out=ab)
        np.multiply(om * om / (1.0 + om), u_prev, out=tmp)
        np.subtract(ab, tmp, out=h)
        np.multiply(om, u_prev, out=tmp)
        np.subtract(ab, tmp, out=us)
        ext[M] = ghost
        np.subtract(ext1, us, out=s1)
        np.divide(s1, dx, out=s1)
        # absorption CFL, G = max |s| (NaN first); argmax beats a reduce
        G = float(max(s[s.argmax()], -s[s.argmin()]))
        if G > 0.0 and dt > (cfl := _CFL * dx / (q * G ** (q - 1.0))):
            raise RuntimeError(f"dt={dt:.3g} violates absorption CFL "
                               f"{cfl:.3g}")
        # mobilities; ipow is `**=`, dispatched as `**` is (0.5: np.sqrt)
        np.multiply(s1, s1, out=mob)
        np.add(mob, eps * eps, out=mob)
        ipow(mob, e_mob)
        # right side V (h - dt |s_cell|^q) + ghost term, written over h
        np.add(s0, s1, out=ab)
        np.multiply(0.5, ab, out=ab)
        np.absolute(ab, out=ab)
        ipow(ab, q)
        np.multiply(dt, ab, out=ab)
        np.subtract(h, ab, out=h)
        np.multiply(V, h, out=h)
        np.multiply(-dt / dx, Af1, out=w1)
        np.multiply(w1, mob, out=w1)
        h[-1] -= w[M] * ghost
        np.multiply(a0, V, out=tmp)
        np.subtract(tmp, w0, out=tmp)
        np.subtract(tmp, w1, out=tmp)
        np.copyto(du, wm)
        solve()
        n_clip = int(np.count_nonzero(h < -NEG_CLIP_TOL * (sup or 1.0)))
        new = np.maximum(h, 0.0)
        return new, n_clip, float(new[new.argmax()])

    return step


def implicit_step(fld: SelfSimilarField, grid: RadialGrid, eps_reg: float,
                  dt: float, prev: SelfSimilarField | None = None
                  ) -> SelfSimilarField:
    """One linearly implicit update with lagged mobility: the
    variable-step BDF2 update with ratio omega = dt / (t - t_prev),

        a0 V u' + dt K(u*) u' = V h - dt V |s(u*)|^q + (ghost term),
        a0 = (1 + 2 omega) / (1 + omega),
        h  = (1 + omega) u - omega^2 / (1 + omega) u_prev,

    where the mobilities k = (s^2 + eps^2)^{(p-2)/2} and the absorption
    |s|^q are taken at u* = (1 + omega) u - omega u_prev, the extrapolated
    state, and the Dirichlet ghost at face M at the new time.  `prev` is the
    field one step before `fld`; without it omega = 0, a0 = 1 and
    h = u* = u: backward Euler,

        V_i (u'_i - u_i) = dt [ A_{i+1} k_{i+1} s'_{i+1} - A_i k_i s'_i
                                - V_i |s_i|^q ],

    with s' the face slopes of u'.  BDF2 is zero-stable only for
    omega < 1 + sqrt(2) (Grigorieff, Numer. Math. 1983); a ratio outside
    (0, 1 + sqrt(2)], or a dt or eps_reg that is not finite and > 0,
    raises ValueError (at eps_reg = 0 a face of slope 0 has infinite
    mobility).  The lagged state of every step stands for the new time,
    so eps_reg should be the mobility floor there.  a0 V + dt K is a
    symmetric M-matrix, so diffusion sets no step bound; the explicit
    absorption keeps its bound dt <= 0.4 dx / (q G^{q-1}) (G the max slope
    magnitude), which is enforced (RuntimeError).  Negative values below
    -1e-10 ||u||_inf are counted before all negatives are clipped.  This is the
    lagged-diffusivity idea of Vogel & Oman (SIAM J. Sci. Comput. 17,
    1996), applied once per step.  The kernel (_make_step) is built per
    call here and once per run by run_and_measure; both run the same
    floating-point operations in the same order, so the bits agree.
    """
    for name, v in (("dt", dt), ("eps_reg", eps_reg)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    u_prev, om = fld.values, 0.0
    if prev is not None:
        om = dt / (fld.t - prev.t) if fld.t != prev.t else math.inf
        if not 0.0 < om <= _OMEGA_MAX:
            raise ValueError(
                f"BDF2 step ratio {om:.3g} outside (0, 1 + sqrt(2)]")
        u_prev = prev.values
    t_new = fld.t + dt
    # an array call, as run_and_measure's, so the ghost has the same bits
    ghost = fld.exact(np.array([t_new]), grid.L + 0.5 * grid.dx)[0]
    new, n_clip, _ = _make_step(grid, fld.consts)(
        fld.values, u_prev, om, eps_reg, dt, ghost,
        float(np.abs(fld.values).max()))
    return SelfSimilarField(T=fld.T, t=t_new, values=new,
                            profile=fld.profile, consts=fld.consts,
                            n_clipped=fld.n_clipped + n_clip)


def _absorption_cap(fld0: SelfSimilarField, grid: RadialGrid):
    """The absorption bound planned as a cap on the tau-step: c(t) =
    (1/2) _CFL dx / (q G(t)^{q-1}) / (T - t), with the self-similar
    largest slope G(t) = G0 ((T - t) / T)^{alpha + beta} and G0 the
    initial datum's largest slope over the faces between its cells.  A
    step dt <= c(t) (T - t) is at most half the bound at G(t).  None for
    G0 = 0: zero data has no absorption, and the per-step check skips
    G = 0 as well."""
    G0 = float(np.abs(np.diff(fld0.values)).max(initial=0.0)) / grid.dx
    if not G0 > 0.0:
        return None
    T, q, ab = fld0.T, fld0.consts.q, fld0.consts.alpha + fld0.consts.beta
    half = 0.5 * _CFL * grid.dx / q

    def cap(t):
        return half / (G0 * ((T - t) / T) ** ab) ** (q - 1.0) / (T - t)

    return cap


def _schedule(T: float, cks, dt_frac: float, cap=None):
    """Step times from t = 0 through the checkpoints cks, and the BDF2
    step ratio of each step.

    Each checkpoint interval is split into ceil(d tau / h) equal steps of
    tau = ln(T / (T - t)), where h = min(dt_frac, cap(t), cap(c)) at the
    interval's ends t and c (h = dt_frac without a cap), so
    dt ~ h (T - t) and a step ratio omega ~ 1 - h.  The cap is
    _absorption_cap's c(t), a power of T - t, so its smaller end value
    bounds it over the interval.  A time advances with the float
    operations of a step, t + dt, and the last step of an interval is
    dt = c - t, so every checkpoint is hit exactly (c - t is exact when
    t >= c / 2).  The first step, and any step with omega > 1 + sqrt(2) (the one after
    a short first interval), are backward Euler, omega = 0; the others are
    BDF2 at omega = dt / (t - t_prev).  Returns (times, dts, oms, hits):
    step k goes from times[k] to times[k+1] by dts[k] at ratio oms[k], and
    hits[k] says it ends on a checkpoint.
    """
    times, dts, oms, hits = [0.0], [], [], []
    t = 0.0
    for c in cks:
        dtau = math.log((T - t) / (T - c))
        h = dt_frac if cap is None else min(dt_frac, cap(t), cap(c))
        n = math.ceil(dtau / h)
        shrink = -math.expm1(-dtau / n)
        for j in range(n):
            dt = c - t if j == n - 1 else (T - t) * shrink
            om = dt / (t - times[-2]) if dts else 0.0
            oms.append(om if om <= _OMEGA_MAX else 0.0)
            t = t + dt
            times.append(t)
            dts.append(dt)
            hits.append(j == n - 1)
    return times, dts, oms, hits


def run_and_measure(fld0: SelfSimilarField, grid: RadialGrid, t_end: float,
                    dt_frac: float = 2e-3) -> ExtinctionMetrics:
    """Evolve from t = 0 to t_end by implicit_step's kernel; fit exponents.

    fld0 must be at t = 0 (as build_initial gives it) and t_end in
    (0, 0.8 T] with (T - t_end)^(alpha+beta) a normal double (ValueError).
    eps(t) = KAPPA dx (T-t)^{alpha+beta}, taken at the end of each step.
    _schedule plans the steps, dt ~ dt_frac (T-t), through 24 geometric
    checkpoints clustered toward t_end, hit bit for bit: backward Euler
    (BDF2 at omega = 0) for the first step and the one after the 1e-6 T
    checkpoint, variable-step BDF2 for the rest; each reached checkpoint's
    (t, u) is returned in `snapshots`.  The schedule depends on t alone: one
    `exact` call gives all its Dirichlet ghosts, and the step kernel is
    built once, so a step costs one kernel call and no profile
    evaluation.  The kernel has implicit_step's floating-point operations,
    and the clip threshold's sup (the max of the last step's clipped
    values) is its max |u|, so the result is bit-identical to calling
    implicit_step along the same schedule.  The step follows the time
    scale T-t of the self-similar decay, so the step count
    ~ ln(T/(T-t_end))/dt_frac is independent of the grid wherever the
    absorption cap does not bind (below).  Slopes of
    ln sup u and ln of the r^{N-1}-weighted L1 norm in ln(T-t) are
    fitted over checkpoints with T-t < 0.9 T, past initial transients; a
    t_end that leaves fewer than two of them raises RuntimeError before
    any step is taken; so does a dt_frac that is not finite and > 0
    (ValueError).  The time error is O(dt_frac^2): the alpha differences
    of a dt_frac ladder shrink by about 4 per halving.  The default
    dt_frac = 2e-3 (806 steps to t_end = 0.8 T) puts alpha within 3.9e-4
    and the self-similar error within 4.3e-4 of the dt_frac = 5e-4 run at
    M = 100, 200, 400 and 800 on the N=1 profile (1, 1.2, 0.5) with
    L = 40 (3.6e-4 and 2.1e-4 at M = 400): about an eighth of their
    change from M = 400 to 800 or less.

    n_clipped counts, over all steps, the cells clipped from below
    -1e-10 ||u||_inf.  The clipping is not rounding-scale: in the far
    field, where u is near 1e-8 of its sup, the explicit absorption
    undershoots by up to a few 1e-8 sup per step (12,700-22,000
    cell-steps at M = 200-800 with the default dt_frac).
    The absorption bound is planned as a cap (_absorption_cap): each
    checkpoint interval's tau-step is at most half the bound at the
    self-similar largest slope, over T - t, at both ends of the interval.
    On that profile it binds from about M = 3,200 (869 steps; 1,220 at
    M = 6,400, 1,662 at 9,600), so M = 8,000 and 9,600 run where dt_frac
    alone trips the bound.  A step that still violates the bound raises
    RuntimeError: the plan follows the exact solution's slopes, not the
    discrete ones, and fails where the discrete solution has collapsed
    far below the exact one.  At L = 40 the grids M = 30-32 trip at steps
    755-804 of 806 (sup 2e-5, largest slope 2e-7), and on the profile
    (1, 1.15, 0.4475) M = 100 trips at step 618.

    A run is stable until a checkpoint finds u not finite or its sup 0:
    coarser still, at M = 11-16 at L = 40 on the N=1 profile, the
    discrete solution dies out before t_end.  An unstable run stops at that
    checkpoint, keeps the snapshots before it and fits no exponent (NaN).
    """
    T = fld0.T
    if fld0.t != 0.0:
        raise ValueError(f"the run starts at t = 0, got t={fld0.t!r}")
    if not (math.isfinite(dt_frac) and dt_frac > 0.0):
        raise ValueError(f"dt_frac must be finite and > 0, got {dt_frac!r}")
    if not (0.0 < t_end <= 0.8 * T):
        raise ValueError(f"t_end must lie in (0, 0.8 T], got {t_end!r}")
    consts = fld0.consts
    if not _scale_ok(T - t_end, consts):
        raise ValueError("t_end must keep (T - t_end)^(alpha + beta) a "
                         f"normal double, got {t_end!r}")
    al, be = consts.alpha, consts.beta
    xc = grid.centers()
    eps0 = KAPPA * grid.dx

    cks = (T - np.geomspace(T * 0.999999, T - t_end, 24)).tolist()
    cks[-1] = t_end
    lt = np.log(T - np.asarray(cks))
    in_fit = lt < math.log(0.9 * T)
    n_fit = int(in_fit.sum())
    if n_fit < 2:
        raise RuntimeError(
            f"t_end={t_end:.3g} leaves {n_fit} checkpoint(s) with "
            "T-t < 0.9 T; the exponent fits need at least 2")
    step = _make_step(grid, consts)
    times, dts, oms, hits = _schedule(T, cks, dt_frac,
                                      _absorption_cap(fld0, grid))
    # the Dirichlet ghost at the end of each step
    ghosts = fld0.exact(np.array(times[1:]), grid.L + 0.5 * grid.dx)
    out = []
    n_clipped = fld0.n_clipped
    stable = True
    u = u_prev = fld0.values
    top = float(np.abs(u).max())
    for k, (dt, om, hit) in enumerate(zip(dts, oms, hits)):
        eps = eps0 * (T - times[k + 1]) ** (al + be)
        new, n_clip, top = step(u, u_prev, om, eps, dt, ghosts[k], top)
        u_prev, u = u, new
        n_clipped += n_clip
        # a checkpoint with a NaN or inf, or where the discrete solution
        # has died out (sup 0, whose log the fits cannot take), ends the run
        if hit:
            if not 0.0 < top < math.inf:
                stable = False
                break
            out.append((times[k + 1], u))

    V = grid.cell_volumes(consts.N)
    errs, l1, sup = [], [], []
    for tt, uu in out:
        uex = fld0.exact(tt, xc)
        errs.append(float(np.max(np.abs(uu - uex)) / uex.max()))
        l1.append(float(np.sum(uu * V)))
        sup.append(float(uu.max()))
    # np.max, not max: a NaN error (an underflowed exact solution) stays
    sel = float(np.max(errs, initial=0.0))
    alpha_est = l1_est = math.nan
    if stable:
        # every checkpoint was reached, so `in_fit` lines up with `sup`
        alpha_est = float(log_fit(lt[in_fit], np.log(sup)[in_fit])[1])
        l1_est = float(log_fit(lt[in_fit], np.log(l1)[in_fit])[1])
    return ExtinctionMetrics(
        alpha_est=alpha_est, l1_exponent_est=l1_est, selfsim_error=sel,
        stable=stable, grid_L=grid.L, grid_M=grid.M, t_end=t_end,
        steps=k + 1, n_clipped=n_clipped, snapshots=out)


def metrics_json(m: ExtinctionMetrics) -> str:
    # vars, not asdict: no deep copy of the snapshot arrays
    d = dict(vars(m))
    del d["snapshots"]
    d["grid"] = {"L": d.pop("grid_L"), "M": d.pop("grid_M")}
    return json_text(d)


def snapshot_csv(t: float, grid: RadialGrid, u: np.ndarray) -> str:
    """One snapshot's CSV text: `# t,<t>`, then x and u at the cells."""
    return csv_text([("t", t)], {"x": grid.centers(), "u": u}, ())

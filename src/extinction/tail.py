"""Tail transform, fast-decay certification, and power-law fitting.

The variable w(r) = r^mu f(r) turns the fast-decay profile into a bounded
monotone quantity with limit Kstar; the next-order behavior is
w = Kstar - A r^{-theta} + o(r^{-theta}).  This module certifies that a
shot trajectory follows the fast-decay branch and estimates (A, theta).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exponents import DerivedConstants, deta, json_text, log_fit, zgap_fit

__all__ = [
    "WState",
    "TailFit",
    "CertReport",
    "w_transform",
    "w_residual",
    "certify_B",
    "fit_tail",
    "tailfit_json",
]

# fit_tail rejects a theta_est this far from consts.theta, relatively
THETA_REL_TOL = 0.5
# w within this relative distance of Kstar is Kstar up to rounding
K_ROUND = 1e-12


@dataclass
class WState:
    """Vectorized sample sequence of the tail variables.

    Wtail = r w' - mu w = r^{mu+1} f' (signed, negative on a decreasing
    profile).
    """
    r: np.ndarray
    w: np.ndarray
    Wtail: np.ndarray


def _wprime(st: WState, mu: float) -> np.ndarray:
    # exact identity r w' = mu w + r^{mu+1} f'
    return (mu * st.w + st.Wtail) / st.r


@dataclass
class CertReport:
    ok: bool
    checks: dict
    r_end: float
    w_end: float


@dataclass
class TailFit:
    K_est: float
    A_est: float
    theta_est: float
    window: tuple[float, float]
    residual_rms: float
    accepted: bool


def w_transform(traj, consts: DerivedConstants) -> WState:
    """Pointwise transform of a trajectory; w' is never differenced, it
    comes from the identity r w' = mu w + r^{mu+1} f'."""
    r = np.asarray(traj.r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("samples must have r > 0")
    mu = consts.mu
    w = r ** mu * np.asarray(traj.f, dtype=float)
    Wtail = r ** (mu + 1.0) * np.asarray(traj.fprime, dtype=float)
    return WState(r=r, w=w, Wtail=Wtail)


def w_residual(traj, consts: DerivedConstants) -> float:
    """Normalized rms residual of the w-equation in first-order form, on
    the w_transform of a trajectory sampled uniformly in ln r.

    With W = r w' - mu w the second-order w-equation is equivalent to

        dw/deta = mu w + W,
        dW/deta = (mu+1) W + [ -(N-1) W + |W|^{q-p+2}
                   - (alpha w + beta W) |W|^{2-p} r^{Zstar+N-mu} ]/(p-1)

    (eta = ln r; the second line is the profile ODE analytically
    propagated through the transform, so the curvature content is never
    differenced).  Only the first eta-derivatives of the stored channels
    are formed, by 5-point central differences on the uniform log grid.
    Each equation's mismatch is scaled by the largest term entering it;
    returns the rms over both equations and all interior samples.

    Evaluating the second-order form pointwise with w'' reconstructed
    from the ODE is a trap: the four displayed terms cancel identically
    for arbitrary (w, W) data, so that residual is always rounding noise
    and certifies nothing.
    """
    N, p, q = consts.N, consts.p, consts.q
    mu, al, be, Zst = consts.mu, consts.alpha, consts.beta, consts.Zstar
    st = w_transform(traj, consts)
    r, w, W = st.r, st.w, st.Wtail
    eta = np.log(r)
    d1, d2 = deta(eta, w), deta(eta, W)
    rm, wm, Wm = r[2:-2], w[2:-2], W[2:-2]
    aW = np.abs(Wm)
    rhs1 = mu * wm + Wm
    rhs2 = (mu + 1.0) * Wm + (
        -(N - 1.0) * Wm + aW ** (q - p + 2.0)
        - (al * wm + be * Wm) * aW ** (2.0 - p)
        * rm ** (Zst + N - mu)) / (p - 1.0)
    s1 = np.maximum.reduce([np.abs(d1), np.abs(mu * wm), np.abs(Wm),
                            np.full_like(wm, 1e-300)])
    s2 = np.maximum.reduce([np.abs(d2), np.abs((mu + 1.0) * Wm),
                            aW ** (q - p + 2.0) / (p - 1.0),
                            np.full_like(wm, 1e-300)])
    return float(np.sqrt(np.mean(((d1 - rhs1) / s1) ** 2
                                 + ((d2 - rhs2) / s2) ** 2)))


def certify_B(traj, consts: DerivedConstants) -> CertReport:
    """Five-point certificate that a trajectory follows the fast-decay
    branch: (i) 0 < w < Kstar throughout, (ii) w' > 0 throughout,
    (iii) w(r_end) within tol_K = 0.01 Kstar of Kstar, (iv) |r w'| at
    r_end below tol_slope = 0.05 mu Kstar, (v) r^{mu+1} f' at r_end
    within tol_deriv = 0.05 mu Kstar of -mu Kstar.
    """
    Kst, mu = consts.Kstar, consts.mu
    tol_K = 0.01 * Kst
    tol_slope = tol_deriv = 0.05 * mu * Kst
    st = w_transform(traj, consts)
    wp = _wprime(st, mu)
    w_end = float(st.w[-1])
    rwp_end = float(st.r[-1] * wp[-1])
    W_end = float(st.Wtail[-1])
    # upper bound closed within rounding: the exact singular profile
    # K* r^{-mu} sits on the boundary and must not fail the band
    in_band = bool(np.all((st.w > 0.0) & (st.w <= Kst * (1.0 + K_ROUND))))
    monotone = bool(np.all(wp > 0.0))
    # A trajectory cut at a decisive event ends exactly where the checked
    # quantity crosses, so the sampled sign there is rounding noise; the
    # event itself is the witness that the "throughout" claim fails.
    for kind, _ in getattr(traj, "events", ()) or ():
        if kind == "W_EXCEEDS_KSTAR":
            in_band = False
        elif kind == "W_PRIME_VANISHES":
            monotone = False
    checks = {
        "w_in_band": in_band,
        "w_monotone": monotone,
        "w_limit": abs(w_end - Kst) <= tol_K,
        "slope_decay": abs(rwp_end) <= tol_slope,
        "deriv_limit": abs(W_end + mu * Kst) <= tol_deriv,
    }
    return CertReport(ok=all(checks.values()), checks=checks,
                      r_end=float(st.r[-1]), w_end=w_end)


def fit_tail(traj, consts: DerivedConstants,
             window: tuple[float, float] | None = None) -> TailFit:
    """Fit w = Kstar - A r^{-theta}, w the w_transform of a trajectory,
    on the window (default [r_max/10, r_max]); K_est is always Kstar.
    A window that is not finite with lo < hi raises ValueError.

    Samples with |Kstar - w| <= K_ROUND Kstar are left out: a profile cut
    at the W_EXCEEDS_KSTAR event ends on one, where the sign of the gap
    is rounding (certify_B's allowance).  Any other Kstar - w <= 0 in the
    window raises RuntimeError, as does a window of fewer than 10 samples.

    Stage 1 regresses ln(Kstar - w) on ln r.  Its residual is at rounding
    level (rms <= 1e-9 Kstar) only on an exact power law.  Every real
    trajectory carries curvature beyond it; there theta and A come from
    `zgap_fit` on the window's Z = r (-f')^{q-p+1}, the regression pinned
    against the known next-order contamination that `phase.extract_rates`
    also reads (stage 1 again if it has too few samples).
    A theta_est more than THETA_REL_TOL (50 %) from consts.theta raises
    RuntimeError: neither estimator has measured the second-order term.
    """
    states = w_transform(traj, consts)
    r_all = states.r
    if window is None:
        window = (r_all[-1] / 10.0, r_all[-1])
    lo, hi = window
    if not -math.inf < lo < hi < math.inf:   # a NaN end too
        raise ValueError(f"window must be finite with lo < hi, got {window}")
    Kst = consts.Kstar
    mask = ((r_all >= lo) & (r_all <= hi)
            & (np.abs(Kst - states.w) > K_ROUND * Kst))
    if int(mask.sum()) < 10:
        raise RuntimeError("fit window holds fewer than 10 samples")
    r = r_all[mask]
    w = states.w[mask]
    gap = Kst - w
    if np.any(gap <= 0.0):
        raise RuntimeError("Kstar - w must stay positive inside the window")

    def rms_of(A, th):
        return float(np.sqrt(np.mean((w - (Kst - A * r ** (-th))) ** 2)))

    # stage 1: pinned-K log-linear
    lnr = np.log(r)
    co = log_fit(lnr, np.log(gap))
    A, th = math.exp(co[0]), -co[1]
    if rms_of(A, th) > 1e-9 * Kst:
        fp = states.Wtail[mask] * r ** (-(consts.mu + 1.0))
        Z = r * np.maximum(-fp, 0.0) ** (consts.q - consts.p + 1.0)
        ref = zgap_fit(lnr, Z, consts)
        if ref is not None:
            th, _, A = ref
    rms = rms_of(A, th)
    if abs(th / consts.theta - 1.0) > THETA_REL_TOL:
        raise RuntimeError(
            f"tail exponent off theory: theta_est = {th:.6g} is more than "
            f"{THETA_REL_TOL:.0%} from theta = {consts.theta:.6g}")
    return TailFit(K_est=Kst, A_est=A, theta_est=th, window=(float(lo),
                   float(hi)), residual_rms=rms,
                   accepted=bool(rms <= 1e-3 * Kst))


def tailfit_json(fit: TailFit) -> str:
    return json_text(asdict(fit))

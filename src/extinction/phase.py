"""Autonomous phase-plane system for the profile tail.

In the variables

    X = r f (-f')^{1-p},  Y = r^2 (-f')^{2-p},  Z = r (-f')^{q-p+1},

with log-radial time eta = ln r, a positive decreasing profile becomes an
orbit of a quadratic autonomous system whose critical point
P0 = (0, 0, Zstar) encodes the fast-decay tail.  The eigenvalues at P0 are
lambda1 = N + Zstar > 0 (unstable), lambda2 = -(p-2q)/(q-p+1) and
lambda3 = -theta (stable), and the decay rates of Y and Z - Zstar along a
converging orbit read off lambda2, lambda3 together with the limits
Uinf, Vinf.

The system's right side is written once, as the source template
`_FIELD`: `vector_field` evaluates it, and `integrate_phase` solves it
on `dop853`'s driver with a kernel generated from it, as the profile's
(f, F) system is solved, so the program has one integrator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dop853
from .exponents import (DerivedConstants, csv_text, deta, json_text,
                        log_fit, spectral_data, zgap_fit)

__all__ = [
    "PhasePath",
    "RateFit",
    "map_to_phase",
    "vector_field",
    "jacobian",
    "integrate_phase",
    "exact_orbit",
    "extract_rates",
    "path_dynamics_residual",
    "phasepath_csv",
    "ratefit_json",
]

BLOWUP_GUARD = 1e12


@dataclass
class PhasePath:
    """An orbit sampled in eta = ln r; Z - Zstar is derived, not stored."""
    eta: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    source: str   # "mapped-from-profile" | "free-integration"
    detail: str = ""

    def __len__(self) -> int:
        return len(self.eta)


@dataclass(frozen=True)
class RateFit:
    lambda2_est: float
    lambda3_est: float
    Uinf_est: float
    Vinf_est: float
    A_from_Vinf: float
    windows: dict
    flags: tuple[str, ...] = ()


def map_to_phase(traj, consts: DerivedConstants) -> PhasePath:
    """Map profile samples into (X, Y, Z).  Samples where the mapping is
    undefined (f' = 0, or f <= 0) are skipped and counted in `detail`."""
    p, q = consts.p, consts.q
    r = np.asarray(traj.r, float)
    f = np.asarray(traj.f, float)
    fp = np.asarray(traj.fprime, float)
    good = (f > 0.0) & (fp < 0.0)
    n_bad = int((~good).sum())
    r, f, fp = r[good], f[good], fp[good]
    m = -fp
    X = r * f * m ** (1.0 - p)
    Y = r * r * m ** (2.0 - p)
    Z = r * m ** (q - p + 1.0)
    return PhasePath(eta=np.log(r), X=X, Y=Y, Z=Z,
                     source="mapped-from-profile",
                     detail=f"skipped {n_bad} sample(s) with f' = 0 or "
                     "f <= 0 (phase map undefined there)" if n_bad else "")


# The velocity (Xdot, Ydot, Zdot) at (X, Y, Z), written once as source
# (`dop853.kernel`'s template): `vector_field` and the kernels of
# `integrate_phase` are generated from it.  Its constants are those of
# `_field_constants`.
_FIELD = ("{kX} = N * {X} - {Y} - al * {X} * {X} + be * {X} * {Y} "
          "+ {X} * {Z}; "
          "{kY} = c0 * {Y} + c1 * (al * {X} - be * {Y} - {Z}) * {Y}; "
          "{kZ} = nu * {Z} * (Zst - {Z}) + nu * (al * {X} - be * {Y}) * {Z}")
_FIELD_CONSTANTS = "N, al, be, nu, Zst, c0, c1"
_XYZ = ("X", "Y", "Z")


def _field_constants(consts: DerivedConstants) -> tuple:
    """(N, al, be, nu, Zst, c0, c1) of `_FIELD`; c0 and c1 are the Y
    equation's, Ydot = c0 Y + c1 (alpha X - beta Y - Z) Y."""
    N, p = consts.N, consts.p
    return (N, consts.alpha, consts.beta, consts.nu, consts.Zstar,
            2.0 - (2.0 - p) * (N - 1.0) / (p - 1.0), (2.0 - p) / (p - 1.0))


@functools.cache
def _kernel():
    """The DOP853 kernel of `_FIELD`, generated on first use, so that
    importing phase compiles nothing.  The absolute floor 1e-30 of the
    error scale, far below any orbit amplitude, keeps the scale nonzero
    where a component sits at 0 exactly (the critical point itself)."""
    return dop853.kernel(_FIELD, _XYZ, _FIELD_CONSTANTS, atol=1e-30, var="eta")


def vector_field(pt, consts: DerivedConstants):
    """Velocity (Xdot, Ydot, Zdot) of the autonomous system (`_FIELD`);
    also takes arrays."""
    return _kernel().rhs(*_field_constants(consts))(0.0, *pt)


def jacobian(pt, consts: DerivedConstants) -> np.ndarray:
    """Analytic Jacobian of the vector field at an arbitrary point."""
    X, Y, Z = pt
    N, al, be, nu, Zst, c0, c1 = _field_constants(consts)
    return np.array([
        [N - 2.0 * al * X + be * Y + Z, -1.0 + be * X, X],
        [c1 * al * Y, c0 + c1 * (al * X - 2.0 * be * Y - Z), -c1 * Y],
        [nu * al * Z, -nu * be * Z,
         nu * (Zst - 2.0 * Z + al * X - be * Y)],
    ])


def _guard(t, X, Y, Z, dX=None):
    """The blow-up guard, the phase system's one event, in the form
    `dop853.drive` takes events: max |x| - 1e12 crosses 0 upward."""
    return (max(abs(X), abs(Y), abs(Z)) - BLOWUP_GUARD,)


def integrate_phase(x0, eta_span, consts: DerivedConstants,
                    tol: float = 1e-10) -> PhasePath:
    """Free integration of the autonomous system, sampled at 2001 points
    uniform in eta, on `dop853.drive` with the kernel of `_FIELD`.  The
    right side is quadratic with no singularity; a |x| >= 1e12 guard, the
    one event, stops runaway along the unstable direction, so x0 must lie
    inside it.  The ends of eta_span must be finite and differ, and tol
    finite and > 0.  A span that runs backward is stepped backward.

    tol is the error allowed at the span's end.  An error made early
    grows along the unstable rate lambda1 = N + Zstar, by up to
    e^{lambda1 |delta eta|} over the span, so every step is taken at the
    local rtol tol e^{-lambda1 |delta eta|}, and at no less than
    dop853.RTOL_FLOOR, 100 ulp.  Where that floor binds, `detail` says so
    and gives the bound 100 ulp e^{lambda1 |delta eta|} the run still
    holds.  Raises RuntimeError past dop853.STEP_BUDGET trial steps (a
    start far from P0, where the orbit is stiff for an explicit method),
    or where the step size falls below ten ulps before the first step.
    Where it falls there later (a finite-time blow-up that outruns the
    guard), the path ends as at the guard, and `detail` says so."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if not all(map(math.isfinite, eta_span)):
        raise ValueError(f"eta_span ends must be finite, got {eta_span!r}")
    if eta_span[0] == eta_span[1]:
        raise ValueError(f"eta_span ends must differ, got {eta_span!r}")
    if not all(abs(c) < BLOWUP_GUARD for c in x0):
        raise ValueError(f"x0 components must be finite and below the "
                         f"blow-up guard {BLOWUP_GUARD:g}, got {x0!r}")
    eta0, eta1 = map(float, eta_span)
    growth = spectral_data(consts).lambda1 * abs(eta1 - eta0)
    rtol = tol * math.exp(-growth)
    try:
        status, eta_end, _, _, segments = dop853.drive(
            _kernel(), _field_constants(consts), _guard, eta0,
            tuple(map(float, x0)), eta1, rtol, dense=True)
    except RuntimeError as e:
        raise RuntimeError(f"phase integration failed: {e}") from None
    if status == -1 and not segments:
        raise RuntimeError(f"phase integration failed at eta={eta_end:.6g}: "
                           "the step size fell below ten ulps")
    etas = np.linspace(eta0, eta_end, 2001)
    X, Y, Z = dop853.sample(_kernel(), segments, eta_end, etas)
    stop = {1: "blow-up guard", -1: "step size fell below ten ulps"}.get(
        status)
    notes = [f"{stop} at eta={eta_end:.6g}"] if stop else []
    if rtol < dop853.RTOL_FLOOR:
        bound = tol / rtol * dop853.RTOL_FLOOR if rtol else math.inf
        notes.append(f"tol={tol:g} not held: steps at the 100-ulp rtol floor "
                     "bound the error only by 100 ulp e^(lambda1 |delta eta|)"
                     f" = {bound:.3g}")
    return PhasePath(eta=etas, X=X, Y=Y, Z=Z, source="free-integration",
                     detail="; ".join(notes))


def exact_orbit(consts: DerivedConstants, rho: float,
                eta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-parameter explicit orbit through (rho beta, rho alpha, Zstar):
    both X and Y decay like e^{lambda2 eta} while Z stays pinned at
    Zstar."""
    lam2 = spectral_data(consts).lambda2
    amp = np.exp(lam2 * np.asarray(eta, float))
    X = rho * consts.beta * amp
    Y = rho * consts.alpha * amp
    Z = np.full_like(amp, consts.Zstar)
    return X, Y, Z


def extract_rates(path: PhasePath, consts: DerivedConstants) -> RateFit:
    """Read off the stable rates from a converging path.

    ln Y is regressed linearly on eta over a short late window (Y carries
    a single clean mode), and its intercept gives Uinf via
    Y ~ (p-q) Uinf e^{lambda2 eta}.  The Z gap is `zgap_fit` over the
    final decade, the same fit `tail.fit_tail` reads theta and A from:
    lambda3 = -theta, Vinf = -Zstar s0 (Z - Zstar ~ Vinf e^{lambda3 eta};
    a fast-decay path approaches Zstar from below), and A_from_Vinf is
    its A.  A path that ends off the critical point, or a window with
    fewer than 10 samples, raises RuntimeError.
    """
    p, q = consts.p, consts.q
    Zst = consts.Zstar
    spec = spectral_data(consts)
    eta, Y, Z = path.eta, path.Y, path.Z
    if not len(path):
        raise RuntimeError("path does not converge: it holds no samples")
    dist = math.sqrt((path.X[-1]) ** 2 + (Y[-1]) ** 2
                     + (Z[-1] - Zst) ** 2)
    if not np.isfinite(dist) or dist > 0.05 * Zst:
        raise RuntimeError(
            f"path does not converge to the critical point "
            f"(terminal distance {dist:.3g} > 0.05*Zstar)")
    e_max = eta[-1]
    win2 = (e_max - 2.5, e_max - 0.05)
    win3 = (e_max - math.log(10.0), e_max)

    m2 = (eta >= win2[0]) & (eta <= win2[1]) & (Y > 0.0)
    if m2.sum() < 10:
        raise RuntimeError("lambda2 window holds fewer than 10 samples")
    co2 = log_fit(eta[m2], np.log(Y[m2]))
    lam2 = float(co2[1])
    Uinf = math.exp(co2[0]) / (p - q)

    m3 = (eta >= win3[0]) & (eta <= win3[1])
    fit3 = zgap_fit(eta[m3], Z[m3], consts)
    if fit3 is None:
        raise RuntimeError("lambda3 window holds fewer than 10 samples "
                           "with 0 < Z < Zstar")
    theta, s0, A = fit3

    flags = []
    if abs(abs(spec.lambda2) - abs(spec.lambda3)) < 0.1:
        flags.append("near-crossover: |lambda2| and |lambda3| within 0.1, "
                     "lambda3 extraction unreliable (mode mixing)")
    return RateFit(lambda2_est=lam2, lambda3_est=-theta, Uinf_est=Uinf,
                   Vinf_est=-Zst * s0, A_from_Vinf=A,
                   windows={"lambda2": list(win2), "lambda3": list(win3)},
                   flags=tuple(flags))


def path_dynamics_residual(path: PhasePath, consts: DerivedConstants) -> float:
    """rms mismatch between the numerical eta-derivative of a mapped path
    and the analytic vector field, on the final decade of r.  Requires
    at least 9 samples uniform in eta; 5-point central differences (`deta`).
    Residuals are measured relative to the local velocity scale."""
    eta = path.eta
    if len(eta) < 9:
        raise ValueError("need >= 9 samples in eta")
    Xm, Ym, Zm = path.X[2:-2], path.Y[2:-2], path.Z[2:-2]
    em = eta[2:-2]
    dX, dY, dZ = deta(eta, path.X), deta(eta, path.Y), deta(eta, path.Z)
    fX, fY, fZ = vector_field(np.vstack([Xm, Ym, Zm]), consts)
    scale = np.maximum.reduce([np.abs(fX), np.abs(fY), np.abs(fZ),
                               np.abs(dX), np.abs(dY), np.abs(dZ),
                               np.full_like(Xm, 1e-30)])
    sel = em >= eta[-1] - math.log(10.0)
    res = ((dX - fX) ** 2 + (dY - fY) ** 2 + (dZ - fZ) ** 2) / scale ** 2
    return float(np.sqrt(np.mean(res[sel])))


def phasepath_csv(path: PhasePath) -> str:
    return csv_text([("source", path.source)],
                    {"eta": path.eta, "X": path.X, "Y": path.Y,
                     "Z": path.Z}, ())


def ratefit_json(fit: RateFit) -> str:
    return json_text(asdict(fit))

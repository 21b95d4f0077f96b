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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exponents import (DerivedConstants, csv_text, deta, json_text,
                        log_fit, spectral_data, zgap_fit)

__all__ = [
    "PhasePath",
    "RateFit",
    "map_to_phase",
    "vector_field",
    "jacobian",
    "jacobian_origin",
    "integrate_phase",
    "exact_orbit",
    "extract_rates",
    "path_dynamics_residual",
    "phasepath_csv",
    "ratefit_json",
]

BLOWUP_GUARD = 1e12
# right-side evaluations one integrate_phase may make: 56 times the most
# the test suite takes (1,772, `phase --x0 0.15,0.35,0.6667` over
# eta in [0, 10]; criterion 6's orbits take 1,040).  Far from P0 but
# inside the guard the system is stiff for RK45, whose step then shrinks
# to the stiff rate's reciprocal: the budget bounds such a run.
RHS_BUDGET = 100_000


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


def _ycoeffs(consts: DerivedConstants) -> tuple[float, float]:
    # c0, c1 of the Y equation, Ydot = c0 Y + c1 (alpha X - beta Y - Z) Y
    N, p = consts.N, consts.p
    return 2.0 - (2.0 - p) * (N - 1.0) / (p - 1.0), (2.0 - p) / (p - 1.0)


def vector_field(pt, consts: DerivedConstants):
    """Velocity (Xdot, Ydot, Zdot) of the autonomous system."""
    X, Y, Z = pt
    N = consts.N
    al, be, nu, Zst = consts.alpha, consts.beta, consts.nu, consts.Zstar
    c0, c1 = _ycoeffs(consts)
    dX = N * X - Y - al * X * X + be * X * Y + X * Z
    dY = c0 * Y + c1 * (al * X - be * Y - Z) * Y
    dZ = nu * Z * (Zst - Z) + nu * (al * X - be * Y) * Z
    return (dX, dY, dZ)


def jacobian(pt, consts: DerivedConstants) -> np.ndarray:
    """Analytic Jacobian of the vector field at an arbitrary point."""
    X, Y, Z = pt
    N = consts.N
    al, be, nu, Zst = consts.alpha, consts.beta, consts.nu, consts.Zstar
    c0, c1 = _ycoeffs(consts)
    return np.array([
        [N - 2.0 * al * X + be * Y + Z, -1.0 + be * X, X],
        [c1 * al * Y, c0 + c1 * (al * X - 2.0 * be * Y - Z), -c1 * Y],
        [nu * al * Z, -nu * be * Z,
         nu * (Zst - 2.0 * Z + al * X - be * Y)],
    ])


def jacobian_origin(consts: DerivedConstants) -> np.ndarray:
    """Linearization at P0 in (X, Y, Z - Zstar) coordinates, closed form:

        [[N + Z*, -1, 0],
         [0, -(p-2q)/(q-p+1), 0],
         [alpha nu Z*, -beta nu Z*, -nu Z*]]

    with the diagonal taken from spectral_data.
    """
    al, be, nu, Zst = consts.alpha, consts.beta, consts.nu, consts.Zstar
    spec = spectral_data(consts)
    return np.array([
        [spec.lambda1, -1.0, 0.0],
        [0.0, spec.lambda2, 0.0],
        [al * nu * Zst, -be * nu * Zst, spec.lambda3],
    ])


def integrate_phase(x0, eta_span, consts: DerivedConstants,
                    tol: float = 1e-10) -> PhasePath:
    """Free integration of the autonomous system, sampled at 2001 points
    uniform in eta.  The right side is quadratic with no singularity; a
    |x| >= 1e12 guard stops runaway along the unstable direction, so x0
    must lie inside it.  The ends of eta_span must be finite and differ,
    and tol finite and > 0; a positive tol below 100 ulp is raised to it,
    as scipy would (here without its warning).  Raises RuntimeError once
    the integration has used RHS_BUDGET right-side evaluations."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    tol = max(tol, 100 * np.finfo(float).eps)
    if not all(map(math.isfinite, eta_span)):
        raise ValueError(f"eta_span ends must be finite, got {eta_span!r}")
    if eta_span[0] == eta_span[1]:
        raise ValueError(f"eta_span ends must differ, got {eta_span!r}")
    if not all(abs(c) < BLOWUP_GUARD for c in x0):
        raise ValueError(f"x0 components must be finite and below the "
                         f"blow-up guard {BLOWUP_GUARD:g}, got {x0!r}")
    # imported here, not at module level, so that the commands that never
    # integrate the phase system do not load scipy
    from scipy.integrate import solve_ivp

    X0, Y0, Z0 = x0

    n_rhs = 0

    def rhs(eta, x):
        nonlocal n_rhs
        n_rhs += 1
        if n_rhs > RHS_BUDGET:
            raise RuntimeError(
                f"phase integration stopped at eta={eta:.6g}: it used its "
                f"budget of {RHS_BUDGET} right-side evaluations (RK45 meets "
                f"a stiff stretch of the orbit, or the span is too long)")
        return vector_field(x, consts)

    def guard(eta, x):
        return max(abs(x[0]), abs(x[1]), abs(x[2])) - BLOWUP_GUARD
    guard.terminal = True
    guard.direction = 1

    # atol floor keeps the error scale nonzero when a component sits at 0
    # exactly (the critical point itself); far below any orbit amplitude
    sol = solve_ivp(rhs, tuple(eta_span), (float(X0), float(Y0), float(Z0)),
                    method="RK45", rtol=tol, atol=1e-30, dense_output=True,
                    events=[guard])
    detail = ""
    if sol.status == 1:
        detail = f"blow-up guard at eta={sol.t[-1]:.6g}"
    etas = np.linspace(sol.t[0], sol.t[-1], 2001)
    xs = sol.sol(etas)
    return PhasePath(eta=etas, X=xs[0], Y=xs[1], Z=xs[2],
                     source="free-integration", detail=detail)


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

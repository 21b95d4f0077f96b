"""Exponent-range validation and closed-form constants.

Everything downstream (shooting, tail asymptotics, phase-space rates, the
PDE check) is parametrized by the triple (N, p, q) with

    2N/(N+1) < p < 2,      p - 1 < q < p/2.

This module computes the derived constants and the spectrum of the
phase-space linearization, and cross-checks them against exact algebraic
identities.  It also holds what every other module shares: the
numerical kernels of the tail and phase analyses (the 5-point derivative
in ln r, the pinned-basis log regression, and the one fit of the Z-gap
decay that both read theta and A from) and the two writers that fix the
byte format of every artifact (`json_text`, `csv_text`).  Pure functions
on value types throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

__all__ = [
    "ExponentParams",
    "DerivedConstants",
    "Spectrum",
    "RangeReport",
    "validate_range",
    "derive_constants",
    "spectral_data",
    "lambdastar",
    "constants_json",
    "deta",
    "log_fit",
    "zgap_fit",
    "json_text",
    "csv_text",
]

# q within this distance of p-1 or p/2 still validates, but with a warning:
# mu -> infinity at q = p-1 and alpha -> infinity at q = p/2.
NEAR_BOUNDARY = 1e-6


@dataclass(frozen=True)
class ExponentParams:
    N: int
    p: float
    q: float


@dataclass(frozen=True)
class RangeReport:
    ok: bool
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def validate_range(N, p, q=None) -> RangeReport:
    """Check the admissible exponent box; never raises.

    Returns a structured report naming each violated inequality.  With q
    left out, only N and p are checked (the domain of `lambdastar`).
    """
    violations = []
    warnings = []
    if not (isinstance(N, int) or (isinstance(N, float) and N == int(N))):
        violations.append("N integer fails")
        return RangeReport(False, tuple(violations))
    N = int(N)
    if N < 1:
        violations.append("N >= 1 fails")
    else:
        pc = 2.0 * N / (N + 1.0)
        if not p > pc:
            violations.append(f"p > 2N/(N+1) fails (p={p}, threshold={pc})")
        if not p < 2.0:
            violations.append("p < 2 fails")
        if q is None:
            return RangeReport(not violations, tuple(violations))
        if not q > p - 1.0:
            violations.append("q > p-1 fails")
        if not q < p / 2.0:
            violations.append("q < p/2 fails")
        if not violations:
            if q - (p - 1.0) < NEAR_BOUNDARY:
                warnings.append("q within 1e-6 of p-1: mu, K* blow up")
            if (p / 2.0) - q < NEAR_BOUNDARY:
                warnings.append("q within 1e-6 of p/2: alpha, beta blow up")
    return RangeReport(not violations, tuple(violations), tuple(warnings))


@dataclass(frozen=True)
class DerivedConstants:
    N: int
    p: float
    q: float
    alpha: float
    beta: float
    mu: float
    Kstar: float
    theta: float
    gamma: float
    Zstar: float
    nu: float
    zeta: float


def derive_constants(params: ExponentParams) -> DerivedConstants:
    """All closed-form constants of the self-similar profile problem.

    alpha, beta   time/space self-similarity exponents
    mu            fast tail decay power, f ~ K* r^{-mu}
    Kstar         leading tail coefficient
    theta         second-order tail exponent (=1 in dimension 1)
    gamma         scaling exponent in the w-equation, gamma = -1/beta
    Zstar         critical-point coordinate, Zstar^{mu+1} = mu*Kstar
    nu            (q-p+1)/(p-1)
    zeta          N(p-1) + q*Zstar
    """
    N, p, q = params.N, params.p, params.q
    rep = validate_range(N, p, q)
    if not rep.ok:
        raise ValueError("exponent range violation: " + "; ".join(rep.violations))
    alpha = (p - q) / (p - 2.0 * q)
    beta = (q - p + 1.0) / (p - 2.0 * q)
    mu = (p - q) / (q - p + 1.0)
    # (mu*Kstar)^{q-p+1} = (p-1)(mu+1) - N + 1
    base = (p - 1.0) * (mu + 1.0) - N + 1.0
    ln_mK = math.log(base) / (q - p + 1.0)
    try:
        Kstar = math.exp(ln_mK) / mu
    except OverflowError:
        Kstar = math.inf  # admissible but beyond double range (q near p-1)
    theta = (N * (p - 1.0) - q * (N - 1.0)) / (p - 1.0)
    gamma = (2.0 * q - p) / (q - p + 1.0)
    # log-space power of mu*Kstar: stays finite even when Kstar overflows
    Zstar = math.exp(ln_mK / (mu + 1.0))
    nu = (q - p + 1.0) / (p - 1.0)
    zeta = N * (p - 1.0) + q * Zstar
    return DerivedConstants(N, p, q, alpha, beta, mu, Kstar, theta, gamma,
                            Zstar, nu, zeta)


@dataclass(frozen=True)
class Spectrum:
    lambda1: float
    lambda2: float
    lambda3: float
    V1: tuple[float, float, float]
    V2: tuple[float, float, float]
    V3: tuple[float, float, float]
    LambdaMax: float
    lambdastar: float
    qstar: float


def lambdastar(N: int, p: float) -> float:
    """Root of P(lam) = (N-1)lam^2 - 3(p-1)lam + (2-p)(p-1) in (0, (2-p)/2).

    P is linear for N=1; for N >= 2 exactly one root lies in that interval.
    """
    if N == 1:
        return (2.0 - p) / 3.0
    a, b, c = N - 1.0, -3.0 * (p - 1.0), (2.0 - p) * (p - 1.0)
    disc = b * b - 4.0 * a * c
    lam_lo = (-b - math.sqrt(disc)) / (2.0 * a)
    lam_hi = (-b + math.sqrt(disc)) / (2.0 * a)
    for lam in (lam_lo, lam_hi):
        if 0.0 < lam < (2.0 - p) / 2.0:
            return lam
    raise ArithmeticError(f"no crossover root in (0, (2-p)/2) for N={N}, p={p}")


def spectral_data(consts: DerivedConstants) -> Spectrum:
    """Eigen-structure of the phase-system linearization at the tail point.

    lambda1 > 0 > max(lambda2, lambda3); lambda3 = -theta identically.
    qstar is the absorption exponent at which lambda2 = lambda3 for the
    given (N, p): the ordering of the two stable rates swaps there.
    """
    N, p, q = consts.N, consts.p, consts.q
    lam1 = N + consts.Zstar
    lam2 = -(p - 2.0 * q) / (q - p + 1.0)
    lam3 = -consts.nu * consts.Zstar
    V1 = (consts.zeta, 0.0, consts.alpha * (q - p + 1.0) * consts.Zstar)
    V2 = (q - p + 1.0, p - q, 0.0)
    V3 = (0.0, 0.0, 1.0)
    lamstar = lambdastar(N, p)
    qstar = lamstar + p - 1.0
    return Spectrum(lam1, lam2, lam3, V1, V2, V3, max(lam2, lam3),
                    lamstar, qstar)


def _finite_or_null(obj):
    """`obj` with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def json_text(obj) -> str:
    """The JSON byte format of every artifact and report: sorted keys (so
    reruns are byte-identical), indent 1, one trailing newline.  A
    non-finite float is written as null, so strict parsers read every
    file."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def csv_text(comments, columns: dict, trailer) -> str:
    """The CSV byte format of every artifact: `# f1,f2,...` per comment,
    the names of `columns`, one row per sample of those equal-length
    1-D numpy arrays, `# f1,f2,...` per trailer, one trailing newline.
    Strings go as-is, numbers with 17 digits (they read back exactly)."""
    num = "%.17g"

    def fields(vals):
        return ",".join(v if isinstance(v, str) else num % v for v in vals)
    row = ",".join([num] * len(columns))
    lines = ["# " + fields(c) for c in comments]
    lines.append(",".join(columns))
    # iterating a column's memoryview yields Python floats, not one numpy
    # scalar per value, with the same %.17g text; .tolist() would also,
    # but holds the whole table as Python floats at once
    lines += [row % r for r in zip(*map(memoryview, columns.values()))]
    lines += ["# " + fields(c) for c in trailer]
    return "\n".join(lines) + "\n"


def constants_json(consts: DerivedConstants, spec: Spectrum) -> str:
    """Flat key-value JSON of DerivedConstants + Spectrum."""
    return json_text({**asdict(consts), **asdict(spec)})


def deta(y: np.ndarray, h: float) -> np.ndarray:
    """d/d(ln r) by 5-point central differences on samples uniform in ln r
    with spacing h; returns the len(y) - 4 interior values."""
    return (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12.0 * h)


def log_fit(x: np.ndarray, y: np.ndarray, rates=()) -> np.ndarray:
    """Least-squares coefficients of y on the basis [1, x, e^{rate x} ...].

    With x = ln r and y the log of a decaying quantity, the x coefficient
    is its power-law exponent, and each closed-form rate pins a known
    subleading mode without adding a nonlinear parameter.  Each column is
    scaled to unit maximum for the solve: e^{rate x} spans many decades.
    """
    cols = np.column_stack([np.ones_like(x), x]
                           + [np.exp(rate * x) for rate in rates])
    scale = np.abs(cols).max(axis=0)
    return np.linalg.lstsq(cols / scale, y, rcond=None)[0] / scale


def zgap_fit(eta: np.ndarray, Z: np.ndarray,
             consts: DerivedConstants) -> tuple[float, float, float] | None:
    """(theta, s0, A) of the decay of Z = r (-f')^{q-p+1} to Zstar along
    the fast-decay branch, from samples at eta = ln r; None when fewer
    than 10 samples have 0 < Z < Zstar.

    s = Zstar/Z - 1 obeys s' = -theta s - nu (1+s)(alpha X - beta Y), so
    it decays like s0 r^{-theta} up to a forcing of relative rate lambda2,
    its square, and a departure term r^{lambda1+theta} -- all known in
    closed form.  log_fit regresses ln s on [1, eta, e^{lambda2 eta},
    e^{2 lambda2 eta}, e^{(lambda1+theta) eta}], which pins those shapes
    and leaves -theta in the eta coefficient.  The tail amplitude of
    w = Kstar - A r^{-theta} follows as A = Kstar mu(mu+1)/(mu+theta) s0.
    """
    ok = (Z > 0.0) & (Z < consts.Zstar)
    if int(ok.sum()) < 10:
        return None
    spec = spectral_data(consts)
    rates = (spec.lambda2, 2.0 * spec.lambda2, spec.lambda1 + consts.theta)
    co = log_fit(eta[ok], np.log(consts.Zstar / Z[ok] - 1.0), rates)
    theta, s0 = -co[1], math.exp(co[0])
    mu = consts.mu
    return theta, s0, consts.Kstar * mu * (mu + 1.0) / (mu + theta) * s0

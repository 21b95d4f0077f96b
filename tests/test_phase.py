"""Autonomous phase-space system: field, linearization, orbits, rates."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from extinction import (
    exact_orbit,
    extract_rates,
    fit_tail,
    integrate_phase,
    jacobian,
    map_to_phase,
    path_dynamics_residual,
    phasepath_csv,
    ratefit_json,
    vector_field,
)

A_EST_N1 = 4.153e-4


def orbit_error(consts, rho, eta_end=10.0, backward=False):
    """Max deviation from the explicit orbit, per-coordinate, relative to
    the fixed initial amplitudes (|rho| beta, |rho| alpha, Zstar) at
    eta = 0; integrated from eta = 0 to eta_end, or, `backward`, from the
    orbit's point at eta_end back to eta = 0."""
    x0 = (rho * consts.beta, rho * consts.alpha, consts.Zstar)
    span = (0.0, eta_end)
    if backward:
        X, Y, Z = exact_orbit(consts, rho, np.array([eta_end]))
        x0, span = (X[0], Y[0], Z[0]), (eta_end, 0.0)
    path = integrate_phase(x0, span, consts)
    Xe, Ye, Ze = exact_orbit(consts, rho, path.eta)
    scale = abs(rho)
    return max(np.abs(path.X - Xe).max() / (scale * consts.beta),
               np.abs(path.Y - Ye).max() / (scale * consts.alpha),
               np.abs(path.Z - Ze).max() / consts.Zstar)


class TestVectorField:
    def test_critical_point_is_fixed(self, consts1):
        d = vector_field((0.0, 0.0, consts1.Zstar), consts1)
        assert d == (0.0, 0.0, 0.0)

    def test_explicit_orbit_velocity(self, consts1):
        # on the explicit orbit the velocity is lambda2 * (X, Y, 0)
        rho = 0.1
        d = vector_field((rho * consts1.beta, rho * consts1.alpha,
                          consts1.Zstar), consts1)
        assert d[0] == pytest.approx(-0.1, rel=1e-10)
        assert d[1] == pytest.approx(-7.0 / 30.0, rel=1e-10)
        assert d[2] == pytest.approx(0.0, abs=1e-15)

    def test_vectorized_evaluation(self, consts1):
        pts = np.array([[0.1, 0.2], [0.3, 0.1], [0.5, 0.6]])
        dX, dY, dZ = vector_field(pts, consts1)
        for j in range(2):
            one = vector_field((pts[0, j], pts[1, j], pts[2, j]), consts1)
            assert (dX[j], dY[j], dZ[j]) == pytest.approx(one, rel=1e-14)


class TestJacobian:
    def test_finite_difference_agreement(self, consts1):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            x = rng.uniform(0.0, 2.0, 3)
            J = jacobian(x, consts1)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                col = (np.array(vector_field(x + e, consts1))
                       - np.array(vector_field(x - e, consts1))) / (2 * h)
                scale = max(1.0, np.abs(J).max())
                assert np.abs(col - J[:, i]).max() <= 1e-6 * scale


class TestExplicitOrbit:
    def test_Z_pinned(self, consts1):
        _, _, Z = exact_orbit(consts1, 0.1, np.linspace(0, 5, 11))
        assert np.all(Z == consts1.Zstar)

    def test_integration_matches_tightly(self, consts1):
        assert orbit_error(consts1, 0.1) <= 1e-8

    @pytest.mark.parametrize("rho", [0.1, -0.1, 0.01, -0.01])
    def test_integration_matches_both_signs(self, consts1, rho):
        assert orbit_error(consts1, rho) <= 1e-7

    @pytest.mark.parametrize("rho", [0.1, -0.1, 0.01, -0.01])
    def test_backward_span_matches(self, consts1, rho):
        # eta from 10 back to 0, stepped backward
        assert orbit_error(consts1, rho, backward=True) <= 1e-7

    def test_span_past_the_rtol_floor_says_so(self, consts1):
        # the local rtol tol e^{-lambda1 |delta eta|} reaches the 100-ulp
        # floor past |delta eta| = ln(tol / 100 ulp) / lambda1 = 5.05 here
        # (lambda1 = 5/3, tol 1e-10); detail then gives the bound
        # 100 ulp e^{lambda1 |delta eta|} the run still holds, which the
        # error on the explicit orbit keeps
        x0 = (-0.1 * consts1.beta, -0.1 * consts1.alpha, consts1.Zstar)
        assert integrate_phase(x0, (0.0, 5.0), consts1).detail == ""
        bound = 100 * np.finfo(float).eps * np.exp(5.0 / 3.0 * 20.0)
        assert integrate_phase(x0, (0.0, 20.0), consts1).detail == (
            "tol=1e-10 not held: steps at the 100-ulp rtol floor bound the "
            f"error only by 100 ulp e^(lambda1 |delta eta|) = {bound:.3g}")
        assert 1e-3 < orbit_error(consts1, -0.1, eta_end=20.0) <= bound

    def test_critical_point_stays_fixed(self, consts1):
        path = integrate_phase((0.0, 0.0, consts1.Zstar), (0.0, 10.0),
                               consts1)
        assert np.abs(path.X).max() == 0.0
        assert np.abs(path.Y).max() == 0.0
        assert np.abs(path.Z - consts1.Zstar).max() == 0.0

    @pytest.mark.filterwarnings("error")
    def test_tol_below_100_ulp_raised_without_warning(self, consts1):
        # scipy would warn that rtol is too small and raise it to 100 ulp;
        # integrate_phase raises it first, to the same value
        x0, span = (0.15, 0.35, 0.6667), (0.0, 3.0)
        tiny = integrate_phase(x0, span, consts1, tol=1e-20)
        floor = integrate_phase(x0, span, consts1,
                                tol=100 * np.finfo(float).eps)
        for name in ("eta", "X", "Y", "Z"):
            assert np.array_equal(getattr(tiny, name), getattr(floor, name))


class TestMappedPath:
    def test_nonnegative_coordinates(self, star1, consts1):
        _, traj, _ = star1
        path = map_to_phase(traj, consts1)
        assert np.all(path.X >= 0)
        assert np.all(path.Y >= 0)
        assert np.all(path.Z >= 0)
        assert np.all(np.diff(path.eta) > 0)

    def test_Z_approaches_from_below(self, star1, consts1):
        _, traj, _ = star1
        path = map_to_phase(traj, consts1)
        assert np.all(path.Z - consts1.Zstar <= 1e-12)
        assert path.Z[-1] == pytest.approx(consts1.Zstar, rel=1e-3)

    def test_dynamics_residual(self, star1, consts1):
        _, traj, _ = star1
        path = map_to_phase(traj, consts1)
        assert path_dynamics_residual(path, consts1) <= 1e-4

    def test_undefined_samples_skipped_with_warning(self, star1, consts1):
        _, traj, _ = star1
        f = traj.f.copy()
        fp = traj.fprime.copy()
        fp[5] = 0.0
        f[7] = -f[7]
        bad = SimpleNamespace(r=traj.r, f=f, fprime=fp)
        path = map_to_phase(bad, consts1)
        assert len(path.eta) == len(traj.r) - 2
        assert path.detail == ("skipped 2 sample(s) with f' = 0 or f <= 0 "
                               "(phase map undefined there)")


class TestExtractRates:
    def test_rates_and_limits(self, star1, consts1):
        _, traj, _ = star1
        fit = extract_rates(map_to_phase(traj, consts1), consts1)
        assert fit.lambda2_est == pytest.approx(-2.0 / 3.0, rel=0.02)
        assert fit.lambda3_est == pytest.approx(-1.0, rel=0.05)
        u_target = ((consts1.mu * consts1.Kstar) ** (2.0 - consts1.p)
                    / (consts1.p - consts1.q))
        assert fit.Uinf_est == pytest.approx(u_target, rel=0.02)
        assert fit.Vinf_est < 0
        assert fit.A_from_Vinf == pytest.approx(A_EST_N1, rel=0.10)
        assert fit.flags == ()

    def test_frozen_regression_values(self, star1, consts1):
        _, traj, _ = star1
        fit = extract_rates(map_to_phase(traj, consts1), consts1)
        assert fit.lambda2_est == pytest.approx(-0.66643, abs=1e-3)
        assert fit.lambda3_est == pytest.approx(-1.00014, abs=2e-3)

    def test_same_fit_as_fit_tail(self, star1, consts1):
        # lambda3 and A_from_Vinf come from the one regression of
        # Zstar/Z - 1 that fit_tail reads theta and A from; only the
        # rounding of Z's two computations separates them
        _, traj, _ = star1
        rates = extract_rates(map_to_phase(traj, consts1), consts1)
        fit = fit_tail(traj, consts1)
        assert -rates.lambda3_est == pytest.approx(fit.theta_est, rel=1e-9)
        assert rates.A_from_Vinf == pytest.approx(fit.A_est, rel=1e-9)
        assert rates.Vinf_est < 0

    def test_nonconverged_path_rejected(self, consts1):
        path = integrate_phase((2.0, 0.1, 1.0), (0.0, 3.0), consts1)
        with pytest.raises(RuntimeError, match="converge"):
            extract_rates(path, consts1)

    def test_json_schema(self, star1, consts1):
        _, traj, _ = star1
        fit = extract_rates(map_to_phase(traj, consts1), consts1)
        d = json.loads(ratefit_json(fit))
        assert {"lambda2_est", "lambda3_est", "Uinf_est", "Vinf_est",
                "A_from_Vinf"} <= set(d)


def test_phasepath_csv_header(star1, consts1):
    _, traj, _ = star1
    path = map_to_phase(traj, consts1)
    text = phasepath_csv(path)
    assert "# source,mapped-from-profile" in text
    header = next(ln for ln in text.splitlines() if not ln.startswith("#"))
    assert header == "eta,X,Y,Z"

"""w-transform, fast-decay certificate, and second-order tail fitting."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extinction import (
    WState,
    certify_B,
    fit_tail,
    integrate_profile,
    tailfit_json,
    w_residual,
    w_transform,
)

A_STAR_N1 = 2.3028967658101465


def singular_states(consts, r_lo=1.0, r_hi=100.0, n=2000):
    """The explicit singular solution f = K* r^{-mu}: w is identically K*."""
    r = np.geomspace(r_lo, r_hi, n)
    Kst, mu = consts.Kstar, consts.mu
    traj = SimpleNamespace(r=r, f=Kst * r ** -mu,
                           fprime=-mu * Kst * r ** -(mu + 1.0))
    return traj


def model_states(consts, K, A, theta, r_lo=10.0, r_hi=100.0, n=60):
    """Trajectory samples (r, f, f') of the exact model w = K - A r^{-theta},
    with fprime consistent through r w' = mu w + r^{mu+1} f'."""
    r = np.geomspace(r_lo, r_hi, n)
    mu = consts.mu
    w = K - A * r ** -theta
    wp = A * theta * r ** -(theta + 1.0)
    fprime = (r * wp - mu * w) / r ** (mu + 1.0)
    return SimpleNamespace(r=r, f=w * r ** -mu, fprime=fprime)


class TestWTransform:
    def test_pointwise_value(self, consts1):
        stt = w_transform(SimpleNamespace(r=np.array([2.0]),
                                          f=np.array([0.1]),
                                          fprime=np.array([-0.01])),
                          consts1)
        assert stt.w[0] == pytest.approx(0.1 * 2.0 ** (7.0 / 3.0), rel=1e-12)
        assert stt.w[0] == pytest.approx(0.50397, rel=1e-4)

    def test_singular_solution_is_constant(self, consts1):
        stt = w_transform(singular_states(consts1), consts1)
        Kst, mu = consts1.Kstar, consts1.mu
        assert np.allclose(stt.w, Kst, rtol=1e-12)
        assert np.allclose(stt.Wtail, -mu * Kst, rtol=1e-12)

    def test_Wtail_definition_consistency(self, star1, consts1):
        _, traj, _ = star1
        stt = w_transform(traj, consts1)
        want = traj.r ** (consts1.mu + 1.0) * traj.fprime
        assert np.allclose(stt.Wtail, want, rtol=1e-10)

    def test_round_trip(self, star1, consts1):
        _, traj, _ = star1
        stt = w_transform(traj, consts1)
        f_back = stt.w * stt.r ** -consts1.mu
        assert np.allclose(f_back, traj.f, rtol=1e-12)

    def test_profile_w_increasing_below_Kstar(self, star1, consts1):
        _, traj, _ = star1
        stt = w_transform(traj, consts1)
        assert np.all(np.diff(stt.w) > 0)
        assert stt.w.max() <= consts1.Kstar * (1.0 + 1e-12)

    def test_rejects_nonpositive_r(self, consts1):
        with pytest.raises(ValueError):
            w_transform(SimpleNamespace(r=np.array([0.0, 1.0]),
                                        f=np.array([1.0, 1.0]),
                                        fprime=np.array([-1.0, -1.0])),
                        consts1)


class TestWResidual:
    def test_constant_solution_annihilated(self, consts1):
        assert w_residual(singular_states(consts1), consts1) <= 1e-12

    def test_profile_residual_small(self, star1, consts1):
        _, traj, _ = star1
        assert w_residual(traj, consts1) <= 1e-6

    def test_corruption_detected(self, star1, consts1):
        _, traj, _ = star1
        bad = SimpleNamespace(r=traj.r, f=traj.f * 1.01,
                              fprime=traj.fprime * 1.01)
        assert w_residual(bad, consts1) > 1e-3

    def test_needs_five_samples(self, consts1):
        with pytest.raises(ValueError):
            w_residual(singular_states(consts1, n=4), consts1)

    def test_needs_log_uniform_grid(self, consts1):
        sng = singular_states(consts1)
        sng.r = np.linspace(1.0, 100.0, 2000)
        with pytest.raises(ValueError):
            w_residual(sng, consts1)


class TestCertifyB:
    def test_profile_passes_all_five(self, star1, consts1):
        _, traj, _ = star1
        rep = certify_B(traj, consts1)
        assert rep.ok
        assert all(rep.checks.values())
        assert set(rep.checks) == {"w_in_band", "w_monotone", "w_limit",
                                   "slope_decay", "deriv_limit"}
        assert rep.w_end == pytest.approx(consts1.Kstar, rel=0.01)

    def test_above_star_fails_band_or_monotone(self, consts1):
        traj = integrate_profile(consts1, 1.1 * A_STAR_N1, 100.0,
                                 n_samples=2048)
        rep = certify_B(traj, consts1)
        assert not rep.ok
        assert (not rep.checks["w_in_band"]) or (not rep.checks["w_monotone"])

    def test_below_star_fails_band(self, consts1):
        traj = integrate_profile(consts1, 0.9 * A_STAR_N1, 100.0,
                                 n_samples=2048)
        assert not certify_B(traj, consts1).checks["w_in_band"]

    def test_singular_solution_boundary(self, consts1):
        rep = certify_B(singular_states(consts1), consts1)
        cks = rep.checks
        assert cks["w_in_band"] and cks["w_limit"]
        assert cks["slope_decay"] and cks["deriv_limit"]

    def test_candidate_certificate_unreachable_n2(self, star2, consts2):
        # the N=2 bisection exhausts double precision before the tail
        # settles; the certificate must report that honestly
        _, traj, _ = star2
        rep = certify_B(traj, consts2)
        assert not rep.ok
        assert not rep.checks["w_limit"]


class TestFitTail:
    def test_exact_model_recovery(self, consts1):
        model = model_states(consts1, consts1.Kstar, 0.7, 1.0)
        fit = fit_tail(model, consts1, window=(10.0, 100.0))
        assert fit.theta_est == pytest.approx(1.0, abs=1e-6)
        assert fit.A_est == pytest.approx(0.7, abs=1e-6)
        assert fit.accepted

    def test_profile_theta_and_A(self, star1, consts1):
        _, traj, _ = star1
        fit = fit_tail(traj, consts1)
        assert 0.95 <= fit.theta_est <= 1.05
        assert fit.theta_est == pytest.approx(1.000143, abs=1e-3)
        assert fit.A_est > 0
        assert fit.A_est == pytest.approx(4.153e-4, rel=0.02)
        assert fit.accepted
        assert fit.residual_rms <= 1e-3 * fit.K_est

    def test_window_shift_stability(self, star1, consts1):
        _, traj, _ = star1
        t1 = fit_tail(traj, consts1, window=(10.0, 100.0)).theta_est
        t2 = fit_tail(traj, consts1, window=(5.0, 50.0)).theta_est
        assert abs(t1 - t2) <= 1e-3

    def test_candidate_theta_n2(self, star2, consts2):
        _, traj, _ = star2
        fit = fit_tail(traj, consts2)
        assert 0.76 <= fit.theta_est <= 0.84

    def test_window_too_short(self, consts1):
        model = model_states(consts1, consts1.Kstar, 0.7, 1.0, n=30)
        with pytest.raises(RuntimeError):
            fit_tail(model, consts1, window=(99.0, 100.0))

    @pytest.mark.parametrize("window", [(100.0, 10.0), (math.nan, 50.0),
                                        (10.0, math.inf), (50.0, 50.0)])
    def test_window_not_finite_with_lo_below_hi_refused(self, consts1,
                                                         window):
        # (100, 10) once raised RuntimeError, "fewer than 10 samples"
        model = model_states(consts1, consts1.Kstar, 0.7, 1.0)
        with pytest.raises(ValueError, match="window must be finite with "
                           r"lo < hi, got \("):
            fit_tail(model, consts1, window=window)

    def test_gap_must_stay_positive(self, consts1):
        model = model_states(consts1, consts1.Kstar * 1.5, 0.7, 1.0)
        with pytest.raises(RuntimeError):
            fit_tail(model, consts1, window=(10.0, 100.0))

    @pytest.mark.parametrize("rel", [-5e-13, 0.0, 2.1e-16, 5e-13])
    def test_sample_at_kstar_within_rounding_is_left_out(self, consts1, rel):
        # the last sample of a profile cut where w reaches Kstar
        model = model_states(consts1, consts1.Kstar, 0.7, 1.0)
        mu = consts1.mu
        f_end = consts1.Kstar * (1.0 - rel) * 101.0 ** -mu
        cut = SimpleNamespace(
            r=np.append(model.r, 101.0), f=np.append(model.f, f_end),
            fprime=np.append(model.fprime, model.fprime[-1]))
        fit = fit_tail(cut, consts1, window=(10.0, 101.0))
        ref = fit_tail(model, consts1, window=(10.0, 100.0))
        assert (fit.A_est, fit.theta_est) == (ref.A_est, ref.theta_est)

    def test_sample_past_kstar_beyond_rounding_raises(self, consts1):
        model = model_states(consts1, consts1.Kstar, 0.7, 1.0)
        model.f[-1] = (consts1.Kstar * (1.0 + 1e-11)
                       * model.r[-1] ** -consts1.mu)
        with pytest.raises(RuntimeError, match="Kstar - w"):
            fit_tail(model, consts1, window=(10.0, 100.0))

    def test_theta_far_from_theory_raises(self, consts1):
        # exact-model data with theta 60 % above consts.theta = 1: the fit
        # recovers it, and it is named a failure instead of returned
        model = model_states(consts1, consts1.Kstar, 0.7, 1.6)
        with pytest.raises(RuntimeError, match="tail exponent off theory"):
            fit_tail(model, consts1, window=(10.0, 100.0))

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.6, 1.4), A=st.floats(0.1, 1.0))
    def test_property_model_recovery(self, consts1, theta, A):
        # regression correctness alone: exact-model data with K = Kstar
        model = model_states(consts1, consts1.Kstar, A, theta)
        fit = fit_tail(model, consts1, window=(10.0, 100.0))
        assert fit.K_est == consts1.Kstar
        assert fit.theta_est == pytest.approx(theta, rel=1e-6)
        assert fit.A_est == pytest.approx(A, rel=1e-6)

    def test_json_schema(self, star1, consts1):
        _, traj, _ = star1
        fit = fit_tail(traj, consts1)
        d = json.loads(tailfit_json(fit))
        assert {"K_est", "A_est", "theta_est", "window",
                "residual_rms"} <= set(d)
        assert "stage2" not in d

"""Acceptance criteria, one test per criterion at the stated tolerance.

Each test prints a single summary line with the measured quantities so a
verbose run doubles as the acceptance report.  Criteria with a stated
runtime bound assert the elapsed wall time as well.
"""

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from extinction import (
    RadialGrid,
    build_initial,
    certify_B,
    classify,
    extract_rates,
    find_bracket,
    find_profile,
    fit_tail,
    implicit_step,
    integrate_profile,
    map_to_phase,
    metrics_json,
    path_dynamics_residual,
    run_and_measure,
    trajectory_csv,
)

from test_exponents import check_identities, sample_params
from test_phase import orbit_error


def test_criterion_1_constant_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = max(check_identities(sample_params(rng), rtol=1e-10)
                for _ in range(100))
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"identity suite took {dt:.2f}s (bound 1s)"
    print(f"criterion 1 PASS: 100 triples, worst rel err {worst:.2e}, "
          f"{dt:.2f}s")


def test_criterion_2_shooting_classification(consts1):
    t0 = time.perf_counter()
    assert classify(consts1, 0.01, 100.0).label == "C"
    assert classify(consts1, 100.0, 100.0).label == "A"
    br = find_bracket(consts1, r_max=100.0)
    a_star, _, transcript = find_profile(consts1, br,
                                         a_tol=1e-10, r_max=100.0)
    width = (transcript["hi"] - transcript["lo"]) / transcript["lo"]
    assert width <= 1e-10
    assert classify(consts1, 0.99 * a_star, 100.0).label == "C"
    assert classify(consts1, 1.01 * a_star, 100.0).label == "A"
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"classification suite took {dt:.1f}s (bound 30s)"
    print(f"criterion 2 PASS: a* = {a_star:.12f}, bracket rel width "
          f"{width:.2e}, {dt:.1f}s")


def test_criterion_3_B_certification(star1, consts1):
    _, traj, _ = star1
    rep = certify_B(traj, consts1)  # 1% K* / 5% muK* default tolerances
    assert rep.ok, rep.checks
    print(f"criterion 3 PASS: all five checks, w(r_max) = {rep.w_end:.8f} "
          f"vs K* = {consts1.Kstar:.8f}")


def test_criterion_4_second_order_tail(star1, consts1, star2, consts2):
    t0 = time.perf_counter()
    _, traj, _ = star1
    fit = fit_tail(traj, consts1)
    assert abs(fit.theta_est - 1.0) <= 0.05
    assert fit.A_est > 0
    shifted = fit_tail(traj, consts1, window=(5.0, 50.0))
    drift = abs(fit.theta_est - shifted.theta_est)
    assert drift <= 1e-3
    dt1 = time.perf_counter() - t0
    assert dt1 < 60.0

    t0 = time.perf_counter()
    _, traj2, _ = star2
    fit2 = fit_tail(traj2, consts2)
    assert abs(fit2.theta_est - 0.80) <= 0.04
    dt2 = time.perf_counter() - t0
    assert dt2 < 60.0
    print(f"criterion 4 PASS: N=1 theta {fit.theta_est:.6f} "
          f"(shift drift {drift:.1e}), N=2 theta {fit2.theta_est:.6f}, "
          f"{dt1:.1f}s/{dt2:.1f}s")


def test_criterion_5_phase_dynamics(star1, consts1):
    _, traj, _ = star1
    path = map_to_phase(traj, consts1)
    res = path_dynamics_residual(path, consts1)
    assert res <= 1e-4
    rates = extract_rates(path, consts1)
    assert rates.lambda2_est == pytest.approx(-2.0 / 3.0, rel=0.02)
    assert rates.lambda3_est == pytest.approx(-1.0, rel=0.05)
    u_target = ((consts1.mu * consts1.Kstar) ** (2.0 - consts1.p)
                / (consts1.p - consts1.q))
    assert rates.Uinf_est == pytest.approx(u_target, rel=0.02)
    A_est = fit_tail(traj, consts1).A_est
    assert rates.A_from_Vinf == pytest.approx(A_est, rel=0.10)
    print(f"criterion 5 PASS: residual {res:.2e}, lambda2 "
          f"{rates.lambda2_est:.6f}, lambda3 {rates.lambda3_est:.6f}, "
          f"Uinf {rates.Uinf_est:.6f} (target {u_target:.6f}), "
          f"A_from_Vinf/A_est = {rates.A_from_Vinf / A_est:.6f}")


def test_criterion_6_exact_orbit(consts1):
    err = orbit_error(consts1, rho=0.1, eta_end=10.0)
    assert err <= 1e-8
    print(f"criterion 6 PASS: max relative deviation {err:.2e}")


def test_criterion_7_extinction_rates(star1, consts1):
    t0 = time.perf_counter()
    _, traj, _ = star1
    sel = {}
    m800 = None
    for M in (200, 400, 800):
        grid = RadialGrid(L=40.0, M=M)
        fld = build_initial(traj, consts1, T=1.0, grid=grid)
        m = run_and_measure(fld, grid, t_end=0.8)
        assert m.stable
        sel[M] = m.selfsim_error
        if M == 800:
            m800 = m
    dt = time.perf_counter() - t0
    assert m800.alpha_est == pytest.approx(3.5, abs=0.2)
    assert m800.l1_exponent_est == pytest.approx(2.0, abs=0.2)
    assert m800.selfsim_error <= 0.05
    assert sel[200] > sel[400] > sel[800]
    assert dt < 300.0, f"PDE suite took {dt:.0f}s (bound 300s)"
    print(f"criterion 7 PASS: alpha {m800.alpha_est:.4f}, l1 exponent "
          f"{m800.l1_exponent_est:.4f}, selfsim "
          f"{sel[200]:.4f} > {sel[400]:.4f} > {sel[800]:.4f}, {dt:.0f}s")


def test_criterion_8_property_suites(star1, consts1):
    _, btraj, _ = star1
    # energy monotone on A-, B- and C-class trajectories
    for a in (0.01, 0.5, btraj.a, 10.0, 100.0):
        tr = integrate_profile(consts1, a, 100.0, n_samples=2048)
        e = tr.energy[tr.f > 0]
        assert np.all(np.diff(e) <= 1e-12 * e[0]), f"energy rises at a={a}"
    # mapped phase coordinates nonnegative
    path = map_to_phase(btraj, consts1)
    assert min(path.X.min(), path.Y.min(), path.Z.min()) >= 0.0
    # fit_tail recovers an exact model to 1e-6
    r = np.geomspace(10.0, 100.0, 60)
    mu = consts1.mu
    w = consts1.Kstar - 0.7 * r ** -1.0
    wp = 0.7 * r ** -2.0
    synth = SimpleNamespace(r=r, f=w * r ** -mu,
                            fprime=(r * wp - mu * w) / r ** (mu + 1.0))
    fit = fit_tail(synth, consts1, (10.0, 100.0))
    assert fit.theta_est == pytest.approx(1.0, abs=1e-6)
    assert fit.A_est == pytest.approx(0.7, abs=1e-6)
    # PDE ordering preserved over 100 steps
    grid = RadialGrid(L=40.0, M=100)
    lo = build_initial(btraj, consts1, T=1.0, grid=grid)
    hi = dataclasses.replace(lo, values=lo.values + 0.05 * lo.values.max())
    eps = 0.016 * grid.dx
    step_dt = 0.3 * grid.dx ** 2 * eps ** (2.0 - consts1.p)
    for _ in range(100):
        lo = implicit_step(lo, grid, eps, step_dt)
        hi = implicit_step(hi, grid, eps, step_dt)
        assert np.all(lo.values <= hi.values + 1e-14)
    # determinism: byte-identical reruns
    t1 = integrate_profile(consts1, 1.0, 10.0, n_samples=512)
    t2 = integrate_profile(consts1, 1.0, 10.0, n_samples=512)
    assert (trajectory_csv(t1, consts1)
            == trajectory_csv(t2, consts1))
    f1 = build_initial(btraj, consts1, T=1.0, grid=grid)
    m1 = run_and_measure(f1, grid, t_end=0.8)
    m2 = run_and_measure(f1, grid, t_end=0.8)
    assert metrics_json(m1) == metrics_json(m2)
    print("criterion 8 PASS: energy monotone (5 trajectories), "
          "phase coords nonnegative, exact-model recovery 1e-6, "
          "ordering held 100 steps, reruns byte-identical")

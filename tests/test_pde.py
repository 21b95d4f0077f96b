"""Radial finite-volume solver and extinction-rate measurement."""

import ctypes
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from extinction import (
    RadialGrid,
    SelfSimilarField,
    build_initial,
    fit_tail,
    implicit_step,
    integrate_profile,
    metrics_json,
    profile_interpolant,
    run_and_measure,
)
from extinction import pde
from extinction.pde import _schedule

A_STAR_N1 = 2.3028967658101465


@pytest.fixture(scope="module")
def interp1(star1, consts1):
    _, traj, _ = star1
    fit = fit_tail(traj, consts1)
    return profile_interpolant(traj, consts1, fit.A_est)


@pytest.fixture(scope="module")
def field1(star1, consts1):
    _, traj, _ = star1
    grid = RadialGrid(L=40.0, M=200)
    return build_initial(traj, consts1, T=1.0, grid=grid), grid


@pytest.fixture(scope="module")
def run200(field1, consts1):
    """The M=200, t_end=0.8 run shared by the TestRunAndMeasure checks."""
    fld, grid = field1
    return run_and_measure(fld, grid, t_end=0.8)


@pytest.fixture(scope="module")
def field100(star1, consts1):
    _, traj, _ = star1
    grid = RadialGrid(L=40.0, M=100)
    return build_initial(traj, consts1, T=1.0, grid=grid), grid


@pytest.fixture(scope="module")
def field400(star1, consts1):
    _, traj, _ = star1
    grid = RadialGrid(L=40.0, M=400)
    return build_initial(traj, consts1, T=1.0, grid=grid), grid


@pytest.fixture(scope="module")
def field8000(star1, consts1):
    """The M=8000 field, where the planned absorption cap binds."""
    _, traj, _ = star1
    grid = RadialGrid(L=40.0, M=8000)
    return build_initial(traj, consts1, T=1.0, grid=grid), grid


DT_FRAC = inspect.signature(run_and_measure).parameters["dt_frac"].default


class TestRadialGrid:
    def test_geometry_n1(self):
        g = RadialGrid(L=40.0, M=200)
        assert g.dx == 0.2
        assert g.centers()[0] == pytest.approx(0.1)
        assert len(g.faces()) == 201
        assert np.all(g.face_areas(1) == 1.0)
        assert np.allclose(g.cell_volumes(1), g.dx, rtol=1e-14)

    def test_geometry_n2(self):
        g = RadialGrid(L=10.0, M=50)
        rf = g.faces()
        assert np.allclose(g.face_areas(2), rf, rtol=1e-14)
        assert np.allclose(g.cell_volumes(2),
                           0.5 * (rf[1:] ** 2 - rf[:-1] ** 2), rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(L=0.0, M=10)
        with pytest.raises(ValueError):
            RadialGrid(L=1.0, M=0)
        for L in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite L"):
                RadialGrid(L=L, M=10)


class TestProfileInterpolant:
    def test_center_value(self, star1, interp1):
        a_star, _, _ = star1
        assert interp1(0.0) == pytest.approx(a_star, rel=1e-12)

    def test_monotone_decreasing(self, interp1):
        x = np.linspace(0.0, 200.0, 4001)
        assert np.all(np.diff(interp1(x)) <= 0.0)

    def test_held_out_samples(self, star1, consts1):
        # interpolant built from every other sample must reproduce the
        # withheld samples of the same solution
        _, traj, _ = star1
        fit = fit_tail(traj, consts1)
        sub = dataclasses.replace(traj, r=traj.r[::2], f=traj.f[::2],
                                  fprime=traj.fprime[::2], F=traj.F[::2],
                                  energy=traj.energy[::2])
        fn = profile_interpolant(sub, consts1, fit.A_est)
        # points past the decimated range hit the fitted-tail branch and
        # measure the fit residual instead of interpolation; exclude them
        keep = traj.r[1::2] <= sub.r[-1]
        r_t = traj.r[1::2][keep]
        err = np.abs(fn(r_t) - traj.f[1::2][keep]) / traj.f[1::2][keep]
        assert err.max() <= 1e-8

    def test_dense_solve_accuracy(self, consts1):
        # built from the even samples of a 7,999-sample solve (4,000, the
        # default density), the interpolant meets the odd ones to 1e-10:
        # its node slopes r f'/f are the solve's, not estimates
        traj = integrate_profile(consts1, A_STAR_N1, 100.0, n_samples=7999)
        even = dataclasses.replace(traj, **{
            k: getattr(traj, k)[::2]
            for k in ("r", "f", "fprime", "F", "energy")})
        # the odd samples lie inside the even range: A_est goes unused
        fn = profile_interpolant(even, consts1, A_est=0.0)
        assert len(even.r) == 4000
        assert np.abs(fn(traj.r[1::2]) / traj.f[1::2] - 1.0).max() <= 1e-10
        assert np.abs(fn(even.r) / even.f - 1.0).max() <= 1e-14

    def test_tail_extension(self, interp1, consts1, star1, fit=None):
        _, traj, _ = star1
        from extinction import fit_tail as ft
        fit = ft(traj, consts1)
        r = 1000.0
        want = (consts1.Kstar * r ** -consts1.mu
                * (1.0 - fit.A_est / consts1.Kstar * r ** -fit.theta_est))
        assert interp1(r) == pytest.approx(want, rel=1e-10)

    def test_seam_continuity(self, interp1, star1):
        # the jump at the data/tail seam is bounded by the tail-fit
        # residual (~3e-5 of w here); the solver never evaluates past the
        # seam since L (T-t)^beta stays well inside the trajectory range
        _, traj, _ = star1
        r_seam = traj.r[-1]
        lo = interp1(r_seam * (1.0 - 1e-9))
        hi = interp1(r_seam * (1.0 + 1e-9))
        assert hi == pytest.approx(lo, rel=1e-5)


class TestBuildInitial:
    def test_values_and_scaling(self, star1, consts1, interp1):
        _, traj, _ = star1
        grid = RadialGrid(L=40.0, M=200)
        fld = build_initial(traj, consts1, T=2.0, grid=grid)
        al, be = consts1.alpha, consts1.beta
        xc = grid.centers()
        assert np.allclose(fld.values,
                           2.0 ** al * interp1(xc * 2.0 ** be), rtol=1e-12)
        assert fld.exact(0.0, np.array([0.0]))[0] == pytest.approx(
            2.0 ** 3.5 * A_STAR_N1, rel=1e-9)

    def test_L_too_small(self, star1, consts1):
        _, traj, _ = star1
        with pytest.raises(RuntimeError, match="L too small"):
            build_initial(traj, consts1, 1.0, RadialGrid(L=4.0, M=40))

    @pytest.mark.parametrize("T", [-1.0, 0.0, math.nan, math.inf])
    def test_T_not_finite_and_positive_refused(self, star1, consts1, T):
        # these once went on to "L too small" (T = -1, a complex ratio) or
        # "L too large" (u(0, x) = 0 or nan)
        _, traj, _ = star1
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            build_initial(traj, consts1, T, RadialGrid(L=40.0, M=100))

    @pytest.mark.parametrize("T", [1e300, 1e-300])
    def test_T_power_outside_double_range_refused(self, star1, consts1, T):
        # T^(alpha + beta) = T^5 overflows or underflows: these once raised
        # OverflowError and "L too large: u(0,x) = 0"
        _, traj, _ = star1
        with pytest.raises(ValueError, match=r"got 1e[+-]300$"):
            build_initial(traj, consts1, T, RadialGrid(L=40.0, M=100))

    def test_uncertified_profile_rejected(self, consts1):
        traj = integrate_profile(consts1, 0.9 * A_STAR_N1, 100.0,
                                 n_samples=2048)
        with pytest.raises(RuntimeError, match="not certified"):
            build_initial(traj, consts1, 1.0, RadialGrid(L=40.0, M=100))

    def test_candidate_n2_not_certified(self, star2, consts2):
        # the N=2 candidate fails the certificate, which is always checked
        _, traj, _ = star2
        with pytest.raises(RuntimeError, match="not certified"):
            build_initial(traj, consts2, 1.0, RadialGrid(L=10.0, M=50))


class TestStep:
    # implicit_step at dt = 0.3 dx^2 eps^{2-p}, inside the diffusion
    # bound of an explicit update with the same fluxes
    def test_zero_data_stays_zero(self, consts1):
        grid = RadialGrid(L=40.0, M=100)
        zero = lambda r: np.zeros_like(np.asarray(r, float))
        fld = SelfSimilarField(T=1.0, t=0.0, values=np.zeros(100),
                               profile=zero, consts=consts1)
        eps = 0.016 * grid.dx
        new = implicit_step(fld, grid, eps, dt=0.3 * grid.dx ** 2
                            * eps ** (2.0 - consts1.p))
        assert np.all(new.values == 0.0)
        assert new.n_clipped == 0

    def test_sup_decreases(self, field1, consts1):
        fld, grid = field1
        eps = 0.016 * grid.dx
        dt = 0.3 * grid.dx ** 2 * eps ** (2.0 - consts1.p)
        new = implicit_step(fld, grid, eps, dt)
        assert new.values.max() < fld.values.max()
        assert new.t == pytest.approx(dt, rel=1e-14)

    def test_no_spurious_clipping(self, field1, consts1):
        fld, grid = field1
        eps = 0.016 * grid.dx
        dt = 0.3 * grid.dx ** 2 * eps ** (2.0 - consts1.p)
        cur = fld
        for _ in range(20):
            cur = implicit_step(cur, grid, eps, dt)
        assert cur.n_clipped == 0

    def test_ordering_preserved(self, field1, consts1):
        # comparison principle: data ordered initially stay ordered
        fld, grid = field1
        hi0 = dataclasses.replace(
            fld, values=fld.values + 0.05 * fld.values.max())
        eps = 0.016 * grid.dx
        dt = 0.3 * grid.dx ** 2 * eps ** (2.0 - consts1.p)
        lo, hi = fld, hi0
        for _ in range(100):
            lo = implicit_step(lo, grid, eps, dt)
            hi = implicit_step(hi, grid, eps, dt)
            assert np.all(lo.values <= hi.values + 1e-14)

    @pytest.mark.parametrize("N", [1, 2])
    def test_mass_budget(self, star1, star2, consts1, consts2, N):
        # conservative fluxes: the mass change of one step is the inflow
        # through the outer face (ghost at the new time, mobility lagged at
        # the old values with that ghost) minus the absorbed mass, which
        # is positive
        if N == 1:
            (_, traj, _), consts = star1, consts1
            grid = RadialGrid(L=40.0, M=200)
        else:
            (_, traj, _), consts = star2, consts2
            grid = RadialGrid(L=10.0, M=50)
        # build_initial's sampling without its certificate, which the
        # N=2 candidate fails: the budget holds for any data
        f_of = profile_interpolant(
            traj, consts, fit_tail(traj, consts).A_est)
        fld = SelfSimilarField(T=1.0, t=0.0, values=None, profile=f_of,
                               consts=consts)
        fld.values = fld.exact(0.0, grid.centers())
        p, q, dx, M = consts.p, consts.q, grid.dx, grid.M
        eps = 0.016 * dx
        dt = 0.3 * dx ** 2 * eps ** (2.0 - p)
        new = implicit_step(fld, grid, eps, dt)
        assert new.n_clipped == 0

        u, V = fld.values, grid.cell_volumes(N)
        g_new = fld.exact(dt, grid.L + 0.5 * dx)
        s = np.zeros(M + 1)
        s[1:M] = np.diff(u) / dx
        s[M] = (g_new - u[-1]) / dx
        k_M = (s[M] ** 2 + eps ** 2) ** ((p - 2.0) / 2.0)
        inflow = dt * grid.L ** (N - 1) * k_M * (g_new - new.values[-1]) / dx
        absorbed = dt * np.sum(V * np.abs(0.5 * (s[:-1] + s[1:])) ** q)
        mass = np.sum(V * u)
        assert absorbed > 0.0
        assert (abs(np.sum(V * (new.values - u)) - (inflow - absorbed))
                <= 1e-12 * mass)


class TestImplicitStep:
    # The explicit conservative update (dt = 0.3 dx^2 eps^{2-p}, same
    # fluxes) after n steps from the M-cell N=1 datum, frozen from that
    # kernel before it was deleted: (n, t, u[0], max|u - exact| / u[0]).
    # u[0] is its sup, and the largest explicit-implicit gap sits there.
    EXPLICIT = {
        100: (24, 0.02024866793421835, 1.986631704305312,
              0.010147792070487095),
        200: (165, 0.019988728673132554, 2.1358644059324745,
              0.0027128596151184685),
    }

    @pytest.mark.parametrize("M", [100, 200])
    def test_agrees_with_explicit_step(self, star1, consts1, M):
        # same spatial discretization: over 0.02 time units the two
        # kernels agree to 1e-4 of sup, over an order below their shared
        # distance to the exact solution, and closer as the implicit
        # dt shrinks
        _, traj, _ = star1
        n_ex, t_ex, sup, exact_err = self.EXPLICIT[M]
        grid = RadialGrid(L=40.0, M=M)
        fld = build_initial(traj, consts1, T=1.0, grid=grid)
        eps = 0.016 * grid.dx
        dt = 0.3 * grid.dx ** 2 * eps ** (2.0 - consts1.p)
        n = round(0.02 / dt)
        assert n == n_ex
        diffs = []
        for k in (1, 4):
            im = fld
            for _ in range(k * n):
                im = implicit_step(im, grid, eps, dt / k)
            assert im.t == pytest.approx(t_ex, abs=1e-14)
            diffs.append(abs(im.values[0] - sup) / sup)
        assert diffs[0] <= 1e-4
        assert diffs[0] <= 0.05 * exact_err
        assert diffs[1] < diffs[0]

    def test_no_diffusion_step_bound(self, field1, consts1):
        # 100x the diffusion bound 0.4 dx^2 / ((p-1) eps^{p-2}) of an
        # explicit update: finite, nonnegative, decaying
        fld, grid = field1
        eps = 0.016 * grid.dx
        dt = 100 * 0.4 * grid.dx ** 2 / ((consts1.p - 1.0)
                                         * eps ** (consts1.p - 2.0))
        new = implicit_step(fld, grid, eps, dt)
        assert np.all(np.isfinite(new.values))
        assert new.values.min() >= 0.0
        assert new.values.max() < fld.values.max()

    def test_absorption_cfl_violation_raises(self, field1):
        fld, grid = field1
        eps = 0.016 * grid.dx
        with pytest.raises(RuntimeError, match="absorption CFL"):
            implicit_step(fld, grid, eps, dt=1.0)

    @pytest.mark.parametrize("N", [1, 2])
    def test_dense_reference_and_clip_count(self, consts1, consts2, N):
        # a cliff on a coarse grid undershoots at its foot; the update
        # and its clip count match a dense solve of the stated system,
        # whose mobility and absorption take the Dirichlet ghost at the
        # new time.  The far field sits at the old ghost, so only the new
        # one makes the last cell absorb, and that cell is not clipped
        consts = consts1 if N == 1 else consts2
        p, q = consts.p, consts.q
        grid = RadialGrid(L=100.0, M=10)
        flat = lambda r: np.full_like(np.asarray(r, float), 0.01)
        u = np.where(np.arange(10) < 5, 1.0, 0.01)
        fld = SelfSimilarField(T=1.0, t=0.0, values=u,
                               profile=flat, consts=consts, n_clipped=3)
        eps, dt, dx = 0.016 * grid.dx, 0.1, grid.dx
        new = implicit_step(fld, grid, eps, dt)

        g_new = fld.exact(dt, grid.L + 0.5 * dx)
        s = np.zeros(11)
        s[1:10] = np.diff(u) / dx
        s[10] = (g_new - u[-1]) / dx
        k = (s ** 2 + eps ** 2) ** ((p - 2.0) / 2.0)
        k[0] = 0.0
        w = dt / dx * grid.face_areas(N) * k
        V = grid.cell_volumes(N)
        K = (np.diag(V + w[:-1] + w[1:])
             - np.diag(w[1:10], 1) - np.diag(w[1:10], -1))
        rhs = V * (u - dt * np.abs(0.5 * (s[:-1] + s[1:])) ** q)
        rhs[-1] += w[10] * g_new
        x = np.linalg.solve(K, rhs)
        n_neg = int(np.sum(x < -1e-10))
        assert n_neg >= 1
        assert new.n_clipped == 3 + n_neg
        assert np.allclose(new.values, np.maximum(x, 0.0),
                           rtol=1e-12, atol=1e-15)
        assert new.values.min() == 0.0
        assert 0.0 < new.values[-1] < 0.01


class TestBDF2Step:
    def test_step_ratio_bound(self, field1):
        # variable-step BDF2 is zero-stable only for omega < 1 + sqrt(2)
        fld, grid = field1
        eps = 0.016 * grid.dx
        one = implicit_step(fld, grid, eps, 1e-4)
        with pytest.raises(ValueError, match="step ratio"):
            implicit_step(one, grid, eps, 2.5e-4, fld)
        two = implicit_step(one, grid, eps, 2.4e-4, fld)
        assert two.t == pytest.approx(3.4e-4, rel=1e-14)

    @pytest.mark.parametrize("t_prev", [1e-4, 2e-4])
    def test_prev_must_come_before(self, field100, t_prev):
        # a prev at the time of fld would divide by zero in omega, one
        # after it gives omega < 0; neither step is taken
        fld, grid = field100
        eps = 0.016 * grid.dx
        one = implicit_step(fld, grid, eps, 1e-4)
        with pytest.raises(ValueError, match="step ratio"):
            implicit_step(one, grid, eps, 1e-4,
                          dataclasses.replace(fld, t=t_prev))

    @pytest.mark.parametrize("dt", [0.0, -1e-4, math.nan, math.inf])
    def test_dt_must_be_finite_and_positive(self, field100, dt):
        fld, grid = field100
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            implicit_step(fld, grid, 0.016 * grid.dx, dt)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_reg_must_be_finite_and_positive(self, field100, eps):
        # on zero data every interior face slope is 0, whose mobility is
        # infinite at eps_reg = 0; at nan the step came out all NaN
        fld, grid = field100
        zero = dataclasses.replace(fld, values=np.zeros(grid.M))
        with pytest.raises(ValueError,
                           match="eps_reg must be finite and > 0"):
            implicit_step(zero, grid, eps, 1e-4)

    def test_returned_values_keep_their_bits(self, field100):
        # the kernel's work arrays never end up in a returned field: a
        # step's values, and the input's, survive the steps taken after
        fld, grid = field100
        eps = 0.016 * grid.dx
        before = fld.values.tobytes()
        one = implicit_step(fld, grid, eps, 1e-4)
        kept = one.values.tobytes()
        two = implicit_step(one, grid, eps, 1e-4, fld)
        implicit_step(two, grid, eps, 1e-4, one)
        assert one.values.tobytes() == kept
        run_and_measure(fld, grid, t_end=0.3)
        assert fld.values.tobytes() == before

    @pytest.mark.parametrize("N", [1, 2])
    def test_dense_reference_and_m_matrix(self, consts1, consts2, N,
                                          monkeypatch):
        # the BDF2 update at omega = 0.8 matches a dense solve of
        #   a0 V u' + dt K(u*) u' = V h - dt V |s(u*)|^q + (ghost term),
        # with k and s at u* = (1+w) u - w u_prev and the ghost at the new
        # time; the matrix handed to dgtsv is that a0 V + dt K, and it is
        # an M-matrix
        consts = consts1 if N == 1 else consts2
        p, q = consts.p, consts.q
        grid = RadialGrid(L=100.0, M=10)
        M, dx = grid.M, grid.dx
        flat = lambda r: np.full_like(np.asarray(r, float), 0.05)
        u_prev = np.where(np.arange(M) < 5, 1.1, 0.0)
        u = np.where(np.arange(M) < 6, 1.0, 0.0)
        prev = SelfSimilarField(T=1.0, t=0.0, values=u_prev, profile=flat,
                                consts=consts)
        fld = dataclasses.replace(prev, t=0.125, values=u, n_clipped=3)
        eps, dt = 0.016 * dx, 0.1
        real, calls = pde._dgtsv(), []

        def spy(n, nrhs, *ptrs):
            # dgtsv(n, nrhs, dl, d, du, b, ldb, info): read dl, d, du and
            # b through their pointers before the real call
            calls.append(tuple(
                np.ctypeslib.as_array(ctypes.cast(a, dbl), (k,)).copy()
                for a, k in zip(ptrs, (M - 1, M, M - 1, M))))
            return real(n, nrhs, *ptrs)

        dbl = ctypes.POINTER(ctypes.c_double)
        monkeypatch.setattr(pde, "_dgtsv", lambda: spy)
        new = implicit_step(fld, grid, eps, dt, prev)

        om = dt / 0.125
        a0 = (1.0 + 2.0 * om) / (1.0 + om)
        h = (1.0 + om) * u - om ** 2 / (1.0 + om) * u_prev
        us = (1.0 + om) * u - om * u_prev
        g_new = fld.exact(fld.t + dt, grid.L + 0.5 * dx)
        s = np.zeros(M + 1)
        s[1:M] = np.diff(us) / dx
        s[M] = (g_new - us[-1]) / dx
        k = (s ** 2 + eps ** 2) ** ((p - 2.0) / 2.0)
        k[0] = 0.0
        w = dt / dx * grid.face_areas(N) * k
        V = grid.cell_volumes(N)
        A = (np.diag(a0 * V + w[:-1] + w[1:])
             - np.diag(w[1:M], 1) - np.diag(w[1:M], -1))
        rhs = V * (h - dt * np.abs(0.5 * (s[:-1] + s[1:])) ** q)
        rhs[-1] += w[M] * g_new
        x = np.linalg.solve(A, rhs)

        (dl, d, du, b), = calls
        Ak = np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)
        assert np.allclose(Ak, A, rtol=1e-14, atol=0.0)
        assert np.allclose(b, rhs, rtol=1e-14, atol=0.0)
        off = Ak - np.diag(d)
        assert np.all(d > 0.0)
        assert np.all(off <= 0.0)
        assert np.all(d - np.abs(off).sum(axis=1) > 0.0)
        n_neg = int(np.sum(x < -1e-10))
        assert n_neg >= 1
        assert new.n_clipped == 3 + n_neg
        assert np.allclose(new.values, np.maximum(x, 0.0),
                           rtol=1e-12, atol=1e-15)


class TestTridiagonalSolve:
    """pde's ctypes binding of LAPACK's dgtsv in numpy's LAPACK, against
    scipy's wrapper of dgtsv as the reference."""

    @pytest.mark.parametrize("n", [1, 2, 400])
    def test_bits_match_scipy(self, n):
        from scipy.linalg.lapack import dgtsv
        rng = np.random.default_rng(n)
        dl, du = -rng.random(n - 1), -rng.random(n - 1)
        d, b = 2.0 + rng.random(n), rng.standard_normal(n)
        # at n = 1 the binding takes empty off-diagonals, as on
        # RadialGrid(M=1), and scipy's wrapper wants one unread element
        pad = np.zeros(1)
        ref, info = dgtsv(dl if n > 1 else pad, d, du if n > 1 else pad,
                          b)[3:]
        assert info == 0
        bufs = [a.copy() for a in (dl, d, du, b)]
        pde._tridiagonal_solve(*bufs)()
        assert bufs[3].tobytes() == ref.tobytes()

    def test_zero_pivot_raises(self):
        zero = np.zeros(1)
        solve = pde._tridiagonal_solve(zero, np.zeros(2), zero.copy(),
                                       np.ones(2))
        with pytest.raises(RuntimeError,
                           match=r"tridiagonal solve failed: info=1$"):
            solve()

    def test_one_cell_step(self, consts1):
        # RadialGrid(M=1) hands dgtsv empty off-diagonals: the step is
        # V u' + w u' = V (u - dt |s/2|^q) + w ghost, w = dt A k / dx
        grid = RadialGrid(L=1.0, M=1)
        flat = lambda r: np.full_like(np.asarray(r, float), 0.1)
        fld = SelfSimilarField(T=1.0, t=0.0, values=np.array([0.5]),
                               profile=flat, consts=consts1)
        eps, dt, p, q = 0.01, 1e-3, consts1.p, consts1.q
        ghost = fld.exact(dt, 1.5)
        s = ghost - 0.5
        w = dt * (s * s + eps * eps) ** ((p - 2.0) / 2.0)
        u = (0.5 - dt * abs(0.5 * s) ** q + w * ghost) / (1.0 + w)
        new = implicit_step(fld, grid, eps, dt)
        assert new.values == pytest.approx([u], rel=1e-14)

    def test_missing_symbol_is_named(self, monkeypatch):
        # a numpy whose LAPACK lacks the symbol: the lookup names it
        monkeypatch.setattr(pde.ctypes, "CDLL", lambda path: object())
        with pytest.raises(RuntimeError, match="scipy_dgtsv_64_"):
            pde._dgtsv.__wrapped__()


class TestSchedule:
    @staticmethod
    def checkpoints(t_end):
        # run_and_measure's 24 geometric checkpoints, the last at t_end
        cks = sorted(set((1.0 - np.geomspace(0.999999, 1.0 - t_end,
                                             24)).tolist()))
        cks[-1] = t_end
        return cks

    def test_hits_checkpoints_and_bounds_omega(self):
        cks = self.checkpoints(0.8)
        times, dts, oms, hits = _schedule(1.0, cks, 1e-3)
        assert len(dts) == 1611
        assert [t for t, h in zip(times[1:], hits) if h] == cks
        assert all(times[k + 1] == times[k] + dt for k, dt in enumerate(dts))
        om = [math.nan] + [dts[k] / (times[k] - times[k - 1])
                           for k in range(1, len(dts))]
        # BE (omega 0) for the first step and the one after the 1e-6
        # checkpoint
        assert [k for k, o in enumerate(oms) if o == 0.0] == [0, 1]
        assert om[1] > 1.0 + math.sqrt(2.0)
        # every other step's planned ratio is dt / (t - t_prev), bit for bit
        assert oms[2:] == om[2:]
        # equal tau-steps of ~1e-3 everywhere else: omega ~ 1 - dt_frac
        bdf_om = oms[2:]
        assert max(bdf_om) <= 1.0 + math.sqrt(2.0)
        assert 0.998 < min(bdf_om) and max(bdf_om) < 1.0

    def test_cap_is_half_the_planned_bound(self, field8000, consts1):
        # every planned step is at most half the absorption bound at the
        # self-similar largest slope G(t) = G0 (T - t)^{alpha + beta} at
        # its start; at M=8000 the cap binds and adds steps
        fld, grid = field8000
        cks = self.checkpoints(0.8)
        times, dts, _, _ = _schedule(1.0, cks, DT_FRAC,
                                     pde._absorption_cap(fld, grid))
        assert len(dts) > 806
        G0 = np.abs(np.diff(fld.values)).max() / grid.dx
        G = G0 * (1.0 - np.array(times[:-1])) ** (consts1.alpha
                                                  + consts1.beta)
        bound = 0.4 * grid.dx / (consts1.q * G ** (consts1.q - 1.0))
        assert np.all(np.array(dts) <= 0.5 * bound)

    def test_cap_that_does_not_bind_leaves_the_plan(self, field400):
        # at M=400 the cap stays above dt_frac: the dt_frac-only plan
        fld, grid = field400
        cks = self.checkpoints(0.8)
        plan = _schedule(1.0, cks, DT_FRAC)
        assert len(plan[1]) == 806
        assert _schedule(1.0, cks, DT_FRAC,
                         pde._absorption_cap(fld, grid)) == plan

    def test_zero_data_plans_no_cap(self, consts1):
        # no slope, no absorption: the per-step check skips G = 0 too
        grid = RadialGrid(L=40.0, M=100)
        zero = lambda r: np.zeros_like(np.asarray(r, float))
        fld = SelfSimilarField(T=1.0, t=0.0, values=np.zeros(100),
                               profile=zero, consts=consts1)
        assert pde._absorption_cap(fld, grid) is None

    def test_second_order_in_dt(self, field100):
        # alpha differences shrink by about 4 per halving of dt_frac
        fld, grid = field100
        a = [run_and_measure(fld, grid, t_end=0.8, dt_frac=d).alpha_est
             for d in (4e-3, 2e-3, 1e-3)]
        ratio = (a[1] - a[0]) / (a[2] - a[1])
        assert 3.0 <= ratio <= 5.0


class TestRunAndMeasure:
    # Oracles were frozen from the explicit conservative update at
    # dt = 0.35 dx^2 eps^{2-p}, a kernel since deleted, as the dt -> 0
    # reference of the implicit run: the BDF2 run at dt_frac = 1e-4
    # reproduces the M=200 exponents to 2e-4 and the M=100 ones to 1e-3,
    # and at the default 2e-3 it stays within the tolerances below.
    def test_frozen_coarse_run(self, run200):
        m = run200
        assert m.stable
        assert m.alpha_est == pytest.approx(3.6353, abs=5e-3)
        assert m.l1_exponent_est == pytest.approx(2.0163, abs=5e-3)
        assert m.selfsim_error == pytest.approx(0.19304, rel=1e-2)
        # dt ~ 2e-3 (T-t): ceil(ln(5) / 23 / 2e-3) = 35 tau-steps in each
        # of the 23 checkpoint intervals, plus the one step to the first:
        # 23 * 35 + 1
        assert m.steps == 806

    def test_matches_explicit_limit_m100(self, field100, consts1):
        # explicit-scheme values at M=100 (42002 steps)
        fld, grid = field100
        m = run_and_measure(fld, grid, t_end=0.8)
        assert m.alpha_est == pytest.approx(3.6725, abs=5e-3)
        assert m.l1_exponent_est == pytest.approx(1.9821, abs=5e-3)
        assert m.selfsim_error == pytest.approx(0.27851, rel=1e-2)

    def test_absorption_cfl_violation_raises(self, star1, consts1):
        # at M=30 the discrete solution collapses far below the planned
        # slope G(t) (sup 2e-5, largest slope 2e-7), so the cap does not
        # hold and the per-step guard trips late in the run; at
        # dt_frac = 1e-3 the same grid runs
        _, traj, _ = star1
        grid = RadialGrid(L=40.0, M=30)
        fld = build_initial(traj, consts1, T=1.0, grid=grid)
        with pytest.raises(RuntimeError, match="absorption CFL"):
            run_and_measure(fld, grid, t_end=0.8)
        assert run_and_measure(fld, grid, t_end=0.8, dt_frac=1e-3).stable

    @pytest.mark.parametrize("dt_frac", [0.0, -1e-3, math.inf, math.nan])
    def test_dt_frac_not_finite_and_positive_refused(self, field100,
                                                     dt_frac):
        # these once raised ZeroDivisionError, or ValueError "cannot
        # convert float NaN to integer"
        fld, grid = field100
        with pytest.raises(ValueError,
                           match="dt_frac must be finite and > 0, got"):
            run_and_measure(fld, grid, t_end=0.8, dt_frac=dt_frac)

    def test_cap_keeps_fine_grids(self, field8000):
        # the doubled step without the cap trips the bound near t_end at
        # M=8000; the planned cap adds steps where it binds
        fld, grid = field8000
        m = run_and_measure(fld, grid, t_end=0.8)
        assert m.stable
        assert m.steps > 806

    def test_default_time_error_budget(self, field400):
        # the docstring's budget: at M=400 the default's alpha and selfsim
        # lie within 5e-4 of the dt_frac = 5e-4 run
        fld, grid = field400
        m = run_and_measure(fld, grid, t_end=0.8)
        ref = run_and_measure(fld, grid, t_end=0.8, dt_frac=5e-4)
        assert abs(m.alpha_est - ref.alpha_est) <= 5e-4
        assert abs(m.selfsim_error - ref.selfsim_error) <= 5e-4

    def test_kappa_zero(self, field100, monkeypatch):
        # no floor: face 0 carries no flux and takes no power of its zero
        # slope, so nothing divides by zero
        fld, grid = field100
        monkeypatch.setattr(pde, "KAPPA", 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = run_and_measure(fld, grid, t_end=0.8)
        assert m.stable
        assert m.n_clipped == 0
        assert m.alpha_est == pytest.approx(3.82797, abs=5e-3)

    def test_clipped_cells_reported(self, field100, consts1):
        # far-field undershoot of the explicit absorption at M=100
        import json
        fld, grid = field100
        m = run_and_measure(fld, grid, t_end=0.2)
        assert m.n_clipped > 0
        assert json.loads(metrics_json(m))["n_clipped"] == m.n_clipped

    def test_l1_exponent_matches_closed_form(self, run200, consts1):
        # integral exponent alpha - N beta = 3.5 - 1.5 = 2 in dimension 1
        m = run200
        want = consts1.alpha - consts1.N * consts1.beta
        assert m.l1_exponent_est == pytest.approx(want, abs=0.2)

    def test_deterministic_rerun(self, run200, field1, consts1):
        fld, grid = field1
        m2 = run_and_measure(fld, grid, t_end=0.8)
        assert metrics_json(run200) == metrics_json(m2)

    def test_t_end_validation(self, field1, consts1):
        fld, grid = field1
        with pytest.raises(ValueError, match="t_end"):
            run_and_measure(fld, grid, t_end=0.9)

    def test_t_end_power_outside_double_range_refused(self, field100):
        # T^5 = 1e-305 is a normal double, (T - t_end)^5 = 3.2e-309 is not
        fld, grid = field100
        with pytest.raises(ValueError, match=r"\(T - t_end\)\^\(alpha \+ "
                           r"beta\) a normal double, got 8e-62"):
            run_and_measure(dataclasses.replace(fld, T=1e-61), grid,
                            t_end=0.8e-61)

    def test_run_keeps_no_clock(self, run200):
        # the run's result is deterministic; a caller times the call
        assert "wall_s" not in vars(run200)
        assert "time" not in pde.__dict__

    @pytest.mark.parametrize("t_end", [0.05, 0.1])
    def test_too_short_for_the_exponent_fit(self, field100, consts1, t_end):
        # no checkpoint has T-t < 0.9 T: the fits would have no points
        fld, grid = field100
        with pytest.raises(RuntimeError, match="checkpoint"):
            run_and_measure(fld, grid, t_end=t_end)

    @pytest.mark.parametrize("t", [0.5, 0.79, 0.9])
    def test_start_other_than_zero_refused(self, field100, t):
        # these once raised IndexError, ran to NaN exponents, or ran no
        # step and reported unstable
        fld, grid = field100
        with pytest.raises(ValueError, match="starts at t = 0"):
            run_and_measure(dataclasses.replace(fld, t=t), grid, t_end=0.8)

    def test_snapshots_written(self, field1, consts1):
        fld, grid = field1
        m = run_and_measure(fld, grid, t_end=0.5)
        assert len(m.snapshots) == 24
        t, u = m.snapshots[0]
        lines = pde.snapshot_csv(t, grid, u).splitlines()
        assert lines[0].startswith("# t,")
        assert lines[1] == "x,u"
        assert len(lines) == 2 + grid.M

    def test_loop_equals_public_step(self, star1, consts1):
        # the planned loop and implicit_step share one kernel: replaying
        # the schedule through the checkpoints the snapshots record (BE,
        # then BDF2 with the level before; eps at the new time on every
        # step) gives the same bits
        _, traj, _ = star1
        grid = RadialGrid(L=40.0, M=50)
        fld = build_initial(traj, consts1, T=1.0, grid=grid)
        m = run_and_measure(fld, grid, t_end=0.3)
        cks = [t for t, _ in m.snapshots]
        u_snaps = [u for _, u in m.snapshots]
        u_last = u_snaps[-1]
        times, dts, oms, hits = _schedule(1.0, cks, DT_FRAC,
                                          pde._absorption_cap(fld, grid))
        assert [t for t, h in zip(times[1:], hits) if h] == cks
        eps0 = pde.KAPPA * grid.dx
        expo = consts1.alpha + consts1.beta
        prev, cur = None, fld
        replayed = []
        for dt, om, hit in zip(dts, oms, hits):
            eps = eps0 * (1.0 - (cur.t + dt)) ** expo
            prev, cur = cur, implicit_step(cur, grid, eps, dt,
                                           prev if om else None)
            if hit:
                replayed.append(cur.values)
        assert cur.t == cks[-1]
        # every snapshot, not only the last: a reused work array in the
        # loop would leave the earlier ones holding later values
        assert len(u_snaps) == len(replayed)
        for got, want in zip(u_snaps, replayed):
            assert np.array_equal(got, want)
        assert len(dts) == m.steps
        assert np.array_equal(cur.values, u_last)
        assert cur.n_clipped == m.n_clipped

    @pytest.mark.parametrize("M", [25, 100])
    def test_profile_calls_per_run(self, star1, consts1, M):
        # one call for every Dirichlet ghost of the run, plus one per
        # checkpoint for the self-similar error: nothing per step
        _, traj, _ = star1
        grid = RadialGrid(L=40.0, M=M)
        fld = build_initial(traj, consts1, T=1.0, grid=grid)
        calls = []

        def counting(x):
            calls.append(1)
            return fld.profile(x)

        m = run_and_measure(dataclasses.replace(fld, profile=counting),
                            grid, t_end=0.8)
        assert m.steps == 806
        assert len(calls) <= 1 + 24

    def test_metrics_json_schema(self, run200):
        import json
        d = json.loads(metrics_json(run200))
        assert {"alpha_est", "l1_exponent_est", "selfsim_error", "stable",
                "steps", "t_end"} <= set(d)
        # wall time varies across reruns; the fixed floor is not recorded
        assert not {"wall_s", "kappa", "eps_reg"} & set(d)

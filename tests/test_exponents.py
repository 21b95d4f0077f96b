"""Closed-form constants, spectra, and range validation.

Frozen reference values below were derived by hand from the defining
formulas (exact rationals where possible) and cross-checked once against
an independent sympy evaluation.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extinction import (
    RangeViolation,
    derive_constants,
    validate_range,
    spectral_data,
    lambdastar,
    constants_json,
    deta,
    log_fit,
    jacobian_origin,
)
from extinction.exponents import json_text


def sample_params(rng):
    """One admissible triple, kept away from both exponent blow-up ends.

    q -> p-1 sends mu and K* to infinity, q -> p/2 sends alpha and beta
    to infinity; the margins keep every derived constant representable
    in double precision so 1e-10 relative identity checks make sense.
    """
    while True:
        N = int(rng.integers(1, 6))
        pc = 2.0 * N / (N + 1.0)
        p = pc + (2.0 - pc) * rng.uniform(0.05, 0.95)
        q = (p - 1.0) + (p / 2.0 - (p - 1.0)) * rng.uniform(0.05, 0.95)
        c = derive_constants(N, p, q)
        vals = [c.alpha, c.beta, c.mu, c.Kstar, c.theta, c.Zstar, c.zeta]
        if all(np.isfinite(v) and abs(v) < 1e100 for v in vals):
            return (N, p, q)


def check_identities(params, rtol=1e-10):
    """The five structural identities; returns worst relative error."""
    c = derive_constants(*params)
    s = spectral_data(c)
    N, p, q = params
    base = (p - 1.0) * (c.mu + 1.0) - N + 1.0
    errs = [
        abs((c.mu * c.Kstar) ** (q - p + 1.0) - base) / abs(base),
        abs(c.Zstar ** (c.mu + 1.0) - c.mu * c.Kstar) / (c.mu * c.Kstar),
        abs(s.lambda3 + c.theta) / abs(c.theta),
        abs(c.mu - (s.lambda1 - s.lambda2)) / c.mu,
    ]
    M = np.array(jacobian_origin(c))
    for lam, V in ((s.lambda1, s.V1), (s.lambda2, s.V2), (s.lambda3, s.V3)):
        v = np.array(V)
        scale = np.abs(M).max() * np.abs(v).max()
        errs.append(np.abs(M @ v - lam * v).max() / scale)
    worst = max(errs)
    assert worst <= rtol, f"identity error {worst:.3e} at {params}"
    return worst


class TestDerivedConstantsN1:
    # N=1, p=1.2, q=0.5: every constant is an exact rational.
    def setup_method(self):
        self.c = derive_constants(1, 1.2, 0.5)

    def test_alpha_beta(self):
        assert self.c.alpha == pytest.approx(3.5, rel=1e-14)
        assert self.c.beta == pytest.approx(1.5, rel=1e-14)

    def test_mu(self):
        assert self.c.mu == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_Kstar(self):
        # (2/3)^{10/3} * 3/7
        assert self.c.Kstar == pytest.approx(0.11093085266492672, rel=1e-14)

    def test_theta_is_one(self):
        assert self.c.theta == pytest.approx(1.0, rel=1e-14)

    def test_Zstar(self):
        assert self.c.Zstar == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_gamma_nu_zeta(self):
        assert self.c.gamma == pytest.approx(-2.0 / 3.0, rel=1e-13)
        assert self.c.nu == pytest.approx(1.5, rel=1e-14)
        assert self.c.zeta == pytest.approx(0.2 + 0.5 * self.c.Zstar,
                                            rel=1e-13)


class TestDerivedConstantsN2:
    # N=2, p=1.5, q=0.6: mu+1 = 10 makes Z* = base = 4 exact.
    def setup_method(self):
        self.c = derive_constants(2, 1.5, 0.6)

    def test_values(self):
        c = self.c
        assert c.alpha == pytest.approx(3.0, rel=1e-13)
        assert c.beta == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert c.mu == pytest.approx(9.0, rel=1e-13)
        assert c.Kstar == pytest.approx(1048576.0 / 9.0, rel=1e-11)
        assert c.theta == pytest.approx(0.8, rel=1e-13)
        assert c.Zstar == pytest.approx(4.0, rel=1e-12)


class TestSpectrum:
    def test_eigenvalues_n1(self):
        s = spectral_data(derive_constants(1, 1.2, 0.5))
        assert s.lambda1 == pytest.approx(5.0 / 3.0, rel=1e-13)
        assert s.lambda2 == pytest.approx(-2.0 / 3.0, rel=1e-13)
        assert s.lambda3 == pytest.approx(-1.0, rel=1e-13)
        assert s.LambdaMax == pytest.approx(-2.0 / 3.0, rel=1e-13)

    def test_eigenvectors_n1(self):
        s = spectral_data(derive_constants(1, 1.2, 0.5))
        assert np.allclose(s.V1, (8.0 / 15.0, 0.0, 0.7), rtol=1e-13)
        assert np.allclose(s.V2, (0.3, 0.7, 0.0), rtol=1e-13)
        assert s.V3 == (0.0, 0.0, 1.0)

    def test_jacobian_origin_n1(self):
        c = derive_constants(1, 1.2, 0.5)
        M = np.array(jacobian_origin(c))
        want = np.array([[5.0 / 3.0, -1.0, 0.0],
                         [0.0, -2.0 / 3.0, 0.0],
                         [3.5, -1.5, -1.0]])
        assert np.allclose(M, want, rtol=1e-12, atol=1e-14)

    def test_eigenvalues_n2(self):
        s = spectral_data(derive_constants(2, 1.5, 0.6))
        assert s.lambda1 == pytest.approx(6.0, rel=1e-12)
        assert s.lambda2 == pytest.approx(-3.0, rel=1e-13)
        assert s.lambda3 == pytest.approx(-0.8, rel=1e-12)
        # here |lambda3| < |lambda2|: the second-order rate is lambda3
        assert s.LambdaMax == s.lambda3


class TestCrossover:
    def test_lambdastar_n1(self):
        assert lambdastar(1, 1.2) == pytest.approx((2.0 - 1.2) / 3.0,
                                                   rel=1e-14)

    def test_qstar_n1(self):
        s = spectral_data(derive_constants(1, 1.2, 0.5))
        assert s.qstar == pytest.approx(0.4666666666666666, rel=1e-13)

    def test_lambdastar_n2_quadratic_root(self):
        # (N-1)lam^2 - 3(p-1)lam + (2-p)(p-1) = lam^2 - 1.5lam + 0.25
        lam = lambdastar(2, 1.5)
        assert lam == pytest.approx((1.5 - math.sqrt(1.25)) / 2.0, rel=1e-13)
        assert 0.0 < lam < (2.0 - 1.5) / 2.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(N=st.integers(2, 40),
           u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           k=st.sampled_from([1, 4, 16]))
    @example(N=2, u=1.0 - 2.0 ** -53, k=1)    # p one ulp below 2
    @example(N=40, u=2.0 ** -1000, k=1)       # p one ulp above p_c
    def test_property_root_in_interval(self, N, u, k):
        # p in (p_c, 2), weighted toward p_c by the power k; at either end
        # of the range it is the nearest double inside the box
        pc = 2.0 * N / (N + 1.0)
        p = min(max(pc + (2.0 - pc) * u ** k, math.nextafter(pc, 2.0)),
                math.nextafter(2.0, 0.0))
        lam = lambdastar(N, p)
        assert 0.0 < lam < (2.0 - p) / 2.0
        # P(lam), exactly in rationals, is zero up to the rounding of the
        # root formula: an absolute error of a few ulp of 3(p-1)/(N-1)
        x, pf = Fraction(lam), Fraction(p)
        P = (N - 1) * x * x - 3 * (pf - 1) * x + (2 - pf) * (pf - 1)
        eps = 2.0 ** -52
        assert abs(float(P)) <= 4.0 * eps * (3.0 * (p - 1.0)) ** 2 / (N - 1)

    def test_qstar_swaps_rate_ordering(self):
        # below q* the drift rate lambda2 decays faster than lambda3;
        # above q* the ordering is reversed and lambda2 governs the tail
        for N, p in ((1, 1.2), (2, 1.5), (3, 1.7)):
            qs = spectral_data(
                derive_constants(N, p, p / 2 * 0.999)).qstar
            lo = spectral_data(derive_constants(N, p, qs - 0.02))
            hi = spectral_data(derive_constants(N, p, qs + 0.02))
            assert abs(lo.lambda2) > abs(lo.lambda3)
            assert abs(hi.lambda2) < abs(hi.lambda3)
            assert lo.LambdaMax == lo.lambda3
            assert hi.LambdaMax == hi.lambda2


class TestValidateRange:
    def test_valid(self):
        assert validate_range(1, 1.2, 0.5) == ()

    def test_p_too_large(self):
        rep = validate_range(1, 2.5, 0.5)
        assert any("p < 2" in v for v in rep)

    def test_p_below_critical(self):
        rep = validate_range(3, 1.2, 0.3)
        assert any("2N/(N+1)" in v for v in rep)

    def test_q_at_upper_end(self):
        rep = validate_range(1, 1.2, 0.6)
        assert any("q < p/2" in v for v in rep)

    def test_q_below_lower_end(self):
        rep = validate_range(1, 1.2, 0.1)
        assert any("q > p-1" in v for v in rep)

    def test_never_raises_and_collects_all(self):
        assert len(validate_range(1, 2.5, 3.0)) >= 2

    def test_near_boundary_warning(self):
        # admissible however close to either end of the q interval
        assert validate_range(1, 1.2, 0.2 + 5e-7) == ()
        assert validate_range(1, 1.2, 0.6 - 5e-7) == ()

    def test_without_q_checks_N_and_p(self):
        # qstar's box: the (N, p) rules alone, also where N < 1
        assert validate_range(2, 1.5) == ()
        assert validate_range(0, 1.5) == ("N >= 1 fails",)
        assert validate_range(-1, 1.5) == ("N >= 1 fails",)
        assert validate_range(2, 1.2) == (
            "p > 2N/(N+1) fails (p=1.2, threshold=1.3333333333333333)",)

    @pytest.mark.parametrize("N", [math.inf, math.nan, 1.5])
    def test_non_integer_N_is_a_violation(self, N):
        # int(inf) and int(nan) raise: the check must not reach them
        assert validate_range(N, 1.5, 0.6) == ("N integer fails",)

    def test_derive_constants_raises_out_of_range(self):
        with pytest.raises(RangeViolation) as exc:
            derive_constants(1, 2.5, 0.5)
        assert exc.value.violations == ("p < 2 fails", "q > p-1 fails")
        assert str(exc.value) == ("exponent range violation: p < 2 fails; "
                                  "q > p-1 fails")
        # still a ValueError: a profile header outside the box is a
        # malformed profile
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("N, p", [(1, 3.0), (1, 0.5), (2, 2.5)])
    def test_lambdastar_raises_out_of_range(self, N, p):
        # once -1/3 and 0.5 silently, and an ArithmeticError at N = 2
        with pytest.raises(RangeViolation) as exc:
            lambdastar(N, p)
        assert exc.value.violations == validate_range(N, p) != ()


class TestIdentities:
    def test_hundred_random_triples(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            check_identities(sample_params(rng))

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 5), up=st.floats(0.05, 0.95),
           uq=st.floats(0.05, 0.95))
    def test_property_identities(self, N, up, uq):
        pc = 2.0 * N / (N + 1.0)
        p = pc + (2.0 - pc) * up
        q = (p - 1.0) + (p / 2.0 - (p - 1.0)) * uq
        params = (N, p, q)
        c = derive_constants(*params)
        vals = [c.alpha, c.beta, c.mu, c.Kstar, c.theta, c.Zstar, c.zeta]
        if not all(np.isfinite(v) and abs(v) < 1e100 for v in vals):
            return  # representable-magnitude guard, same as sample_params
        check_identities(params)

    def test_alpha_beta_relation(self):
        # alpha = mu * beta ties the similarity exponents to the tail power
        rng = np.random.default_rng(7)
        for _ in range(20):
            prm = sample_params(rng)
            c = derive_constants(*prm)
            assert c.alpha == pytest.approx(c.mu * c.beta, rel=1e-12)


def test_deta_exact_on_quartics_and_refuses_bad_grids():
    # the 5-point stencil differentiates a quartic exactly
    eta = np.linspace(0.0, 1.0, 9)
    assert np.allclose(deta(eta, eta ** 4), 4.0 * eta[2:-2] ** 3,
                       rtol=1e-12, atol=1e-13)
    with pytest.raises(ValueError, match="need >= 5 samples"):
        deta(eta[:4], eta[:4])
    # uniformity is relative: spacings of 1e-9 that vary by 50 % are
    # refused, not passed by an absolute 1e-8 allowance
    jitter = np.cumsum(np.random.default_rng(0).uniform(0.5e-9, 1.5e-9, 50))
    with pytest.raises(ValueError, match="uniformly spaced"):
        deta(jitter, jitter)


def test_constants_json_flat_and_sorted():
    c = derive_constants(1, 1.2, 0.5)
    txt = constants_json(c)
    d = json.loads(txt)
    assert d["alpha"] == pytest.approx(3.5, rel=1e-14)
    assert d["qstar"] == pytest.approx(0.4666666666666666, rel=1e-13)
    assert list(d) == sorted(d)
    assert txt == constants_json(c)


def test_json_text_writes_non_finite_as_null():
    finite = {"b": [1.0, -2.5e-300, (0.1, 3)], "a": {"x": 7.0e300},
              "s": "Infinity", "t": True, "n": None,
              "v": np.float64(2.3028967658101465)}
    # finite values keep json.dumps' bytes
    assert json_text(finite) == json.dumps(finite, sort_keys=True,
                                           indent=1) + "\n"
    txt = json_text({"k": math.inf, "l": [-math.inf, {"m": math.nan}],
                     "t": (math.nan, 1.5)})

    def reject(name):
        raise ValueError(name)
    assert json.loads(txt, parse_constant=reject) == {
        "k": None, "l": [None, {"m": None}], "t": [None, 1.5]}


def test_log_fit_recovers_a_wide_pinned_basis():
    # the N=2 basis of exponents.zgap_fit: r^-3, r^-6, r^6.8 on
    # r in [6, 60] span 17 decades; each term contributes O(1) to y
    x = np.log(np.geomspace(6.0, 60.0, 200))
    rates = (-3.0, -6.0, 6.8)
    basis = np.column_stack([np.ones_like(x), x]
                            + [np.exp(rate * x) for rate in rates])
    c = np.array([1.0, -0.5, 0.7, -0.3, 0.2]) / np.abs(basis).max(axis=0)
    got = log_fit(x, basis @ c, rates)
    assert np.allclose(got, c, rtol=1e-9, atol=0.0)

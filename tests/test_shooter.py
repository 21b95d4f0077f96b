"""Shooting integrator: series start, events, classification, bisection.

The reference value a* = 2.3028967658101465 (N=1, p=1.2, q=0.5, a_tol=1e-10)
was frozen from an independent run cross-checked against the gap-contraction
rate of the tail; everything else is checked against structure (event kinds,
monotonicity, energy decay) rather than numbers, or against scipy: the
DOP853 tableau literals bit for bit, the kernel's event radii and samples
against solve_ivp.  The generated step and interpolant are checked bit for
bit against a loop form over the tableau rows, driven through the right
side on random states: a left-to-right sum over the nonzero terms, fsum
on the rows that sum to zero.
"""

import contextlib
import dataclasses
import inspect
import io
import math
import os
import pathlib
import random
import struct
import subprocess
import sys
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp

from extinction import (
    classify,
    derive_constants,
    energy,
    extract_rates,
    find_bracket,
    find_profile,
    fit_tail,
    integrate_profile,
    load_profile,
    map_to_phase,
    ode_residual,
    read_profile_csv,
    series_start,
    trajectory_csv,
)
from extinction import cli, dop853, shooter

ROOT = pathlib.Path(__file__).resolve().parents[1]
A_STAR_N1 = 2.3028967658101465
A_STAR_N2 = 1.0571865673537144

# the box-scan triple whose bisection reaches the end-state rule (three
# midpoints undetermined out to 16 r_max); a* and the rule's labels frozen
# at commit 1850253, where a second dense solve decided them
HEURISTIC = (1, 1.5, 0.675)
A_STAR_HEURISTIC = 0.000183491783308147
BISECTION_TRIPLES = [(1, 1.2, 0.5), HEURISTIC]


def _triple_id(pr):
    return "-".join(map(str, pr))


class TestSeriesStart:
    def test_limit_recovers_initial_condition(self, consts1):
        f0, F0 = series_start(consts1, a=1.0, r0=1e-10)
        assert f0 == pytest.approx(1.0, abs=1e-20)
        assert F0 == pytest.approx(3.5e-10, rel=1e-6)

    def test_linear_term(self, consts1):
        _, F0 = series_start(consts1, a=1.0, r0=1e-4)
        assert F0 == pytest.approx(3.5e-4, rel=1e-3)

    def test_bend_term(self, consts1):
        # a - f = ((p-1)/p) (alpha a/N)^{1/(p-1)} r0^{p/(p-1)}
        f0, _ = series_start(consts1, a=1.0, r0=1e-4)
        want = (1.0 / 6.0) * 3.5 ** 5 * 1e-24
        assert 1.0 - f0 == pytest.approx(want, rel=0.05)

    def test_rejects_bad_r0(self, consts1):
        with pytest.raises(ValueError):
            series_start(consts1, a=1.0, r0=0.0)


class TestClassify:
    def test_small_a_is_C(self, consts1):
        c = classify(consts1, 0.01, r_max=50.0)
        assert c.label == "C"
        assert c.detail == "W_EXCEEDS_KSTAR"
        assert c.witness_r > 0

    def test_large_a_is_A(self, consts1):
        c = classify(consts1, 100.0, r_max=50.0)
        assert c.label == "A"
        assert c.detail in ("W_PRIME_VANISHES", "F_HITS_ZERO")

    def test_boundary_is_undetermined(self, consts1):
        c = classify(consts1, A_STAR_N1, r_max=50.0)
        assert c.label == "UNDETERMINED"
        assert "r_max" in c.detail

    def test_witness_stable_under_tol(self, consts1):
        r1 = classify(consts1, 0.01, 50.0, tol=1e-10).witness_r
        r2 = classify(consts1, 0.01, 50.0, tol=1e-12).witness_r
        assert abs(r1 - r2) <= 1e-6 * r1

    def test_no_C_above_an_A(self, consts1):
        # C contains (0, a*) and A contains (a*, inf) in dimension 1
        labels = [classify(consts1, a, 50.0).label
                  for a in np.geomspace(0.01, 100.0, 9)]
        seen_A = False
        for lab in labels:
            seen_A = seen_A or lab == "A"
            assert not (seen_A and lab == "C"), labels

    # at (1, 1.15, 0.1925) and a = 1e-8 the series start lies beyond the
    # C event, w(r0) = 3.7e12 > Kstar = 3.42e11; at a = 1e13 |f| + |F| is
    # beyond the overflow guard.  No crossing reports either, so the
    # solve ends at r0, on the guard where both have been passed
    def test_start_past_an_event_ends_there(self, monkeypatch):
        consts = derive_constants(1, 1.15, 0.1925)
        for a, label, detail in ((1e-8, "C", "W_EXCEEDS_KSTAR"),
                                 (1e13, "UNDETERMINED",
                                  "overflow guard tripped")):
            cl = classify(consts, a, 100.0)
            assert (cl.label, cl.detail) == (label, detail)
            assert cl.witness_r == shooter._default_r0(consts, a)
        with pytest.raises(RuntimeError, match="no step to sample"):
            integrate_profile(consts, 1e-8, 100.0)
        monkeypatch.setattr(shooter, "OVERFLOW_GUARD", 1e-9)
        assert classify(consts, 1e-8, 100.0).detail == \
            "overflow guard tripped"

    # a and tol log-uniform over [1e-2, 1e2] and [1e-12, 0.9]: every solve
    # ends in a label, however loose the tolerance.  At tol = 0.5 the
    # interpolant of an accepted step once overflowed in `rhs`
    @pytest.mark.parametrize("triple", [(1, 1.2, 0.5), (2, 1.5, 0.6)],
                             ids=_triple_id)
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(a=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
           tol=st.floats(-12.0, math.log10(0.9)).map(lambda e: 10.0 ** e))
    @example(a=1.0, tol=0.5)
    def test_property_always_labels(self, triple, a, tol):
        cl = classify(derive_constants(*triple), a, 50.0, tol)
        assert cl.label in ("A", "C", "UNDETERMINED")


class TestIntegrateProfile:
    def test_input_validation(self, consts1):
        with pytest.raises(ValueError):
            integrate_profile(consts1, a=-1.0, r_max=10.0)
        with pytest.raises(ValueError):
            integrate_profile(consts1, a=1.0, r_max=1e-9)

    def test_C_event_recorded(self, consts1):
        traj = integrate_profile(consts1, 0.01, 50.0,
                                 n_samples=256)
        kinds = [k for k, _ in traj.events]
        assert kinds == ["W_EXCEEDS_KSTAR"]
        assert traj.r_end == pytest.approx(traj.events[0][1], rel=1e-12)

    def test_sampling_grid(self, consts1):
        traj = integrate_profile(consts1, 1.0, 10.0, n_samples=512)
        # np.geomspace starts at the series-start radius exactly
        assert traj.r[0] == shooter._default_r0(consts1, 1.0)
        assert np.all(np.diff(traj.r) > 0)
        # uniform in ln r
        assert np.allclose(np.diff(np.log(traj.r)),
                           np.diff(np.log(traj.r))[0], rtol=1e-8)

    def test_profile_decreasing_while_positive(self, consts1):
        traj = integrate_profile(consts1, 1.0, 10.0, n_samples=512)
        assert np.all(traj.f > 0)
        assert np.all(traj.fprime < 0)

    def test_slope_lower_bound(self, consts1):
        # f' >= -(a alpha)^{1/q} wherever f > 0
        for a in (0.01, 1.0, 100.0):
            traj = integrate_profile(consts1, a, 50.0,
                                     n_samples=512)
            bound = (a * consts1.alpha) ** (1.0 / consts1.q)
            ok = traj.f > 0
            assert np.all(traj.fprime[ok] >= -bound * (1 + 1e-9))


class TestEnergy:
    def test_formula(self, consts1):
        e = energy(consts1, np.array([2.0]), np.array([-1.0]))
        assert e[0] == pytest.approx((0.2 / 1.2) * 1.0 + 0.5 * 3.5 * 4.0,
                                     rel=1e-12)

    @pytest.mark.parametrize("a", [0.01, A_STAR_N1, 100.0])
    def test_monotone_decay(self, consts1, a):
        traj = integrate_profile(consts1, a, 50.0, n_samples=2048)
        ok = traj.f > 0
        e = traj.energy[ok]
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    @pytest.mark.parametrize("a", [0.01, A_STAR_N1, 100.0])
    def test_growth_bound(self, consts1, a):
        # E(r) <= E(r0) + (beta r0)^{-(q+1)/(1-q)} r for sampled r >= r0
        traj = integrate_profile(consts1, a, 50.0, n_samples=2048)
        k = len(traj.r) // 3
        r0, e0 = traj.r[k], traj.energy[k]
        coef = (consts1.beta * r0) ** (-(consts1.q + 1.0) / (1.0 - consts1.q))
        assert np.all(traj.energy[k:] <= e0 + coef * traj.r[k:] + 1e-12)


class TestBisection:
    def test_bracket_invariant(self, consts1):
        br = find_bracket(consts1, r_max=100.0)
        assert 0 < br.lo < br.hi
        assert classify(consts1, br.lo, 100.0).label == "C"
        assert classify(consts1, br.hi, 100.0).label == "A"

    def test_a_star_value(self, star1):
        a_star, _, _ = star1
        assert a_star == pytest.approx(A_STAR_N1, rel=1e-9)

    def test_a_star_frozen_bits(self, star1):
        # the scalar DOP853 kernel keeps every bisection label of the
        # reference run, so a* is the frozen value to the last bit
        assert star1[0] == A_STAR_N1

    @pytest.mark.parametrize("params", BISECTION_TRIPLES, ids=_triple_id)
    def test_a_star_independent_of_series_start(self, params, monkeypatch):
        # 1e-3 times the series-start radius keeps every label, so a* is
        # the frozen value to the last bit (10 times it moves a* at the
        # end-state triple: _default_r0 states the margin)
        orig = shooter._default_r0
        monkeypatch.setattr(shooter, "_default_r0",
                            lambda c, a: 1e-3 * orig(c, a))
        consts = derive_constants(*params)
        br = find_bracket(consts, r_max=100.0)
        a_star, traj, _ = find_profile(consts, br, a_tol=1e-10, r_max=100.0)
        assert traj.r[0] == 1e-3 * orig(consts, a_star)
        assert a_star == (A_STAR_HEURISTIC if params == HEURISTIC
                          else A_STAR_N1)

    def test_bracket_width_contract(self, star1):
        a_star, _, transcript = star1
        assert transcript["hi"] - transcript["lo"] <= 1e-10 * transcript["lo"]
        assert transcript["n_heuristic"] == 0
        steps = transcript["steps"]
        # width halves per step: count ~ log2(width0 / width_end)
        assert 25 <= len(steps) <= 50
        assert all(s["label"] in ("A", "C") for s in steps)

    def test_zero_a_tol_bisects_to_adjacent_doubles(self, consts1, star1):
        # a_tol = 0 halves until no double lies between lo and hi, so the
        # bisection ends at its "double precision exhausted" break
        br = find_bracket(consts1, r_max=100.0)
        a_star, _, rec = find_profile(consts1, br, a_tol=0.0, r_max=100.0)
        assert rec["hi"] == math.nextafter(rec["lo"], math.inf)
        assert a_star in (rec["lo"], rec["hi"])
        assert star1[2]["lo"] <= rec["lo"] < rec["hi"] <= star1[2]["hi"]

    @pytest.mark.parametrize("a_tol", [-1e-300, math.inf])
    def test_bad_a_tol_raises(self, consts1, a_tol):
        br = shooter.Bracket(lo=1.0, hi=10.0)
        with pytest.raises(ValueError, match="a_tol must be finite and >= 0"):
            find_profile(consts1, br, a_tol=a_tol)

    def test_neighbors_classify_across(self, consts1, star1):
        a_star, _, _ = star1
        assert classify(consts1, 0.99 * a_star, 100.0).label == "C"
        assert classify(consts1, 1.01 * a_star, 100.0).label == "A"

    def test_trajectory_positive_decreasing(self, star1):
        _, traj, _ = star1
        assert np.all(traj.f > 0)
        assert np.all(traj.fprime < 0)
        assert traj.r_end == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("params", BISECTION_TRIPLES, ids=_triple_id)
    def test_one_classify_per_step(self, params, monkeypatch):
        consts = derive_constants(*params)
        br = find_bracket(consts, r_max=100.0)
        calls = []
        orig = shooter.classify

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return orig(*args, **kwargs)

        monkeypatch.setattr(shooter, "classify", counted)
        _, _, rec = find_profile(consts, br, a_tol=1e-10,
                                 r_max=100.0)
        steps = rec["steps"]
        # each midpoint is solved once, out to 16 r_max
        assert calls == [(s["a"], 1600.0) for s in steps]
        rungs = {100.0 * 2.0 ** k for k in range(5)}
        assert all(s["r_max"] in rungs for s in steps)
        # some midpoints are decided only beyond the bisection radius
        assert any(s["r_max"] > 100.0 for s in steps)

    @pytest.mark.parametrize("params", BISECTION_TRIPLES, ids=_triple_id)
    def test_each_a_solved_once(self, params, monkeypatch):
        # across the bracket scan and the bisection, no shooting parameter
        # is solved twice, and the one dense solve samples a*
        consts = derive_constants(*params)
        solves = []
        orig = shooter._shoot

        def spy(c, a, r_max, tol, dense):
            solves.append((a, dense))
            return orig(c, a, r_max, tol, dense)

        monkeypatch.setattr(shooter, "_shoot", spy)
        br = find_bracket(consts, r_max=100.0)
        a_star, _, _ = find_profile(consts, br, a_tol=1e-10, r_max=100.0)
        sparse = [a for a, dense in solves if not dense]
        assert len(set(sparse)) == len(sparse)
        assert [a for a, dense in solves if dense] == [a_star]

    def test_end_state_rule_labels(self, monkeypatch):
        # the three undetermined midpoints are labelled C, A, A from their
        # own solve: the gap's decay exponent r w'/(Kstar - w) against
        # theta = 1
        consts = derive_constants(*HEURISTIC)
        br = find_bracket(consts, r_max=100.0)
        found = []
        orig = shooter.classify

        def kept(*args, **kwargs):
            cl = orig(*args, **kwargs)
            if cl.label == "UNDETERMINED":
                found.append(cl.gap_exponent)
            return cl

        monkeypatch.setattr(shooter, "classify", kept)
        a_star, _, rec = find_profile(consts, br, a_tol=1e-10, r_max=100.0)
        assert a_star == A_STAR_HEURISTIC
        steps = [s for s in rec["steps"] if s["heuristic"]]
        assert rec["n_heuristic"] == 3
        assert [s["label"] for s in steps] == ["C", "A", "A"]
        assert all(s["r_max"] == 1600.0 for s in steps)
        assert found == pytest.approx([1.2867, 0.4655, 0.8455], abs=1e-4)

    def test_integrator_failure_is_an_event(self, consts1, monkeypatch):
        # a solve the kernel gives up on (status -1) shows in the profile's
        # events and so in profile.csv's trailer, and classifies as
        # UNDETERMINED with the failure named
        orig = dop853.drive

        def failing(*args):
            _, r_end, y_end, _, segments = orig(*args)
            return -1, r_end, y_end, None, segments

        monkeypatch.setattr(dop853, "drive", failing)
        traj = integrate_profile(consts1, 1.0, 10.0, n_samples=64)
        assert traj.events == [("INTEGRATOR_FAILURE", traj.r_end)]
        text = trajectory_csv(traj, consts1)
        assert text.splitlines()[-1].startswith(
            "# event,INTEGRATOR_FAILURE,")
        cl = classify(consts1, 1.0, 10.0)
        assert cl.label == "UNDETERMINED"
        assert cl.detail == ("integrator failure: step size fell below ten "
                             f"ulps at r={cl.witness_r:.6g}")
        assert cl.witness_r == traj.r_end

    @pytest.mark.parametrize("k", range(2, 10))
    def test_one_solve_matches_the_doubling_ladder(self, consts1, star1, k):
        # one solve to 16 r_max stops at the first decisive event, so it
        # gives the first decided label of r_max, 2 r_max, ..., 16 r_max,
        # and its witness falls in the rung that decides the ladder
        a_star, _, _ = star1
        r_max = 100.0
        rungs = [r_max * 2.0 ** j for j in range(5)]
        for a in (a_star * (1 - 10.0 ** -k), a_star * (1 + 10.0 ** -k)):
            ladder = ("UNDETERMINED", None)
            for rm in rungs:
                lab = classify(consts1, a, rm).label
                if lab != "UNDETERMINED":
                    ladder = (lab, rm)
                    break
            one = classify(consts1, a, rungs[-1])
            assert one.label == ladder[0], (a, ladder)
            if ladder[1] is not None:
                assert min(rm for rm in rungs
                           if rm >= one.witness_r) == ladder[1]


def _full_tolerance(monkeypatch):
    """Make find_profile bisect at tol alone, as before graded tolerances:
    the reference the graded bisection must reproduce bit for bit."""
    orig = shooter._bisect
    monkeypatch.setattr(shooter, "_bisect",
                        lambda *args, graded: orig(*args, graded=False))


def _graded_law(lo, hi, tol=1e-10):
    return max(tol, min(1e-4, 1e-2 * (hi - lo) / lo))


# (params, bracket-scan r_max, a_tol, bisection r_max), as star1 and star2
GRADED_RUNS = [(pr, 100.0, 1e-10, 100.0) for pr in BISECTION_TRIPLES] + [
    ((2, 1.5, 0.6), 30.0, 3e-16, 60.0)]

# (params, bracket-scan r_max): the reference scans, then the benchmark's
# box grid at N = 1 at find's default r_max, 100^(1/theta) (None here)
SCAN_RUNS = [(run[0], run[1]) for run in GRADED_RUNS] + [
    ((1, p, (p - 1.0) + fr * (p / 2.0 - (p - 1.0))), None)
    for p in (1.15, 1.5, 1.85) for fr in (0.1, 0.3, 0.5, 0.7, 0.9)]


class TestGradedBisection:
    @pytest.mark.parametrize("params, r_scan, a_tol, r_max", GRADED_RUNS,
                             ids=[_triple_id(run[0]) for run in GRADED_RUNS])
    def test_same_as_full_tolerance(self, params, r_scan, a_tol, r_max,
                                    monkeypatch):
        consts = derive_constants(*params)
        br = find_bracket(consts, r_max=r_scan)
        a_g, _, g = find_profile(consts, br, a_tol=a_tol, r_max=r_max)
        _full_tolerance(monkeypatch)
        a_f, _, f = find_profile(consts, br, a_tol=a_tol, r_max=r_max)
        assert a_g.hex() == a_f.hex()
        assert ([(s["a"], s["label"]) for s in g["steps"]]
                == [(s["a"], s["label"]) for s in f["steps"]])
        assert (g["lo"], g["hi"], g["n_heuristic"]) == (
            f["lo"], f["hi"], f["n_heuristic"])
        assert not g["fallback"] and not f["fallback"]
        assert all(s["tol"] == 1e-10 for s in f["steps"])
        # every midpoint ran at the law's tolerance for the bracket it
        # halved, except an undetermined loose solve, repeated at tol
        lo, hi = br.lo, br.hi
        for s in g["steps"]:
            if s["a"] not in (g["lo"], g["hi"]) and not s["heuristic"]:
                assert s["tol"] == _graded_law(lo, hi)
            else:
                assert s["tol"] == 1e-10
            lo, hi = (s["a"], hi) if s["label"] == "C" else (lo, s["a"])
        assert sum(s["tol"] > 1e-10 for s in g["steps"]) >= 20

    @pytest.mark.parametrize("k", [0, 10, 20, 28])
    def test_flipped_loose_label_takes_the_fallback(self, consts1, star1,
                                                    monkeypatch, k):
        # a wrong loose label stays an end of the final bracket, where
        # its re-solve at tol catches it; the fallback is the
        # full-tolerance bisection, so a* keeps its bits
        br = find_bracket(consts1, r_max=100.0)
        orig, orig_bisect = shooter.classify, shooter._bisect
        loose, runs = [], []

        def spy(c, a, r_max, tol):
            cl = orig(c, a, r_max, tol)
            if tol > 1e-10 and cl.label != "UNDETERMINED":
                loose.append(a)
                if len(loose) == k + 1:
                    flip = {"A": "C", "C": "A"}[cl.label]
                    return dataclasses.replace(cl, label=flip)
            return cl

        def bisect(*args, graded):
            out = orig_bisect(*args, graded=graded)
            runs.append((graded, out[0], out[1]))
            return out

        monkeypatch.setattr(shooter, "classify", spy)
        monkeypatch.setattr(shooter, "_bisect", bisect)
        a_star, _, rec = find_profile(consts1, br, a_tol=1e-10, r_max=100.0)
        assert len(loose) > k
        flipped = loose[k]
        assert [r[0] for r in runs] == [True, False]
        assert flipped in runs[0][1:]
        assert rec["fallback"]
        assert a_star == star1[0] == A_STAR_N1
        assert ([(s["a"], s["label"]) for s in rec["steps"]]
                == [(s["a"], s["label"]) for s in star1[2]["steps"]])
        assert all(s["tol"] == 1e-10 for s in rec["steps"])

    def test_fallback_find_writes_the_full_tolerance_files(
            self, monkeypatch, tmp_path, capsys):
        # at this triple a loose label is wrong, and the fallback runs
        argv = ["find", "--N", "2", "--p", "1.6", "--q", "0.75", "--outdir"]
        orig = shooter.find_profile
        recs = []

        def kept(*args, **kwargs):
            out = orig(*args, **kwargs)
            recs.append(out[2])
            return out

        monkeypatch.setattr(shooter, "find_profile", kept)
        out = {}
        for name in ("graded", "full"):
            if name == "full":
                _full_tolerance(monkeypatch)
            d = tmp_path / name
            code = cli.main(argv + [str(d)])
            out[name] = (code, capsys.readouterr().out,
                         {p.name: p.read_bytes() for p in d.iterdir()})
        assert [r["fallback"] for r in recs] == [True, False]
        assert sorted(out["graded"][2]) == ["certify.json", "profile.csv",
                                            "tailfit.json"]
        assert out["graded"] == out["full"]

    def test_undetermined_loose_midpoint_is_solved_again(
            self, consts1, star1, monkeypatch):
        # a loose solve that ends undetermined is repeated at tol, and
        # that solve labels the midpoint: not the end-state rule on the
        # loose solve (forced here for the first midpoint)
        br = find_bracket(consts1, r_max=100.0)
        orig = shooter.classify
        calls = []

        def spy(c, a, r_max, tol):
            calls.append((a, tol))
            if len(calls) == 1:
                assert tol > 1e-10
                return shooter.Classification("UNDETERMINED", r_max,
                                              "forced")
            return orig(c, a, r_max, tol)

        monkeypatch.setattr(shooter, "classify", spy)
        a_star, _, rec = find_profile(consts1, br, a_tol=1e-10, r_max=100.0)
        forced = calls[0][0]
        assert calls[1] == (forced, 1e-10)
        step = rec["steps"][0]
        assert step["a"] == forced
        assert step["tol"] == 1e-10 and not step["heuristic"]
        assert a_star == star1[0] == A_STAR_N1
        assert not rec["fallback"]
        keys = ("a", "label", "r_max", "heuristic")
        assert ([[s[k] for k in keys] for s in rec["steps"]]
                == [[s[k] for k in keys] for s in star1[2]["steps"]])

    @pytest.mark.parametrize("tol", [1e-4, 1e-3])
    def test_no_loose_solve_at_a_coarse_tol(self, consts1, monkeypatch,
                                            tol):
        # tol is the floor of the graded law, and its cap is 1e-4
        br = find_bracket(consts1, r_max=100.0, tol=tol)
        tols = []
        orig = shooter.classify

        def spy(c, a, r_max, tol):
            tols.append(tol)
            return orig(c, a, r_max, tol)

        monkeypatch.setattr(shooter, "classify", spy)
        _, _, rec = find_profile(consts1, br, a_tol=1e-8, r_max=100.0,
                                 tol=tol)
        assert len(tols) == len(rec["steps"]) > 10
        assert set(tols) == {tol}
        assert not rec["fallback"]

    @pytest.mark.parametrize("params, r_scan", SCAN_RUNS,
                             ids=[_triple_id(run[0]) for run in SCAN_RUNS])
    def test_scan_labels_as_at_full_tolerance(self, params, r_scan,
                                              monkeypatch):
        # the scan labels its powers of ten at the graded law's cap; at
        # the reference triples and on the box grid every label is the
        # one tol gives, so the bracket (or the scan's failure) is the
        # full-tolerance run's
        consts = derive_constants(*params)
        r_scan = r_scan or 100.0 ** (1.0 / consts.theta)
        orig = shooter.classify
        seen = []

        def spy(c, a, r_max, tol):
            cl = orig(c, a, r_max, tol)
            seen.append((a, tol, cl.label))
            return cl

        monkeypatch.setattr(shooter, "classify", spy)
        runs = []
        for scan in (lambda: find_bracket(consts, r_scan),
                     lambda: shooter._scan(consts, r_scan, 1e-10)):
            seen.clear()
            try:
                out = scan()
            except RuntimeError as exc:
                out = str(exc)
            runs.append((out, list(seen)))
        (loose, loose_seen), (full, full_seen) = runs
        assert {tol for _, tol, _ in loose_seen} == {shooter._TOL_CAP}
        assert ([(a, lab) for a, _, lab in loose_seen]
                == [(a, lab) for a, _, lab in full_seen])
        if isinstance(full, str):
            assert loose == full
        else:
            assert (loose.lo, loose.hi) == (full.lo, full.hi)
            assert (loose.r_max, loose.tol) == (r_scan, shooter._TOL_CAP)
            assert (full.r_max, full.tol) == (r_scan, 1e-10)

    def test_flipped_scan_end_takes_the_fallback(self, consts1, star1,
                                                 monkeypatch):
        # a = 1 labelled A by the loose scan (tol gives C): the scan ends
        # (0.1, 1), every midpoint is C, so the wrong end stays, and its
        # re-solve at tol sends the fallback through the scan at tol
        orig = shooter.classify
        calls = []

        def spy(c, a, r_max, tol):
            calls.append((a, tol))
            cl = orig(c, a, r_max, tol)
            if a == 1.0 and tol == shooter._TOL_CAP:
                assert cl.label == "C"
                return dataclasses.replace(cl, label="A")
            return cl

        monkeypatch.setattr(shooter, "classify", spy)
        br = find_bracket(consts1, r_max=100.0)
        assert (br.lo, br.hi) == (0.1, 1.0)
        a_star, _, rec = find_profile(consts1, br, a_tol=1e-10, r_max=100.0)
        assert rec["fallback"]
        assert (1.0, 1e-10) in calls and (10.0, 1e-10) in calls
        assert a_star == star1[0] == A_STAR_N1
        assert ([(s["a"], s["label"]) for s in rec["steps"]]
                == [(s["a"], s["label"]) for s in star1[2]["steps"]])
        assert all(s["tol"] == 1e-10 for s in rec["steps"])


# trial steps of three solves away from a*: a change to the error
# estimate or the step-size law moves them, a cheaper step does not
STEP_COUNTS = [((1, 1.2, 0.5), 10.0, 100.0, 28),
               ((1, 1.2, 0.5), A_STAR_N1 * 1.001, 100.0, 49),
               ((2, 1.5, 0.6), A_STAR_N2 * 0.999, 60.0, 75)]


@pytest.mark.parametrize("params, a, r_max, n", STEP_COUNTS,
                         ids=["N1-a10", "N1-above", "N2-below"])
def test_trial_step_counts(params, a, r_max, n, monkeypatch):
    step = shooter._SHOOTING.ns["_step"]
    trials = []

    def spy(*args):
        trials.append(1)
        return step(*args)

    monkeypatch.setitem(shooter._SHOOTING.ns, "_step", spy)
    classify(derive_constants(*params), a, r_max)
    assert len(trials) == n


def _rhs_of(consts):
    """The kernel's right side (f', F') of the triple, on floats."""
    return shooter._SHOOTING.rhs(*shooter._rhs_constants(consts))


def _reference_solve(consts, a, r_max, dense=False):
    """The same right side and events through scipy's solve_ivp DOP853:
    (first event kind, its radius, the solution)."""
    rhs = _rhs_of(consts)
    events = shooter._make_events(consts)
    fns = []
    for k in range(len(shooter._EVENT_KINDS)):
        def ev(r, y, k=k):
            return events(r, y[0], y[1])[k]
        # every event fires on an upward crossing
        ev.terminal, ev.direction = True, 1
        fns.append(ev)
    r0 = shooter._default_r0(consts, a)
    sol = solve_ivp(lambda r, y: rhs(r, y[0], y[1]), (r0, r_max),
                    series_start(consts, a, r0), method="DOP853",
                    rtol=1e-10, atol=0.0, events=fns, dense_output=dense)
    assert sol.status in (0, 1)
    if sol.status == 0:
        return "RMAX_REACHED", float(sol.t[-1]), sol
    r_e, k = min((te[0], k) for k, te in enumerate(sol.t_events) if len(te))
    return shooter._EVENT_KINDS[k], float(r_e), sol


_LABELS = {"W_PRIME_VANISHES": "A", "F_HITS_ZERO": "A",
           "W_EXCEEDS_KSTAR": "C"}
_TRIPLES = {1: ((1, 1.2, 0.5), 100.0, A_STAR_N1),
            2: ((2, 1.5, 0.6), 60.0, A_STAR_N2)}


class TestKernelAgainstSolveIvp:
    """The scalar DOP853 kernel against scipy's solve_ivp as reference."""

    @pytest.mark.parametrize("N", [1, 2])
    def test_labels_and_witnesses(self, N):
        params, r_max, _ = _TRIPLES[N]
        consts = derive_constants(*params)
        worst = 0.0
        for a in np.geomspace(1e-3, 1e3, 60):
            kind, r_e, _ = _reference_solve(consts, a, r_max)
            _, events, r_end, _, _, _ = shooter._shoot(
                consts, a, r_max, 1e-10, dense=False)
            assert events[0][0] == kind, a
            cl = classify(consts, a, r_max)
            assert cl.label == _LABELS.get(kind, "UNDETERMINED"), a
            assert cl.witness_r == r_end
            worst = max(worst, abs(r_end - r_e) / r_e)
        assert worst <= 1e-8

    @pytest.mark.parametrize("N", [1, 2])
    def test_dense_samples_at_a_star(self, N):
        params, r_max, a_star = _TRIPLES[N]
        consts = derive_constants(*params)
        traj = integrate_profile(consts, a_star, r_max)
        _, r_e, sol = _reference_solve(consts, a_star, r_max,
                                       dense=True)
        assert traj.r_end == pytest.approx(r_e, rel=1e-8)
        near = traj.r <= 10.0
        f_ref, F_ref = sol.sol(traj.r[near])
        assert np.max(np.abs(traj.f[near] / f_ref - 1.0)) <= 1e-10
        assert np.max(np.abs(traj.F[near] / F_ref - 1.0)) <= 1e-10


def _bits(xs):
    """The doubles of a flat sequence, as their IEEE-754 bit patterns;
    every NaN as one pattern, as the sign a NaN sum takes depends on
    which machine code path adds it."""
    return [struct.pack("<d", math.nan if math.isnan(x) else float(x))
            for x in xs]


class TestTableau:
    """The tableau literals are scipy's DOP853 coefficients, bit for bit."""

    def test_stage_count(self):
        assert dop853._N_STAGES == DOP853.n_stages

    @pytest.mark.parametrize("name", ["C", "B", "E3", "E5", "C_EXTRA"])
    def test_vectors(self, name):
        lit = getattr(dop853, f"_{name}")
        assert all(type(x) is float for x in lit)
        assert _bits(lit) == _bits(getattr(DOP853, name))

    def test_D(self):
        assert len(dop853._D) == len(DOP853.D)
        for lit, row in zip(dop853._D, DOP853.D):
            assert _bits(lit) == _bits(row)

    def test_fsum_on_the_rows_that_cancel(self):
        # the generated code sums with fsum exactly the rows whose
        # coefficients sum to zero, to the rounding of their literals:
        # the error rows and the interpolant's; every other row sums to
        # its node, each _A row to its _C, each _A_EXTRA row to its
        # _C_EXTRA, and _B to 1
        eps = dop853._EPS
        rows = {"E5": dop853._E5, "E3": dop853._E3, "B": dop853._B,
                **{f"D{i}": d for i, d in enumerate(dop853._D)},
                **{f"A{s}": a for s, a in enumerate(dop853._A) if a},
                **{f"A_EXTRA{i}": a for i, a in enumerate(dop853._A_EXTRA)}}
        fsummed = {name for name, row in rows.items()
                   if dop853._sum_src("k", row).startswith("fsum(")}
        zero = {name for name, row in rows.items()
                if abs(fsum(row)) <= eps * fsum(map(abs, row))}
        assert fsummed == zero == {"E5", "E3", "D0", "D1", "D2", "D3"}
        nodes = [*zip(dop853._A[1:], dop853._C[1:]),
                 *zip(dop853._A_EXTRA, dop853._C_EXTRA),
                 (dop853._B, 1.0)]
        for row, c in nodes:
            assert abs(fsum(row) - c) <= eps * fsum(map(abs, row))

    @pytest.mark.parametrize("name, start", [
        ("A", 0), ("A_EXTRA", DOP853.n_stages + 1)])
    def test_rows_cut_to_their_stages(self, name, start):
        # row s combines the s stages before it; the cut-off entries are 0
        lit, full = getattr(dop853, f"_{name}"), getattr(DOP853, name)
        assert len(lit) == len(full)
        for s, (row, ref) in enumerate(zip(lit, full), start=start):
            assert _bits(row) == _bits(ref[:s])
            assert not np.any(ref[s:])


# the rows whose coefficients sum to zero: the error rows and the
# interpolant's, which the generated code sums with fsum
_CANCELLING = (dop853._E5, dop853._E3, *dop853._D)


def _loop_sum(K, row):
    """The reference form of a tableau combination over the nonzero
    row[i] only: the correctly rounded sum of K[i] * row[i] where the row
    sums to zero, else their left-to-right sum in row order."""
    terms = [k * c for k, c in zip(K, row) if c]
    if any(row is z for z in _CANCELLING):
        return fsum(terms)
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def _loop_step(rhs, r, h, f, F, k0f, k0F):
    """The reference trial step in loop form, from stage 0 (k0f, k0F):
    the stages Kf, KF and (f_new, F_new, E5.Kf, E5.KF, E3.Kf, E3.KF)."""
    Kf, KF = [k0f] + [0.0] * 12, [k0F] + [0.0] * 12
    for s in range(1, 12):
        Kf[s], KF[s] = rhs(r + dop853._C[s] * h,
                           f + _loop_sum(Kf, dop853._A[s]) * h,
                           F + _loop_sum(KF, dop853._A[s]) * h)
    f_new = f + h * _loop_sum(Kf, dop853._B)
    F_new = F + h * _loop_sum(KF, dop853._B)
    Kf[12], KF[12] = rhs(r + h, f_new, F_new)
    return Kf, KF, (f_new, F_new, *(_loop_sum(K, e)
                                    for e in (dop853._E5, dop853._E3)
                                    for K in (Kf, KF)))


def _loop_step_err(rhs, r, h, f, F, k0f, k0F, rtol):
    """The reference trial step's error norm as `dop853.drive` takes it, NaN
    where the step overflows."""
    try:
        _, _, (f_new, F_new, e5f, e5F, e3f, e3F) = _loop_step(
            rhs, r, h, f, F, k0f, k0F)
        sf = max(abs(f), abs(f_new)) * rtol
        sF = max(abs(F), abs(F_new)) * rtol
        e5 = (e5f / sf) ** 2 + (e5F / sF) ** 2
        e3 = (e3f / sf) ** 2 + (e3F / sF) ** 2
        if e5 == 0 and e3 == 0:
            return 0.0
        return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
    except (OverflowError, ZeroDivisionError, ValueError):
        return math.nan


def _loop_dense(rhs, r, h, f, F, f_new, F_new, Kf, KF):
    """The reference interpolant in loop form, from the step's 13
    stages."""
    Kf, KF = list(Kf), list(KF)
    for a, c in zip(dop853._A_EXTRA, dop853._C_EXTRA):
        kf, kF = rhs(r + c * h, f + _loop_sum(Kf, a) * h,
                     F + _loop_sum(KF, a) * h)
        Kf.append(kf)
        KF.append(kF)
    df, dF = f_new - f, F_new - F
    return (r, h, f, F,
            df, h * Kf[0] - df, 2 * df - h * (Kf[12] + Kf[0]),
            *(h * _loop_sum(Kf, d) for d in dop853._D),
            dF, h * KF[0] - dF, 2 * dF - h * (KF[12] + KF[0]),
            *(h * _loop_sum(KF, d) for d in dop853._D))


def _magnitudes(rng, n, signed=True):
    """n doubles with magnitudes spread over a random part of 1e-300 ...
    1e300 (a narrow part makes the sums cancel, a wide one makes a few
    terms dominate), of mixed sign where `signed`, some exact zeros."""
    lo, hi = sorted(rng.uniform(-300, 300) for _ in range(2))
    return [0.0 if signed and rng.random() < 0.1
            else (rng.choice((-1, 1)) if signed else 1)
            * 10 ** rng.uniform(lo, hi) for _ in range(n)]


def _random_case(rng, n_stages):
    """Right-side constants (al, be, N - 1, 1/(p-1), q/(p-1)) of a random
    triple in the box, and n_stages stage pairs and a point (r, h, f, F):
    of extreme magnitudes half the time, else of a solve's scale."""
    N = rng.choice((1, 2, 3))
    pc = 2.0 * N / (N + 1.0)
    p = rng.uniform(pc + 0.01, 1.99)
    q = rng.uniform(p - 1.0, p / 2.0)
    cs = (10 ** rng.uniform(-3, 1), 10 ** rng.uniform(-3, 1), N - 1.0,
          1.0 / (p - 1.0), q / (p - 1.0))
    if rng.random() < 0.5:
        Kf, KF = _magnitudes(rng, n_stages), _magnitudes(rng, n_stages)
        r, h = _magnitudes(rng, 2, signed=False)
        f, F = _magnitudes(rng, 2)
    else:
        Kf = [rng.uniform(-10, 10) for _ in range(n_stages)]
        KF = [rng.uniform(-10, 10) for _ in range(n_stages)]
        r, h = 10 ** rng.uniform(-5, 3), 10 ** rng.uniform(-8, 1)
        f, F = rng.uniform(-10, 10), rng.uniform(-10, 10)
    return cs, Kf, KF, (r, h, f, F)


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        return type(exc)


def _step_with(stage, k, value):
    """The generated step with component k ("f" or "F") of one stage set
    to value right after it is computed."""
    lines = list(shooter._SHOOTING.src)
    at = next(i for i, line in enumerate(lines)
              if f"; k{k}{stage} = " in line)
    lines.insert(at + 1, f"    k{k}{stage} = VALUE")
    ns = {"fsum": fsum, "copysign": math.copysign, "VALUE": value}
    exec("\n".join(lines), ns)
    return ns["_step"]


class TestGeneratedSums:
    """The generated step and interpolant (`_step`, `_dense_segment`)
    against the loop form, bit for bit, or the same exception: both
    driven through the right side at random constants and states."""

    def test_step(self):
        rng = random.Random(20)
        finite = 0
        for _ in range(1000):
            cs, Kf, KF, (r, h, f, F) = _random_case(rng, 1)
            want = _outcome(_loop_step, shooter._SHOOTING.rhs(*cs), r, h, f,
                            F, Kf[0], KF[0])
            kf, kF = Kf + [0.0] * 12, KF + [0.0] * 12
            got = _outcome(shooter._SHOOTING.ns["_step"], r, h, f, F, kf, kF,
                           cs)
            if isinstance(want, type):
                assert got is want
                continue
            assert _bits(got) == _bits(want[2])
            assert _bits(kf) == _bits(want[0]) and _bits(kF) == _bits(want[1])
            finite += all(map(math.isfinite, got))
        # the draws reach the sums, not only the powers' overflow
        assert finite >= 300

    def test_dense_segment(self):
        rng = random.Random(21)
        finite = 0
        for _ in range(1000):
            cs, Kf, KF, (r, h, f, F) = _random_case(rng, 13)
            f_new, F_new = f + rng.uniform(-1, 1), F + rng.uniform(-1, 1)
            want = _outcome(_loop_dense, shooter._SHOOTING.rhs(*cs), r, h, f,
                            F, f_new, F_new, Kf, KF)
            got = _outcome(shooter._SHOOTING.segment, r, h, f, F, f_new,
                           F_new, Kf, KF, cs)
            if isinstance(want, type):
                assert got is want
                continue
            assert _bits(got) == _bits(want)
            finite += all(map(math.isfinite, got))
        assert finite >= 300

    @pytest.mark.parametrize("value", [math.inf, math.nan],
                             ids=["inf", "nan"])
    @pytest.mark.parametrize("component", [0, 1], ids=["f", "F"])
    @pytest.mark.parametrize("stage", range(1, 13))
    def test_non_finite_stage_rejects_the_step(self, consts1, monkeypatch,
                                               stage, component, value):
        # one stage of the fifth trial step of a solve made non-finite,
        # in the generated step and in the loop form: the loop form's
        # error is NaN, and the kernel retries from the same r at 0.2 h,
        # scipy's MIN_FACTOR.  Stage 12 meets only zero weights in the
        # error rows, so the loop form's error stays finite there and
        # the test is the kernel's own.
        hit_step = _step_with(stage, "fF"[component], value)
        step = shooter._SHOOTING.ns["_step"]
        trials = []

        def spy(r, h, f, F, Kf, KF, cs):
            trials.append((r, h))
            if len(trials) != 5:
                return step(r, h, f, F, Kf, KF, cs)
            rhs, seen = shooter._SHOOTING.rhs(*cs), []

            def hit(r_, f_, F_):
                k = list(rhs(r_, f_, F_))
                seen.append(1)
                if len(seen) == stage:
                    k[component] = value
                return tuple(k)
            err = _loop_step_err(hit, r, h, f, F, Kf[0], KF[0], 1e-10)
            assert math.isnan(err) == (stage < 12)
            out = hit_step(r, h, f, F, Kf, KF, cs)
            if stage == 12:
                assert all(map(math.isfinite, out))
            return out

        monkeypatch.setitem(shooter._SHOOTING.ns, "_step", spy)
        a = 2.3
        r0 = shooter._default_r0(consts1, a)
        status = dop853.drive(
            shooter._SHOOTING, shooter._rhs_constants(consts1),
            shooter._make_events(consts1), r0, series_start(consts1, a, r0),
            100.0, 1e-10, False)[0]
        assert status == 1
        (r5, h5), (r6, h6) = trials[4:6]
        assert r6 == r5
        assert h6 == pytest.approx(0.2 * h5, rel=1e-9)


# the solver itself, which a test may replace in dop853 by a spy
_ILLINOIS = dop853._illinois


def _root_checked(g, a, b):
    """_illinois's root of g on [a, b], checked: it lies in the bracket,
    and g is 0 there or has the other sign at a point the solver evaluated
    within 4 eps (1 + |x|) of it.  Returns the number of evaluations."""
    seen = []

    def spy(x):
        seen.append((x, g(x)))
        return seen[-1][1]
    x = _ILLINOIS(spy, a, b)
    gx = g(x)
    assert a <= x <= b
    assert gx == 0 or any(abs(y - x) <= 4 * dop853._EPS * (1 + abs(x))
                          and (gy > 0) != (gx > 0) for y, gy in seen)
    return len(seen)


class TestBrent:
    """The event roots' bracketing solver, `_illinois` (the class keeps the
    name of the Brent solver it replaced): a root within brentq's stopping
    width at xtol = rtol = 4 eps, and the errors `dop853.drive` relies
    on."""

    @pytest.mark.parametrize("flags", [
        ["--N", "1", "--p", "1.2", "--q", "0.5"],
        ["--N", "2", "--p", "1.5", "--q", "0.6", "--a-tol", "3e-16",
         "--rmax", "60"]], ids=["N1", "N2"])
    def test_event_functions_of_find(self, flags, monkeypatch, tmp_path):
        # every event root of a find, each checked as the solve finds it,
        # while its g still reads the step and the event that fired
        n_evals = []

        def spy(g, a, b):
            n_evals.append(_root_checked(g, a, b))
            return _ILLINOIS(g, a, b)

        monkeypatch.setattr(dop853, "_illinois", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["find", *flags, "--outdir", str(tmp_path)])
        assert len(n_evals) > 20
        # plain bisection to the same width would take about 48
        assert sum(n_evals) / len(n_evals) <= 11

    @settings(max_examples=300, deadline=None)
    @given(c=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           kind=st.sampled_from(["cubic", "sin-exp", "atan-log"]),
           a=st.floats(-5, 5), width=st.floats(1e-6, 10),
           t=st.floats(0, 1))
    def test_property(self, c, kind, a, width, t):
        # g - g(x0) vanishes at x0 = a + t width inside the bracket, so
        # most draws change sign; the rest check the same-sign error
        if kind == "cubic":
            def g(x):
                return ((x + c[0]) * x + c[1]) * x + c[2]
        elif kind == "sin-exp":
            def g(x):
                return math.sin(c[0] * x) + c[1] * math.exp(c[2] * x / 5)
        else:
            def g(x):
                return math.atan(c[0] * (x - c[1])) + c[2] * math.log1p(
                    x * x)
        b = a + width
        g0 = g(a + t * width)

        def h(x):
            return g(x) - g0
        if h(a) != 0 and h(b) != 0 and (h(a) > 0) == (h(b) > 0):
            with pytest.raises(ValueError, match="different signs"):
                dop853._illinois(h, a, b)
        else:
            _root_checked(h, a, b)

    def test_exact_zero_at_an_end(self):
        assert dop853._illinois(lambda x: x - 0.3, 0.3, 2.0) == 0.3
        assert dop853._illinois(lambda x: x - 0.3, -1.0, 0.3) == 0.3

    def test_same_sign_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            dop853._illinois(lambda x: x * x + 1.0, -1.0, 2.0)

    def test_no_convergence_raises(self):
        with pytest.raises(RuntimeError):
            dop853._illinois(lambda x: x ** 3 - 2.0, 0.0, 2.0, maxiter=3)

    def test_nan_raises(self):
        with pytest.raises(RuntimeError, match="NaN"):
            dop853._illinois(lambda x: math.nan if x > 0.5 else x - 0.7,
                              0.0, 1.0)

    def test_stalled_regula_falsi_bisects(self):
        # |g| differs by 300 decades across the root: the Illinois halving
        # of g(a) would need about 1,000 trial points to move the secant
        # off b, and 100 once ended the search with no root
        xs = []

        def g(x):
            xs.append(x)
            return -1.0 if x < 0.3 else 1e-300

        root = dop853._illinois(g, 0.0, 1.0)
        assert abs(root - 0.3) <= 4 * dop853._EPS * 1.3
        assert len(xs) <= dop853._SECANT_POINTS + 60


class TestKstarOverflow:
    # in the box, but K* = exp(ln(mu K*)) / mu overflows: q is close to p-1
    @pytest.mark.parametrize("N, p, q", [(2, 1.5, 0.5001), (1, 1.2, 0.205)])
    def test_solve_is_refused(self, N, p, q):
        consts = derive_constants(N, p, q)
        assert consts.Kstar == math.inf
        with pytest.raises(ValueError, match="Kstar overflows"):
            classify(consts, 1.0, 50.0)
        with pytest.raises(ValueError, match="Kstar overflows"):
            integrate_profile(consts, 1.0, 50.0)

    def test_events_do_not_raise(self):
        # mu = 99 with a finite K*: r^mu and |F|^{1/(p-1)} overflow floats
        consts = derive_constants(1, 1.5, 0.51)
        assert math.isfinite(consts.Kstar)
        events = shooter._make_events(consts)
        g = events(1e6, 1.0, 1e300)
        assert g[0] == math.inf and g[1] == math.inf


@pytest.mark.parametrize("budget, raises", [(27, True), (28, False)])
def test_step_budget_counts_trial_steps(budget, raises, monkeypatch):
    # the solve of test_trial_step_counts[N1-a10] takes 28 trial steps
    monkeypatch.setattr(dop853, "STEP_BUDGET", budget)
    consts = derive_constants(1, 1.2, 0.5)
    if raises:
        with pytest.raises(RuntimeError, match=r"the solve at a=10\.0 "
                           r"failed: step budget of 27 trial steps"):
            classify(consts, 10.0, 100.0)
    else:
        assert classify(consts, 10.0, 100.0).label == "A"


def test_nan_step_size_ends_the_solve():
    # a NaN rtol makes every step size NaN, which must fail the step floor
    # (status -1) rather than loop forever; the subprocess and its timeout
    # keep a kernel that hangs from stalling the suite
    code = "\n".join([
        "import math",
        "from extinction import derive_constants, dop853, shooter",
        "c = derive_constants(1, 1.2, 0.5)",
        "r0 = shooter._default_r0(c, 1.0)",
        "y0 = shooter.series_start(c, 1.0, r0)",
        "print(dop853.drive(shooter._SHOOTING, shooter._rhs_constants(c),",
        "                   shooter._make_events(c), r0, y0, 10.0, math.nan,",
        "                   False)[0])"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "-1"


def _drive_in_subprocess(*lines):
    """Run lines after the shooting kernel's drive arguments at (1, 1.2,
    0.5) are set up as `args`, in a new process: a bound the step loop
    never reaches once spun it without end, and the subprocess and its
    timeout keep a regression from stalling the suite."""
    code = "\n".join([
        "import math",
        "from extinction import derive_constants, dop853, shooter",
        "c = derive_constants(1, 1.2, 0.5)",
        "args = (shooter._SHOOTING, shooter._rhs_constants(c),",
        "        shooter._make_events(c))", *lines])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_bound_at_the_start_raises():
    assert _drive_in_subprocess(
        "for bound in (2.0, math.nan):",
        "    try:",
        "        dop853.drive(*args, 2.0, (0.5, 0.1), bound, 1e-10, False)",
        "    except ValueError as e:",
        "        print(e)") == [
        f"r_bound must differ from the start r=2.0, got {b}"
        for b in ("2.0", "nan")]


def test_bound_behind_the_start_integrates():
    # out from the series start at a = 2.3 to r = 2, then back: f returns
    # to a, both halves reaching their bounds
    out = _drive_in_subprocess(
        "r0 = shooter._default_r0(c, 2.3)",
        "out = dop853.drive(*args, r0, shooter.series_start(c, 2.3, r0),",
        "                   2.0, 1e-12, False)",
        "back = dop853.drive(*args, 2.0, out[2], r0, 1e-12, False)",
        "print(out[:2], back[:2] == (0, r0), back[2][0])")
    assert out[0].startswith("(0, 2.0) True ")
    assert float(out[0].split()[-1]) == pytest.approx(2.3, rel=1e-9)


def test_ode_residual_small_on_profile(star1, consts1):
    _, traj, _ = star1
    res = ode_residual(traj, consts1)
    assert res <= 100.0 * traj.tol


def test_ode_residual_flags_corruption(star1, consts1):
    _, traj, _ = star1
    import copy
    bad = copy.copy(traj)
    bad.f = traj.f * 1.01
    assert ode_residual(bad, consts1) > 1e-4


def test_ode_residual_needs_log_uniform_grid(star1, consts1):
    # the differences are taken in ln r: a grid uniform in r is refused
    _, traj, _ = star1
    import copy
    bad = copy.copy(traj)
    bad.r = np.linspace(traj.r[0], traj.r[-1], len(traj.r))
    with pytest.raises(ValueError, match="uniformly spaced in ln r"):
        ode_residual(bad, consts1)


def test_default_sample_count_converged(star1, consts1):
    # the downstream values of find's profile move by less than their
    # reporting accuracy when the default sample count is doubled
    a_star, traj, _ = star1
    n = inspect.signature(integrate_profile).parameters["n_samples"].default
    assert len(traj.r) == n
    fine = integrate_profile(consts1, a_star, 100.0, traj.tol,
                             n_samples=2 * n)
    fits = [fit_tail(t, consts1) for t in (traj, fine)]
    rates = [extract_rates(map_to_phase(t, consts1), consts1)
             for t in (traj, fine)]
    assert fits[0].theta_est == pytest.approx(fits[1].theta_est, rel=1e-6)
    assert fits[0].A_est == pytest.approx(fits[1].A_est, rel=1e-5)
    assert rates[0].lambda3_est == pytest.approx(rates[1].lambda3_est,
                                                 rel=1e-6)


class TestCsvRoundTrip:
    def test_header_and_exact_floats(self, consts1):
        traj = integrate_profile(consts1, 0.01, 50.0,
                                 n_samples=128)
        text = trajectory_csv(traj, consts1)
        header = next(ln for ln in text.splitlines()
                      if not ln.startswith("#"))
        assert header == "r,f,F"
        meta, cols, events = read_profile_csv(text)
        assert meta["a"] == traj.a
        assert meta["N"] == consts1.N
        assert meta["p"] == consts1.p and meta["q"] == consts1.q
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(cols["r"], traj.r)
        assert np.array_equal(cols["f"], traj.f)
        assert np.array_equal(cols["F"], traj.F)
        assert events == traj.events

    # f' = -F^{1/(p-1)}: the exponent is 5 at N=1 and 2 at N=2
    @pytest.mark.parametrize("params, a", [
        ((1, 1.2, 0.5), 2.3),
        ((2, 1.5, 0.6), 1.05),
    ], ids=["N1", "N2"])
    def test_load_profile_inverts_trajectory_csv(self, params, a):
        consts0 = derive_constants(*params)
        traj = integrate_profile(consts0, a, 50.0, n_samples=128)
        consts, back = load_profile(trajectory_csv(traj, consts0))
        assert consts == consts0
        assert (back.a, back.tol, back.events) == (
            traj.a, traj.tol, traj.events)
        # f' and E are derived from the re-read F by the solve's own
        # expressions, so they keep their bits
        for name in ("r", "f", "fprime", "F", "energy"):
            assert np.array_equal(getattr(back, name), getattr(traj, name))
        assert ode_residual(back, consts) == ode_residual(traj, consts0)

    def test_r0_line_of_older_files_is_ignored(self, consts1):
        # files written while r0 was stored beside r[0] carry a `# r0`
        # header line; they load to the same trajectory, bit for bit
        traj = integrate_profile(consts1, 2.3, 50.0, n_samples=128)
        text = trajectory_csv(traj, consts1)
        assert "# r0," not in text
        line = "# r0,%.17g\n" % traj.r[0]
        old = text.replace("\n# tol,", "\n" + line + "# tol,", 1)
        assert line in old
        (_, new), (_, back) = load_profile(text), load_profile(old)
        assert (back.a, back.tol, back.events) == (new.a, new.tol,
                                                   new.events)
        for name in ("r", "f", "fprime", "F", "energy"):
            assert np.array_equal(getattr(back, name), getattr(new, name))

    @pytest.mark.parametrize("line", ["# event", "# event,RMAX_REACHED"])
    def test_short_event_line_is_refused(self, consts1, line):
        traj = integrate_profile(consts1, 1.0, 10.0, n_samples=64)
        with pytest.raises(ValueError, match="event line must be"):
            read_profile_csv(trajectory_csv(traj, consts1) + line + "\n")

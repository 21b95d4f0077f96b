"""Command-line front end: exit codes, file outputs, config plumbing.

Everything runs in-process through cli.main(argv) so exit codes and
stdout can be asserted without subprocess overhead, except the inputs
that once hung the shooter: those run in a subprocess under a timeout.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from extinction import cli, load_profile, trajectory_csv

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


N1 = ("--N", "1", "--p", "1.2", "--q", "0.5")


@pytest.fixture(scope="module")
def find_dir(tmp_path_factory):
    """One `find` run shared by the file-consuming command tests."""
    d = tmp_path_factory.mktemp("find1")
    code = cli.main(["find", *N1, "--outdir", str(d)])
    assert code == 0
    return d


class TestExitCodes:
    def test_ok(self, capsys):
        code, d, _ = run_json(capsys, "constants", *N1)
        assert code == 0
        assert d["alpha"] == pytest.approx(3.5, rel=1e-12)

    def test_range_violation_is_2(self, capsys):
        code, d, _ = run_json(capsys, "constants", "--N", "1",
                              "--p", "2.5", "--q", "0.5")
        assert code == 2
        assert not d["ok"]
        assert any("p < 2" in v for v in d["violations"])
        # the report names the violations and nothing else
        assert set(d) == {"ok", "violations"}

    def test_malformed_flag_is_1(self, capsys):
        code, _, err = run(capsys, "constants", "--N", "one",
                           "--p", "1.2", "--q", "0.5")
        assert code == 1
        assert "error" in err

    def test_unknown_flag_is_1(self, capsys):
        code, _, _ = run(capsys, "constants", *N1, "--bogus", "3")
        assert code == 1

    def test_missing_params_is_1(self, capsys):
        code, _, err = run(capsys, "constants", "--p", "1.2", "--q", "0.5")
        assert code == 1
        assert "--N" in err

    def test_abbreviated_flags_rejected(self, capsys, find_dir):
        code, _, _ = run(capsys, "tail", "--prof",
                         str(find_dir / "profile.csv"))
        assert code == 1

    def test_help_is_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    # One case per row of the exit-code table beyond the tests above.
    # {profile} and {certify} are files of the shared `find` run; {empty}
    # is a profile header without data; {short} is a profile shot to
    # r = 10 only, too short for the phase rates; {swapped} is the shared
    # profile with the names of its f and F columns swapped; {ninf} and
    # {nhalf} are the shared profile with N = inf and N = 1.5, and
    # {noradius} the shared profile with an event line that has neither
    # kind nor radius; {fnan} and {rback} are the shared profile with
    # f = nan and with r = 1e-3 at data row 3000; {rzero} and {rneg} the
    # shared profile with r = 0 and r = -1 at data row 1, {Fhuge} with
    # F = 1e300 at data row 3000 (f' = -F^5 overflows), {seven} the
    # shared profile under the seven-column header of the old layout, and
    # {aneg}, {anan} and {tolzero} the shared profile with its header's a
    # set to -1 and nan and its tol to 0, and {Fzero} the shared profile
    # with F = 0 at every row (no sample maps into phase space).
    # A failure prints its needle in "error"; a run that ends with a
    # written but unaccepted result, or succeeds, has no "error" and
    # prints the needle itself.
    @pytest.mark.parametrize("code, argv, needle", [
        (1, ("phase", "--x0", "0.1,0.2", *N1, "--outdir", "{tmp}"), "--x0"),
        (1, ("phase", "--x0", "0.1,0.1,0.6", "--span", "5", *N1,
             "--outdir", "{tmp}"), "--span"),
        (1, ("tail", "--profile", "{profile}", "--window", "5"), "--window"),
        (1, ("tail", "--profile", "{certify}"), "cannot read profile"),
        (1, ("tail", "--profile", "{empty}"), "no data rows"),
        (2, ("classify", *N1, "--a", "-1"), "a must be positive"),
        (2, ("classify", *N1, "--a", "1", "--rmax", "1e-9"),
         "series-start radius"),
        (2, ("pde", "--profile", "{profile}", "--M", "0"), "M >= 1"),
        (3, ("find", "--N", "1", "--p", "1.15", "--q", "0.2774999999999999",
             "--outdir", "{tmp}"), '"certified": false'),
        (3, ("find", "--N", "1", "--p", "1.85", "--q", "0.8575",
             "--outdir", "{tmp}"), "bracket scan exhausted"),
        (3, ("phase", "--from-profile", "{short}", "--outdir", "{tmp}"),
         "does not converge"),
        (3, ("find", "--N", "1", "--p", "1.15", "--q", "0.5324999999999999",
             "--outdir", "{tmp}"), "tail exponent off theory"),
        (2, ("classify", *N1, "--a", "1", "--rmax", "0"),
         "series-start radius"),
        (2, ("find", "--N", "2", "--p", "1.5", "--q", "0.5001",
             "--outdir", "{tmp}"), "Kstar overflows"),
        (1, ("tail", "--profile", "{swapped}"), "cannot read profile"),
        (1, ("phase", "--from-profile", "{swapped}", "--outdir", "{tmp}"),
         "cannot read profile"),
        (1, ("pde", "--profile", "{swapped}", "--M", "10"),
         "cannot read profile"),
        (1, ("phase", "--from-profile", "{profile}", "--N", "2", "--p", "1.5",
             "--q", "0.6", "--outdir", "{tmp}"),
         "the exponents come from the profile"),
        (2, ("qstar", "--N", "-1", "--p", "1.5"), "N >= 1 fails"),
        (2, ("qstar", "--N", "0", "--p", "1.5"), "N >= 1 fails"),
        (2, ("qstar", "--N", "0", "--p", "0.5"), "N >= 1 fails"),
        (2, ("pde", "--profile", "{profile}", "--tend", "0.9"),
         "--tend must lie in (0, 0.8 T]"),
        (2, ("pde", "--profile", "{profile}", "--tend", "nan"),
         "--tend must lie in (0, 0.8 T]"),
        (2, ("pde", "--profile", "{profile}", "--T", "0.5", "--tend", "0.8"),
         "--tend must lie in (0, 0.8 T]"),
        (2, ("pde", "--profile", "{profile}", "--T", "-1"),
         "--T must be finite and > 0"),
        (2, ("pde", "--profile", "{profile}", "--T", "inf"),
         "--T must be finite and > 0"),
        (2, ("pde", "--profile", "{profile}", "--L", "nan"), "finite L > 0"),
        (2, ("pde", "--profile", "{profile}", "--M", "50", "--T", "1e300",
             "--tend", "0.5"),
         "--T must keep (T - t)^(alpha + beta) within double range"),
        (2, ("classify", *N1, "--a", "1", "--tol", "0"),
         "tol must be finite and > 0"),
        (2, ("classify", *N1, "--a", "1", "--tol", "-1"),
         "tol must be finite and > 0"),
        (2, ("phase", "--x0", "0.15,0.35,0.6667", "--span=-2,0", *N1,
             "--tol", "0", "--outdir", "{tmp}"),
         "tol must be finite and > 0"),
        (2, ("pde", "--profile", "{profile}", "--M", "50", "--out", "{tmp}"),
         "cannot write output: [Errno 21] Is a directory"),
        (2, ("find", *N1, "--outdir", "{certify}"),
         "cannot write output: [Errno 17] File exists"),
        (2, ("phase", "--from-profile", "{profile}", "--outdir", "{certify}"),
         "cannot write output: [Errno 17] File exists"),
        (1, ("tail", "--profile", "{ninf}"),
         "cannot read profile: N must be a finite integer, got inf"),
        (1, ("phase", "--from-profile", "{ninf}", "--outdir", "{tmp}"),
         "cannot read profile: N must be a finite integer, got inf"),
        (1, ("pde", "--profile", "{ninf}", "--M", "10"),
         "cannot read profile: N must be a finite integer, got inf"),
        (1, ("tail", "--profile", "{nhalf}"),
         "cannot read profile: N must be a finite integer, got 1.5"),
        (1, ("phase", "--from-profile", "{nhalf}", "--outdir", "{tmp}"),
         "cannot read profile: N must be a finite integer, got 1.5"),
        (1, ("pde", "--profile", "{nhalf}", "--M", "10"),
         "cannot read profile: N must be a finite integer, got 1.5"),
        (1, ("tail", "--profile", "{noradius}"),
         "cannot read profile: event line must be"),
        (1, ("phase", "--from-profile", "{noradius}", "--outdir", "{tmp}"),
         "cannot read profile: event line must be"),
        (1, ("pde", "--profile", "{noradius}", "--M", "10"),
         "cannot read profile: event line must be"),
        (1, ("tail", "--profile", "{profile}", "--window", "100,10"),
         "--window must be finite with lo < hi"),
        (1, ("tail", "--profile", "{profile}", "--window=nan,50"),
         "--window must be finite with lo < hi"),
        (1, ("tail", "--profile", "{fnan}"),
         "cannot read profile: column f has a sample that is not finite"),
        (1, ("phase", "--from-profile", "{fnan}", "--outdir", "{tmp}"),
         "cannot read profile: column f has a sample that is not finite"),
        (1, ("pde", "--profile", "{fnan}", "--M", "10"),
         "cannot read profile: column f has a sample that is not finite"),
        (1, ("tail", "--profile", "{rback}"),
         "cannot read profile: r must be strictly increasing"),
        (1, ("phase", "--from-profile", "{rback}", "--outdir", "{tmp}"),
         "cannot read profile: r must be strictly increasing"),
        (1, ("pde", "--profile", "{rback}", "--M", "10"),
         "cannot read profile: r must be strictly increasing"),
        (1, ("tail", "--profile", "{rzero}"),
         "cannot read profile: r must be > 0, got 0.0"),
        (1, ("phase", "--from-profile", "{rzero}", "--outdir", "{tmp}"),
         "cannot read profile: r must be > 0, got 0.0"),
        (1, ("pde", "--profile", "{rzero}", "--M", "10"),
         "cannot read profile: r must be > 0, got 0.0"),
        (1, ("tail", "--profile", "{rneg}"),
         "cannot read profile: r must be > 0, got -1.0"),
        (1, ("phase", "--from-profile", "{rneg}", "--outdir", "{tmp}"),
         "cannot read profile: r must be > 0, got -1.0"),
        (1, ("pde", "--profile", "{rneg}", "--M", "10"),
         "cannot read profile: r must be > 0, got -1.0"),
        (1, ("tail", "--profile", "{Fhuge}"),
         "cannot read profile: derived f' has a sample that is not finite"),
        (1, ("phase", "--from-profile", "{Fhuge}", "--outdir", "{tmp}"),
         "cannot read profile: derived f' has a sample that is not finite"),
        (1, ("pde", "--profile", "{Fhuge}", "--M", "50"),
         "cannot read profile: derived f' has a sample that is not finite"),
        (1, ("tail", "--profile", "{seven}"),
         "cannot read profile: header must be 'r,f,F', "
         "got 'r,f,fprime,F,w,Wtail,E'"),
        (3, ("find", "--N", "1", "--p", "1.15", "--q", "0.56",
             "--outdir", "{tmp}"),
         "bracket scan exhausted at a=1e-10: its series-start radius "
         "246.209 is not below r_max=100"),
        (1, ("tail", "--profile", "{aneg}"),
         "cannot read profile: a must be finite and > 0, got -1.0"),
        (1, ("phase", "--from-profile", "{aneg}", "--outdir", "{tmp}"),
         "cannot read profile: a must be finite and > 0, got -1.0"),
        (1, ("pde", "--profile", "{aneg}", "--M", "50"),
         "cannot read profile: a must be finite and > 0, got -1.0"),
        (1, ("tail", "--profile", "{anan}"),
         "cannot read profile: a must be finite and > 0, got nan"),
        (1, ("phase", "--from-profile", "{anan}", "--outdir", "{tmp}"),
         "cannot read profile: a must be finite and > 0, got nan"),
        (1, ("pde", "--profile", "{anan}", "--M", "50"),
         "cannot read profile: a must be finite and > 0, got nan"),
        (1, ("tail", "--profile", "{tolzero}"),
         "cannot read profile: tol must be finite and > 0, got 0.0"),
        (1, ("phase", "--from-profile", "{tolzero}", "--outdir", "{tmp}"),
         "cannot read profile: tol must be finite and > 0, got 0.0"),
        (1, ("pde", "--profile", "{tolzero}", "--M", "50"),
         "cannot read profile: tol must be finite and > 0, got 0.0"),
        (2, ("find", *N1, "--a-tol", "-1", "--outdir", "{tmp}"),
         "a_tol must be finite and >= 0, got -1.0"),
        (2, ("find", *N1, "--rmax", "1.2e307", "--outdir", "{tmp}"),
         "r_max must keep 16 r_max finite, got 1.2e+307"),
        (0, ("classify", *N1, "--a", "0.1", "--tol", "0.5"), '"label": "C"'),
        (0, ("classify", *N1, "--a", "1", "--tol", "0.5"), '"label": "C"'),
        (0, ("classify", *N1, "--a", "10", "--tol", "0.5"), '"label": "A"'),
        (3, ("find", *N1, "--tol", "0.5", "--outdir", "{tmp}"),
         "tail exponent off theory"),
        (3, ("phase", "--from-profile", "{Fzero}", "--outdir", "{tmp}"),
         "path does not converge: it holds no samples"),
        (2, ("phase", "--x0=0.15,0.35,0.6667", "--span=5,5", *N1,
             "--outdir", "{tmp}"),
         "eta_span ends must differ, got (5.0, 5.0)"),
        (2, ("qstar", "--N", "2", "--p", "2.5"), "p < 2 fails"),
        (3, ("pde", "--profile", "{profile}", "--M", "50", "--L", "1e200"),
         "L too large: u(0,x) = 0 in cell 0"),
        (0, ("qstar", "--N", "2", "--p", "1.9999999999999998"),
         '"lambdastar": 7.401486830834378e-17'),
    ])
    def test_exit_code_table(self, capsys, find_dir, tmp_path, code, argv,
                             needle):
        files = {"profile": find_dir / "profile.csv",
                 "certify": find_dir / "certify.json",
                 "empty": tmp_path / "empty.csv",
                 "short": tmp_path / "short.csv",
                 "swapped": tmp_path / "swapped.csv",
                 "ninf": tmp_path / "ninf.csv", "nhalf": tmp_path / "nhalf.csv",
                 "noradius": tmp_path / "noradius.csv",
                 "fnan": tmp_path / "fnan.csv", "rback": tmp_path / "rback.csv",
                 **{k: tmp_path / f"{k}.csv"
                    for k in ("rzero", "rneg", "Fhuge", "seven", "aneg",
                              "anan", "tolzero", "Fzero")},
                 "tmp": tmp_path}
        files["empty"].write_text("# N,1\nr,f,F\n")
        files["swapped"].write_text(files["profile"].read_text().replace(
            "\nr,f,F\n", "\nr,F,f\n", 1))
        text = files["profile"].read_text()
        files["ninf"].write_text(text.replace("\n# N,1\n", "\n# N,inf\n", 1))
        files["nhalf"].write_text(text.replace("\n# N,1\n", "\n# N,1.5\n", 1))
        files["noradius"].write_text(text + "# event\n")
        files["seven"].write_text(text.replace(
            "\nr,f,F\n", "\nr,f,fprime,F,w,Wtail,E\n", 1))
        lines = text.splitlines(keepends=True)
        head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        names = lines[head].rstrip("\n").split(",")

        def edited(row, name, value):
            """The shared profile with column `name` of data row `row`
            set to `value`."""
            k = head + row
            fields = lines[k].rstrip("\n").split(",")
            fields[names.index(name)] = value
            return "".join(lines[:k] + [",".join(fields) + "\n"]
                           + lines[k + 1:])
        files["fnan"].write_text(edited(3000, "f", "nan"))
        files["rback"].write_text(edited(3000, "r", "1e-3"))
        files["rzero"].write_text(edited(1, "r", "0"))
        files["rneg"].write_text(edited(1, "r", "-1"))
        files["Fhuge"].write_text(edited(3000, "F", "1e300"))
        files["Fzero"].write_text("".join(
            lines[:head + 1]
            + [ln if ln.startswith("#") else
               ",".join(ln.split(",")[:-1] + ["0\n"])
               for ln in lines[head + 1:]]))

        def header(key, value):
            """The shared profile with its header's `key` set to `value`."""
            k = next(i for i, ln in enumerate(lines)
                     if ln.startswith(f"# {key},"))
            return "".join(lines[:k] + [f"# {key},{value}\n"] + lines[k + 1:])
        files["aneg"].write_text(header("a", "-1"))
        files["anan"].write_text(header("a", "nan"))
        files["tolzero"].write_text(header("tol", "0"))
        if "{short}" in argv:
            assert cli.main(["shoot", *N1, "--a", "2.3", "--rmax", "10",
                             "--out", str(files["short"])]) == 0
        got, out, err = run(capsys, *(a.format(**files) for a in argv))
        assert got == code
        assert needle in (err if code == 1
                          else json.loads(out).get("error", out))
        if "{Fzero}" in argv:
            # the skipped samples are named once, on stderr
            assert err == ("warning: skipped 4000 sample(s) with f' = 0 or "
                           "f <= 0 (phase map undefined there)\n")

    def test_loose_tol_shoot_writes_its_profile(self, capsys, tmp_path):
        # at --tol 0.5 the interpolant of an accepted step once overflowed
        # in an uncaught OverflowError: such a step is now rejected
        out = tmp_path / "shoot.csv"
        assert run(capsys, "shoot", *N1, "--a", "1", "--tol", "0.5",
                   "--out", str(out))[0] == 0
        _, traj = load_profile(out.read_text())
        assert [k for k, _ in traj.events] == ["W_EXCEEDS_KSTAR"]

    # the library refuses these before the first artifact is written,
    # and the directory is made only with it
    @pytest.mark.parametrize("argv", [
        ("find", *N1, "--a-tol", "-1", "--outdir", "{tmp}/new"),
        ("phase", "--x0", "1e13,0,0", *N1, "--outdir", "{tmp}/new"),
    ], ids=["find", "phase"])
    def test_refused_run_creates_nothing(self, capsys, tmp_path, argv):
        code, d, _ = run_json(capsys, *(a.format(tmp=tmp_path)
                                        for a in argv))
        assert code == 2 and not d["ok"]
        assert not (tmp_path / "new").exists()

    # |lambda2| is 0.963 at q = 0.47 and 0.857 at q = 0.48, against
    # |lambda3| = theta = 1 at N = 1: only the first is within 0.1
    @pytest.mark.parametrize("q, flagged", [("0.47", True), ("0.48", False)])
    def test_near_crossover_flag(self, capsys, tmp_path, q, flagged):
        flags = ("--N", "1", "--p", "1.2", "--q", q)
        assert run(capsys, "find", *flags, "--outdir", str(tmp_path))[0] == 0
        code, d, _ = run_json(capsys, "phase", "--from-profile",
                              str(tmp_path / "profile.csv"),
                              "--outdir", str(tmp_path))
        assert code == 0
        assert [f.startswith("near-crossover") for f in d["flags"]] == (
            [True] if flagged else [])

    # A non-finite shooting or phase input, or a phase start already
    # beyond the blow-up guard, once spun an integrator's step loop
    # forever (or crashed), so these run in a subprocess that a timeout
    # can stop.
    @pytest.mark.parametrize("argv, needle", [
        (("classify", *N1, "--a", "nan"), "a must be positive and finite"),
        (("classify", *N1, "--a", "1", "--tol", "nan"), "tol must be finite"),
        (("classify", *N1, "--a", "1", "--rmax", "nan"),
         "r_max must be finite"),
        (("find", *N1, "--a-tol", "nan", "--outdir", "{tmp}"),
         "a_tol must be finite"),
        (("phase", "--x0", "0.15,0.35,0.6667", "--span=-2,0", *N1,
          "--tol", "nan", "--outdir", "{tmp}"), "tol must be finite"),
        (("phase", "--x0", "0.15,0.35,0.6667", "--span=-2,nan", *N1,
          "--outdir", "{tmp}"), "eta_span ends must be finite"),
        (("phase", "--x0", "0.15,0.35,0.6667", "--span=-2,inf", *N1,
          "--outdir", "{tmp}"), "eta_span ends must be finite"),
        (("phase", "--x0", "0.15,0.35,0.6667", "--span=nan,0", *N1,
          "--outdir", "{tmp}"), "eta_span ends must be finite"),
        (("phase", "--x0=0.15,0.35,1e150", "--span=0,2", *N1,
          "--outdir", "{tmp}"), "below the blow-up guard"),
        (("phase", "--x0=0.15,0.35,1e160", "--span=0,2", *N1,
          "--outdir", "{tmp}"), "below the blow-up guard"),
    ])
    def test_non_finite_shooting_input_is_2(self, tmp_path, argv, needle):
        res = _cli_subprocess(tmp_path, argv)
        assert res.returncode == 2
        assert needle in json.loads(res.stdout)["error"]
        assert "Traceback" not in res.stderr

    # inside the guard but far from P0, the orbit settles where RK45 is
    # stiff (rate about 1e6): without phase.RHS_BUDGET the run took
    # millions of right-side calls and minutes
    @pytest.mark.parametrize("argv, needle", [
        (("phase", "--x0=0.15,0.35,9e11", "--span=0,10", *N1,
          "--outdir", "{tmp}"), "right-side evaluations"),
    ])
    def test_phase_rhs_budget_is_3(self, tmp_path, argv, needle):
        res = _cli_subprocess(tmp_path, argv)
        assert res.returncode == 3
        assert needle in json.loads(res.stdout)["error"]
        assert "Traceback" not in res.stderr


def _cli_subprocess(tmp_path, argv):
    """`python -m extinction.cli argv` in a new process, stopped by a
    timeout if its integration does not end."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "extinction.cli",
         *(a.format(tmp=tmp_path) for a in argv)],
        env=env, capture_output=True, text=True, timeout=60)


def test_non_finite_is_strict_json_null(capsys):
    # K* overflows at this triple, which is inside the box
    code, out, _ = run(capsys, "constants", "--N", "1", "--p", "1.2",
                       "--q", "0.205")
    assert code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    d = json.loads(out, parse_constant=reject)
    assert d["Kstar"] is None
    assert d["alpha"] == pytest.approx((1.2 - 0.205) / (1.2 - 0.41))


class TestQstar:
    def test_value(self, capsys):
        code, d, _ = run_json(capsys, "qstar", "--N", "1", "--p", "1.2")
        assert code == 0
        assert d["qstar"] == pytest.approx(0.4666666666666666, rel=1e-12)

    def test_range(self, capsys):
        code, _, _ = run(capsys, "qstar", "--N", "1", "--p", "2.5")
        assert code == 2


class TestClassify:
    def test_C(self, capsys):
        code, d, _ = run_json(capsys, "classify", *N1, "--a", "0.01")
        assert code == 0
        assert d["label"] == "C"
        assert d["witness_r"] > 0

    def test_A(self, capsys):
        code, d, _ = run_json(capsys, "classify", *N1, "--a", "100")
        assert code == 0
        assert d["label"] == "A"


class TestShoot:
    def test_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "shoot", *N1, "--a", "1.0",
                         "--rmax", "10", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "r,f,F"


class TestFind:
    def test_artifacts_and_report(self, capsys, find_dir):
        assert (find_dir / "profile.csv").exists()
        assert (find_dir / "certify.json").exists()
        assert (find_dir / "tailfit.json").exists()
        cert = json.loads((find_dir / "certify.json").read_text())
        assert cert["ok"]
        assert all(cert["checks"].values())
        assert cert["a_star"] == pytest.approx(2.3028967658101465,
                                               rel=1e-9)
        fit = json.loads((find_dir / "tailfit.json").read_text())
        assert 0.95 <= fit["theta_est"] <= 1.05
        assert fit["A_est"] > 0

    def test_rerun_byte_identical(self, capsys, find_dir, tmp_path):
        code = cli.main(["find", *N1, "--outdir", str(tmp_path)])
        assert code == 0
        for name in ("profile.csv", "certify.json", "tailfit.json"):
            assert ((tmp_path / name).read_bytes()
                    == (find_dir / name).read_bytes()), name

    def test_fit_failure_keeps_the_certificate(self, capsys, tmp_path):
        # the profile is cut where w reaches Kstar, so its last sample has
        # Kstar - w = 0 up to rounding; fit_tail leaves it out and writes
        # a fit it does not accept, next to the failed certificate
        code, d, _ = run_json(capsys, "find", "--N", "1", "--p", "1.15",
                              "--q", "0.2774999999999999",
                              "--outdir", str(tmp_path))
        assert code == 3
        assert not d["certified"]
        assert (tmp_path / "profile.csv").exists()
        cert = json.loads((tmp_path / "certify.json").read_text())
        assert set(cert["checks"]) == {"w_in_band", "w_monotone", "w_limit",
                                       "slope_decay", "deriv_limit"}
        assert not cert["checks"]["w_in_band"]
        fit = json.loads((tmp_path / "tailfit.json").read_text())
        assert not fit["accepted"]
        assert fit["theta_est"] == d["theta_est"]

    def test_uncertified_fit_near_theory(self, capsys, tmp_path):
        # mu = 39: the ratio regression pins r^-18, r^-36 and r^22 over a
        # decade of r, and must still measure theta near 1 (uncertified)
        code, d, _ = run_json(capsys, "find", "--N", "1", "--p", "1.5",
                              "--q", "0.525", "--outdir", str(tmp_path))
        assert code == 3
        assert not d["certified"]
        fit = json.loads((tmp_path / "tailfit.json").read_text())
        assert abs(fit["theta_est"] - 1.0) < 0.01
        assert fit["theta_est"] == d["theta_est"]

    def test_n2_candidate_exits_3_with_caveat(self, capsys, tmp_path):
        code, d, _ = run_json(capsys, "find", "--N", "2", "--p", "1.5",
                              "--q", "0.6", "--rmax", "60",
                              "--a-tol", "3e-16",
                              "--outdir", str(tmp_path))
        assert code == 3
        assert not d["certified"]
        assert d["a_star"] == pytest.approx(1.0571865673537144, rel=1e-12)
        assert 0.76 <= d["theta_est"] <= 0.84
        cert = json.loads((tmp_path / "certify.json").read_text())
        assert "conjectural" in cert["caveat"]
        assert not cert["ok"]


class TestTail:
    def test_fit_from_profile(self, capsys, find_dir):
        code, d, _ = run_json(capsys, "tail", "--profile",
                              str(find_dir / "profile.csv"))
        assert code == 0
        assert d["theta_est"] == pytest.approx(1.0, abs=0.05)

    def test_window_flag(self, capsys, find_dir):
        code, d, _ = run_json(capsys, "tail", "--profile",
                              str(find_dir / "profile.csv"),
                              "--window", "5,50")
        assert code == 0
        assert d["window"] == [5.0, 50.0]

    def test_missing_file_is_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "tail", "--profile",
                         str(tmp_path / "nope.csv"))
        assert code == 1

    def test_unaccepted_fit_is_3(self, capsys, star2, consts2, tmp_path):
        # the N=2 candidate of `find --rmax 60 --a-tol 3e-16`: theta is in
        # band, but the residual is above 1e-3 K*, so the fit is not
        # accepted; the fit is still written
        prof = tmp_path / "profile.csv"
        prof.write_text(trajectory_csv(star2[1], consts2))
        out = tmp_path / "tailfit.json"
        code, printed, _ = run(capsys, "tail", "--profile", str(prof),
                               "--out", str(out))
        assert code == 3
        assert printed == ""
        fit = json.loads(out.read_text())
        assert fit["accepted"] is False
        assert 0.76 <= fit["theta_est"] <= 0.84


class TestPhase:
    def test_from_profile(self, capsys, find_dir, tmp_path):
        code, d, _ = run_json(capsys, "phase", "--from-profile",
                              str(find_dir / "profile.csv"),
                              "--outdir", str(tmp_path))
        assert code == 0
        assert d["lambda2_est"] == pytest.approx(-2.0 / 3.0, rel=0.02)
        assert d["lambda3_est"] == pytest.approx(-1.0, rel=0.05)
        assert (tmp_path / "phasepath.csv").exists()
        assert (tmp_path / "ratefit.json").exists()

    def test_lambda3_where_the_gap_regressand_matters(self, capsys,
                                                      tmp_path):
        # (1, 1.15, 0.2775) of the box scan: find exits 3 (not
        # certified), but its profile converges to P0 with a large Z gap,
        # where ln|Z - Zstar| = ln(Zstar s) - ln(1 + s) carries an
        # unpinned r^-theta term; the fit of ln s, s = Zstar/Z - 1, does not.
        tri = ("--N", "1", "--p", "1.15", "--q", "0.2774999999999999")
        code, _, _ = run(capsys, "find", *tri, "--outdir", str(tmp_path))
        assert code == 3
        code, d, _ = run_json(capsys, "phase", "--from-profile",
                              str(tmp_path / "profile.csv"),
                              "--outdir", str(tmp_path))
        assert code == 0
        assert abs(d["lambda3_est"] + 1.0) <= 1e-3

    def test_free_integration(self, capsys, tmp_path):
        code, d, _ = run_json(capsys, "phase", "--x0", "0.15,0.35,0.6667",
                              "--span", "0,5", *N1,
                              "--outdir", str(tmp_path))
        assert code == 0
        assert d["source"] == "free-integration"
        assert (tmp_path / "phasepath.csv").exists()

    def test_x0_without_params_is_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "phase", "--x0", "0.1,0.1,0.6",
                           "--outdir", str(tmp_path))
        assert code == 1
        assert "--N" in err

    def test_both_modes_is_1(self, capsys, find_dir, tmp_path):
        code, _, _ = run(capsys, "phase", "--from-profile",
                         str(find_dir / "profile.csv"),
                         "--x0", "1,1,1", *N1, "--outdir", str(tmp_path))
        assert code == 1


# sha256 of the N=1 artifacts (numpy 2.4.6, scipy 1.17.1): `find` at
# (1, 1.2, 0.5), frozen at commit 188ddb4, and `pde --M 100` on its
# profile, re-frozen when run_and_measure moved to BDF2 steps at
# dt_frac = 1e-3, when the initial profile became the cubic Hermite
# interpolant on the stored slopes, and when the backward Euler steps
# took the new-time ghost as BDF2's do.  profile.csv was re-frozen when
# it came to hold the ODE state (r, f, F) alone: the parent's file with
# the fprime, w, Wtail and E fields deleted, and again when r0 became
# r[0]: the parent's file without its `# r0` line.  A refactor must leave
# every byte of them as it was.
# `phase --from-profile` on that profile is pinned too, frozen when
# lambda3, Vinf and A_from_Vinf became the Z-gap fit that fit_tail shares:
# phasepath.csv was unchanged by it and ratefit.json moved then, so any
# later move of either is a change of the phase map or of that fit.
# phasepath.csv was re-frozen when its Wshift column (Z - Zstar) was
# deleted: the parent's file without that field.
# A change that alters one of these outputs on purpose re-freezes its
# digest here and records the change in CHANGES.md.
FROZEN_SHA256 = {
    "profile.csv":
        "3ff941f98987f8199f0b30e30cfad7511a89fdead6694b3258f48fd351cd9c8c",
    "certify.json":
        "0a83aee02a090b8caaa3ba3f6cd3af26aaaf8db50c1fdd4eebd72cf7850d66ca",
    "tailfit.json":
        "abd8a33184b4142c491418743c34c86df862e8ff6fe0a59c161ab85d82d809d9",
    "metrics.json":
        "1090006b7c8c1927172091e1112334eba783d61e7af8dc7019e8ba29cca8e43f",
    "phasepath.csv":
        "adc36373ab4770a0841eaa9a0833b6621dfb143886022719b8410a738130db55",
    "ratefit.json":
        "fd0a327bde20dd37bcf21696487bca04b73a8aaf4c05d96661ec3c7819a5ef05",
}


# sha256 of `find --N 1 --p 1.5 --q 0.675`, the one benchmark triple whose
# bisection reaches the end-state rule (exit 3: not certified), frozen at
# commit 1850253 on the same versions; profile.csv re-frozen with the
# one above, both times.  Same rules as above.
FROZEN_SHA256_END_STATE = {
    "profile.csv":
        "7cba11969d1b7e25288ec5abee10ada8779ce61dd1c15e463024fd1b2f3e4533",
    "certify.json":
        "ddcde637c42e1d3a3ace1da6c4ad14bb2a01960dc04282707ca661d46acbd48b",
    "tailfit.json":
        "9fbd209c67f580986f21357e2e7f7125573b17169224a5fac8243330dff08c79",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFrozenDigests:
    @pytest.mark.parametrize("name", ["profile.csv", "certify.json",
                                      "tailfit.json"])
    def test_find_artifact(self, find_dir, name):
        assert sha256_of(find_dir / name) == FROZEN_SHA256[name]

    def test_end_state_rule_find_artifacts(self, tmp_path):
        assert cli.main(["find", "--N", "1", "--p", "1.5", "--q", "0.675",
                         "--outdir", str(tmp_path)]) == 3
        for name, digest in FROZEN_SHA256_END_STATE.items():
            assert sha256_of(tmp_path / name) == digest, name

    def test_phase_from_profile(self, find_dir, tmp_path):
        assert cli.main(["phase", "--from-profile",
                         str(find_dir / "profile.csv"),
                         "--outdir", str(tmp_path)]) == 0
        for name in ("phasepath.csv", "ratefit.json"):
            assert sha256_of(tmp_path / name) == FROZEN_SHA256[name], name

    def test_pde_metrics(self, find_dir, tmp_path):
        out = tmp_path / "metrics.json"
        assert cli.main(["pde", "--profile", str(find_dir / "profile.csv"),
                         "--M", "100", "--out", str(out)]) == 0
        assert sha256_of(out) == FROZEN_SHA256["metrics.json"]


class TestPde:
    def test_coarse_run(self, capsys, find_dir, tmp_path):
        out = tmp_path / "metrics.json"
        code, stdout, _ = run(capsys, "pde", "--profile",
                              str(find_dir / "profile.csv"),
                              "--M", "100", "--out", str(out))
        assert code == 0
        assert stdout == ""  # --out redirects the report to the file
        d = json.loads(out.read_text())
        assert d["stable"]
        assert d["alpha_est"] == pytest.approx(3.67, abs=0.05)

    def test_too_short_is_3(self, capsys, find_dir):
        code, d, _ = run_json(capsys, "pde", "--profile",
                              str(find_dir / "profile.csv"),
                              "--M", "50", "--tend", "0.05")
        assert code == 3
        assert not d["ok"]
        assert "checkpoint" in d["error"]


class TestConfig:
    def test_config_supplies_params(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 1\np = 1.2\nq = 0.5\n")
        code, d, _ = run_json(capsys, "--config", str(cfg), "constants")
        assert code == 0
        assert d["N"] == 1 and d["p"] == 1.2 and d["q"] == 0.5

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 1\np = 1.2\nq = 0.5\n")
        code, d, _ = run_json(capsys, "--config", str(cfg), "constants",
                              "--q", "0.55")
        assert code == 0
        assert d["q"] == 0.55

    @pytest.mark.parametrize("flags, tol", [((), "0.001"),
                                            (("--tol", "1e-10"), "1e-10")])
    def test_explicit_default_valued_flag_wins(self, capsys, tmp_path,
                                               flags, tol):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-3\n")
        out = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "--config", str(cfg), "shoot", *N1,
                         "--a", "2.3", "--rmax", "10", *flags,
                         "--out", str(out))
        assert code == 0
        assert f"# tol,{tol}\n" in out.read_text()

    def test_unknown_key_is_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 1\nbogus = 2\n")
        code, _, err = run(capsys, "--config", str(cfg), "constants",
                           "--p", "1.2", "--q", "0.5")
        assert code == 1
        assert "bogus" in err


def assert_json_format(text):
    """Sorted keys, indent 1, exactly one trailing newline."""
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=1) + "\n"


def assert_csv_format(text):
    """`# ` comment lines, one header, data rows of 17-digit numbers,
    `# ` trailer lines, exactly one trailing newline."""
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text[:-1].split("\n")
    kinds = "".join("c" if ln.startswith("# ") else
                    "h" if ln[:1].isalpha() else "d" for ln in lines)
    assert re.fullmatch("c*hd+c*", kinds), kinds
    n_cols = len(lines[kinds.index("h")].split(","))
    for ln, kind in zip(lines, kinds):
        if kind == "d":
            fields = ln.split(",")
            assert len(fields) == n_cols, ln
            assert all(format(float(s), ".17g") == s for s in fields), ln


def assert_artifact_format(path):
    text = path.read_text()
    if path.suffix == ".json":
        assert_json_format(text)
    else:
        assert_csv_format(text)


class TestArtifactFormat:
    """The byte format of every artifact kind the commands write."""

    @pytest.mark.parametrize("name", ["profile.csv", "certify.json",
                                      "tailfit.json"])
    def test_find_files(self, find_dir, name):
        assert_artifact_format(find_dir / name)

    # argv, exit code, files written under {tmp}; stdout is a JSON
    # report unless the command writes its report with --out
    @pytest.mark.parametrize("argv, code, files", [
        (("constants", *N1), 0, ()),
        (("qstar", "--N", "1", "--p", "1.2"), 0, ()),
        (("classify", *N1, "--a", "0.5"), 0, ()),
        (("constants", "--N", "1", "--p", "2.5", "--q", "0.5"), 2, ()),
        (("tail", "--profile", "{profile}", "--out", "{tmp}/t.json"), 0,
         ("t.json",)),
        (("phase", "--from-profile", "{profile}", "--outdir", "{tmp}"), 0,
         ("phasepath.csv", "ratefit.json")),
        (("phase", "--x0", "0.15,0.35,0.6667", *N1, "--outdir", "{tmp}"),
         0, ("phasepath.csv",)),
        (("pde", "--profile", "{profile}", "--M", "20", "--tend", "0.3",
          "--snapshots", "{tmp}/snaps", "--out", "{tmp}/metrics.json"), 0,
         ("metrics.json", "snaps/snapshot_000.csv",
          "snaps/snapshot_023.csv")),
        (("tail", "--profile", "{profile}", "--out", "{tmp}/new/t.json"), 0,
         ("new/t.json",)),
        (("pde", "--profile", "{profile}", "--M", "20", "--tend", "0.3",
          "--snapshots", "{tmp}/a/b"), 0,
         tuple(f"a/b/snapshot_{k:03d}.csv" for k in range(24))),
    ], ids=["constants", "qstar", "classify", "report", "tail",
            "phase-profile", "phase-x0", "pde", "tail-new-dir",
            "pde-snapshot-dirs"])
    def test_command_artifacts(self, capsys, profile_csv1, tmp_path, argv,
                               code, files):
        got, out, _ = run(capsys, *(a.format(profile=profile_csv1,
                                             tmp=tmp_path) for a in argv))
        assert got == code
        if "--out" in argv:
            assert out == ""
        else:
            assert_json_format(out)
        for name in files:
            assert_artifact_format(tmp_path / name)


def readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [ln for ln in block.splitlines() if ln.startswith("extinction ")]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    cli.build_parser().parse_args(shlex.split(line)[1:])

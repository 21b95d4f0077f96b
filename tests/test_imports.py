"""scipy stays off the import path: the package, the command line and
every command, the PDE run included, load no scipy module (the PDE step
reaches LAPACK's dgtsv through numpy's own LAPACK).  scipy serves only
the tests, as their reference solvers.  And `dop853.kernel` builds each
ODE system once, on first use: importing the command line builds none,
`find` the shooting kernel, `phase --x0` the phase flow's.
The check runs in a fresh interpreter, so no other test's imports or
kernels count; nothing is timed.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Runs each step in turn and prints, after each, the scipy modules loaded
# so far and the number of kernels built, as one JSON object
# {step: [module, ...], step + ":kernels": n}.
CHILD = r"""
import contextlib, io, json, sys
out = sys.argv[1]
loaded = {}

def note(step):
    loaded[step] = sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))
    if "extinction.dop853" in sys.modules:
        kernel = sys.modules["extinction.dop853"].kernel
        loaded[step + ":kernels"] = kernel.cache_info().currsize

def run(step, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        loaded[step + ":exit"] = cli.main(argv)
    note(step)

import extinction
note("import extinction")
from extinction import cli
note("import extinction.cli")
prof = out + "/profile.csv"
run("find", ["find", "--N", "1", "--p", "1.2", "--q", "0.5",
             "--outdir", out])
run("find again", ["find", "--N", "1", "--p", "1.2", "--q", "0.5",
                   "--outdir", out + "/again"])
run("tail", ["tail", "--profile", prof, "--out", out + "/tail.json"])
run("phase --from-profile", ["phase", "--from-profile", prof,
                             "--outdir", out])
run("phase --x0", ["phase", "--x0=0.15,0.35,0.6667", "--span=0,10",
                   "--N", "1", "--p", "1.2", "--q", "0.5",
                   "--outdir", out + "/x0"])
run("pde", ["pde", "--profile", prof, "--M", "50", "--tend", "0.3",
            "--out", out + "/metrics.json"])
print(json.dumps(loaded))
"""
STEPS = ("find", "find again", "tail", "phase --from-profile", "phase --x0",
         "pde")


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The child's record of every step, each command's exit code too."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", CHILD,
                          str(tmp_path_factory.mktemp("imports"))],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout.splitlines()[-1])
    for step in STEPS:
        assert loaded[step + ":exit"] == 0, step
    return loaded


def test_no_command_loads_scipy(loaded):
    for step in ("import extinction", "import extinction.cli", *STEPS):
        assert loaded[step] == [], step


def test_kernels_are_built_once_on_first_use(loaded):
    kernels = {step: loaded[step + ":kernels"]
               for step in ("import extinction.cli", *STEPS)}
    assert kernels == {"import extinction.cli": 0, "find": 1,
                       "find again": 1, "tail": 1,
                       "phase --from-profile": 1, "phase --x0": 2,
                       "pde": 2}

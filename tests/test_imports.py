"""scipy stays off the import path: the package, the command line and
every command, the PDE run included, load no scipy module (the PDE step
reaches LAPACK's dgtsv through numpy's own LAPACK).  scipy serves only
the tests, as their reference solvers.
The check runs in a fresh interpreter, so no other test's imports
count; nothing is timed.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Runs each step in turn and prints, after each, the scipy modules loaded
# so far as one JSON object {step: [module, ...]}.
CHILD = r"""
import contextlib, io, json, sys
out = sys.argv[1]
loaded = {}

def note(step):
    loaded[step] = sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

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


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout.splitlines()[-1])
    steps = ("find", "tail", "phase --from-profile", "phase --x0", "pde")
    for step in steps:
        assert loaded[step + ":exit"] == 0, step
    for step in ("import extinction", "import extinction.cli", *steps):
        assert loaded[step] == [], step

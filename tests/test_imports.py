"""scipy stays off the import path: the package, the command line and
every command but the PDE run load no scipy module, and the PDE run loads
only what scipy.linalg.lapack does.
Each check runs in a fresh interpreter, so no other test's imports
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

# The scipy modules that importing scipy.linalg.lapack alone loads.
LAPACK_ONLY = r"""
import json, sys
import scipy.linalg.lapack
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_scipy_is_loaded_only_by_the_pde_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    loaded = json.loads(res.stdout.splitlines()[-1])
    for step in ("find", "tail", "phase --from-profile", "phase --x0",
                 "pde"):
        assert loaded[step + ":exit"] == 0, step
    for step in ("import extinction", "import extinction.cli", "find",
                 "tail", "phase --from-profile", "phase --x0"):
        assert loaded[step] == [], step
    # the PDE run loads scipy for LAPACK's dgtsv and for nothing else
    lapack = subprocess.run([sys.executable, "-c", LAPACK_ONLY],
                            capture_output=True, text=True, timeout=300)
    assert lapack.returncode == 0, lapack.stderr
    assert loaded["pde"] == json.loads(lapack.stdout)
    assert "scipy.linalg.lapack" in loaded["pde"]
    assert "scipy.interpolate" not in loaded["pde"]

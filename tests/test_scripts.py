"""The scripts under scripts/ run end to end and drive the command line.

Each script runs in a subprocess with PYTHONPATH=src, as from a checkout,
at small sizes.
"""

import json
import os
import pathlib
import subprocess
import sys

from extinction import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=env, capture_output=True, text=True,
                          timeout=300)


def test_pde_convergence(tmp_path):
    out = tmp_path / "conv"
    res = run_script("pde_convergence.py", "--M", "50", "100",
                     "--tend", "0.3", "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    assert {p.name for p in out.iterdir()} == {
        "constants.json", "profile.csv", "certify.json", "tailfit.json",
        "metrics_M50.json", "metrics_M100.json", "sweep.json"}
    # the rung is exactly what `extinction pde` writes for that profile
    direct = tmp_path / "metrics.json"
    assert cli.main(["pde", "--profile", str(out / "profile.csv"),
                     "--M", "50", "--tend", "0.3", "--out",
                     str(direct)]) == 0
    assert (out / "metrics_M50.json").read_bytes() == direct.read_bytes()


def test_run_pipeline_n1(tmp_path):
    out = tmp_path / "pipe"
    res = run_script("run_pipeline.py", "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    assert {p.name for p in out.iterdir()} == {
        "constants.json", "profile.csv", "certify.json", "tailfit.json",
        "phasepath.csv", "ratefit.json"}
    assert "tail band: certified" in res.stdout
    assert "  lambda3_est = -1.000143 (exact -1.000000)" in res.stdout


def test_crossover_scan(capsys):
    res = run_script("crossover_scan.py", "--N", "1", "--p", "1.2")
    assert res.returncode == 0, res.stderr
    assert " -- crossover, q* = 0.466667 --" in res.stdout.splitlines()
    # the printed q* is the one `extinction qstar` reports
    assert cli.main(["qstar", "--N", "1", "--p", "1.2"]) == 0
    qstar = json.loads(capsys.readouterr().out)["qstar"]
    assert res.stdout.splitlines()[-1] == f"q*(N=1, p=1.2) = {qstar:.10f}"
    assert f"{qstar:.10f}" == "0.4666666667"

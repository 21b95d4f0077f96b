"""The library names and result fields that perfbench/spans.py reads.

The traced benchmark wraps functions of the `extinction` modules by name
and reads fields of their results at each span's end, so a rename would
otherwise surface only inside a traced benchmark run.  spans.py is loaded
from its file without writing a bytecode cache next to it.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from extinction import RadialGrid, build_initial, run_and_measure

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


def test_traced_functions_exist(spans):
    for modname, names in spans.TRACED.items():
        mod = importlib.import_module(f"extinction.{modname}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{modname}.{name}"


def test_find_profile_extra(spans, star1, consts1):
    # called as cli.cmd_find calls it: bracket positional, r_max by name
    extra = spans._extra("shooter.find_profile", (consts1, None),
                         {"a_tol": 1e-10, "r_max": 100.0}, star1)
    assert set(extra) == {"n_heuristic", "rmax_doublings"}
    assert all(type(v) is int and v >= 0 for v in extra.values())


def test_run_and_measure_extra(spans, star1, consts1):
    # called as cli.cmd_pde calls it: field and grid positional
    grid = RadialGrid(L=40.0, M=100)
    fld = build_initial(star1[1], consts1, T=1.0, grid=grid)
    metrics = run_and_measure(fld, grid, t_end=0.8)
    extra = spans._extra("pde.run_and_measure", (fld, grid),
                         {"t_end": 0.8}, metrics)
    assert extra == {"M": 100, "steps": metrics.steps,
                     "n_clipped": metrics.n_clipped,
                     "selfsim_error": metrics.selfsim_error}

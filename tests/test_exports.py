"""The public API: the package re-exports exactly the modules' public names,
no module downstream of `exponents` takes the exponent triple again, and
no module reads another's private names."""

import ast
import inspect
import pathlib
import types

import pytest

import extinction
from extinction import dop853, exponents, pde, phase, shooter, tail

MODULES = (exponents, dop853, shooter, tail, phase, pde)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "extinction"


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_is_reexported(mod):
    missing = [n for n in mod.__all__ if not hasattr(extinction, n)]
    assert not missing
    assert all(getattr(extinction, n) is getattr(mod, n) for n in mod.__all__)


def test_no_name_outside_the_module_lists():
    listed = {n for m in MODULES for n in m.__all__}
    public = {n for n, v in vars(extinction).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == listed


@pytest.mark.parametrize("mod", (shooter, tail, phase, pde),
                         ids=lambda m: m.__name__)
def test_triple_is_named_once(mod):
    # the triple enters through exponents.derive_constants, and the
    # DerivedConstants it returns carries N, p and q: no public callable
    # downstream also takes one of them, or a record of them, on its own
    offending = [f"{name}({par})" for name in mod.__all__
                 if callable(obj := getattr(mod, name))
                 for par in inspect.signature(obj).parameters
                 if par in ("N", "p", "q", "params")]
    assert not offending


def private_reads(path):
    """`file:line module._name` of every `_`-prefixed name the module at
    path reads from another module of the package: as an attribute of a
    module it imported, or in a `from . import` list."""
    tree = ast.parse(path.read_text())
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    reads.append(f"{path.name}:{node.lineno} "
                                 f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append(f"{path.name}:{node.lineno} "
                         f"{node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    # each module's surface is its `__all__` and its public constants;
    # the source is read with `ast`, so every read counts
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    assert not [r for p in paths for r in private_reads(p)]

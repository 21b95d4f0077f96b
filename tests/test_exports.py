"""The public API: the package re-exports exactly the modules' public names,
and the shooter and the PDE solver take the exponent triple once."""

import inspect
import types

import pytest

import extinction
from extinction import exponents, pde, phase, shooter, tail

MODULES = (exponents, shooter, tail, phase, pde)


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


@pytest.mark.parametrize("mod", (shooter, pde), ids=lambda m: m.__name__)
def test_triple_is_named_once(mod):
    # DerivedConstants carries N, p and q: no public callable of the
    # shooter or the PDE solver also takes an ExponentParams.  The modules
    # use postponed annotations, so the annotations are strings.
    offending = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if not callable(obj):
            continue
        for par in inspect.signature(obj).parameters.values():
            if par.name == "params" or "ExponentParams" in str(par.annotation):
                offending.append(f"{name}({par.name})")
    assert not offending

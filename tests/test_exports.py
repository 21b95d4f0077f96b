"""The package namespace re-exports exactly the modules' public names."""

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

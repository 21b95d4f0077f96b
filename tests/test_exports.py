"""The public API: the package re-exports exactly the modules' public names,
and no module downstream of `exponents` takes the exponent triple again."""

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

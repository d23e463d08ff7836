"""The public surface: every exported name resolves, and each name has one import path."""

import importlib
import pkgutil
import types

import pytest

import affinetoeplitz
from affinetoeplitz import numtheory, states

MODULES = [affinetoeplitz] + [
    importlib.import_module(f"affinetoeplitz.{info.name}") for info in pkgutil.iter_modules(affinetoeplitz.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    # a stale name would also drop out of the benchmark tracer, which skips what it cannot find
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []


def test_prime_window_has_one_owner():
    assert states.PrimeWindow is numtheory.PrimeWindow


def test_one_import_path_per_name():
    # the package re-exports nothing: each name is imported from the module that defines it
    stray = [name for name, obj in vars(affinetoeplitz).items() if not isinstance(obj, types.ModuleType)]
    assert [name for name in stray if not name.startswith("__")] == []
    # an instance reports its class's module; the typing unions report typing's and are skipped
    owners = {
        f"{module.__name__}.{name}": (module.__name__, getattr(getattr(module, name), "__module__", ""))
        for module in MODULES
        for name in getattr(module, "__all__", [])
    }
    borrowed = [
        path for path, (where, owner) in owners.items() if owner.startswith("affinetoeplitz") and owner != where
    ]
    # the benchmark's workloads read the prime window through states
    assert borrowed == ["affinetoeplitz.states.PrimeWindow"]

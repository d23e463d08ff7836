"""The public surface: every exported name resolves, and each shared type has one owner."""

import importlib
import pkgutil

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
    assert states.PrimeWindow is numtheory.PrimeWindow is affinetoeplitz.PrimeWindow

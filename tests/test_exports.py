"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import invar

MODULES = ["invar"] + [
    f"invar.{info.name}" for info in pkgutil.iter_modules(invar.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import minweight

MODULES = ["minweight"] + sorted(
    f"minweight.{m.name}" for m in pkgutil.iter_modules(minweight.__path__)
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []

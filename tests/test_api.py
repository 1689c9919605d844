import importlib
import pkgutil

import pytest

import mcombine

SUBMODULES = [f"mcombine.{m.name}" for m in pkgutil.iter_modules(mcombine.__path__)]


@pytest.mark.parametrize("name", ["mcombine", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []

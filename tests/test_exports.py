import importlib
import pkgutil

import pytest

import genuscenter

MODULES = sorted(m.name for m in pkgutil.iter_modules(genuscenter.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"genuscenter.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing, f"genuscenter.{name}.__all__ names {missing}"

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import genuscenter

MODULES = sorted(m.name for m in pkgutil.iter_modules(genuscenter.__path__))
SRC = os.path.dirname(os.path.dirname(genuscenter.__file__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"genuscenter.{name}")
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert not missing, f"genuscenter.{name}.__all__ names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_importing_a_module_loads_no_dataclasses_or_inspect(name):
    # ``typing`` is left out: the interpreter's ``site`` may load it first.
    probe = (
        f"import sys, genuscenter.{name}; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]", name

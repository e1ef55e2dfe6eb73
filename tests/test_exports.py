import ast
import builtins
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import genuscenter
from genuscenter.errors import GenusCenterError

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


# Every raise in the package of a class that is not a GenusCenterError, as
# (module, enclosing function, class).  Anything else that a bad input
# reaches must raise a GenusCenterError, which the CLI ends with exit 1.
STRAY_RAISES = sorted([
    ("__main__", "", "SystemExit"),  # the process exits with main's code
    ("algebra", "_root_of_unity", "ValueError"),  # p = 1 (mod order) always has one
    ("catalog", "_int", "TypeError"),  # _field turns it into a GenusCenterError
    *[("cli", "_parse", "_UsageError")] * 6,  # main ends it with the usage text and exit 2
    ("exactnum", "Cyclotomic.__add__", "ValueError"),  # cross-order sum: a caller lifts first
    ("exactnum", "Cyclotomic.__mul__", "ValueError"),  # cross-order product: likewise
    ("exactnum", "Cyclotomic.galois", "ValueError"),  # a map zeta -> zeta^a must be invertible
    ("exactnum", "Cyclotomic.lift", "ValueError"),  # only into a multiple of the order
    ("fusion", "CategorySpec.__setattr__", "AttributeError"),  # a spec is frozen
    ("gluing", "Gluing.__setattr__", "AttributeError"),  # a gluing is immutable
    ("gluing", "comm_case", "ValueError"),  # callers pass two distinct orbits
    ("trees", "_apply_tree", "ValueError"),  # an op outside the generator set
    ("trees", "_op_new_word", "ValueError"),  # likewise
])


def stray_raises(path):
    """(module, enclosing function, class) of each raise in path of no GenusCenterError."""
    module = path.stem
    names = {} if module == "__main__" else vars(importlib.import_module(f"genuscenter.{module}"))
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*where, child.name])
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc) if exc else "raise"
                cls = names.get(name, getattr(builtins, name, None))
                if not (isinstance(cls, type) and issubclass(cls, GenusCenterError)):
                    out.append((module, ".".join(where), name))
            visit(child, where)

    visit(ast.parse(path.read_text()), [])
    return out


def test_every_raise_of_another_class_is_pinned():
    paths = sorted(Path(genuscenter.__file__).parent.glob("*.py"))
    assert sorted(x for path in paths for x in stray_raises(path)) == STRAY_RAISES

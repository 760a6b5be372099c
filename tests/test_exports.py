import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import reactivebeta

MODULES = sorted(m.name for m in pkgutil.iter_modules(reactivebeta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"reactivebeta.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_are_public():
    # every name the package imports from a module is public there
    tree = ast.parse(Path(reactivebeta.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"reactivebeta.{node.module}")
            public = getattr(module, "__all__", dir(module))
            assert not [a.name for a in node.names if a.name not in public], node.module

import ast
import dataclasses
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


def _attributes_read(skip_class: str) -> set:
    """Names of attributes loaded anywhere under the package, outside the
    body of the class ``skip_class``."""
    names = set()
    for path in Path(reactivebeta.__file__).parent.glob("*.py"):
        stack = [ast.parse(path.read_text())]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef) and node.name == skip_class:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module, cls", [("params", "ReactiveParams"),
                                         ("montecarlo", "McConfig")])
def test_every_config_field_is_read(module, cls):
    # a field that only its own class reads (to validate or document it)
    # is an option that changes no result
    config = getattr(importlib.import_module(f"reactivebeta.{module}"), cls)
    read = _attributes_read(cls)
    assert [f.name for f in dataclasses.fields(config) if f.name not in read] == []

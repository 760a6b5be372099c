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


#: public names that no module of the package loads, each with the reason
#: it stays public; any other such name is API that only tests call
UNLOADED_EXPORTS = {
    "evaluation.elasticity_diagnostic": "entry point: the elasticity regression",
    "estimators.quantile_objective": "criterion 5 and the perfbench spans import it",
    "estimators.trimean_beta_batch": "a perfbench span target",
    "strategies.build_factor": "a perfbench span target",
}


def _names_loaded() -> set:
    """Names that the package's modules load: a bare name (or its import
    alias) that no enclosing function binds, or an attribute of a package
    module bound by ``from . import``; in either case outside the
    function or class of that name."""
    trees = [ast.parse(p.read_text()) for p in Path(reactivebeta.__file__).parent.glob("*.py")]
    aliases, modules = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        modules.add(a.asname or a.name)
                    else:
                        aliases[a.asname or a.name] = a.name
    loaded = set()
    for tree in trees:
        stack = [(tree, set())]     # a node and the names it cannot load
        while stack:
            node, hidden = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                hidden = hidden | {node.name}
            if isinstance(node, ast.FunctionDef):
                hidden = hidden | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} \
                    | {n.id for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id not in hidden:
                loaded.add(aliases.get(node.id, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and isinstance(node.value, ast.Name) and node.value.id in modules \
                    and node.attr not in hidden:
                loaded.add(node.attr)
            stack.extend((child, hidden) for child in ast.iter_child_nodes(node))
    return loaded


def test_every_export_is_loaded_or_exempt():
    loaded = _names_loaded()
    unloaded = {f"{name}.{n}" for name in MODULES
                for n in getattr(importlib.import_module(f"reactivebeta.{name}"), "__all__", ())
                if n not in loaded}
    assert unloaded - UNLOADED_EXPORTS.keys() == set()
    assert UNLOADED_EXPORTS.keys() - unloaded == set()    # no stale exemption


#: methods and properties of package classes that no module of the package
#: reads as an attribute, each with the reason it stays; any other such
#: method is API that only tests call
UNREAD_METHODS = {
    "beta.ReactiveBetaEngine.step": "a perfbench span target; goes with ROADMAP item 1",
}


def test_every_method_is_read_or_exempt():
    # a method or property (dunders aside) whose name no module of the
    # package loads as an attribute
    read = _attributes_read(skip_class="")
    unread = set()
    for name in MODULES:
        tree = ast.parse((Path(reactivebeta.__file__).parent / f"{name}.py").read_text())
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            unread |= {f"{name}.{cls.name}.{f.name}" for f in cls.body
                       if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")
                       and f.name not in read}
    assert unread - UNREAD_METHODS.keys() == set()
    assert UNREAD_METHODS.keys() - unread == set()    # no stale exemption

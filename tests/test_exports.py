"""Every exported name resolves, and the module that defines it exports it.

A name is defined where a module binds it at top level by `def`, `class`
or assignment; a module that re-exports it imports it from there.  No
module imports at top level a name that it neither reads nor exports, and
no module binds at top level a name that no module reads or it exports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import heiscf

MODULES = ["heiscf"] + [
    m.name for m in pkgutil.walk_packages(heiscf.__path__, "heiscf.")
]


def _tree(module_name):
    return ast.parse(Path(importlib.import_module(module_name).__file__).read_text())


def _top_level_names(module_name):
    tree = _tree(module_name)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


DEFINED_IN = {}
for _name in MODULES:
    for _defined in _top_level_names(_name) - {"__all__"}:
        DEFINED_IN.setdefault(_defined, []).append(_name)

EXPORTS = [
    (m, name)
    for m in MODULES
    for name in getattr(importlib.import_module(m), "__all__", [])
]


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_export_is_listed_where_defined(module, name):
    assert hasattr(importlib.import_module(module), name)
    homes = DEFINED_IN.get(name, [])
    assert len(homes) == 1, f"{name} is defined in {homes}"
    assert name in importlib.import_module(homes[0]).__all__


def test_package_exports_its_modules_lists_in_order():
    from heiscf import cf, domain, gaussian, matrices, siegel

    modules = (gaussian, siegel, matrices, domain, cf)
    assert heiscf.__all__ == [name for m in modules for name in m.__all__]


def _unused_imports(module_name):
    """Names a module imports at top level and never reads, nor lists in __all__."""
    module = importlib.import_module(module_name)
    tree = _tree(module_name)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - set(getattr(module, "__all__", [])))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert _unused_imports(module) == []


def _names_read():
    """Every name the package reads, by name: loaded, read as an attribute or
    imported from another module."""
    read = set()
    for node in (n for m in MODULES for n in ast.walk(_tree(m))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


NAMES_READ = _names_read()


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_top_level_name(module):
    exported = set(getattr(importlib.import_module(module), "__all__", []))
    assert sorted(_top_level_names(module) - NAMES_READ - exported - {"__all__"}) == []

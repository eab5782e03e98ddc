"""Every name a module of the package imports is used in that module, and every private name a
module defines at its top level is read by some module of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fdilab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def private_names(source: str) -> set[str]:
    """The names, such as ``_x`` but not ``__x__``, that the top-level defs, classes and
    assignments of ``source`` bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """The names that an expression of ``source`` reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_unread_private_names_are_found():
    source = "_a = _b = 1\n_c, D = 2, 3\n__all__ = []\ndef _f(): return _a\nclass _K: pass\nx = m._K\n"
    assert private_names(source) == {"_a", "_b", "_c", "_f", "_K"}
    assert private_names(source) - read_names(source) == {"_b", "_c", "_f"}


def test_every_private_name_is_read():
    # a deletion that leaves a helper with no reader fails here
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    read = set().union(*map(read_names, sources))
    assert set().union(*map(private_names, sources)) - read == set()

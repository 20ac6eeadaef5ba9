"""Every module-level import in the package, the tests and the demos is read in its file,
and every private top-level name of the package is read somewhere in the package.

An AST scan, with no dependency beyond the standard library: a name bound
by a top-level ``import`` or ``from ... import`` must be loaded somewhere
in the same file. The package's ``__init__.py`` is exempt, since it
imports names to re-export them. A top-level def, class or constant whose
name starts with one underscore (not a dunder) must be loaded, as a name or
as a module attribute, in some file of the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "rieszvar").glob("*.py"))
FILES = sorted(
    [p for p in (ROOT / "src" / "rieszvar").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source):
    """Names bound by the top-level imports of ``source`` that it never loads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.append(alias.asname or alias.name.split(".")[0])
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in loaded]


def test_scan_flags_an_unread_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nd()\n") == [
        "os", "np", "c"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def private_names(source):
    """Names starting with one underscore that ``source`` binds at top level by a def,
    a class or an assignment (tuple targets included)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def loaded_names(source):
    """Names ``source`` loads, bare or as the attribute of some object."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_scan_flags_an_unread_private_name():
    source = "_A, _B = 1, 2\n__all__ = []\ndef _f():\n    return _A\nclass _C: pass\nx = m._g\n"
    assert private_names(source) == ["_A", "_B", "_f", "_C"]
    assert {"_A", "m", "_g"} <= loaded_names(source) and "_B" not in loaded_names(source)


def test_no_dead_private_names():
    sources = [path.read_text() for path in PACKAGE]
    loaded = set().union(*map(loaded_names, sources))
    dead = [(path.name, name) for path, source in zip(PACKAGE, sources)
            for name in private_names(source) if name not in loaded]
    assert dead == []

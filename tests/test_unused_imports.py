"""Every module-level import in the package, the tests and the demos is read in its file.

An AST scan, with no dependency beyond the standard library: a name bound
by a top-level ``import`` or ``from ... import`` must be loaded somewhere
in the same file. The package's ``__init__.py`` is exempt, since it
imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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

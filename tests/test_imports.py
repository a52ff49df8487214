"""Every import of a library module is used by the module or exported in its ``__all__``.

A stand-in for a linter's unused-import rule, built on ``ast`` alone.  A name
imported on a line marked ``# noqa: F401`` is kept on purpose and skipped.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ergodic_games"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """``(line, name)`` of every imported name the module neither reads nor exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                # a plain "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                # one name per line in a parenthesized import: find its own line
                line = next((k for k in range(node.lineno, node.end_lineno + 1)
                             if re.search(rf"\b{name}\b", lines[k - 1])), node.lineno)
                if "# noqa: F401" not in lines[line - 1]:
                    imported[name] = line
    # "a.b.c" reads the name "a"; a name read only inside a quoted annotation is unused
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("import math\nimport os\nfrom typing import (\n    Optional,\n    Tuple,\n)\n"
              "from x import kept  # noqa: F401\n__all__ = ['Tuple']\nmath.pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "Optional")]


def test_the_library_has_modules_to_check():
    assert len(MODULES) > 5

"""Every import of a library module is used by the module or exported in its ``__all__``,
and every module-level private name of the library is read somewhere in it.

Stand-ins for a linter's unused-import and dead-code rules, built on ``ast``
alone.  A name imported on a line marked ``# noqa: F401`` is kept on purpose
and skipped.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unused_private_names(sources: dict) -> list:
    """``(module, line, name)`` of every module-level private function, class or
    constant of ``sources`` (module label to source) that no module reads.

    A read is a loaded name, an attribute name, a name imported with ``from``
    or a string passed to ``getattr``.
    """
    defined, read = [], set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for target in node.targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined.extend((label, node.lineno, n) for n in names if _is_private(n))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return sorted(d for d in defined if d[2] not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("import math\nimport os\nfrom typing import (\n    Optional,\n    Tuple,\n)\n"
              "from x import kept  # noqa: F401\n__all__ = ['Tuple']\nmath.pi\n")
    assert unused_imports(source) == [(2, "os"), (4, "Optional")]


def test_no_unused_private_names():
    assert unused_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_the_check_sees_an_unused_private_name():
    a = ("_READ = 1\n_DEAD = 2\n_x, _y = 3, 4\n__version__ = '1'\n"
         "def _helper():\n    return _READ + _x\nclass _Gone:\n    pass\n"
         "def _by_name():\n    pass\ndef public():\n    return getattr(a, '_by_name')\n")
    b = "from a import _helper\nobj._attr_read\n_attr_read = 5\n"
    assert unused_private_names({"a": a, "b": b}) == [("a", 2, "_DEAD"), ("a", 3, "_y"),
                                                      ("a", 7, "_Gone")]


def reads_of(source: str, name: str) -> list:
    """Lines where ``source`` imports ``name`` from a module or reads it, bare or as an
    attribute."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            lines.add(node.lineno)
        elif ((isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
              or (isinstance(node, ast.Attribute) and node.attr == name)):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_samples.py"],
                         ids=lambda p: p.name)
def test_only_the_bound_rule_reads_the_check_slack(path):
    # every check of a declared bound goes through _samples.first_over
    assert reads_of(path.read_text(), "_CHECK_SLACK") == []


def test_the_check_sees_a_read_of_the_slack():
    source = ("from ._samples import _CHECK_SLACK, check_states\nfrom . import _samples as s\n"
              "_CHECK_SLACK = 2\nx = 1.0 + s._CHECK_SLACK\ny = _CHECK_SLACK\n")
    assert reads_of(source, "_CHECK_SLACK") == [1, 4, 5]


def test_the_package_exports_each_modules_public_names_once():
    import ergodic_games
    from ergodic_games import catalog, continuous, ebsde, games, picard, sde, verify

    modules = (catalog, continuous, ebsde, games, picard, sde, verify)
    names = ergodic_games.__all__
    assert names == ["__version__"] + [name for m in modules for name in m.__all__]
    assert len(set(names)) == len(names)
    for m in modules:
        for name in m.__all__:
            assert getattr(ergodic_games, name) is getattr(m, name), (m.__name__, name)


def test_the_library_has_modules_to_check():
    assert len(MODULES) > 5


def test_every_benchmark_wrap_point_resolves(monkeypatch):
    # the benchmark's tracer wraps library names by attribute; install raises
    # AttributeError (and wraps nothing) if one of them is gone
    monkeypatch.syspath_prepend(str(SRC.parents[1] / "perfbench"))
    import tracing
    from ergodic_games import cli

    main = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not main
    finally:
        tracer.restore()
    assert cli.main is main

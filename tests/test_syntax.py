"""Every module of the package and of the tests parses under Python 3.10 grammar.

The package declares ``requires-python >= 3.10``.  ``ast.parse`` with
``feature_version=(3, 10)`` refuses syntax added later, such as
``except*`` or ``type`` aliases.  This checks grammar only, not standard
library APIs: a call to a function added in 3.11 still parses.

Every module of the package also imports only names it uses: no linter is
installed, so the check walks the syntax tree itself.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))


def test_sources_are_found():
    assert ROOT / "src" / "colorlie" / "matop.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).with_suffix("").as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads, ``from __future__`` aside.

    A name counts as read where it is loaded, where a string annotation or a
    string inside a subscript (``Union[int, "Fraction"]``) names it, and in
    ``__all__``.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    typed = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    typed += [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    typed += [node.slice for node in ast.walk(tree) if isinstance(node, ast.Subscript)]
    for node in (inner for root in typed if root for inner in ast.walk(root)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= {name.id for name in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(name, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.is_relative_to(ROOT / "src")],
                         ids=lambda path: path.relative_to(ROOT).with_suffix("").as_posix())
def test_imports_no_unused_name(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_unused_import_check_sees_string_annotations_and_misses_nothing_else():
    source = ("from __future__ import annotations\nimport os.path\nfrom typing import Union\n"
              "from .lincomb import add_into, setslot\nfrom fractions import Fraction\n"
              "RationalLike = Union[int, \"Fraction\"]\n\ndef f(x: 'os.PathLike'):\n    setslot(x)\n")
    assert _unused_imports(ast.parse(source)) == ["add_into (line 4)"]

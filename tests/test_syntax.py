"""Every module of the package and of the tests parses under Python 3.10 grammar.

The package declares ``requires-python >= 3.10``.  ``ast.parse`` with
``feature_version=(3, 10)`` refuses syntax added later, such as
``except*`` or ``type`` aliases.  This checks grammar only, not standard
library APIs: a call to a function added in 3.11 still parses.

Every module of the package also imports only names it uses, and every
private helper it defines is read somewhere in the package outside its own
definition, so a refactor leaves no dead helper behind: no linter is
installed, so the checks walk the syntax tree themselves.  And only the
two trusted builders, ``lincomb.Frozen._of`` and ``scalars._reduced``,
create a value with ``object.__new__``, so no second builder grows back.
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


def _unreferenced_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_name`` definitions, and ``_method`` definitions of module-level classes,
    that no code in ``trees`` reads outside the definition itself.  Dunder names are protocol."""
    defined = []  # (module, name, first line, last line)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, name.id, node.lineno, node.end_lineno)
                            for target in targets for name in ast.walk(target)
                            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
            if isinstance(node, ast.ClassDef):
                defined += [(module, method.name, method.lineno, method.end_lineno) for method in node.body
                            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))]
    read = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.setdefault(node.attr, []).append((module, node.lineno))
            elif isinstance(node, ast.alias):
                read.setdefault(node.name, []).append((module, node.lineno))
    return [f"{module}: {name} (line {first})" for module, name, first, last in defined
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            and all(where == module and first <= line <= last for where, line in read.get(name, ()))]


def test_every_private_helper_is_read_somewhere_else():
    trees = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in SOURCES if path.is_relative_to(ROOT / "src")}
    assert _unreferenced_private_names(trees) == []


def test_private_helper_check_finds_what_only_its_own_body_reads():
    source = ("_USED = 1\n_LEFT = 2\n\ndef _walk(n):\n    return _walk(n - 1) if n else _USED\n\n"
              "class C:\n    def _kept(self):\n        return self._gone\n\n    def _gone(self):\n"
              "        return 0\n\n    def __len__(self):\n        return 0\n\nC()._kept()\n")
    assert _unreferenced_private_names({"m": ast.parse(source)}) == ["m: _LEFT (line 2)", "m: _walk (line 4)"]


def _object_new_sites(module: str, node: ast.AST, scope: str = "") -> list[str]:
    """'module:Qualified.name' of each function, class or module body that reads ``object.__new__``."""
    sites = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            sites += _object_new_sites(module, child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                and isinstance(child.value, ast.Name) and child.value.id == "object"):
            sites.append(f"{module}:{scope}")
        sites += _object_new_sites(module, child, scope)
    return sites


def test_only_the_trusted_builders_call_object_new():
    sites = [site for path in SOURCES if path.is_relative_to(ROOT / "src")
             for site in _object_new_sites(path.relative_to(ROOT).as_posix(),
                                           ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert sites == ["src/colorlie/lincomb.py:Frozen._of", "src/colorlie/scalars.py:_reduced"]


def test_object_new_check_names_each_enclosing_scope():
    source = ("X = object.__new__(int)\n\ndef f():\n    def g():\n        return object.__new__(C)\n"
              "    return g\n\nclass C:\n    build = object.__new__\n\n    def m(self):\n"
              "        return int.__new__(int)\n")
    assert _object_new_sites("m", ast.parse(source)) == ["m:", "m:f.g", "m:C"]

"""Every name the bench tracer wraps still resolves in the package.

``bench/tracer.py`` wraps package functions from outside, by
``module:attribute`` paths in its SPANS, COUNTED and CHUNKS tables.  A
refactor that renames or removes one would break ``bench/run.py
--trace 1``; this test catches that in tier-1.  It also catches a
wrapped method that moves into a base class: the tracer replaces a
method only in its class's own namespace, so the span would go empty.
The tracer source is only read and parsed, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTED", "CHUNKS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def _paths() -> list[str]:
    tables = _tables()
    paths = list(tables["SPANS"].values()) + list(tables["CHUNKS"])
    for group in tables["COUNTED"].values():
        paths += group
    return paths


def test_tracer_tables_are_found():
    assert set(_tables()) == {"SPANS", "COUNTED", "CHUNKS"}
    assert "colorlie.matop:graded_bracket" in _paths()
    assert "colorlie.vecfield:graded_bracket" in _paths()


@pytest.mark.parametrize("path", _paths())
def test_tracer_name_resolves(path):
    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, name = attribute.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(getattr(owner, name))
    if isinstance(owner, type):
        assert name in vars(owner), f"{path} is inherited, not defined on the class"

"""Every module of the package and of the tests parses under Python 3.10 grammar.

The package declares ``requires-python >= 3.10``.  ``ast.parse`` with
``feature_version=(3, 10)`` refuses syntax added later, such as
``except*`` or ``type`` aliases.  This checks grammar only, not standard
library APIs: a call to a function added in 3.11 still parses.
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

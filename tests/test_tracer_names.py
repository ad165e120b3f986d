"""Every name the bench tracer wraps still resolves in the package.

``bench/tracer.py`` wraps package functions from outside, by
``module:attribute`` paths in its SPANS, COUNTED and CHUNKS tables.  A
refactor that renames or removes one would break ``bench/run.py
--trace 1``; this test catches that in tier-1.  It also catches a
wrapped method that moves into a base class: the tracer replaces a
method only in its class's own namespace, so the span would go empty.
The tracer source is only read and parsed, never imported.

A traced run also imports ``bench/micro.py``, and every run builds its
inputs with ``bench/workloads.py``; both call the package directly, so
the last test runs them in a subprocess.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


BENCH_SURFACE = """
import sys
from pathlib import Path
import micro, workloads
root, out = Path(sys.argv[1]), Path(sys.argv[2])
for name in ("reconstruct", "referee"):
    (out / name).mkdir()
    assert workloads.build(name, 1, root, out / name).problems == [], name
micro.run(root)
"""


def test_bench_inputs_and_microbenchmarks_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench")))
    done = subprocess.run([sys.executable, "-c", BENCH_SURFACE, str(ROOT), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

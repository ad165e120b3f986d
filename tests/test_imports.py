"""A serial text run loads no module it does not use.

Each check is a short process of its own, so module imports are a fixed
cost of every run.  ``dataclasses`` (with ``inspect``), ``multiprocessing``
and ``json`` are not needed by a run that writes text; JSON is imported
only by ``--format json``, and no run starts a worker pool.
The check names modules; it never times anything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "multiprocessing", "json")

CHILD = """
import contextlib, io, sys
out = io.StringIO()
with contextlib.redirect_stdout(out):
    from colorlie import cli
    code = cli.main(sys.argv[1:])
print(repr((code, out.getvalue(), [name for name in %r if name in sys.modules])))
""" % (UNUSED,)


def run_child(*argv):
    # -S skips site, so no .pth file of the interpreter imports anything first
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_serial_verify_imports_no_unused_module():
    code, out, loaded = run_child("verify", "--algebra", "n1", "--realization", "dmodule")
    assert code == 0 and out.endswith("91 unordered pairs verified\n")
    assert loaded == []


def test_json_and_pool_load_only_when_used():
    code, out, loaded = run_child("jacobi", "--algebra", "n1", "--format", "json", "--jobs", "2")
    assert code == 0 and json.loads(out)["checked"] == 13 ** 3
    assert loaded == ["json"]

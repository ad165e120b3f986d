"""Run one colorlie CLI command with its layers wrapped from outside.

Usage: python bench/tracer.py {spans|counts} OUT.json -- <colorlie cli args>

The command runs exactly as ``python -m colorlie.cli`` would: same stdout,
same exit code, and uncaught exceptions still end in a traceback.  The
wrappers are installed at every attribute a caller looks up (module
globals, names imported into other modules, class attributes), so no
code inside the package changes.

* ``spans`` times each wrapped call and records its self time: its
  duration minus the time covered by wrapped calls it made.  Only the
  main process is traced; while a ``--jobs`` pool works, the main
  process waits inside ``cli.main``, so the wait is cli self time.
* ``counts`` counts calls, including the scalar operations and
  ``grassmann.mono_mul``, plus work measures read off the results.
  Pool workers add their counts through one file per chunk.

On exit the script writes a JSON record to OUT.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# span name (layer.what) -> "module:attribute" the callers look up
SPANS = {
    "cli.main": "colorlie.cli:main",
    "corpus.load": "colorlie.corpus:load",
    "corpus.table": "colorlie.corpus:table",
    "corpus.realization": "colorlie.corpus:realization",
    "corpus.weights_entry": "colorlie.corpus:weights_entry",
    "io.parse_definition": "colorlie.io:parse_definition",
    "io.emit_definition": "colorlie.io:emit_definition",
    "io.emit_table": "colorlie.io:emit_table",
    "io.emit_report": "colorlie.io:emit_report",
    "algebra.extract_structure_constants": "colorlie.algebra:extract_structure_constants",
    "algebra.verify_realization": "colorlie.algebra:verify_realization",
    "algebra.check_jacobi": "colorlie.algebra:check_jacobi",
    "algebra.change_basis": "colorlie.algebra:change_basis",
    "algebra.weights": "colorlie.algebra:weights",
    "algebra.triangular_split": "colorlie.algebra:triangular_split",
    "algebra.derived_generators": "colorlie.algebra:derived_generators",
    "algebra.combo_str": "colorlie.algebra:BracketTable.combo_str",
    "linsolve.factor": "colorlie.linsolve:ColumnSolver.__init__",
    "linsolve.solve": "colorlie.linsolve:ColumnSolver.solve",
    "matop.compose": "colorlie.matop:compose",
    "matop.graded_bracket": "colorlie.matop:graded_bracket",
    "matop.coordinate_vector": "colorlie.matop:MatDiffOp.coordinate_vector",
    "weyl.compose": "colorlie.weyl:compose",
    "vecfield.compose": "colorlie.vecfield:compose",
    "vecfield.graded_bracket": "colorlie.vecfield:graded_bracket",
    "vecfield.coordinate_vector": "colorlie.vecfield:GradedDiffOp.coordinate_vector",
}

# wrapped only in the counting pass: too frequent to time without distortion
COUNTED = {
    "scalars.scalar_mul": ("colorlie.scalars:Scalar.__mul__", "colorlie.scalars:Scalar.__rmul__"),
    "scalars.scalar_add": ("colorlie.scalars:Scalar.__add__", "colorlie.scalars:Scalar.__radd__"),
    "scalars.gauss_mul": ("colorlie.scalars:GaussianRational.__mul__",
                          "colorlie.scalars:GaussianRational.__rmul__"),
    "scalars.gauss_add": ("colorlie.scalars:GaussianRational.__add__",
                          "colorlie.scalars:GaussianRational.__radd__",
                          "colorlie.scalars:GaussianRational.__sub__"),
    "grassmann.mono_mul": ("colorlie.grassmann:mono_mul",),
}

CHUNKS = ("colorlie.cli:_verify_chunk", "colorlie.cli:_jacobi_chunk")


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    owner = sys.modules[module_name]
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def _install(path: str, make):
    """Replace a callable everywhere a caller could look it up."""
    owner, name = _resolve(path)
    original = getattr(owner, name)
    if getattr(original, "_bench_wrapper", False):
        return
    wrapped = make(original)
    wrapped._bench_wrapper = True
    homes = [owner] if isinstance(owner, type) else []
    homes += [m for key, m in sys.modules.items() if key.startswith("colorlie") and m]
    for home in homes:
        for key, value in list(vars(home).items()):
            if value is original:
                setattr(home, key, wrapped)


class Recorder:
    """Span and count aggregates of one process."""

    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}     # inclusive time, outermost call of a name only
        self.self_: dict = {}
        self.counts: dict = {}
        self.entries: set = set()
        self._stack: list = []    # [name, child time]

    def span(self, name: str, fn):
        calls, total, self_, stack = self.calls, self.total, self.self_, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] = calls.get(name, 0) + 1
                self_[name] = self_.get(name, 0.0) + elapsed - frame[1]
                if not any(f[0] == name for f in stack):
                    total[name] = total.get(name, 0.0) + elapsed
                if stack:
                    stack[-1][1] += elapsed
        return wrapper

    def counter(self, name: str, fn, measure=None):
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] = calls.get(name, 0) + 1
            if measure is not None:
                for key, value in measure(args, result):
                    counts[key] = counts.get(key, 0) + value
            return result
        return wrapper

    def add(self, other: dict):
        for key, value in other["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + value
        for key, value in other["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.entries.update(other["entries"])

    def take_counts(self) -> dict:
        """The record so far, leaving the calls, counts and entries empty."""
        taken = self.record()
        self.calls.clear()
        self.counts.clear()
        self.entries.clear()
        return taken

    def record(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_), "counts": dict(self.counts),
                "entries": sorted(self.entries)}


def _measures(rec: Recorder) -> dict:
    """Work measures read off arguments and results in the counting pass."""
    def solver(args, result):
        solver_ = args[0]
        inverse = getattr(solver_, "_pivot_inverse", [])
        yield "linsolve.pivots", len(getattr(solver_, "pivot_keys", ()))
        yield "linsolve.pivot_inverse_nnz", sum(1 for row in inverse for v in row if v)

    def solve(args, result):
        solver_, target = args[0], args[1]
        inverse = getattr(solver_, "_pivot_inverse", [])
        rhs = [bool(target.get(k)) for k in getattr(solver_, "pivot_keys", ())]
        yield "linsolve.products", sum(len(row) for row in inverse)
        yield "linsolve.useful_products", sum(1 for row in inverse
                                              for v, r in zip(row, rhs) if v and r)

    def terms(key):
        return lambda args, result: [(key, len(result.terms))]

    def report(pairs_key, bad_key):
        return lambda args, result: [(pairs_key, result.checked), (bad_key, len(result.entries))]

    def load(args, result):
        rec.entries.add(args[0])
        return ()

    return {
        "linsolve.factor": solver,
        "linsolve.solve": solve,
        "weyl.compose": terms("weyl.terms_out"),
        "vecfield.compose": terms("vecfield.terms_out"),
        "algebra.verify_realization": report("algebra.pairs", "algebra.discrepancies"),
        "algebra.check_jacobi": report("algebra.triples", "algebra.jacobi_failures"),
        "io.parse_definition": lambda args, result: [("io.parse_bytes", len(args[0].encode()))],
        "io.emit_definition": lambda args, result: [("io.emit_bytes", len(result.encode()))],
        "io.emit_table": lambda args, result: [("io.emit_bytes", len(result.encode()))],
        "io.emit_report": lambda args, result: [("io.emit_bytes", len(result.encode()))],
        "corpus.load": load,
    }


def _chunk_dumper(rec: Recorder, out: Path, main_pid: int):
    """Pool workers: save the counts of each chunk for the main process to add."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(payload):
            if os.getpid() == main_pid:
                return fn(payload)
            saved = rec.take_counts()
            try:
                return fn(payload)
            finally:
                dump = out.with_name(f"{out.name}.worker{os.getpid()}.{time.monotonic_ns()}")
                dump.write_text(json.dumps(rec.take_counts()))
                rec.add(saved)
        return wrapper
    return make


def main(argv) -> int:
    mode, out, sep, *cli_args = argv
    if mode not in ("spans", "counts") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(out)
    import_start = time.perf_counter()
    import colorlie.cli as cli
    import_s = time.perf_counter() - import_start
    rec = Recorder()
    if mode == "spans":
        for name, path in SPANS.items():
            _install(path, lambda fn, name=name: rec.span(name, fn))
    else:
        measures = _measures(rec)
        for name, path in SPANS.items():
            _install(path, lambda fn, name=name: rec.counter(name, fn, measures.get(name)))
        for name, paths in COUNTED.items():
            for path in paths:
                _install(path, lambda fn, name=name: rec.counter(name, fn))
        dumper = _chunk_dumper(rec, out, os.getpid())
        for path in CHUNKS:
            _install(path, dumper)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        for dump in sorted(out.parent.glob(f"{out.name}.worker*")):
            rec.add(json.loads(dump.read_text()))
            dump.unlink()
        record = rec.record()
        record["import_s"] = import_s
        out.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

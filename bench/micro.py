"""Single-call timings of each layer, taken from outside the program.

Operands come from the inputs the workloads read: the g22 d-module and
vector-field realizations, the g22 table and the corpus definition
files.  Each figure is the median of several timed batches.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path


def _per_call(fn, argsets, batches: int = 7) -> float:
    """Median over timed batches of the seconds per call of fn(*args)."""
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for args in argsets:
            fn(*args)
        samples.append((time.perf_counter() - start) / len(argsets))
    return statistics.median(samples)


def run(root: Path) -> dict:
    from fractions import Fraction
    from operator import mul

    from colorlie import corpus, matop, vecfield, weyl
    from colorlie.algebra import check_jacobi
    from colorlie.io import parse_definition
    from colorlie.linsolve import ColumnSolver

    dmod, _ = corpus.realization("g22", "dmodule")
    vf, _ = corpus.realization("g22", "vectorfield")
    table = corpus.table("g22")
    mat_ops = [dmod.op(label) for label in dmod.labels()]
    vf_ops = [vf.op(label) for label in vf.labels()]
    entries = [d for op in mat_ops for row in op.entries for d in row if not d.is_zero]
    scalars = [c for d in entries for c in d.terms.values()]
    gauss = [g for s in scalars for _, g in s.items()]
    fracs = [f for g in gauss for f in (g.re, g.im) if f] or [Fraction(1, 2)]
    out = {}

    out["scalars.scalar_mul_us"] = _per_call(mul, [(a, b) for a in scalars[:60] for b in scalars[:60:6]])
    out["scalars.gauss_mul_us"] = _per_call(mul, [(a, b) for a in gauss[:80] for b in gauss[:80:8]])
    out["scalars.fraction_mul_us"] = _per_call(mul, [(a, b) for a in fracs[:100] for b in fracs[:100:5]])
    out["weyl.compose_us"] = _per_call(weyl.compose, [(a, b) for a in entries[:40] for b in entries[:40:8]])
    out["matop.bracket_us"] = _per_call(matop.graded_bracket,
                                        [(a, b) for a in mat_ops[::4] for b in mat_ops[1::6]])
    out["vecfield.bracket_us"] = _per_call(vecfield.graded_bracket,
                                           [(a, b) for a in vf_ops[::4] for b in vf_ops[1::6]])

    solver = ColumnSolver([op.coordinate_vector() for op in mat_ops])
    targets = [(matop.graded_bracket(a, b).coordinate_vector(),)
               for a in mat_ops[::6] for b in mat_ops[2::8]]
    out["linsolve.solve_us"] = _per_call(solver.solve, targets)

    n = len(table.basis)
    triples = [(i, j, k) for i in range(0, n, 3) for j in range(n) for k in range(1, n, 4)]
    out["algebra.jacobi_us_per_triple"] = _per_call(check_jacobi, [(table, triples)]) / len(triples)

    texts = [p.read_text(encoding="utf-8")
             for p in sorted((root / "src" / "colorlie" / "defs").glob("*.txt"))]
    kib = sum(len(t.encode()) for t in texts) / 1024
    out["io.parse_us_per_kb"] = _per_call(parse_definition, [(t,) for t in texts]) * len(texts) / kib

    return {key: value * 1e6 for key, value in out.items()}

"""Extraction holds each structure constant once.

The check is tracemalloc's peak over one in-process
``extract_structure_constants`` of a seeded basis change of ``g22.dmodule``,
measured from the call's start.  The table keeps each pair's solved tuple as
its entry, and forms the entries of the reversed pairs only when a bracket
or a Jacobi check asks for them.  Holding the solver's dicts until the
table is built, a second copy of every entry, and every reversed pair as
well took about 460 KiB here; holding each constant once takes about
245 KiB (Python 3.11, after one warm-up call, with the free lists cleared).
"""

import gc
import random
import tracemalloc

from colorlie import corpus
from colorlie.algebra import extract_structure_constants
from colorlie.scalars import GaussianRational, Scalar

BUDGET_KIB = 350
UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def seeded_basis_change(real, seed: int):
    """The realization under I + N, N^2 = 0, as the reconstruct workload draws it: in each
    degree block the later half of the elements each take two of the earlier half, with
    coefficients drawn from 1, -1, i and -i."""
    rng = random.Random(seed)
    basis = real.basis
    n = len(basis)
    matrix = [[Scalar.constant(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for degree in sorted({d for _, d in basis}):
        block = [k for k, (_, d) in enumerate(basis) if d == degree]
        half = len(block) - len(block) // 2
        targets, sources = block[:half], block[half:]
        for k, s in enumerate(sources):
            for t in sorted({targets[k % half], targets[(k + 1) % half]}):
                matrix[s][t] = Scalar.constant(GaussianRational(*rng.choice(UNITS)))
    return real.transform(basis, matrix)


def peak_kib(call) -> float:
    """tracemalloc's peak over call(), from its start, with the free lists emptied first."""
    gc.collect()  # a full collection empties the free lists, so each allocation is traced
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 1024
    finally:
        if started:
            tracemalloc.stop()


def test_extracting_a_basis_changed_dmodule_holds_each_constant_once():
    real = seeded_basis_change(corpus.realization("g22", "dmodule")[0], seed=1)
    table = extract_structure_constants(real)  # warm-up: first-call caches are not the table's
    assert len(table.constants) == 227
    peak = peak_kib(lambda: extract_structure_constants(real))
    assert peak < BUDGET_KIB, f"extract peaked {peak:.0f} KiB over its start, budget {BUDGET_KIB} KiB"

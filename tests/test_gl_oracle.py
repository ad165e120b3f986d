"""Extraction against the closed-form brackets of the color superalgebra gl(m1,m2,m3,m4).

Take m_a variables of the a-th degree of Z2xZ2, in the order (0,0), (0,1),
(1,0), (1,1), and set E_ij = y_i*D(y_j), of degree deg y_i + deg y_j.  These
span gl(m1,m2,m3,m4), whose graded brackets are known in closed form
(Rittenberg and Wyler, 1978):

    [[E_ij, E_kl]] = delta_jk E_il - eps(deg E_ij, deg E_kl) delta_li E_kj,

with eps the color sign.  The 16 matrix units e(i,j), with index i of the
i-th degree, satisfy the same relations as gl(1,1,1,1).  Each presentation
is written as a definition file, parsed, and extracted; the table must be
the closed form above, which does not come from the solver or the corpus.
The vector fields run ``vecfield``'s bracket and the matrix units
``matop``'s; each table also passes the graded Jacobi audit.
"""

import pytest

from colorlie import algebra
from colorlie.algebra import BracketTable
from colorlie.grading import DEGREES, koszul_sign
from colorlie.io import parse_definition


def closed_form(degrees) -> BracketTable:
    """The table of gl over indices of the given degrees, basis E_ij row-major."""
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    index = {pair: p for p, pair in enumerate(pairs)}
    basis = [(f"E{i + 1}_{j + 1}", degrees[i] + degrees[j]) for i, j in pairs]
    constants = {}
    for p, (i, j) in enumerate(pairs):
        for q in range(p, len(pairs)):
            k, l = pairs[q]
            entry = []
            if j == k:
                entry.append((index[(i, l)], 1))
            if l == i:
                entry.append((index[(k, j)], -koszul_sign(basis[p][1], basis[q][1])))
            constants[(p, q)] = entry
    return BracketTable(basis, constants)


def definition(kind: str, degrees, operator) -> str:
    """A definition file with the basis E_ij and E_ij = operator(i, j), 1-indexed."""
    n = len(degrees)
    lines = ["algebra gl", f"kind {kind}", ""]
    if kind == "vector-field":
        lines += ["variables:"] + [f"  y{i + 1} ({d.a1},{d.a2})" for i, d in enumerate(degrees)]
    lines += ["basis:"]
    lines += [f"  E{i + 1}_{j + 1} ({(degrees[i] + degrees[j]).a1},{(degrees[i] + degrees[j]).a2})"
              for i in range(n) for j in range(n)]
    lines += ["operators:"]
    lines += [f"  E{i}_{j} = {operator(i, j)}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def extracted(text: str) -> BracketTable:
    return algebra.extract_structure_constants(parse_definition(text).payload["realization"])


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2)])
def test_vector_fields_extract_the_closed_form(dims):
    degrees = [degree for degree, m in zip(DEGREES, dims) for _ in range(m)]
    table = extracted(definition("vector-field", degrees, lambda i, j: f"y{i}*D(y{j})"))
    assert table == closed_form(degrees)
    assert algebra.check_jacobi(table).ok


def test_matrix_units_extract_the_closed_form():
    table = extracted(definition("d-module", DEGREES, lambda i, j: f"e({i},{j})"))
    assert table == closed_form(DEGREES)
    assert algebra.check_jacobi(table).ok

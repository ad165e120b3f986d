"""The sparse exact solver against a dense plain-fractions elimination."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from colorlie import corpus
from colorlie.algebra import BracketTable, SingularTransform, change_basis
from colorlie.grading import D00
from colorlie.linsolve import ColumnSolver, DependentColumns
from colorlie.scalars import GaussianRational, as_scalar, rational

# -- the reference: dense Gauss-Jordan over (re, im) pairs of Fractions -------

ZERO = (Fraction(0), Fraction(0))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def dense_solve(columns, target):
    """(rank of the columns, the solution if the target is in their span)."""
    n = len(columns)
    keys = sorted({k for vec in [*columns, target] for k in vec})
    rows = [[col.get(k, ZERO) for col in columns] + [target.get(k, ZERO)] for k in keys]
    pivots = []
    for c in range(n + 1):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][c] != ZERO), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [_div(v, rows[top][c]) for v in rows[top]]
        for other in range(len(rows)):
            if other != top and rows[other][c] != ZERO:
                factor = rows[other][c]
                rows[other] = [_sub(a, _mul(factor, b)) for a, b in zip(rows[other], rows[top])]
        pivots.append(c)
    rank = len([c for c in pivots if c < n])
    if n in pivots or rank < n:
        return rank, None
    return rank, [rows[i][n] for i in range(n)]


def combination(columns, weights):
    out = {}
    for w, col in zip(weights, columns):
        for key, value in col.items():
            out[key] = _add(out.get(key, ZERO), _mul(w, value))
    return out


def gauss(pair):
    return GaussianRational(*pair)


def to_solver(vec):
    return {key: gauss(value) for key, value in vec.items()}


# -- random sparse Gaussian-integer systems ------------------------------------

entries = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda p: (Fraction(p[0]), Fraction(p[1])))
vectors = st.dictionaries(st.integers(0, 6), entries, max_size=4)


@st.composite
def systems(draw):
    columns = draw(st.lists(vectors, min_size=1, max_size=5))
    if draw(st.booleans()):
        weights = draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
        columns.append(combination(columns, weights))
    if draw(st.booleans()):
        weights = draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
        target = combination(columns, weights)
    else:
        target = draw(vectors)
    return columns, target


@given(systems())
def test_solver_matches_dense_elimination(system):
    columns, target = system
    rank, solution = dense_solve(columns, target)
    if rank < len(columns):
        with pytest.raises(DependentColumns):
            ColumnSolver([to_solver(col) for col in columns])
        return
    coeffs, residual = ColumnSolver([to_solver(col) for col in columns]).solve(to_solver(target))
    assert list(coeffs) == sorted(coeffs) and all(coeffs.values())
    dense = [coeffs.get(j, GaussianRational()) for j in range(len(columns))]
    left = combination(columns, [(c.re, c.im) for c in dense])
    expected = {k: gauss(v) for k in target.keys() | left.keys()
                if (v := _sub(target.get(k, ZERO), left.get(k, ZERO))) != ZERO}
    assert residual == expected
    if solution is None:
        assert residual
    else:
        assert coeffs == {j: gauss(v) for j, v in enumerate(solution) if v != ZERO}


def dense_rank(columns, keys=None):
    """Rank of the columns, or of their rows at `keys` only."""
    if keys is not None:
        columns = [{k: v for k, v in col.items() if k in keys} for col in columns]
    return dense_solve(columns, {})[0]


def first_independent_keys(columns):
    """Greedy over all keys in repr order: keep a key whose row adds to the rank."""
    chosen = []
    for key in sorted({k for col in columns for k in col}, key=repr):
        if dense_rank(columns, {*chosen, key}) > len(chosen):
            chosen.append(key)
    return chosen


# keys 0..12, so repr order ("10" < "2") is not numeric order
wide_vectors = st.dictionaries(st.integers(0, 12), entries, max_size=4)


@st.composite
def wide_systems(draw):
    columns = draw(st.lists(wide_vectors, min_size=1, max_size=5))
    if draw(st.booleans()):
        weights = draw(st.lists(entries, min_size=len(columns), max_size=len(columns)))
        columns.insert(draw(st.integers(0, len(columns))), combination(columns, weights))
    return columns, draw(wide_vectors)


@given(wide_systems())
def test_pivot_keys_are_the_first_independent_coordinates(system):
    columns, target = system
    rank = dense_rank(columns)
    if rank < len(columns):
        with pytest.raises(DependentColumns) as refused:
            ColumnSolver([to_solver(col) for col in columns])
        assert str(refused.value) == (
            f"only {rank} independent coordinates for {len(columns)} columns")
        return
    solver = ColumnSolver([to_solver(col) for col in columns])
    keys = first_independent_keys(columns)
    assert solver.pivot_keys == keys
    if dense_solve(columns, target)[1] is None:  # outside the span
        residual = solver.solve(to_solver(target))[1]
        assert residual and not residual.keys() & set(keys)


@given(st.lists(wide_vectors, min_size=1, max_size=6))
def test_extend_refuses_exactly_the_dependent_columns(columns):
    solver, kept = ColumnSolver([]), []
    for col in columns:
        independent = dense_rank([*kept, col]) > len(kept)
        assert solver.extend(to_solver(col)) is independent
        if independent:
            kept.append(col)
    assert len(solver.columns) == len(kept) == dense_rank(columns)


def test_a_repeated_direction_is_refused_with_the_rank():
    a = {0: GaussianRational(1), 1: GaussianRational(0, 1)}
    b = {1: GaussianRational(3)}
    with pytest.raises(DependentColumns,
                       match="^only 2 independent coordinates for 3 columns$"):
        ColumnSolver([a, {k: 2 * v for k, v in a.items()}, b])


#: Positions, in repr order of all coordinate keys, of the pivot keys chosen
#: by the dense Gauss-Jordan solver this one replaced.
RECORDED_PIVOTS = {
    ("g121", "dmodule"): [0, 1, 2, 3, 5, 6, 7, 10, 12, 13, 14, 15, 16, 33, 34, 37, 41, 42,
                          45, 70],
    ("g121", "vectorfield"): [0, 1, 3, 4, 6, 8, 13, 14, 16, 30, 36, 39, 44, 52, 53, 55, 60,
                              67, 68, 70],
    ("g22", "dmodule"): [0, 1, 2, 3, 5, 6, 7, 10, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22,
                         47, 48, 51, 54, 55, 58],
    ("g22", "vectorfield"): [0, 1, 3, 5, 7, 10, 12, 14, 17, 18, 19, 20, 30, 34, 35, 49, 53,
                             56, 59, 75, 83, 90, 93, 94],
}


@pytest.mark.parametrize("alg, which", sorted(RECORDED_PIVOTS))
def test_corpus_pivot_keys_are_unchanged(alg, which):
    real, _ = corpus.realization(alg, which)
    columns = [real.op(label).coordinate_vector() for label in real.labels()]
    keys = sorted({k for col in columns for k in col}, key=repr)
    solver = ColumnSolver(columns)
    assert [keys.index(k) for k in solver.pivot_keys] == RECORDED_PIVOTS[(alg, which)]


@pytest.mark.parametrize("alg", ["g121", "g22"])
def test_basis_change_inverse_on_corpus_pm(alg):
    matrix = [[as_scalar(v).constant_value() for v in row]
              for row in corpus.load(f"{alg}.pm").payload["matrix"]]
    n = len(matrix)
    solver = ColumnSolver([{k: v for k, v in enumerate(row) if v} for row in matrix])
    inverse = []
    for t in range(n):
        coeffs, residual = solver.solve({t: GaussianRational(1)})
        assert not residual
        inverse.append(coeffs)
    for i in range(n):
        for j in range(n):
            unit = 1 if i == j else 0
            assert sum((matrix[i][k] * inverse[k].get(j, 0) for k in range(n)),
                       GaussianRational()) == unit
            assert sum((inverse[i].get(k, 0) * matrix[k][j] for k in range(n)),
                       GaussianRational()) == unit


def test_singular_basis_change_is_reported():
    basis = [("H", D00), ("E", D00), ("F", D00)]
    table = BracketTable(basis, {(0, 1): [(1, rational(2))], (0, 2): [(2, rational(-2))],
                                 (1, 2): [(0, rational(1))]})
    one, two, zero = rational(1), rational(2), rational(0)
    with pytest.raises(SingularTransform):
        change_basis(table, basis, [[one, one, zero], [two, two, zero], [zero, zero, one]])

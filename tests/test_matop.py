"""Matrix differential operators and their graded brackets."""

import pytest
from hypothesis import given, strategies as st

from colorlie.grading import D00, D01, D10, D11, koszul_sign
from colorlie import matop, weyl
from colorlie.matop import IDENTITY, MatDiffOp, elem, graded_bracket, scalar_op
from colorlie.scalars import GaussianRational, Scalar
from colorlie.weyl import DT, DX, T, X, DiffOp, WeylMonomial


def test_elementary_matrix_products():
    # e(a,b) e(c,d) = delta(b,c) e(a,d)
    assert elem(1, 3) * elem(3, 2) == elem(1, 2)
    assert (elem(1, 3) * elem(2, 4)).is_zero
    assert elem(2, 2) * elem(2, 2) == elem(2, 2)
    total = None
    for i in range(1, 5):
        total = elem(i, i) if total is None else total + elem(i, i)
    assert total == IDENTITY


def test_scalar_broadcast_and_entry_composition():
    a = scalar_op(T) * scalar_op(DT)
    assert a == scalar_op(weyl.compose(T, DT))
    # dt . t = t dt + 1 inside every diagonal entry
    b = scalar_op(DT) * scalar_op(T)
    assert b == scalar_op(weyl.compose(T, DT)) + IDENTITY


def test_supercharge_squares_to_time_translation():
    # q = e13 + e42 + (e24 + e31) dt;  q . q = dt * identity
    q = elem(1, 3) + elem(4, 2) + (elem(2, 4) + elem(3, 1)) * scalar_op(DT)
    square = q * q
    assert square == scalar_op(DT)
    # cross-check through the apply oracle on polynomial columns
    col = [DiffOp.monomial(pt=2), DiffOp.monomial(pt=1, px=1),
           DiffOp.monomial(px=2), DiffOp.monomial(pt=3)]
    once = matop.apply(q, col)
    twice = matop.apply(q, once)
    assert twice == [weyl.apply(DT, c) for c in col]


def test_degree_metadata_and_bracket_symmetry():
    q = (elem(1, 3) + elem(4, 2) + (elem(2, 4) + elem(3, 1)) * scalar_op(DT)).with_degree(D10)
    h = scalar_op(DT).with_degree(D00)
    # {q, q} = 2h: degree (1,0) self-pairing is odd -> anticommutator
    assert koszul_sign(D10, D10) == -1
    assert graded_bracket(q, q) == h.scale(2).with_degree(D00)
    assert graded_bracket(q, q).degree == D00
    # graded antisymmetry [[x,y]] = -koszul(x,y) [[y,x]]
    p = scalar_op(DX).with_degree(D01)
    lhs = graded_bracket(q, p)
    rhs = graded_bracket(p, q).scale(-koszul_sign(D10, D01))
    assert lhs == rhs


def test_degree_mismatch_addition_is_rejected():
    a = elem(1, 2).with_degree(D01)
    b = elem(2, 1).with_degree(D10)
    with pytest.raises(ValueError):
        a + b
    # degree-polymorphic zero is fine on either side
    assert MatDiffOp.zero(D11) + a == a
    assert a + MatDiffOp.zero(D00) == a


def test_bracket_degree_is_additive():
    a = elem(1, 2).with_degree(D01)
    b = elem(2, 3).with_degree(D11)
    assert graded_bracket(a, b).degree == D10
    assert (a * b).degree == D10


def test_coordinate_vector_separates_lam_degrees():
    from colorlie.scalars import LAM

    op = scalar_op(DiffOp.constant(LAM)) + scalar_op(T)
    coords = op.coordinate_vector()
    unit = WeylMonomial(0, 0, 0, 0)
    t_mono = WeylMonomial(1, 0, 0, 0)
    assert coords[(0, 0, unit, 1)] == 1
    assert coords[(0, 0, t_mono, 0)] == 1
    assert (2, 2, unit, 1) in coords
    assert len(coords) == 8


def test_constructor_rejects_bad_positions_and_exponents():
    unit = WeylMonomial(0, 0, 0, 0)
    for row, col in [(4, 0), (0, 4), (-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="outside"):
            MatDiffOp({(row, col, unit): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        MatDiffOp({(0, 1, (0, -1, 0, 0)): 1})
    # zero coefficients are dropped; the stored monomial is a WeylMonomial
    op = MatDiffOp({(1, 2, (1, 0, 0, 2)): 3, (0, 0, unit): 0})
    [(row, col, cell)] = op.nonzero_entries()
    assert (row, col, list(cell.terms)) == (1, 2, [WeylMonomial(1, 0, 0, 2)])
    assert type(next(iter(cell.terms))) is WeylMonomial


def test_entries_is_the_dense_view_of_the_sparse_terms():
    op = elem(1, 3) + elem(2, 2) * scalar_op(T * DX + DT)
    assert op.entries[0][2] == weyl.ONE
    assert op.entries[1][1] == T * DX + DT
    assert sum(not d.is_zero for row in op.entries for d in row) == 2
    assert [(i, j) for i, j, _ in op.nonzero_entries()] == [(0, 2), (1, 1)]


# -- random sparse operators --------------------------------------------------

exps = st.integers(min_value=0, max_value=2)
positions = st.integers(min_value=0, max_value=3)
#: lam-polynomials of one or two terms, which the operator splits over two keys
coeffs = st.dictionaries(st.integers(0, 2), st.builds(GaussianRational, st.integers(-3, 3),
                                                      st.integers(-3, 3)),
                         min_size=1, max_size=2).map(Scalar)
degrees = st.sampled_from([D00, D01, D10, D11])
mat_ops = st.builds(
    MatDiffOp,
    st.dictionaries(st.tuples(positions, positions, st.builds(WeylMonomial, exps, exps, exps, exps)),
                    coeffs, max_size=5),
    degrees)
polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=3).map(
    lambda terms: DiffOp({WeylMonomial(pt, px, 0, 0): c for (pt, px), c in terms.items()}))
columns = st.lists(polys, min_size=4, max_size=4)


@given(mat_ops, mat_ops, columns)
def test_composition_acts_as_successive_application(a, b, col):
    assert matop.apply(a * b, col) == matop.apply(a, matop.apply(b, col))


@given(mat_ops, mat_ops)
def test_compose_matches_the_dense_cell_product(a, b):
    left, right, product = a.entries, b.entries, (a * b).entries
    for i in range(4):
        for k in range(4):
            cell = weyl.ZERO
            for j in range(4):
                cell = cell + weyl.compose(left[i][j], right[j][k])
            assert product[i][k] == cell


@given(mat_ops, coeffs)
def test_scale_scales_every_cell(a, factor):
    assert a.scale(factor).entries == tuple(tuple(cell.scale(factor) for cell in row)
                                            for row in a.entries)


@given(mat_ops, mat_ops)
def test_difference_is_sum_with_the_negation(a, b):
    if a.is_zero or b.is_zero or a.degree == b.degree:
        assert a - b == a + (-b)
    else:
        for combine in (lambda: a - b, lambda: a + (-b)):
            with pytest.raises(ValueError):
                combine()


@given(mat_ops, mat_ops)
def test_bracket_is_graded_antisymmetric(a, b):
    lhs = graded_bracket(a, b)
    assert lhs == graded_bracket(b, a).scale(-koszul_sign(a.degree, b.degree))
    assert lhs.degree == a.degree + b.degree

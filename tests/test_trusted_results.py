"""Every internal result equals its rebuild through the public constructor.

Sums, differences, negations, multiples, products, compositions, brackets,
``apply`` and ``graded_derivative`` build their results unchecked, through
``Frozen._of``.  This is the independent path: rebuilding each result with
the validating public constructor (``DiffOp``, ``MatDiffOp``,
``GradedDiffOp``, ``GradedPoly``) must not raise, so keys, exponents and
degrees are valid, and must give an equal value, so no zero coefficient
was kept.

The bracket oracle checks the graded bracket of random graded operators
against the full products a.b and b.a, and against applying a and b in
turn to a random polynomial and to a dense one.

The mixed-type cases close the file: a scalar factor on the left scales
an operator as one on the right does, and a sum of two different kinds of
value, or of a value and a scalar, raises TypeError.
"""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from colorlie import corpus, matop, vecfield, weyl
from colorlie.grading import D00, D01, D10, D11, DEGREES, koszul_sign
from colorlie.grassmann import GradedPoly, VarContext, graded_derivative
from colorlie.matop import MatDiffOp
from colorlie.scalars import GaussianRational, Scalar
from colorlie.vecfield import GradedDiffOp
from colorlie.weyl import DiffOp, WeylMonomial

CTX = VarContext([("x1", D00), ("x2", D00), ("psi", D01), ("th1", D10), ("th2", D10), ("z", D11)])


def assert_rebuilds(value):
    if isinstance(value, DiffOp):
        rebuilt = DiffOp(value.terms)
    elif isinstance(value, MatDiffOp):
        rebuilt = MatDiffOp(value.terms, value.degree)
    elif isinstance(value, GradedDiffOp):
        rebuilt = GradedDiffOp(value.ctx, value.degree, value.terms)
    else:
        rebuilt = GradedPoly(value.ctx, value.terms)
    assert rebuilt == value


def assert_linear_results_rebuild(a, b, factor):
    """Sums, differences, the negation and multiples of a, by 0 as well."""
    for value in (a + b, a - b, b - a, -a, a.scale(factor), a.scale(0), 0 * a, -2 * a):
        assert_rebuilds(value)


# -- random values ------------------------------------------------------------

coeffs = st.builds(lambda re, im, exp: Scalar.lam_power(exp, GaussianRational(re, im)),
                   st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1))
factors = st.one_of(coeffs, st.integers(-2, 2))
exps = st.integers(0, 2)
weyl_monos = st.builds(WeylMonomial, exps, exps, exps, exps)
diff_ops = st.dictionaries(weyl_monos, coeffs, max_size=4).map(DiffOp)
weyl_polys = st.dictionaries(st.tuples(exps, exps), coeffs, max_size=3).map(
    lambda terms: DiffOp({WeylMonomial(pt, px, 0, 0): c for (pt, px), c in terms.items()}))
degrees = st.sampled_from(DEGREES)


def mat_ops(degree):
    positions = st.integers(0, 3)
    return st.dictionaries(st.tuples(positions, positions, weyl_monos), coeffs,
                           max_size=5).map(lambda terms: MatDiffOp(terms, degree))


@st.composite
def graded_monos(draw):
    """A normally ordered monomial of CTX; square-zero variables appear once."""
    return tuple((var.index, exp) for var in CTX.variables
                 if (exp := draw(st.integers(0, 1 if var.square_zero else 2))))


#: every normally ordered monomial of CTX; square-zero variables appear once
ALL_MONOS = [tuple((var.index, exp) for var, exp in zip(CTX.variables, exps) if exp)
             for exps in itertools.product(
                 *(range(2 if var.square_zero else 3) for var in CTX.variables))]
#: the same monomials by degree, fewest exponents first
MONOS_OF_DEGREE = {degree: sorted((mono for mono in ALL_MONOS
                                   if CTX.monomial_degree(mono) == degree),
                                  key=lambda mono: sum(exp for _, exp in mono))
                   for degree in DEGREES}


@st.composite
def graded_keys(draw, degree):
    """A (coefficient, partial word) key of the given degree."""
    mono_degree = draw(degrees)
    mono = draw(st.sampled_from(MONOS_OF_DEGREE[mono_degree]))
    return mono, draw(st.sampled_from(MONOS_OF_DEGREE[degree + mono_degree]))


def graded_ops(degree):
    """Operators of one degree, drawn only from keys of that degree, so that
    a failing example shrinks key by key towards the simplest ones.  At most
    three keys keep each example, and so each shrink step, cheap."""
    return st.dictionaries(graded_keys(degree), coeffs, max_size=3).map(
        lambda terms: GradedDiffOp(CTX, degree, terms))


graded_polys = st.dictionaries(graded_monos(), coeffs, max_size=4).map(
    lambda terms: GradedPoly(CTX, terms))


@st.composite
def homogeneous_polys(draw):
    degree = draw(degrees)
    terms = draw(st.dictionaries(graded_monos(), coeffs, max_size=4))
    return GradedPoly(CTX, {mono: c for mono, c in terms.items()
                            if CTX.monomial_degree(mono) == degree})


# -- properties -----------------------------------------------------------------

@given(diff_ops, diff_ops, weyl_polys, factors)
def test_weyl_results_rebuild(a, b, poly, factor):
    assert_linear_results_rebuild(a, b, factor)
    for value in (a * b, weyl.compose(b, a), weyl.apply(a, poly), a.apply(poly)):
        assert_rebuilds(value)


@given(degrees, degrees, st.data(), st.lists(weyl_polys, min_size=4, max_size=4), factors)
def test_matrix_results_rebuild(da, db, data, column, factor):
    a, same, b = data.draw(mat_ops(da)), data.draw(mat_ops(da)), data.draw(mat_ops(db))
    assert_linear_results_rebuild(a, same, factor)
    for value in (a * b, b * a, matop.graded_bracket(a, b), a.bracket(b), a.with_degree(db)):
        assert_rebuilds(value)
        assert value.with_degree(da) == MatDiffOp(value.terms, da)
    for value in matop.apply(a, column):
        assert_rebuilds(value)
    for _, _, cell in (a * b).nonzero_entries():
        assert_rebuilds(cell)


@settings(deadline=None)
@given(degrees, degrees, st.data(), graded_polys, homogeneous_polys(), factors)
def test_graded_results_rebuild(da, db, data, poly, hpoly, factor):
    a, same, b = data.draw(graded_ops(da)), data.draw(graded_ops(da)), data.draw(graded_ops(db))
    assert_linear_results_rebuild(a, same, factor)
    for value in (a * b, vecfield.compose(b, a), vecfield.graded_bracket(a, b), a.bracket(b),
                  vecfield.multiplier(hpoly), a.lmul(hpoly), b * vecfield.partial(CTX, "psi")):
        assert_rebuilds(value)
    for value in (vecfield.apply(a, poly), a.apply(hpoly)):
        assert_rebuilds(value)


# -- the bracket oracle -----------------------------------------------------------
# graded_bracket sums only the terms in which a partial of one operand lands
# on the other's coefficient.  The full products and direct application are
# the two independent paths it must agree with.

@settings(deadline=None)
@given(degrees, degrees, st.data())
def test_bracket_equals_the_full_graded_commutator(da, db, data):
    a, b = data.draw(graded_ops(da)), data.draw(graded_ops(db))
    full = vecfield.compose(a, b) - vecfield.compose(b, a).scale(koszul_sign(da, db))
    assert vecfield.graded_bracket(a, b) == full
    assert_rebuilds(full)


#: every monomial of CTX with exponents up to 2, each with its own coefficient,
#: so that an operator with up to two of each partial seldom kills it
DENSE = GradedPoly(CTX, {mono: k + 1 for k, mono in enumerate(ALL_MONOS)})


@settings(deadline=None)
@given(degrees, degrees, st.data(), graded_polys)
def test_bracket_applied_is_the_commutator_of_applications(da, db, data, poly):
    a, b = data.draw(graded_ops(da)), data.draw(graded_ops(db))
    bracket = vecfield.graded_bracket(a, b)
    for p in (poly, DENSE):
        ab, ba = vecfield.apply(a, vecfield.apply(b, p)), vecfield.apply(b, vecfield.apply(a, p))
        assert vecfield.apply(bracket, p) == ab - ba.scale(koszul_sign(da, db))


@given(graded_polys, graded_polys, factors)
def test_polynomial_results_rebuild(p, q, factor):
    assert_linear_results_rebuild(p, q, factor)
    assert_rebuilds(p * q)
    assert_rebuilds(q * p)
    for var in CTX.variables:
        assert_rebuilds(graded_derivative(var, p))


@pytest.mark.parametrize("algebra", corpus.ALGEBRAS)
@pytest.mark.parametrize("which", ["dmodule", "vectorfield"])
def test_corpus_operators_and_brackets_rebuild(algebra, which):
    real, _ = corpus.realization(algebra, which)
    ops = [real.op(label) for label in real.labels()]
    for i, a in enumerate(ops):
        assert_rebuilds(a)
        for b in ops[i:]:
            assert_rebuilds(a.bracket(b))


# -- mixed operand types ----------------------------------------------------------

gaussians = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))


@given(st.data(), st.one_of(coeffs, gaussians))
def test_scalar_factor_on_the_left_scales(data, factor):
    for a in (data.draw(diff_ops), data.draw(mat_ops(D01)), data.draw(graded_ops(D11)),
              data.draw(graded_polys)):
        product = factor * a
        assert product == a.scale(factor) == a * factor
        assert_rebuilds(product)


def test_sums_of_different_kinds_are_refused():
    values = (weyl.T, matop.IDENTITY, vecfield.partial(CTX, "psi"), CTX.poly("x1"),
              DiffOp({}), MatDiffOp({}))
    for left in values:
        for right in values:
            if type(left) is not type(right):
                for combine in (operator.add, operator.sub):
                    with pytest.raises(TypeError):
                        combine(left, right)
        for scalar in (Scalar.lam_power(1, GaussianRational(1)), GaussianRational(0, 1)):
            with pytest.raises(TypeError):
                left + scalar
            with pytest.raises(TypeError):
                left - scalar

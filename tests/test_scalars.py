"""Exact scalar ring: Gaussian rationals and lam-polynomials."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from colorlie.scalars import (
    HALF,
    I,
    LAM,
    ONE,
    ZERO,
    GaussianRational,
    Scalar,
    as_scalar,
    rational,
)


def test_gaussian_rational_basics():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), 2)
    assert a - b == GaussianRational(Fraction(-3, 2), 4)
    # (1/2 + 3i)(2 - i) = 1 - i/2 + 6i - 3i^2 = 4 + 11i/2
    assert a * b == GaussianRational(4, Fraction(11, 2))
    assert -b == GaussianRational(-2, 1)


def test_gaussian_rational_division_is_exact():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    assert i * i == GaussianRational(-1)
    assert one / i == -i
    q = GaussianRational(3, 4) / GaussianRational(1, -2)
    assert q * GaussianRational(1, -2) == GaussianRational(3, 4)
    with pytest.raises(ZeroDivisionError):
        one / GaussianRational(0)


def test_scalar_construction_and_equality():
    assert Scalar() == ZERO
    assert Scalar({0: GaussianRational(1)}) == ONE
    assert rational(1, 2) == HALF
    assert as_scalar(Fraction(1, 2)) == HALF
    assert Scalar({2: GaussianRational(0)}) == ZERO
    assert ONE + ONE == rational(2)
    assert I * I == rational(-1)


def test_scalar_lam_polynomials():
    p = LAM * LAM + 2 * LAM + 1
    assert p.lam_degree() == 2
    assert p.coefficient(1) == GaussianRational(2)
    assert p.eval_lam(3) == GaussianRational(16)
    assert (LAM - LAM) == ZERO
    assert not p.is_lam_free
    with pytest.raises(ValueError):
        p.constant_value()


def test_scalar_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(I) == "i"
    assert str(2 * LAM + 1) == "2*lam+1"
    assert str(LAM * LAM) == "lam^2"
    assert str(HALF) == "1/2"


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=9)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        exp = draw(st.integers(min_value=0, max_value=3))
        terms[exp] = GaussianRational(draw(fractions_st), draw(fractions_st))
    return Scalar(terms)


@given(scalars(), scalars(), scalars())
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(scalars(), st.integers(min_value=-5, max_value=5))
def test_scalar_evaluation_is_a_ring_map(a, point):
    b = 3 * LAM + I
    assert (a * b).eval_lam(point) == a.eval_lam(point) * b.eval_lam(point)
    assert (a + b).eval_lam(point) == a.eval_lam(point) + b.eval_lam(point)


# -- independent oracle: plain (Fraction, Fraction) pair arithmetic --------

pair_parts = st.fractions(min_value=-400, max_value=400, max_denominator=60)
pairs = st.tuples(pair_parts, pair_parts)


def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_div(x, y):
    norm = y[0] ** 2 + y[1] ** 2
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def pair_str(x):
    re, im = x
    if not im:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if not re:
        return imag
    return f"({re}{'' if imag.startswith('-') else '+'}{imag})"


def as_pair(value):
    return (value.re, value.im)


def assert_reduced(value):
    # the kernel's own invariant: (a + b*i)/d with d > 0 and gcd(a, b, d) == 1
    a, b, d = value._abd
    assert d > 0 and gcd(a, b, d) == 1


@given(pairs, pairs)
def test_gaussian_rational_matches_pair_arithmetic(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    results = {
        "+": (gx + gy, (x[0] + y[0], x[1] + y[1])),
        "-": (gx - gy, (x[0] - y[0], x[1] - y[1])),
        "*": (gx * gy, pair_mul(x, y)),
        "neg": (-gx, (-x[0], -x[1])),
    }
    if y != (0, 0):
        results["/"] = (gx / gy, pair_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            gx / gy
    for op, (value, expected) in results.items():
        assert as_pair(value) == expected, op
        assert value == GaussianRational(*expected), op
        assert str(value) == pair_str(expected), op
        assert bool(value) == (expected != (0, 0)), op
        assert hash(value) == hash(GaussianRational(*expected)), op
        assert_reduced(value)
    assert (gx == gy) == (x == y)
    assert (gx == x[0]) == (x[1] == 0)
    assert str(gx) == pair_str(x)


@given(pairs, st.integers(min_value=-12, max_value=12), pair_parts)
def test_gaussian_rational_mixes_with_ints_and_fractions(x, k, q):
    gx = GaussianRational(*x)
    assert as_pair(gx * k) == as_pair(k * gx) == (x[0] * k, x[1] * k)
    assert as_pair(gx + k) == as_pair(k + gx) == (x[0] + k, x[1])
    assert as_pair(k - gx) == (k - x[0], -x[1])
    assert as_pair(gx - q) == (x[0] - q, x[1])
    assert (GaussianRational(q) == q) and (q == GaussianRational(q))


# a lam-polynomial as {exponent: (re, im)}, nonzero coefficients only
pair_polys = st.dictionaries(st.integers(min_value=0, max_value=4), pairs, max_size=4)


def poly_clean(poly):
    return {exp: c for exp, c in poly.items() if c != (0, 0)}


def poly_scalar(poly):
    return Scalar({exp: GaussianRational(*c) for exp, c in poly.items()})


def poly_add(p, q):
    out = dict(p)
    for exp, c in q.items():
        old = out.get(exp, (0, 0))
        out[exp] = (old[0] + c[0], old[1] + c[1])
    return poly_clean(out)


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            old = out.get(e1 + e2, (0, 0))
            prod = pair_mul(c1, c2)
            out[e1 + e2] = (old[0] + prod[0], old[1] + prod[1])
    return poly_clean(out)


def scalar_pairs(scalar):
    return {exp: as_pair(c) for exp, c in scalar.items()}


@given(pair_polys, pair_polys, st.integers(min_value=-6, max_value=6))
def test_scalar_matches_pair_polynomials(p, q, k):
    p, q = poly_clean(p), poly_clean(q)
    sp, sq = poly_scalar(p), poly_scalar(q)
    assert scalar_pairs(sp) == p
    assert scalar_pairs(sp + sq) == poly_add(p, q)
    assert scalar_pairs(sp * sq) == poly_mul(p, q)
    assert scalar_pairs(sp * k) == scalar_pairs(k * sp) == poly_mul(p, {0: (k, 0)})
    assert (sp == sq) == (p == q)
    for value in (sp + sq, sp * sq, sp * k):
        for _, c in value.items():
            assert c
            assert_reduced(c)


def test_equal_values_have_one_triple_and_one_hash():
    values = [GaussianRational(Fraction(2, 4)),
              GaussianRational(Fraction(1, 3)) + GaussianRational(Fraction(1, 6)),
              GaussianRational(Fraction(1, 2))]
    assert values[0] == values[1] == values[2] == Fraction(1, 2)
    assert len({v._abd for v in values}) == 1
    assert len({hash(v) for v in values}) == 1
    assert hash(values[0]) == hash(Fraction(1, 2))


@given(st.one_of(st.integers(-10**30, 10**30), pair_parts), pair_parts)
def test_equal_values_hash_alike_across_types(re, im):
    """A value equal to an int or a Fraction hashes as it does, as a complex does;
    so a set or dict key never holds two equal numbers."""
    value = GaussianRational(re, im)
    scalar = Scalar.constant(value)
    assert hash(scalar) == hash(value) == hash(GaussianRational(re) + GaussianRational(0, im))
    if not im:
        assert value == re == scalar
        assert hash(value) == hash(re) == hash(Fraction(re))
        assert len({value, re, scalar, Fraction(re)}) == 1
    else:
        assert value != re
        assert len({value, re}) == 2
    assert hash(Scalar.lam_power(1, value)) == hash(LAM * value)
    assert len({ZERO, 0, GaussianRational(0), Fraction(0), Scalar.lam_power(1, 0)}) == 1


def test_denominator_stays_positive():
    for value in (GaussianRational(Fraction(-1, 3), Fraction(2, -5)),
                  GaussianRational(1) / GaussianRational(0, -3),
                  GaussianRational(-2, 1) / GaussianRational(-4, -2),
                  -GaussianRational(Fraction(1, 7)),
                  GaussianRational(Fraction(3, 4)) * -6):
        assert_reduced(value)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)
    with pytest.raises(TypeError):
        GaussianRational(1) * 0.5

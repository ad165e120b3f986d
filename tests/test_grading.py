"""Degrees, the pairing, and the Koszul sign rule."""

import pickle

import pytest
from hypothesis import given, strategies as st

from colorlie.grading import D00, D01, D10, D11, DEGREES, Degree, koszul_sign

degrees_st = st.sampled_from(DEGREES)


def test_degree_addition_is_mod_two():
    assert D01 + D01 == D00
    assert D01 + D10 == D11
    assert D11 + D11 == D00
    assert D11 + D01 == D10


def test_degree_validation():
    with pytest.raises(ValueError):
        Degree(2, 0)
    with pytest.raises(ValueError):
        Degree(0, -1)


def test_degree_order_hash_and_pickle():
    assert sorted(DEGREES, reverse=True) == [D11, D10, D01, D00]
    assert D01 < D10 and max(D01, D11) is D11
    assert {D01: "a"}[Degree(0, 1)] == "a" and hash(D10) == hash(Degree(1, 0))
    assert repr(D10) == "Degree(a1=1, a2=0)" and str(D10) == "(1,0)"
    for d in DEGREES:
        assert pickle.loads(pickle.dumps(d)) == d
    for a in DEGREES:
        for b in DEGREES:
            assert a + b is DEGREES[2 * ((a.a1 + b.a1) % 2) + (a.a2 + b.a2) % 2]


def test_koszul_sign_table():
    # dot products: (0,1).(1,0) = 0, (1,1).(0,1) = 1, (1,1).(1,1) = 0
    assert koszul_sign(D01, D10) == 1
    assert koszul_sign(D11, D01) == -1
    assert koszul_sign(D11, D10) == -1
    assert koszul_sign(D11, D11) == 1
    assert koszul_sign(D01, D01) == -1
    assert koszul_sign(D10, D10) == -1
    for d in DEGREES:
        assert koszul_sign(D00, d) == 1


@given(degrees_st, degrees_st)
def test_koszul_sign_is_symmetric(a, b):
    assert koszul_sign(a, b) == koszul_sign(b, a)


@given(degrees_st, degrees_st, degrees_st)
def test_koszul_sign_is_bilinear(a, b, c):
    assert koszul_sign(a + b, c) == koszul_sign(a, c) * koszul_sign(b, c)

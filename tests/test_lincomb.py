"""The shared sparse linear-combination core."""

import pytest

from colorlie.grading import D00, D01, D10, D11
from colorlie.lincomb import add_into, graded_bracket, signed_sum, term_text
from colorlie.scalars import Scalar, rational


def test_add_into_accumulates_and_drops_cancelled_keys():
    terms = {}
    add_into(terms, "a", rational(1, 2))
    add_into(terms, "b", Scalar())  # a zero never enters
    add_into(terms, "a", rational(1, 2))
    assert terms == {"a": rational(1)}
    add_into(terms, "a", rational(-1))
    assert terms == {}


@pytest.mark.parametrize("coeff, factors, sep, text", [
    ("1", ["t", "dx"], "*", "t*dx"),
    ("-1", ["D(x)"], "*", "-D(x)"),
    ("2", ["H"], "*", "2*H"),
    ("-1/2", ["H"], "*", "-1/2*H"),
    ("1+lam", ["H"], "*", "(1+lam)*H"),
    ("(1-i)", ["dt"], "*", "(1-i)*dt"),
    ("-lam-1", [], "*", "(-lam-1)"),
    ("1", [], "*", "1"),
    ("-2", [], "*", "-2"),
    ("1+i", [r"\lambda"], "", r"(1+i)\lambda"),
    ("-1", ["Q_{+}"], "", "-Q_{+}"),
    ("(1+i)*lam+2", ["H"], "*", "((1+i)*lam+2)*H"),
    ("(1+i)*lam+(2-i)", ["H"], "*", "((1+i)*lam+(2-i))*H"),
    ("lam+(1+i)", [], "*", "(lam+(1+i))"),
    ("(-1-i)", [], "*", "(-1-i)"),
])
def test_term_text(coeff, factors, sep, text):
    assert term_text(coeff, factors, sep) == text


def test_signed_sum():
    assert signed_sum([]) == "0"
    assert signed_sum(["a"]) == "a"
    assert signed_sum(["-a", "b", "-c", "(1+i)*d"]) == "-a+b-c+(1+i)*d"


class _Toy:
    """A graded element whose product records the operand order."""

    def __init__(self, name, degree):
        self.name, self.degree = name, degree


def _product_into(terms, a, b, sign):
    terms[a.name + b.name] = sign


@pytest.mark.parametrize("da, db, expected", [
    (D00, D11, "ab-ba"),   # commutator
    (D01, D10, "ab-ba"),   # <(0,1),(1,0)> = 0
    (D01, D01, "ab+ba"),   # anticommutator
    (D01, D11, "ab+ba"),
    (D11, D11, "ab-ba"),   # (1,1) commutes with itself
])
def test_graded_bracket_sign(da, db, expected):
    terms = graded_bracket(_Toy("a", da), _Toy("b", db), _product_into)
    assert signed_sum(("" if sign == 1 else "-") + word for word, sign in terms.items()) == expected

"""The shared sparse linear-combination core."""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from colorlie.grading import D00, D01, D10, D11
from colorlie.lincomb import add_into, graded_bracket, product, signed_sum, term_text
from colorlie.scalars import GaussianRational, Scalar, rational


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


# Rules for two int keys giving 0, 1 or 2 (factor, key) pairs, with factors -1 and 2 and
# keys that collide, across pairs and within one pair, so that some terms cancel.
RULES = {
    "none": lambda a, b: (),
    "sum": lambda a, b: ((1, a + b),),
    "negated-parity": lambda a, b: ((-1, (a + b) % 2),),
    "two": lambda a, b: ((2, a), (-1, b)),
    "self-cancelling": lambda a, b: ((1, 0), (-1, 0)),
    "none-on-the-diagonal": lambda a, b: () if a == b else ((2, max(a, b)), (1, 0)),
}

_small = st.integers(-2, 2)
_gauss = st.builds(GaussianRational, _small, _small)
_scalars = st.dictionaries(st.integers(0, 2), _gauss, min_size=1, max_size=3).map(Scalar)
# one coefficient type per operand, as in every value type; the two operands may differ
_sums = st.one_of(*(st.dictionaries(st.integers(0, 3), coeffs.filter(bool), max_size=4)
                    for coeffs in (_gauss, _scalars)))


def _reference_product(left: dict, right: dict, rule) -> dict:
    """Every pair's every output, multiplied out and summed; zeros dropped at the end."""
    total: dict = {}
    for lk, lc in left.items():
        for rk, rc in right.items():
            for factor, key in rule(lk, rk):
                term = lc * rc * factor
                total[key] = total[key] + term if key in total else term
    return {key: value for key, value in total.items() if value}


@settings(max_examples=200, deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
@given(_sums, _sums, st.sampled_from(sorted(RULES)))
def test_product_is_the_bilinear_extension_of_its_rule(left, right, rule_name):
    rule = RULES[rule_name]
    left_before, right_before = dict(left), dict(right)
    result = product(left, right, rule)
    assert result == _reference_product(left, right, rule)
    assert all(result.values())
    assert left == left_before and right == right_before


def test_product_cancels_terms_and_skips_pairs_its_rule_drops():
    one = GaussianRational(1)
    assert product({0: one, 1: one}, {0: one, 1: -one}, RULES["sum"]) == {0: one, 2: -one}
    assert product({0: one}, {0: one}, RULES["self-cancelling"]) == {}

    class Unmultipliable:
        def __mul__(self, other):
            raise AssertionError("a pair whose rule gives nothing was multiplied")
    assert product({0: Unmultipliable()}, {0: one}, RULES["none-on-the-diagonal"]) == {}

"""The six value classes: immutable, and equal with the same hash after pickling.

Pickling is part of the value contract: a round trip gives back an equal
value with an equal hash, so values can be cached or sent to another
process by pickle.  The six records
(degrees, variables, tokens, corpus entries and reports) are named tuples:
immutable too, and equal after pickling.
"""

import pickle
from fractions import Fraction

import pytest

from colorlie import matop, vecfield
from colorlie.algebra import Discrepancy, DiscrepancyReport
from colorlie.grading import D01, D10, D11
from colorlie.io import CorpusEntry, tokenize
from colorlie.grassmann import VarContext
from colorlie.scalars import LAM, GaussianRational, Scalar, rational
from colorlie.weyl import DT, DX, T, DiffOp

CTX = VarContext([("x", D11), ("th", D01), ("ps", D10)])
OP = DiffOp.monomial(pt=1, dx=2, coeff=LAM + rational(1, 2)) + DT

VALUES = {
    "GaussianRational": GaussianRational(Fraction(3, 4), -2),
    "Scalar": Scalar({0: GaussianRational(1, 1), 2: GaussianRational(-5)}),
    "DiffOp": OP,
    "MatDiffOp": (matop.elem(1, 2) * matop.scalar_op(OP)
                  + matop.scalar_op(T * DX)).with_degree(D01),
    "GradedPoly": CTX.poly("x") * CTX.poly("th") + CTX.scalar(LAM),
    "GradedDiffOp": vecfield.multiplier(CTX.poly("ps")) * vecfield.partial(CTX, "x")
                    + vecfield.partial(CTX, "th").scale(rational(2)),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_pickle_round_trip_keeps_equality_and_hash(name):
    value = VALUES[name]
    assert type(value).__name__ == name
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert copy == value and copy is not value
        assert hash(copy) == hash(value)
        assert str(copy) == str(value)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_attribute_assignment_is_refused(name):
    value = VALUES[name]
    before = pickle.dumps(value)
    slot = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, slot, getattr(value, slot))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert pickle.dumps(value) == before


ISSUE = Discrepancy("bracket", ("A", "B"), "0", "C", "C")
RECORDS = {
    "Degree": D11,
    "GradedVariable": CTX["th"],
    "Token": tokenize("x^2")[1],
    "CorpusEntry": CorpusEntry("demo", "table", {"table": None}, "notes"),
    "Discrepancy": ISSUE,
    "DiscrepancyReport": DiscrepancyReport("demo", 3, (ISSUE,)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_and_pickle(name):
    value = RECORDS[name]
    assert type(value).__name__ == name
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert copy == value and type(copy) is type(value)
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1

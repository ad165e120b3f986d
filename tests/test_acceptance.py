"""Acceptance gate: one test (and one verdict line) per release criterion.

Each test is self-contained and exact — no tolerances anywhere.  The
conftest hook prints a PASS/FAIL line per criterion in the terminal
summary.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from colorlie import corpus, vecfield, weyl
from colorlie.algebra import (BracketTable, check_jacobi,
                              extract_structure_constants, triangular_split,
                              verify_realization, weights)
from colorlie.grading import Degree, koszul_sign
from colorlie.grassmann import VarContext, graded_derivative
from colorlie.io import emit_definition, parse_definition
from colorlie.scalars import GaussianRational
from colorlie.vecfield import multiplier, partial

D00, D01, D10, D11 = Degree(0, 0), Degree(0, 1), Degree(1, 0), Degree(1, 1)


@lru_cache(maxsize=None)
def _reconstruction(algebra):
    real, reference = corpus.realization(algebra, "dmodule")
    start = time.perf_counter()
    computed = extract_structure_constants(real)
    elapsed = time.perf_counter() - start
    return real, computed, reference, elapsed


@lru_cache(maxsize=None)
def _vecfield_report(algebra):
    real, reference = corpus.realization(algebra, "vectorfield")
    return real, reference, verify_realization(real, reference)


def _uses_symbolic_weight(real) -> bool:
    return any(not coeff.is_lam_free
               for row in real.op("D").entries for op in row
               for coeff in op.terms.values())


def test_criterion_1_g121_reconstruction():
    real, computed, reference, elapsed = _reconstruction("g121")
    assert len(reference.basis) == 20
    assert _uses_symbolic_weight(real), "presentation should carry the weight symbol"
    assert all(type(coeff) is GaussianRational
               for entry in computed.constants.values() for _, coeff in entry)
    assert computed == reference, "reconstructed table differs from the reference"
    assert elapsed < 60.0, f"reconstruction took {elapsed:.1f}s"


def test_criterion_2_g22_reconstruction():
    real, computed, reference, elapsed = _reconstruction("g22")
    assert len(reference.basis) == 24
    assert _uses_symbolic_weight(real)
    assert computed == reference
    # the top-degree sector brackets trivially: no (1,1)-(1,1) entries at all
    for table in (computed, reference):
        assert not [(i, j) for i, j in table.constants
                    if table.basis[i][1] == table.basis[j][1] == D11]
    assert elapsed < 60.0, f"reconstruction took {elapsed:.1f}s"


def test_criterion_3_jacobi_census_and_mutation():
    for algebra, count in (("g121", 8000), ("g22", 13824), ("n1", 2197)):
        report = check_jacobi(corpus.table(algebra))
        assert report.ok, f"{algebra}: {report.entries[:3]}"
        assert report.checked == count
    # flipping the sign of a single structure constant must be caught
    table = corpus.table("g121")
    (i, j), entry = sorted(table.constants.items())[0]
    target, coeff = entry[0]
    mutated = dict(table.constants)
    mutated[(i, j)] = tuple([(target, coeff * -1)] + list(entry[1:]))
    report = check_jacobi(BracketTable(table.basis, mutated))
    assert not report.ok
    first = report.entries[0]
    assert first.labels == ("H", "D", "K")
    assert all(len(item.labels) == 3 for item in report.entries)


_CTX = VarContext([
    ("x2", D00),
    ("psi1", D01), ("psi2", D01), ("psi3", D01),
    ("th1", D10),
    ("z1", D11), ("z3", D11),
])
_NAMES = ("x2", "psi1", "psi2", "psi3", "th1", "z1", "z3")


def _random_monomial(rng):
    poly = _CTX.one()
    for name in _NAMES:
        top = 1 if _CTX[name].square_zero else 2
        for _ in range(rng.randint(0, top)):
            poly = poly * _CTX.poly(name)
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return poly.scale(Fraction(num, rng.randint(1, 3)))


def test_criterion_4_calculus_oracle_and_leibniz():
    p = _CTX.poly
    assert graded_derivative("psi2", p("x2") * p("psi1") * p("psi2")) == \
        -(p("x2") * p("psi1"))
    assert graded_derivative("th1", p("psi1") * p("th1") * p("z3")) == \
        p("psi1") * p("z3")
    assert graded_derivative("z1", p("x2") * p("psi3") * p("z1") * p("z1")) == \
        (p("x2") * p("psi3") * p("z1")).scale(-2)

    rng = random.Random(20260814)
    checked = 0
    for _ in range(1000):
        f, g = _random_monomial(rng), _random_monomial(rng)
        name = rng.choice(_NAMES)
        sign = koszul_sign(_CTX[name].degree, f.homogeneous_degree())
        lhs = graded_derivative(name, f * g)
        rhs = graded_derivative(name, f) * g + (f * graded_derivative(name, g)).scale(sign)
        assert lhs == rhs, (name, str(f), str(g))
        checked += 1
    assert checked >= 1000


def test_criterion_5_restriction_realizations_verify_clean():
    for which in ("vectorfield", "dmodule"):
        real, reference = corpus.realization("n1", which)
        report = verify_realization(real, reference)
        assert report.ok, f"n1 {which}: {report.entries[:3]}"
        assert report.checked == 91  # all 13*14/2 unordered pairs


def test_criterion_6_weights_and_split():
    for algebra in ("g121", "g22", "n1"):
        entry = corpus.weights_entry(algebra)
        table = corpus.table(algebra, "standard" if algebra == "n1" else "pm")
        computed = weights(table, entry.payload["grading_labels"])
        assert computed == entry.payload["weights"], algebra
        split = triangular_split(computed)
        reference = entry.payload["split"]
        for bucket in ("positive", "zero", "negative"):
            assert sorted(split[bucket]) == sorted(reference[bucket]), (algebra, bucket)
        members = sum((split[b] for b in split), [])
        assert sorted(members) == sorted(label for label, _ in table.basis)


def test_criterion_7_vector_field_referee_reports():
    _, _, clean = _vecfield_report("g121")
    assert clean.checked == 210 and clean.ok, clean.entries[:3]

    _, reference, report = _vecfield_report("g22")
    assert report.checked == 300  # every pair got a verdict
    found = {item.labels for item in report.entries}
    assert found == {("K", "Jp"), ("K", "Fp"), ("Fp", "Qp"),
                     ("Fp", "Sp"), ("Sm", "Xp")}
    for item in report.entries:
        assert item.residual not in ("", "0")
        assert "D(z)" in item.residual  # all localized to one coordinate
    # the conformal core and the whole positive part still verify exactly
    positive = set(corpus.weights_entry("g22").payload["split"]["positive"])
    for item in report.entries:
        labels = set(item.labels)
        assert not labels <= {"H", "D", "K"}
        assert not labels <= positive


def test_criterion_8_property_suites():
    # graded brackets of first-order fields stay first-order, for every pair
    for algebra in ("g121", "g22", "n1"):
        real, _, _ = _vecfield_report(algebra)
        ops = [real.op(label) for label, _ in real.basis]
        assert all(op.order() <= 1 for op in ops)
        for i in range(len(ops)):
            for j in range(i, len(ops)):
                assert ops[i].bracket(ops[j]).order() <= 1, (algebra, i, j)

    # compose/apply agree with nested application (independent oracles)
    rng = random.Random(8144)
    for _ in range(300):
        a = weyl.DiffOp.monomial(rng.randint(0, 2), rng.randint(0, 2),
                                 rng.randint(0, 2), rng.randint(0, 2),
                                 Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)))
        b = weyl.DiffOp.monomial(rng.randint(0, 2), rng.randint(0, 2),
                                 rng.randint(0, 2), rng.randint(0, 2),
                                 rng.randint(1, 3))
        f = (weyl.DiffOp.monomial(rng.randint(0, 3), rng.randint(0, 3), coeff=rng.randint(1, 4))
             + weyl.DiffOp.monomial(rng.randint(0, 3), rng.randint(0, 3), coeff=rng.randint(-3, -1)))
        assert weyl.apply(weyl.compose(a, b), f) == weyl.apply(a, weyl.apply(b, f))

    def random_field(rng):
        kind = rng.randint(0, 2)
        if kind == 0:
            return multiplier(_random_monomial(rng))
        field = partial(_CTX, rng.choice(_NAMES))
        if kind == 2:
            field = field.lmul(_random_monomial(rng))
        return field

    for _ in range(200):
        a, b = random_field(rng), random_field(rng)
        f = _random_monomial(rng)
        assert vecfield.apply(vecfield.compose(a, b), f) == \
            vecfield.apply(a, vecfield.apply(b, f))

    # every corpus entry survives an emit/parse round trip
    for entry_id in corpus.ids():
        entry = corpus.load(entry_id)
        again = parse_definition(emit_definition(entry))
        assert again.kind == entry.kind, entry_id
        if entry.kind == "table":
            assert again.payload["table"] == entry.payload["table"], entry_id
        elif entry.kind in ("d-module", "vector-field"):
            assert again.payload["realization"] == entry.payload["realization"], entry_id
        else:
            assert again.payload == entry.payload, entry_id

    # the even-plus-one-odd-sector spans close for all three algebras
    expected_sizes = {"g121": (10, 16), "g22": (14, 18), "n1": (8, 10)}
    for algebra, (n01, n10) in expected_sizes.items():
        table = corpus.table(algebra)
        sub01 = table.restrict([l for l, d in table.basis if d in (D00, D01)])
        sub10 = table.restrict([l for l, d in table.basis if d in (D00, D10)])
        assert len(sub01.basis) == n01 and len(sub10.basis) == n10
        assert check_jacobi(sub01).ok and check_jacobi(sub10).ok

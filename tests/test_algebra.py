"""Tables, extraction, Jacobi audits, basis changes, weights, verification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from colorlie.grading import D00, D01, D10, D11, koszul_sign
from colorlie.scalars import I, LAM, QI_ZERO, GaussianRational, Scalar, rational
from colorlie import corpus, weyl
from colorlie.algebra import (
    BadEntry,
    BasisMismatch,
    BracketTable,
    ClosureFailure,
    DegreeMixing,
    DependentBasis,
    LambdaDependence,
    NotEigenvector,
    Realization,
    SingularTransform,
    change_basis,
    check_jacobi,
    derived_generators,
    extract_structure_constants,
    triangular_split,
    verify_realization,
    weights,
    _diagnose_failure,
)
from colorlie.io import emit_table
from colorlie.matop import scalar_op
from colorlie.weyl import DT, DX, T, DiffOp


def sl2_table(hf_coeff=-2, ef_coeff=1):
    basis = [("H", D00), ("E", D00), ("F", D00)]
    constants = {
        (0, 1): [(1, rational(2))],    # [H, E] = 2E
        (0, 2): [(2, rational(hf_coeff))],   # [H, F] = -2F
        (1, 2): [(0, rational(ef_coeff))],  # [E, F] = H
    }
    return BracketTable(basis, constants)


def mini_realization():
    """h = dt, p = dx (degree (0,1)), pt = {p, p} = 2 dx^2."""
    h = scalar_op(DT)
    p = scalar_op(DX).with_degree(D01)
    pt = scalar_op(weyl.compose(DX, DX)).scale(2)
    basis = [("h", D00), ("p", D01), ("pt", D00)]
    return Realization(basis, {"h": h, "p": p, "pt": pt})


def mini_table():
    basis = [("h", D00), ("p", D01), ("pt", D00)]
    return BracketTable(basis, {(1, 1): [(2, rational(1))]})


def test_bracket_table_validation():
    basis = [("A", D00), ("B", D01)]
    with pytest.raises(ValueError):
        BracketTable(basis, {(0, 1): [(0, rational(1))]})  # degree additivity
    with pytest.raises(ValueError):
        BracketTable(basis, {(0, 0): [(0, LAM)]})  # lam-dependent constant
    with pytest.raises(ValueError):
        BracketTable(basis, {(0, 0): [(0, rational(1))]})  # [A,A] commutator must vanish
    # {B,B} may be nonzero: the (0,1)-(0,1) pairing is odd
    table = BracketTable(basis, {(1, 1): [(0, rational(2))]})
    assert table.bracket_by_label("B", "B") == ((0, rational(2)),)


def test_graded_antisymmetry_of_queries():
    table = sl2_table()
    assert table.bracket_by_label("H", "E") == ((1, rational(2)),)
    assert table.bracket_by_label("E", "H") == ((1, rational(-2)),)
    odd = BracketTable([("P", D01), ("Pt", D00)], {(0, 0): [(1, rational(1))]})
    # {P,P} queried both ways: even Koszul flip keeps the anticommutator symmetric
    assert odd.bracket(0, 0) == ((1, rational(1)),)


def test_check_jacobi_passes_and_catches_mutations():
    good = check_jacobi(sl2_table())
    assert good.ok and good.checked == 27
    # note: scaling [E,F] alone still satisfies Jacobi (an isomorphic algebra);
    # flipping the sign of [H,F] does not
    assert check_jacobi(sl2_table(ef_coeff=2)).ok
    bad = check_jacobi(sl2_table(hf_coeff=2))
    assert not bad.ok
    # the failing triples name H, E, F together
    labels = {frozenset(d.labels) for d in bad.entries}
    assert frozenset({"H", "E", "F"}) in labels


@pytest.mark.parametrize("algebra, basis", [
    ("g121", "standard"), ("g121", "pm"), ("g22", "standard"), ("g22", "pm"), ("n1", "standard"),
])
def test_jacobi_subset_report_is_the_full_report_filtered(algebra, basis):
    table = corpus.table(algebra, basis)
    n = len(table.basis)
    rng = random.Random(f"{algebra}.{basis}")
    factors = [GaussianRational(2), GaussianRational(-1), GaussianRational(0, 1),
               GaussianRational(Fraction(1, 2)), GaussianRational(-2)]
    for _ in range(2):
        # a seeded mutant: three stored constants scaled
        mutated = {key: list(entry) for key, entry in table.constants.items()}
        for key in rng.sample(sorted(mutated), 3):
            at = rng.randrange(len(mutated[key]))
            target, coeff = mutated[key][at]
            mutated[key][at] = (target, coeff * rng.choice(factors))
        mutant = BracketTable(table.basis, mutated)
        full = check_jacobi(mutant)
        assert not full.ok
        by_triple = {tuple(mutant.index[label] for label in item.labels): item
                     for item in full.entries}
        triples = rng.sample(sorted(by_triple), min(len(by_triple), 40))
        triples += [tuple(rng.randrange(n) for _ in range(3)) for _ in range(120)]
        rng.shuffle(triples)
        triples += triples[:5]  # a repeated triple is reported again
        subset = check_jacobi(mutant, triples)
        assert subset.checked == len(triples)
        assert list(subset.entries) == [by_triple[t] for t in triples if t in by_triple]


def test_jacobi_forms_each_ordered_triple_at_most_once(monkeypatch):
    # J of a failing sorted triple is reused for its report line, and a
    # triple repeated in a subset does not form J again.
    from colorlie import algebra
    formed = []
    jacobi_sum = algebra._jacobi_sum

    def counting(signed, degrees, *triple):
        formed.append(triple)
        return jacobi_sum(signed, degrees, *triple)

    monkeypatch.setattr(algebra, "_jacobi_sum", counting)
    table = sl2_table(hf_coeff=2)
    failing = {tuple(table.index[label] for label in item.labels)
               for item in check_jacobi(table).entries}
    assert failing
    sorted_triples = set(itertools.combinations_with_replacement(range(3), 3))
    assert len(formed) == len(set(formed)) and set(formed) == sorted_triples | failing
    formed.clear()
    assert check_jacobi(table, sorted(failing) * 2).checked == 2 * len(failing)
    assert len(formed) == len(set(formed)) and set(formed) == failing


# -- Scheunert's twist: an independent oracle for graded Jacobi ---------------
#
# With sigma(a,b) = (-1)^(a1*b2), the twisted bracket [x,y]' = sigma(a,b)[x,y]
# of a color table is an ordinary super bracket, graded by the total parity
# |a| = a1 + a2: sigma(a,b)*sigma(b,a)*(-1)^<a,b> = (-1)^(|a||b|).  Its super
# Jacobi sum J' of (x, y, z) and the color Jacobi sum J obey
# J = sigma(a,b)*sigma(b,c)*sigma(c,a) * J' (Scheunert, J. Math. Phys. 20, 712).

def _sigma(a, b) -> int:
    return -1 if a.a1 * b.a2 else 1


def _super_sign(a, b) -> int:
    return -1 if (a.a1 + a.a2) * (b.a1 + b.a2) % 2 else 1


def twisted_super_jacobi_failures(table) -> dict:
    """{(i, j, k): {target: value}} of every ordered triple whose super Jacobi
    sum for the twisted bracket is nonzero.  The twisted bracket of a stored
    pair i <= j is sigma times the constant; (j, i) follows by super
    antisymmetry, [y,x]' = -(-1)^(|a||b|) [x,y]'."""
    degrees = [d for _, d in table.basis]
    twisted = {}
    for (i, j), entry in table.constants.items():
        a, b = degrees[i], degrees[j]
        twisted[(i, j)] = {t: c.constant_value() * _sigma(a, b) for t, c in entry}
        twisted[(j, i)] = {t: -_super_sign(a, b) * v for t, v in twisted[(i, j)].items()}
    failures = {}
    for i, j, k in itertools.product(range(len(degrees)), repeat=3):
        a, b, c = degrees[i], degrees[j], degrees[k]
        acc = {}
        for x, (y, z), sign in ((i, (j, k), _super_sign(a, c)), (j, (k, i), _super_sign(b, a)),
                                (k, (i, j), _super_sign(c, b))):
            for mid, v in twisted.get((y, z), {}).items():
                for t, w in twisted.get((x, mid), {}).items():
                    acc[t] = acc.get(t, 0) + sign * v * w
        acc = {t: v for t, v in acc.items() if v}
        if acc:
            failures[(i, j, k)] = acc
    return failures


JACOBI_FACTORS = [GaussianRational(*v) for v in ((0, 0), (-1, 0), (2, 0), (0, 1), (1, 1), (-3, 0))]


@st.composite
def perturbed_n1_tables(draw):
    """The n1 table with up to three constants scaled and up to two entries added."""
    table = corpus.table("n1")
    basis, n = table.basis, len(table.basis)
    constants = {key: dict(entry) for key, entry in table.constants.items()}
    factors = st.sampled_from(JACOBI_FACTORS)
    for key in draw(st.lists(st.sampled_from(sorted(constants)), max_size=3, unique=True)):
        target = draw(st.sampled_from(sorted(constants[key])))
        constants[key][target] = constants[key][target] * draw(factors)
    pairs = [(i, j) for i in range(n) for j in range(i, n)
             if i < j or koszul_sign(basis[i][1], basis[i][1]) == -1]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)):
        targets = [t for t in range(n) if basis[t][1] == basis[i][1] + basis[j][1]]
        target = draw(st.sampled_from(targets))
        entry = constants.setdefault((i, j), {})
        entry[target] = entry.get(target, QI_ZERO) + draw(factors)
    return BracketTable(basis, {key: list(entry.items()) for key, entry in constants.items()})


def scheunert_jacobi_entries(table) -> list:
    """(labels, residual) of each ordered triple that fails graded Jacobi, from the twist."""
    degrees = [d for _, d in table.basis]
    expected = []
    for (i, j, k), acc in sorted(twisted_super_jacobi_failures(table).items()):
        a, b, c = degrees[i], degrees[j], degrees[k]
        factor = _sigma(a, b) * _sigma(b, c) * _sigma(c, a)
        residual = table.combo_str(sorted((t, Scalar.constant(v * factor)) for t, v in acc.items()))
        labels = tuple(table.basis[m][0] for m in (i, j, k))
        expected.append((labels, residual))
    return expected


@settings(max_examples=30, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.explain])
@given(perturbed_n1_tables())
def test_jacobi_failures_are_the_failures_of_the_scheunert_twist(table):
    report = check_jacobi(table)
    assert report.checked == len(table) ** 3
    assert [(d.labels, d.residual) for d in report.entries] == scheunert_jacobi_entries(table)


def test_extract_structure_constants_roundtrip():
    table = extract_structure_constants(mini_realization())
    assert table == mini_table()


def test_extract_detects_dependent_basis():
    h = scalar_op(DT)
    basis = [("a", D00), ("b", D00)]
    with pytest.raises(DependentBasis):
        extract_structure_constants(Realization(basis, {"a": h, "b": h.scale(2)}))


def test_extract_detects_closure_failure():
    h = scalar_op(DT)
    p = scalar_op(DX).with_degree(D01)
    real = Realization([("h", D00), ("p", D01)], {"h": h, "p": p})
    with pytest.raises(ClosureFailure) as info:
        extract_structure_constants(real)
    assert info.value.pair == ("p", "p")
    assert info.value.residual == " + ".join(f"e({k},{k})*(2*dx^2)" for k in range(1, 5))


def test_extract_does_not_block_by_declared_degree():
    # Degrees of matrix operators are declared, not inferred, so the solve
    # spans every column: equal supports are dependent whatever their degrees,
    h = scalar_op(DT)
    with pytest.raises(DependentBasis):
        extract_structure_constants(Realization(
            [("a", D00), ("b", D01)], {"a": h, "b": h.scale(2).with_degree(D01)}))
    # an exact solution through a column of another degree is refused by the table,
    p = scalar_op(DX).with_degree(D11)
    real = Realization([("a", D00), ("b", D00), ("p", D11)],
                       {"a": scalar_op(T * DX), "b": scalar_op(DT), "p": p})
    with pytest.raises(ValueError, match="targets p of degree"):
        extract_structure_constants(real)
    # and a failing candidate through such a column still yields a residual.
    real = Realization([("a", D00), ("b", D00), ("p", D11)],
                       {"a": scalar_op(T * DX + T * DT * DT), "b": scalar_op(DT), "p": p})
    with pytest.raises(ClosureFailure) as info:
        extract_structure_constants(real)
    assert info.value.pair == ("a", "b")
    assert info.value.residual == " + ".join(f"e({k},{k})*(-dt^2)" for k in range(1, 5))


def test_extract_detects_lam_dependence():
    a = scalar_op(DT)
    b = scalar_op(DiffOp.monomial(pt=1, dt=1, coeff=LAM))
    real = Realization([("a", D00), ("b", D00)], {"a": a, "b": b})
    with pytest.raises(LambdaDependence) as info:
        extract_structure_constants(real)
    assert info.value.pair == ("a", "b")


def test_lam_dependence_survives_singular_sample_points():
    # column k is (lam - k) on row k, so c_k = 1/(lam - k): every point
    # lam = 1 .. 12 makes the columns dependent, and none is a real failure.
    one = GaussianRational(1)
    columns = [{(k, 0): -k * one, (k, 1): one} for k in range(1, 13)]
    target = {(k, 0): one for k in range(1, 13)}
    with pytest.raises(LambdaDependence) as info:
        _diagnose_failure(("a", "b"), columns, target, "residual")
    assert info.value.pair == ("a", "b")


def test_change_basis_identity_and_scaling():
    table = sl2_table()
    n = len(table.basis)
    identity = [[rational(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert change_basis(table, list(table.basis), identity) == table
    # B' = iE: [H, B'] = 2B' still; [B', F] = iH
    matrix = [[rational(1), rational(0), rational(0)],
              [rational(0), I, rational(0)],
              [rational(0), rational(0), rational(1)]]
    new = change_basis(table, [("H", D00), ("Ei", D00), ("F", D00)], matrix)
    assert new.bracket_by_label("H", "Ei") == ((1, rational(2)),)
    assert new.bracket_by_label("Ei", "F") == ((0, I),)


def test_change_basis_errors():
    table = mini_table()
    n = len(table.basis)
    singular = [[rational(0)] * n for _ in range(n)]
    with pytest.raises((SingularTransform, DegreeMixing)):
        change_basis(table, list(table.basis), singular)
    mixing = [[rational(1 if i == j else 0) for j in range(n)] for i in range(n)]
    mixing[1][0] = rational(1)  # p (0,1) draws on h (0,0)
    with pytest.raises(DegreeMixing):
        change_basis(table, list(table.basis), mixing)


@pytest.mark.parametrize("alg", ["g121", "g22"])
def test_transformed_dmodule_extracts_the_changed_table(alg):
    # two independent paths to the p/m table: the operators rewritten by
    # transform and then extracted, and the standard table by change_basis
    real, _ = corpus.realization(alg, "dmodule")
    pm = corpus.load(f"{alg}.pm").payload
    assert real.basis == pm["old_basis"]
    changed = real.transform(pm["new_basis"], pm["matrix"])
    assert extract_structure_constants(changed) == corpus.table(alg, "pm")


def test_transform_errors():
    real = mini_realization()
    n = len(real.basis)

    def identity_with(i, j, value):
        matrix = [[rational(1 if r == c else 0) for c in range(n)] for r in range(n)]
        matrix[i][j] = value
        return matrix

    with pytest.raises(ValueError, match="^basis-change coefficient for h depends on lam$"):
        real.transform(real.basis, identity_with(0, 0, LAM))
    with pytest.raises(DegreeMixing, match=r"^p of degree \(0,1\) draws on h of degree \(0,0\)$"):
        real.transform(real.basis, identity_with(1, 0, rational(1)))
    with pytest.raises(SingularTransform, match="^new basis element pt is the zero combination$"):
        real.transform(real.basis, identity_with(2, 2, rational(0)))


def test_transform_refuses_dependent_rows_that_are_all_nonzero():
    real = mini_realization()
    rows = [[rational(v) for v in row] for row in ([1, 0, 1], [0, 1, 0], [2, 0, 2])]
    with pytest.raises(SingularTransform, match="^basis-change matrix is singular$"):
        real.transform(real.basis, rows)


def test_weights_and_split():
    table = sl2_table()
    wmap = weights(table, ["H"])
    assert wmap == {"H": (Scalar(),), "E": (rational(2),), "F": (rational(-2),)}
    split = triangular_split(wmap)
    assert split == {"positive": ["E"], "zero": ["H"], "negative": ["F"]}
    with pytest.raises(NotEigenvector):
        weights(table, ["E"])


def test_lexicographic_split_uses_first_nonzero():
    wmap = {
        "a": (GaussianRational(0), GaussianRational(3)),
        "b": (GaussianRational(-1), GaussianRational(5)),
        "c": (GaussianRational(0), GaussianRational(0)),
    }
    split = triangular_split(wmap)
    assert split == {"positive": ["a"], "zero": ["c"], "negative": ["b"]}


def test_split_refuses_a_weight_with_an_imaginary_part():
    zero, i = GaussianRational(0), GaussianRational(0, 1)
    with pytest.raises(ValueError, match="^weight i of a is not real$"):
        triangular_split({"a": (zero, i)})
    with pytest.raises(ValueError, match=r"^weight \(1\+i\) of b is not real$"):
        triangular_split({"b": (GaussianRational(1, 1), zero)})


def test_verify_realization_empty_report_and_localized_residuals():
    real = mini_realization()
    good = verify_realization(real, mini_table())
    assert good.ok and good.checked == 6
    wrong = BracketTable(
        [("h", D00), ("p", D01), ("pt", D00)],
        {(1, 1): [(2, rational(2))]},  # claims {p,p} = 2 pt
    )
    report = verify_realization(real, wrong)
    assert not report.ok and len(report.entries) == 1
    assert report.entries[0].labels == ("p", "p")
    assert report.entries[0].expected == "2*pt"
    with pytest.raises(BasisMismatch):
        verify_realization(real, sl2_table())


def test_restrict_and_closure():
    table = sl2_table()
    sub = table.restrict(["H"])
    assert len(sub) == 1 and not sub.constants
    with pytest.raises(ClosureFailure):
        table.restrict(["E", "F"])
    mini = mini_table()
    even = mini.restrict([label for label, degree in mini.basis if degree == D00])
    assert even.labels() == ["h", "pt"]


def test_derived_generators_via_graded_bracket():
    h = scalar_op(DT)
    p = scalar_op(DX).with_degree(D01)
    real = Realization([("h", D00), ("p", D01)], {"h": h, "p": p})
    extended = derived_generators(real, [("pt", ("p", "p"))])
    assert extended.op("pt") == scalar_op(weyl.compose(DX, DX)).scale(2)
    assert extended.basis[-1] == ("pt", D00)
    table = extract_structure_constants(extended)
    assert table.bracket_by_label("p", "p") == ((2, rational(1)),)


def test_realization_validation():
    h = scalar_op(DT)
    with pytest.raises(ValueError):
        Realization([("h", D01)], {"h": h})  # degree mismatch
    with pytest.raises(ValueError):
        Realization([("h", D00)], {"h": h, "extra": h})


def seeded_unitriangular(basis, seed: int):
    """A seeded invertible matrix that keeps degrees: the identity, plus units 1, -1, i
    and -i below the diagonal, each row drawing on earlier elements of its own degree."""
    rng = random.Random(seed)
    n = len(basis)
    matrix = [[rational(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if basis[i][1] == basis[j][1] and rng.random() < 0.3:
                matrix[i][j] = rng.choice([rational(1), rational(-1), I, -I])
    return matrix


def extracted(alg: str, seed=None):
    """The table extracted from the d-module of ``alg``, after a seeded basis change if given."""
    real, _ = corpus.realization(alg, "dmodule")
    if seed is not None:
        real = real.transform(real.basis, seeded_unitriangular(real.basis, seed))
    return extract_structure_constants(real)


def changed_g22_table():
    table = corpus.table("g22")
    return change_basis(table, table.basis, seeded_unitriangular(table.basis, 28))


def emitted_g22_extract():
    """A table printed in every format before any ordered pair (j, i) is asked for."""
    table = extracted("g22")
    for fmt in ("text", "json", "latex"):
        emit_table(table, fmt)
    return table


def scaled_g22_extract():
    """The extracted g22 table rebuilt from its own entries, three constants scaled."""
    table = extracted("g22")
    mutated = dict(table.constants)
    for key, factor in zip(sorted(mutated)[::40], (GaussianRational(2), GaussianRational(0, 1),
                                                    GaussianRational(-3))):
        (target, coeff), *rest = mutated[key]
        mutated[key] = ((target, coeff * factor), *rest)
    return BracketTable(table.basis, mutated)


FLIP_TABLES = {
    **{table_id: (lambda table_id=table_id: corpus.load(table_id).payload["table"])
       for table_id in ("g121.table", "g121.table_pm", "g22.table", "g22.table_pm", "n1.table")},
    **{f"extract {alg}.dmodule": (lambda alg=alg: extracted(alg)) for alg in ("g121", "g22", "n1")},
    "extract g22.dmodule transformed": lambda: extracted("g22", seed=1),
    "change_basis g22.table": changed_g22_table,
    "extract g22.dmodule after emit_table": emitted_g22_extract,
    "extract g22.dmodule scaled": scaled_g22_extract,
}


@pytest.mark.parametrize("table_id", list(FLIP_TABLES))
def test_bracket_flips_the_stored_constants_for_every_ordered_pair(table_id):
    table = FLIP_TABLES[table_id]()
    n = len(table)
    for i in range(n):
        for j in range(n):
            if i <= j:
                expected = table.constants.get((i, j), ())
            else:
                di, dj = table.basis[i][1], table.basis[j][1]
                sign = (-1) ** (1 + di.a1 * dj.a1 + di.a2 * dj.a2)  # -(-1)^<di, dj>
                expected = tuple((t, c * sign) for t, c in table.constants.get((j, i), ()))
            assert table.bracket(i, j) == expected, (table_id, i, j)
    report = check_jacobi(table)
    assert report.checked == n ** 3
    assert [(d.labels, d.residual) for d in report.entries] == scheunert_jacobi_entries(table)
    assert report.ok == (table_id != "extract g22.dmodule scaled")


def test_entries_sum_duplicate_targets_whatever_the_coefficient_type():
    basis = [("H", D00), ("E", D00), ("F", D00)]
    one, two = GaussianRational(1), GaussianRational(2)
    kept = ((1, one), (2, two))
    table = BracketTable(basis, {(0, 1): kept, (0, 2): [(2, one), (1, two), (2, one)],
                                 (1, 2): [(0, LAM), (0, 1 - LAM), (1, one), (1, -1)]})
    assert table.constants[(0, 1)] is kept
    assert table.constants[(0, 2)] == ((1, two), (2, two))
    assert table.constants[(1, 2)] == ((0, one),)
    assert {type(c) for entry in table.constants.values() for _, c in entry} == {GaussianRational}
    mixed = BracketTable(basis, {(0, 1): [(1, one), (1, rational(1)), (1, 1)], (0, 2): ((2, one), (2, -one))})
    assert mixed.constants == {(0, 1): ((1, GaussianRational(3)),)}


@pytest.mark.parametrize("constants, message", [
    ({(0, 1): [(1, LAM + 1)]}, "structure constant for (A,B) depends on lam: lam+1"),
    ({(0, 1): ((0, GaussianRational(1)),)}, "bracket of A and B has degree (0,1) but targets A of degree (0,0)"),
    ({(0, 1): [(0, rational(1)), (1, LAM)]}, "bracket of A and B has degree (0,1) but targets A of degree (0,0)"),
    ({(0, 0): ((0, GaussianRational(1)),)}, "[[A, A]] is a commutator and must vanish"),
    ({(0, 0): [(0, GaussianRational(1)), (0, rational(1))]}, "[[A, A]] is a commutator and must vanish"),
    ({(0, 1): ((-1, GaussianRational(1)),)}, "bracket of A and B targets index -1, outside the 2-element basis"),
    ({(0, 1): [(1, rational(1)), (2, rational(1))]}, "bracket of A and B targets index 2, outside the 2-element basis"),
], ids=["lam", "degree-gaussian", "degree-before-lam", "commutator-gaussian", "commutator-mixed",
        "target-negative", "target-past-the-end"])
def test_bad_entries_are_refused_with_one_message_whatever_the_coefficient_type(constants, message):
    with pytest.raises(BadEntry) as info:
        BracketTable([("A", D00), ("B", D01)], constants)
    assert str(info.value) == message and info.value.pair == next(iter(constants))


@pytest.mark.parametrize("path", ["built", "parsed", "restrict", "change_basis", "extract"])
def test_table_entries_are_gaussian_rationals_on_every_construction_path(path):
    tables = {
        "built": lambda: [sl2_table(), mini_table()],  # from lam-free Scalars
        "parsed": lambda: [corpus.table("g121"), corpus.table("g22")],
        "restrict": lambda: [corpus.table("n1")],
        "change_basis": lambda: [corpus.table("g121", "pm"), corpus.table("g22", "pm")],
        "extract": lambda: [extract_structure_constants(corpus.realization("n1", "dmodule")[0])],
    }[path]()
    for table in tables:
        n = len(table)
        coeffs = [c for i in range(n) for j in range(n) for _, c in table.bracket(i, j)]
        assert coeffs and {type(c) for c in coeffs} == {GaussianRational}, path


gaussian_parts = st.one_of(st.sampled_from([0, 1, -1]),
                           st.fractions(min_value=-7, max_value=7, max_denominator=6))
gaussians = st.builds(GaussianRational, gaussian_parts, gaussian_parts)


@given(gaussians, st.lists(gaussians, max_size=3))
def test_constants_print_as_the_lam_free_scalars_they_replace(value, coeffs):
    assert str(value) == str(Scalar.constant(value))
    table = sl2_table()
    entry = list(enumerate(coeffs))
    assert table.combo_str(entry) == table.combo_str([(t, Scalar.constant(c)) for t, c in entry])

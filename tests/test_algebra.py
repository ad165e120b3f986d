"""Tables, extraction, Jacobi audits, basis changes, weights, verification."""

import pytest

from colorlie.grading import D00, D01, D10, D11
from colorlie.scalars import I, LAM, GaussianRational, Scalar, rational
from colorlie import corpus, weyl
from colorlie.algebra import (
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
    compare_tables,
    derived_generators,
    extract_structure_constants,
    triangular_split,
    verify_realization,
    weights,
    _diagnose_failure,
)
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


def test_compare_tables_reports_differences():
    report = compare_tables(sl2_table(), sl2_table())
    assert report.ok and report.checked == 6
    diff = compare_tables(sl2_table(), sl2_table(ef_coeff=3))
    assert len(diff.entries) == 1
    entry = diff.entries[0]
    assert entry.labels == ("E", "F")
    assert entry.expected == "H" and entry.computed == "3*H"
    with pytest.raises(BasisMismatch):
        compare_tables(sl2_table(), mini_table())


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
        "a": (rational(0), rational(3)),
        "b": (rational(-1), rational(5)),
        "c": (rational(0), rational(0)),
    }
    split = triangular_split(wmap)
    assert split == {"positive": ["a"], "zero": ["c"], "negative": ["b"]}


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


def test_restrict_and_closure():
    table = sl2_table()
    sub = table.restrict(["H"])
    assert len(sub) == 1 and not sub.constants
    with pytest.raises(ClosureFailure):
        table.restrict(["E", "F"])
    mini = mini_table()
    even = mini.restrict_degrees({D00})
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


@pytest.mark.parametrize("table_id", ["g121.table", "g121.table_pm", "g22.table",
                                      "g22.table_pm", "n1.table"])
def test_bracket_flips_the_stored_constants_for_every_ordered_pair(table_id):
    table = corpus.load(table_id).payload["table"]
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

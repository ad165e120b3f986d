"""The built-in definition corpus: ids, caching, and cross-entry wiring."""

import pytest

from colorlie import corpus, matop, weyl
from colorlie.algebra import check_jacobi, extract_structure_constants
from colorlie.grading import Degree


def test_ids_lists_every_entry():
    listed = corpus.ids()
    assert len(listed) == 19
    assert listed == tuple(sorted(listed))
    for algebra in corpus.ALGEBRAS:
        for kind in ("basis", "dmodule", "table", "weights", "vectorfield"):
            assert f"{algebra}.{kind}" in listed
    for algebra in ("g121", "g22"):
        assert f"{algebra}.pm" in listed
        assert f"{algebra}.table_pm" in listed
    assert "n1.pm" not in listed


def test_load_is_cached():
    assert corpus.load("n1.dmodule") is corpus.load("n1.dmodule")


def test_unknown_id_says_what_is_known():
    with pytest.raises(corpus.UnknownId) as err:
        corpus.load("g121.nope")
    assert "g121.nope" in str(err.value)
    assert "g121.table" in str(err.value)
    with pytest.raises(corpus.UnknownId):
        corpus.table("so3")
    with pytest.raises(corpus.UnknownId):
        corpus.table("n1", basis="pm")


def test_entry_ids_and_kinds():
    for entry_id in corpus.ids():
        entry = corpus.load(entry_id)
        assert entry.id == entry_id
        suffix = entry_id.split(".", 1)[1]
        expected_kind = {
            "basis": "grading", "dmodule": "d-module", "table": "table",
            "pm": "basis-change", "table_pm": "table", "weights": "weights",
            "vectorfield": "vector-field"}[suffix]
        assert entry.kind == expected_kind


def test_basis_sizes_and_degrees():
    sizes = {"g121": 20, "g22": 24, "n1": 13}
    for algebra, size in sizes.items():
        basis = corpus.load(f"{algebra}.basis").payload["basis"]
        assert len(basis) == size
        degrees = {d for _, d in basis}
        assert degrees == {Degree(0, 0), Degree(0, 1), Degree(1, 0), Degree(1, 1)}


def test_basis_entry_matches_table_basis():
    for algebra in corpus.ALGEBRAS:
        assert (corpus.load(f"{algebra}.basis").payload["basis"]
                == corpus.table(algebra).basis)


def test_derived_bracket_values_in_dmodule():
    real = corpus.load("g121.dmodule").payload["realization"]
    # {P, P} with P = dx is twice the second x-derivative on each component.
    expected = matop.scalar_op(weyl.DiffOp.monomial(dx=2, coeff=2))
    assert real.op("P~") == expected
    derived = dict(corpus.load("g121.dmodule").payload["derived"])
    assert derived["P~"] == ("P", "P")


def test_n1_table_is_the_restriction():
    table = corpus.table("n1")
    assert [l for l, _ in table.basis] == [
        "H", "D", "K", "P~", "U", "G~", "P", "G", "Q", "S", "Pi", "Lam", "X"]
    g121 = corpus.table("g121")
    # a sample entry surviving the rename: {Q1, S1} in g121 vs {Q, S} here
    old = g121.bracket_by_label("Q1", "S1")
    new = table.bracket_by_label("Q", "S")
    old_labels = sorted((g121.basis[t][0], str(c)) for t, c in old)
    new_labels = sorted((table.basis[t][0], str(c)) for t, c in new)
    assert [(l.rstrip("1"), c) for l, c in old_labels] == new_labels
    report = check_jacobi(table)
    assert report.ok and report.checked == 13 ** 3


def test_pm_tables_satisfy_jacobi():
    for algebra in ("g121", "g22"):
        table = corpus.table(algebra, basis="pm")
        assert len(table.basis) == len(corpus.table(algebra).basis)
        assert check_jacobi(table).ok


def test_realization_wiring():
    for algebra in corpus.ALGEBRAS:
        for which in ("dmodule", "vectorfield"):
            real, check = corpus.realization(algebra, which)
            assert real.basis == check.basis
    with pytest.raises(ValueError, match="dmodule"):
        corpus.realization("n1", "matrices")


def test_dmodule_extraction_matches_reference():
    real, check = corpus.realization("n1", "dmodule")
    assert extract_structure_constants(real) == check


def test_weights_entry_covers_basis():
    for algebra in corpus.ALGEBRAS:
        entry = corpus.weights_entry(algebra)
        basis = "standard" if algebra == "n1" else "pm"
        labels = [l for l, _ in corpus.table(algebra, basis).basis]
        assert list(entry.payload["weights"]) == labels
        split = entry.payload["split"]
        members = split["positive"] + split["zero"] + split["negative"]
        assert sorted(members) == sorted(labels)

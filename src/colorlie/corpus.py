"""Built-in, reviewed algebra definitions and the derived entries.

Entries are addressed by dotted ids like ``g121.table`` or
``n1.vectorfield``.  File-backed entries live in ``defs/``; derived
entries (the 13-element table, complexified tables, grading lists) are
computed once from the file-backed ones so a single reviewed source
feeds every view.  All entries are cached and must be treated as
frozen.

Entry kinds per algebra:

* ``<alg>.basis`` — grading: the labeled, degree-graded basis list.
* ``<alg>.dmodule`` — d-module: matrix differential operators plus the
  bracket-derived extensions, ready for structure-constant extraction.
* ``<alg>.table`` — table: the reference structure constants.
* ``<alg>.pm`` — basis-change into the complexified p/m basis
  (not for ``n1``, which has no doubled families).
* ``<alg>.table_pm`` — table: the reference table rewritten in the p/m
  basis (not for ``n1``).
* ``<alg>.weights`` — weights: grading-operator eigenvalues and the
  triangular split, in the basis the vector-field realization uses.
* ``<alg>.vectorfield`` — vector-field: the first-order realization on
  the positive-part group coordinates.
"""

from __future__ import annotations

import pkgutil
from functools import lru_cache

from .algebra import BracketTable, Realization, change_basis
from .io import CorpusEntry, parse_definition

ALGEBRAS = ("g121", "g22", "n1")

#: labels kept (in order) when restricting the 20-element table to its
#: 13-element subalgebra, and the renames applied afterwards.
N1_RESTRICTION_LABELS = (
    "H", "D", "K", "P~", "U", "G~", "P", "G", "Q1", "S1", "Pi1", "Lam1", "X1",
)
N1_RESTRICTION_RENAME = {"Q1": "Q", "S1": "S", "Pi1": "Pi", "Lam1": "Lam", "X1": "X"}

_FILES = {
    "g121.dmodule": "g121_dmodule.txt",
    "g121.table": "g121_table.txt",
    "g121.pm": "g121_pm.txt",
    "g121.weights": "g121_weights.txt",
    "g121.vectorfield": "g121_vecfield.txt",
    "g22.dmodule": "g22_dmodule.txt",
    "g22.table": "g22_table.txt",
    "g22.pm": "g22_pm.txt",
    "g22.weights": "g22_weights.txt",
    "g22.vectorfield": "g22_vecfield.txt",
    "n1.dmodule": "n1_dmodule.txt",
    "n1.weights": "n1_weights.txt",
    "n1.vectorfield": "n1_vecfield.txt",
}

_DERIVED = ("g121.basis", "g22.basis", "n1.basis",
            "g121.table_pm", "g22.table_pm", "n1.table")


class UnknownId(KeyError):
    """Raised when an entry id is not in the corpus."""

    def __init__(self, entry_id: str):
        super().__init__(entry_id)
        self.entry_id = entry_id

    def __str__(self) -> str:
        return f"unknown corpus id {self.entry_id!r} (known: {', '.join(ids())})"


def ids() -> tuple[str, ...]:
    """All entry ids, file-backed and derived, in stable order."""
    return tuple(sorted((*_FILES, *_DERIVED)))


def _read_text(name: str) -> str:
    return pkgutil.get_data(__package__, f"defs/{name}").decode("utf-8")


@lru_cache(maxsize=None)
def load(entry_id: str) -> CorpusEntry:
    """The frozen corpus entry for the given id."""
    if entry_id in _FILES:
        entry = parse_definition(_read_text(_FILES[entry_id]))
        if entry.id != entry_id.split(".", 1)[0]:
            raise AssertionError(
                f"corpus file {_FILES[entry_id]} declares algebra {entry.id!r}")
        return CorpusEntry(entry_id, entry.kind, entry.payload, entry.notes)
    if entry_id == "n1.table":
        base = load("g121.table").payload["table"]
        table = base.restrict(N1_RESTRICTION_LABELS, N1_RESTRICTION_RENAME)
        return CorpusEntry(entry_id, "table", {"table": table},
                           "Mechanical restriction of g121.table to the first "
                           "member of each doubled family.")
    if entry_id in ("g121.table_pm", "g22.table_pm"):
        alg = entry_id.split(".", 1)[0]
        table = load(f"{alg}.table").payload["table"]
        pm = load(f"{alg}.pm").payload
        if pm["old_basis"] != table.basis:
            raise AssertionError(f"{alg}.pm source basis disagrees with {alg}.table")
        new_table = change_basis(table, pm["new_basis"], pm["matrix"])
        return CorpusEntry(entry_id, "table", {"table": new_table},
                           f"{alg}.table rewritten in the p/m basis of {alg}.pm.")
    if entry_id.endswith(".basis") and entry_id.split(".", 1)[0] in ALGEBRAS:
        alg = entry_id.split(".", 1)[0]
        basis = load(f"{alg}.table").payload["table"].basis
        return CorpusEntry(entry_id, "grading", {"basis": basis},
                           f"Degree assignment of the {alg} basis.")
    raise UnknownId(entry_id)


def table(algebra: str, basis: str = "standard") -> BracketTable:
    """The reference table of an algebra, in the standard or p/m basis."""
    if algebra not in ALGEBRAS:
        raise UnknownId(f"{algebra}.table")
    if basis == "standard":
        return load(f"{algebra}.table").payload["table"]
    if basis == "pm":
        return load(f"{algebra}.table_pm").payload["table"]
    raise ValueError(f"unknown basis {basis!r} (expected 'standard' or 'pm')")


def realization_basis(algebra: str, which: str) -> str:
    """The basis a corpus realization is written in: ``standard`` or ``pm``.

    The d-module realizations use the standard basis.  The vector-field
    realizations, and the weights computed for them, use the p/m basis
    for the doubled algebras and the standard basis for ``n1``.
    """
    return "pm" if which == "vectorfield" and algebra != "n1" else "standard"


def realization(algebra: str, which: str) -> tuple[Realization, BracketTable]:
    """A corpus realization, ``dmodule`` or ``vectorfield``, plus the table
    it is checked against, in the basis of :func:`realization_basis`."""
    if algebra not in ALGEBRAS:
        raise UnknownId(f"{algebra}.{which}")
    if which not in ("dmodule", "vectorfield"):
        raise ValueError(f"unknown realization {which!r} "
                         "(expected 'dmodule' or 'vectorfield')")
    real = load(f"{algebra}.{which}").payload["realization"]
    return real, table(algebra, realization_basis(algebra, which))


def weights_entry(algebra: str) -> CorpusEntry:
    """The weights entry of an algebra (p/m basis for g121/g22)."""
    return load(f"{algebra}.weights")

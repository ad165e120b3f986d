"""The benchmark's workloads: which CLI invocations run, on which inputs,
and the oracle each verdict is checked against.

Oracles come from ``plain`` (plain ``fractions`` code reading the corpus
definition files) and from the known answers of the acceptance criteria;
none of them runs the code path under test.  Seeded inputs are built
with the program's own ``Realization.transform`` and ``emit_definition``
or with ``plain.write_table``, written into a scratch directory, and
passed to the program with ``--file``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import plain

ALGEBRAS = ("g121", "g22", "n1")
DEFS = Path("src") / "colorlie" / "defs"

#: why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "reconstruct": "extract on corpus and seeded basis-changed presentations: the exact "
                   "solver does most of the work here and almost none elsewhere",
    "referee": "verify of every corpus realization and jacobi on g22, with JSON and --jobs 2 "
               "twins: operator brackets dominate and the solver does no work",
    "audit": "jacobi on every corpus table and on seeded failing mutants: only the table "
             "layer and scalars run, from zero to hundreds of residuals",
    "catalog": "export, weights and split of every corpus entry: start-up, import, parsing, "
               "change_basis and the printers dominate",
}

#: the five g22.vectorfield pairs that do not match (acceptance criterion 7).
G22_VF_BAD = {frozenset(p) for p in (("K", "Jp"), ("K", "Fp"), ("Fp", "Qp"),
                                      ("Fp", "Sp"), ("Sm", "Xp"))}


@dataclass
class Invocation:
    name: str
    args: list
    check: Callable[[int, str], Optional[str]]  # (exit code, stdout) -> reason or None
    golden: bool = True                         # stdout pinned in golden.json
    twin: Optional[str] = None                  # serial twin of a --jobs 2 run
    corpus_ids: tuple = ()                      # corpus entries it reads


@dataclass
class Workload:
    name: str
    invocations: list
    corpus_ids: list
    files: list = field(default_factory=list)   # generated inputs
    problems: list = field(default_factory=list)  # oracle self-check failures

    def input_hashes(self) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.files}


# -- the reference data, read from the definition files by plain code --------

class Reference:
    """Tables, basis changes and weights of the corpus, from plain parsing."""

    def __init__(self, root: Path):
        self.root = root
        self.tables = {}
        for alg in ("g121", "g22"):
            self.tables[(alg, "standard")] = plain.read_table(self.text(f"{alg}_table.txt"))
            old, new, rows = plain.read_basis_change(self.text(f"{alg}_pm.txt"))
            basis, constants = self.tables[(alg, "standard")]
            if old != basis:
                raise ValueError(f"{alg}.pm source basis differs from {alg}.table")
            self.tables[(alg, "pm")] = (new, plain.change_basis(basis, constants, rows))
        basis, constants = self.tables[("g121", "standard")]
        self.tables[("n1", "standard")] = plain.restrict(
            basis, constants,
            ("H", "D", "K", "P~", "U", "G~", "P", "G", "Q1", "S1", "Pi1", "Lam1", "X1"),
            {"Q1": "Q", "S1": "S", "Pi1": "Pi", "Lam1": "Lam", "X1": "X"})

    def text(self, name: str) -> str:
        return (self.root / DEFS / name).read_text(encoding="utf-8")

    def realization_table(self, alg: str, which: str):
        basis = "pm" if which == "vectorfield" and alg != "n1" else "standard"
        return self.tables[(alg, basis)]


def _file_of(entry_id: str) -> str:
    alg, view = entry_id.split(".")
    return f"{alg}_{'vecfield' if view == 'vectorfield' else view}.txt"


# -- verdict checks ----------------------------------------------------------

def _lines(stdout: str):
    return stdout.rstrip("\n").split("\n")


def check_table_text(expected):
    """extract prints the table: every stored entry must equal the oracle's."""
    basis, constants = expected

    def check(code, stdout):
        if code != 0:
            return f"exit {code}, expected a table"
        try:
            got = plain.table_from_lines(basis, [l for l in _lines(stdout) if l])
        except (ValueError, KeyError) as exc:
            return f"unparsable table: {exc}"
        return _diff_tables(basis, constants, got)
    return check


def _diff_tables(basis, want, got):
    if want == got:
        return None
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            i, j = key
            return f"entry [{basis[i][0]}, {basis[j][0]}] differs from the oracle"
    return "tables differ"


def check_no_closure(code, stdout):
    """g22.vectorfield does not close: the verdict is a nonzero exit, no table."""
    if code == 0:
        return "extract printed a table for a realization that does not close"
    return None


def check_verify(pairs: int, bad: set, fmt: str = "text"):
    def check(code, stdout):
        if code != (1 if bad else 0):
            return f"exit {code}"
        if fmt == "json":
            data = json.loads(stdout)
            checked = data["checked"]
            found = {frozenset(item["labels"]) for item in data["discrepancies"]}
            residuals = [item["residual"] for item in data["discrepancies"]]
        else:
            lines = _lines(stdout)
            match = re.search(r"(\d+) unordered pairs (verified|checked)", lines[0])
            checked = int(match.group(1)) if match else -1
            entries = [re.match(r"\s+\[([^,\]]+), ([^\]]+)\] expected .*; residual (.*)$", l)
                       for l in lines[1:]]
            if not all(entries):
                return "unparsable discrepancy line"
            found = {frozenset(m.group(1, 2)) for m in entries}
            residuals = [m.group(3) for m in entries]
        if checked != pairs:
            return f"{checked} pairs checked, expected {pairs}"
        if found != bad:
            return f"discrepant pairs {sorted(map(sorted, found))} differ from the oracle"
        if bad and not all("D(z)" in r for r in residuals):
            return "residual not localised to D(z)"
        return None
    return check


def check_jacobi(triples: int, failing: set, fmt: str = "text"):
    def check(code, stdout):
        if code != (1 if failing else 0):
            return f"exit {code}"
        if fmt == "json":
            data = json.loads(stdout)
            checked = data["checked"]
            found = {tuple(item["labels"]) for item in data["discrepancies"]}
        else:
            lines = _lines(stdout)
            match = re.search(r": (\d+) triples (verified|checked)", lines[0])
            checked = int(match.group(1)) if match else -1
            entries = [re.match(r"\s+\[([^,\]]+), ([^,\]]+), ([^\]]+)\] expected 0;", l)
                       for l in lines[1:]]
            if not all(entries):
                return "unparsable failure line"
            found = {m.group(1, 2, 3) for m in entries}
        if checked != triples:
            return f"{checked} triples checked, expected {triples}"
        if found != failing:
            return f"{len(found)} failing triples, oracle has {len(failing)}"
        return None
    return check


def check_weights(weights: dict, order: list):
    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        got = {}
        for line in _lines(stdout)[1:]:
            label, _, rhs = line.strip().partition(" = ")
            got[label] = tuple(plain.parse_number(v) for v in rhs.strip()[1:-1].split(","))
        want = {label: weights[label] for label in order}
        return None if got == want else "weights differ from the oracle"
    return check


def check_split(split: dict):
    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        got = {}
        for line in _lines(stdout)[1:]:
            key, _, rest = line.strip().partition(":")
            got[key] = sorted(rest.split())
        want = {key: sorted(split[key]) for key in ("positive", "zero", "negative")}
        return None if got == want else "split differs from the oracle"
    return check


def _realization_shape(text: str):
    """Basis, variables and the sorted operator labels of a realization file."""
    parts = plain.sections(text)
    labels = [line.partition("=")[0].strip()
              for line in parts["operators"] + parts.get("derived", [])]
    variables = plain.read_basis(parts["variables"]) if "variables" in parts else None
    return plain.read_basis(parts["basis"]), sorted(labels), variables


#: what plain code reads back from a definition file of each kind
READERS = {
    "table": plain.read_table,
    "basis-change": plain.read_basis_change,
    "weights": plain.read_weights,
    "grading": lambda text: plain.read_basis(plain.sections(text)["basis"]),
    "d-module": _realization_shape,
    "vector-field": _realization_shape,
}


def check_definition(kind: str, expected):
    """export --format definition: re-read the output with plain code."""
    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        if f"kind {kind}" not in plain.sections(stdout)[""]:
            return "wrong kind line"
        try:
            got = READERS[kind](stdout)
        except (ValueError, KeyError) as exc:
            return f"unparsable definition: {exc}"
        return None if got == expected else "definition differs from the oracle"
    return check


def check_table_json(expected):
    basis, constants = expected

    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        data = json.loads(stdout)
        got_basis = [(item["label"], tuple(item["degree"])) for item in data["basis"]]
        index = {label: k for k, (label, _) in enumerate(basis)}
        got = {}
        for item in data["brackets"]:
            entry = {}
            for piece in item["value"]:
                (rn, rd), (inn, ind) = piece["coeff"][0]["re"], piece["coeff"][0]["im"]
                entry[index[piece["target"]]] = (Fraction(rn, rd), Fraction(inn, ind))
            got[(index[item["left"]], index[item["right"]])] = entry
        if got_basis != basis:
            return "basis differs from the oracle"
        return _diff_tables(basis, constants, got)
    return check


def check_table_latex(expected):
    """LaTeX output: one aligned line per stored entry, with its bracket kind."""
    basis, constants = expected
    anti = sum(1 for (i, j) in constants if plain.sign(basis[i][1], basis[j][1]) == -1)

    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        lines = [l for l in _lines(stdout) if "&=" in l]
        if len(lines) != len(constants):
            return f"{len(lines)} aligned lines, oracle has {len(constants)} entries"
        if sum(1 for l in lines if l.startswith("\\{")) != anti:
            return "anticommutator count differs from the oracle"
        return None
    return check


# -- workload construction -----------------------------------------------------

def _realization_ids(alg: str, which: str) -> tuple:
    table = f"{alg}.table_pm" if which == "vectorfield" and alg != "n1" else f"{alg}.table"
    return (f"{alg}.{which}", table)


def _basis_change(basis, rng: random.Random):
    """A degree-preserving unitriangular Gaussian-integer matrix I + N, N^2 = 0.

    In each degree block the later half of the elements (the sources)
    each take two of the earlier half (the targets, which stay fixed), so
    the matrix is unitriangular and its inverse is I - N.  The pattern is
    fixed and the seed draws only unit coefficients (1, -1, i, -i), so
    every seed costs the program the same work.
    """
    n = len(basis)
    matrix = [[plain.ONE if i == j else plain.ZERO for j in range(n)] for i in range(n)]
    coeffs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for degree in sorted({d for _, d in basis}):
        block = [k for k, (_, d) in enumerate(basis) if d == degree]
        half = len(block) - len(block) // 2
        targets, sources = block[:half], block[half:]
        for k, s in enumerate(sources):
            for t in {targets[k % half], targets[(k + 1) % half]}:
                re_, im = rng.choice(coeffs)
                matrix[s][t] = (Fraction(re_), Fraction(im))
    return matrix


def _seeded_basis_change(ref: Reference, alg: str, rng, outdir: Path, problems):
    """Write a basis-changed d-module of ``alg`` and return (path, oracle table)."""
    from colorlie import corpus
    from colorlie.algebra import change_basis
    from colorlie.io import CorpusEntry, emit_definition
    from colorlie.scalars import GaussianRational, Scalar

    basis, constants = ref.tables[(alg, "standard")]
    matrix = _basis_change(basis, rng)
    expected = plain.change_basis(basis, constants, matrix)
    real = corpus.load(f"{alg}.dmodule").payload["realization"]
    scalars = [[Scalar.constant(GaussianRational(v[0], v[1])) for v in row] for row in matrix]
    new_real = real.transform(real.basis, scalars)
    entry = CorpusEntry(alg, "d-module", {
        "basis": real.basis, "realization": new_real,
        "operator_order": [label for label, _ in real.basis], "derived": []},
        f"Seeded unitriangular basis change of {alg}.dmodule.")
    path = outdir / f"{alg}_dmodule_changed.txt"
    path.write_text(emit_definition(entry), encoding="utf-8")
    # cross-check the plain oracle against the program's change_basis
    table = corpus.table(alg)
    theirs = change_basis(table, table.basis, scalars)
    converted = {key: {t: (c.constant_value().re, c.constant_value().im) for t, c in entry_}
                 for key, entry_ in theirs.constants.items()}
    if converted != expected:
        problems.append(f"plain M.T.M^-1 of {alg} disagrees with algebra.change_basis")
    return path, (basis, expected)


def _seeded_mutant(ref: Reference, alg: str, rng, outdir: Path):
    """Scale three stored constants of ``alg``.table; return (path, failing triples)."""
    basis, constants = ref.tables[(alg, "standard")]
    mutated = {key: dict(entry) for key, entry in constants.items()}
    factors = [(2, 0), (-1, 0), (3, 0), (0, 1), (Fraction(1, 2), 0), (-2, 0)]
    for key in rng.sample(sorted(mutated), 3):
        target = rng.choice(sorted(mutated[key]))
        re_, im = rng.choice(factors)
        mutated[key][target] = plain.gmul(mutated[key][target], (Fraction(re_), Fraction(im)))
    path = outdir / f"{alg}_table_mutant.txt"
    path.write_text(plain.write_table(alg, basis, mutated,
                                      "Seeded mutant: three structure constants scaled."),
                    encoding="utf-8")
    return path, plain.jacobi_failures(basis, mutated)


def _corpus_jacobi(ref: Reference, alg: str, basis_name: str, jobs2: bool) -> list:
    """jacobi on a corpus table, which satisfies graded Jacobi; and its --jobs 2 twin."""
    n = len(ref.tables[(alg, basis_name)][0])
    name = f"jacobi {alg} {basis_name}"
    args = ["jacobi", "--algebra", alg, "--basis", basis_name]
    ids = (f"{alg}.table_pm",) if basis_name == "pm" else (f"{alg}.table",)
    invs = [Invocation(name, args, check_jacobi(n ** 3, set()), corpus_ids=ids)]
    if jobs2:
        invs.append(Invocation(f"{name} jobs2", args + ["--jobs", "2"], check_jacobi(n ** 3, set()),
                               twin=name, corpus_ids=ids))
    return invs


def build(name: str, seed: int, root: Path, outdir: Path) -> Workload:
    """The invocations of one workload, with their seeded inputs written to outdir."""
    rng = random.Random(f"{name}:{seed}")
    ref = Reference(root)
    invs: list = []
    files: list = []
    problems: list = []

    if name == "reconstruct":
        for alg, which in (("g121", "dmodule"), ("g22", "dmodule"), ("n1", "dmodule"),
                           ("g121", "vectorfield"), ("g22", "vectorfield")):
            args = ["extract", "--algebra", alg, "--realization", which]
            if (alg, which) == ("g22", "vectorfield"):
                invs.append(Invocation(f"extract {alg} {which}", args, check_no_closure,
                                       golden=False, corpus_ids=_realization_ids(alg, which)))
            else:
                invs.append(Invocation(f"extract {alg} {which}", args,
                                       check_table_text(ref.realization_table(alg, which)),
                                       corpus_ids=_realization_ids(alg, which)))
        for alg in ("g121", "g22"):
            path, expected = _seeded_basis_change(ref, alg, rng, outdir, problems)
            files.append(path)
            invs.append(Invocation(f"extract {alg} dmodule basis-changed",
                                   ["extract", "--file", str(path)],
                                   check_table_text(expected), golden=False))
    elif name == "referee":
        for alg in ALGEBRAS:
            for which in ("dmodule", "vectorfield"):
                basis, _ = ref.realization_table(alg, which)
                n = len(basis)
                bad = G22_VF_BAD if (alg, which) == ("g22", "vectorfield") else set()
                args = ["verify", "--algebra", alg, "--realization", which]
                ids = _realization_ids(alg, which)
                invs.append(Invocation(f"verify {alg} {which}", args,
                                       check_verify(n * (n + 1) // 2, bad), corpus_ids=ids))
                if bad:
                    invs.append(Invocation(f"verify {alg} {which} json", args + ["--format", "json"],
                                           check_verify(n * (n + 1) // 2, bad, "json"),
                                           corpus_ids=ids))
                    invs.append(Invocation(f"verify {alg} {which} jobs2", args + ["--jobs", "2"],
                                           check_verify(n * (n + 1) // 2, bad),
                                           twin=f"verify {alg} {which}", corpus_ids=ids))
        invs += _corpus_jacobi(ref, "g22", "standard", jobs2=True)
    elif name == "audit":
        for alg, basis_name in (("g121", "standard"), ("g121", "pm"), ("g22", "standard"),
                                ("g22", "pm"), ("n1", "standard")):
            invs += _corpus_jacobi(ref, alg, basis_name,
                                   jobs2=(alg, basis_name) == ("g22", "standard"))
        for alg in ("g121", "g22"):
            path, failing = _seeded_mutant(ref, alg, rng, outdir)
            files.append(path)
            n = len(ref.tables[(alg, "standard")][0])
            for fmt in ("text", "json"):
                invs.append(Invocation(f"jacobi {alg} mutant {fmt}",
                                       ["jacobi", "--file", str(path), "--format", fmt],
                                       check_jacobi(n ** 3, failing, fmt), golden=False))
    elif name == "catalog":
        ids = sorted(f"{alg}.{view}" for alg in ALGEBRAS
                     for view in ("basis", "dmodule", "table", "pm", "table_pm", "weights",
                                  "vectorfield")
                     if not (alg == "n1" and view in ("pm", "table_pm")))
        for entry_id in ids:
            alg, view = entry_id.split(".")
            if view in ("table", "table_pm"):
                expected = ref.tables[(alg, "pm" if view == "table_pm" else "standard")]
                kind = "table"
                invs.append(Invocation(f"export {entry_id} json",
                                       ["export", "--entry", entry_id, "--format", "json"],
                                       check_table_json(expected), corpus_ids=(entry_id,)))
                invs.append(Invocation(f"export {entry_id} latex",
                                       ["export", "--entry", entry_id, "--format", "latex"],
                                       check_table_latex(expected), corpus_ids=(entry_id,)))
            elif view == "basis":
                kind, expected = "grading", ref.tables[(alg, "standard")][0]
            else:
                kind = {"pm": "basis-change", "weights": "weights", "dmodule": "d-module",
                        "vectorfield": "vector-field"}[view]
                expected = READERS[kind](ref.text(_file_of(entry_id)))
            invs.append(Invocation(f"export {entry_id}", ["export", "--entry", entry_id],
                                   check_definition(kind, expected), corpus_ids=(entry_id,)))
        for alg in ALGEBRAS:
            _, weights, split = plain.read_weights(ref.text(f"{alg}_weights.txt"))
            basis = ref.tables[(alg, "standard" if alg == "n1" else "pm")][0]
            ids = (f"{alg}.weights", f"{alg}.table" if alg == "n1" else f"{alg}.table_pm")
            invs.append(Invocation(f"weights {alg}", ["weights", "--algebra", alg],
                                   check_weights(weights, [l for l, _ in basis]), corpus_ids=ids))
            invs.append(Invocation(f"split {alg}", ["split", "--algebra", alg],
                                   check_split(split), corpus_ids=ids))
    else:
        raise ValueError(f"unknown workload {name!r}")

    rng.shuffle(invs)
    corpus_ids = sorted({i for inv in invs for i in inv.corpus_ids})
    return Workload(name, invs, corpus_ids, files, problems)

"""End-to-end CLI behavior: exit codes, output formats, parallel determinism."""

import json
from importlib.resources import files

import pytest

from colorlie import corpus
from colorlie.algebra import extract_structure_constants
from colorlie.cli import main
from colorlie.io import parse_definition, table_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOOD_REALIZATION = """algebra demo
kind vector-field

variables:
  x1 (0,0)

basis:
  A (0,0)
  B (0,0)

operators:
  A = -D(x1)
  B = -x1*D(x1)
"""

GOOD_TABLE = """algebra demo
kind table

basis:
  A (0,0)
  B (0,0)

table:
  [A, B] = -A
"""

BAD_TABLE = GOOD_TABLE.replace("= -A", "= A")

BROKEN_JACOBI_TABLE = """algebra demo
kind table

basis:
  A (0,0)
  B (0,0)
  C (0,0)
  E (0,0)

table:
  [A, B] = C
  [C, E] = A
"""


def test_verify_corpus_realization_ok(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "n1",
                         "--realization", "dmodule")
    assert code == 0 and err == ""
    assert out == ("n1 dmodule vs n1 table (standard): "
                   "13 generators, 91 unordered pairs verified\n")


def test_verify_file_pair_ok(capsys, tmp_path):
    real_path = tmp_path / "real.txt"
    table_path = tmp_path / "table.txt"
    real_path.write_text(GOOD_REALIZATION)
    table_path.write_text(GOOD_TABLE)
    code, out, err = run(capsys, "verify", "--file", str(real_path),
                         "--table", str(table_path))
    assert code == 0
    assert "2 generators, 3 unordered pairs verified" in out


def test_g22_vector_field_closes_with_the_sign_its_notes_name(capsys, tmp_path):
    # the notes of defs/g22_vecfield.txt: "Replacing the term -thp*D(z) in Fp by
    # +thp*D(z) makes all 300 brackets close exactly"
    text = (files("colorlie") / "defs" / "g22_vecfield.txt").read_text(encoding="utf-8")
    old = "2*i*thp*thm*D(psip) - thp*D(z))"
    assert text.count(old) == 1
    fixed = tmp_path / "g22_fixed.txt"
    fixed.write_text(text.replace(old, "2*i*thp*thm*D(psip) + thp*D(z))"))
    code, out, err = run(capsys, "verify", "--file", str(fixed), "--table", "g22.table_pm")
    assert (code, out, err) == (
        0, f"{fixed} vs g22.table_pm: 24 generators, 300 unordered pairs verified\n", "")
    real = parse_definition(fixed.read_text()).payload["realization"]
    assert extract_structure_constants(real) == corpus.table("g22", "pm")


def test_verify_reports_discrepancies(capsys, tmp_path):
    real_path = tmp_path / "real.txt"
    table_path = tmp_path / "table.txt"
    real_path.write_text(GOOD_REALIZATION)
    table_path.write_text(BAD_TABLE)
    code, out, err = run(capsys, "verify", "--file", str(real_path),
                         "--table", str(table_path))
    assert code == 1
    assert "3 unordered pairs checked, 1 discrepancies" in out
    assert "[A, B]" in out and "residual" in out


def test_verify_json_report(capsys, tmp_path):
    real_path = tmp_path / "real.txt"
    table_path = tmp_path / "table.txt"
    real_path.write_text(GOOD_REALIZATION)
    table_path.write_text(BAD_TABLE)
    code, out, err = run(capsys, "verify", "--file", str(real_path),
                         "--table", str(table_path), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["checked"] == 3
    assert data["discrepancies"][0]["labels"] == ["A", "B"]


def test_verify_usage_and_basis_mismatch(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 2 and err.startswith("error:")
    # the vector-field realization lives in the p/m basis; the standard
    # table is not directly comparable
    code, out, err = run(capsys, "verify", "--algebra", "g121",
                         "--realization", "vectorfield", "--table", "g121.table")
    assert code == 2 and "different bases" in err


def test_verify_missing_table_for_file(capsys, tmp_path):
    real_path = tmp_path / "real.txt"
    real_path.write_text(GOOD_REALIZATION)
    code, out, err = run(capsys, "verify", "--file", str(real_path))
    assert code == 2 and "--table" in err


def test_verify_parse_error_names_position(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("algebra demo\nkind table\n\nbasis:\n  A 0,0\n")
    code, out, err = run(capsys, "verify", "--file", str(bad), "--table", "x")
    assert code == 2
    assert f"{bad}:5:3:" in err


@pytest.mark.parametrize("argv", [["jacobi"], ["extract"], ["verify", "--table", "g22.table"]],
                         ids=["jacobi", "extract", "verify"])
def test_non_utf8_file_is_a_read_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"algebra x\nkind table\n\xff\n")
    code, out, err = run(capsys, *argv, "--file", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_deep_nesting_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "deep.txt"
    bad.write_text(GOOD_TABLE.replace("= -A", "= -" + "(" * 300 + "A" + ")" * 300))
    code, out, err = run(capsys, "jacobi", "--file", str(bad))
    assert (code, out) == (2, "")
    assert f"{bad}:9:77: parentheses nest deeper than 64" in err


DMODULE = """algebra demo
kind d-module

basis:
  A (0,0)
  B (0,0)

operators:
  A = 2*dt
  B = t
"""


@pytest.mark.parametrize("argv, text, old, new, where", [
    (["extract"], DMODULE, "2*dt", "2²*dt", "9:8: unexpected character '²'"),
    (["jacobi"], GOOD_TABLE, "-A", "B + A²", "9:17: unexpected character '²'"),
    (["jacobi"], GOOD_TABLE, "-A", "٣*A", "9:12: unexpected character '٣'"),
    (["extract"], DMODULE, "A (0,0)", "A² (0,0)", "5:3: expected 'basis element (a1,a2)'"),
], ids=["superscript-operator", "superscript-table", "arabic-indic-digit", "superscript-label"])
def test_non_ascii_digits_and_labels_are_parse_errors(capsys, tmp_path, argv, text, old, new,
                                                      where):
    # digits and identifiers are ASCII: a superscript two is not an exponent,
    # an Arabic-Indic three is not 3, and a label no expression could name is refused
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--file", str(bad))
    assert (code, out) == (2, "")
    assert f"{bad}:{where}" in err


def test_an_integer_past_the_digit_limit_is_a_parse_error(capsys, tmp_path):
    # Python refuses int() of a decimal string over 4,300 digits by default
    bad = tmp_path / "bad.txt"
    bad.write_text(DMODULE.replace("2*dt", "9" * 5000 + "*dt"))
    code, out, err = run(capsys, "extract", "--file", str(bad))
    assert (code, out) == (2, "")
    assert f"{bad}:9:7: 5000-digit integer is too long" in err


@pytest.mark.parametrize("suffix, accent", [("~", r"\tilde"), ("bar", r"\bar")],
                         ids=["tildes", "bars"])
def test_a_long_chain_of_label_accents_prints_in_latex(capsys, tmp_path, suffix, accent):
    label = "H" + suffix * 1200
    real_path = tmp_path / "real.txt"
    real_path.write_text(DMODULE.replace("A", label).replace("B", "K").replace("2*dt", "dt")
                         .replace("= t", "= t*dt"))
    code, out, err = run(capsys, "extract", "--file", str(real_path), "--format", "latex")
    assert (code, err) == (0, "")
    assert "[" + (accent + "{") * 1200 + "H" + "}" * 1200 + ", K] &= " in out


def test_extract_matches_reference_table(capsys, monkeypatch):
    reference = table_to_dict(corpus.table("n1"))

    def refuse(*args):
        raise AssertionError("extract has no use for a table")
    monkeypatch.setattr(corpus, "table", refuse)
    code, out, err = run(capsys, "extract", "--algebra", "n1",
                         "--realization", "dmodule", "--format", "json")
    assert code == 0
    assert json.loads(out) == reference


def test_extract_from_file(capsys, tmp_path):
    real_path = tmp_path / "real.txt"
    real_path.write_text(GOOD_REALIZATION)
    code, out, err = run(capsys, "extract", "--file", str(real_path))
    assert code == 0
    assert out == "[A,B] = -A\n"


_AB = "  A (0,0)\n  B (0,0)\n"
# failure cases that need more basis elements than A and B
_BASES = {"DegreeViolation": _AB + "  P (1,1)\n"}


def _dmodule(operators: str, basis: str = _AB) -> str:
    return "algebra demo\nkind d-module\n\nbasis:\n" + basis + "\noperators:\n" + operators


@pytest.mark.parametrize("operators, error, reason", [
    ("  A = t^2*dt\n  B = dt\n", "ClosureFailure",
     "bracket of A and B leaves the basis span; residual "
     + " + ".join(f"e({k},{k})*(-2*t*dt)" for k in range(1, 5))),
    ("  A = dt\n  B = 2*dt\n", "DependentBasis",
     "the basis operators are linearly dependent (only 1 independent coordinates for 2 columns)"),
    ("  A = dt\n  B = lam*t*dt\n", "LambdaDependence",
     "bracket of A and B needs lam-dependent coefficients"),
    ("  A = t*dx\n  B = dt\n  P = dx\n", "DegreeViolation",
     "bracket of A and B has degree (0,0) but targets P of degree (1,1)"),
])
def test_extract_failures_are_reported(capsys, tmp_path, operators, error, reason):
    real_path = tmp_path / "real.txt"
    real_path.write_text(_dmodule(operators, _BASES.get(error, _AB)))
    code, out, err = run(capsys, "extract", "--file", str(real_path))
    assert code == 1 and err == ""
    assert out == f"{real_path}: extraction failed\n  {reason}\n"
    code, out, err = run(capsys, "extract", "--file", str(real_path), "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["ok"] is False and data["error"] == error
    assert data["pair"] == (None if error == "DependentBasis" else ["A", "B"])
    code, out, err = run(capsys, "extract", "--file", str(real_path), "--format", "latex")
    assert code == 1 and reason in out and "Traceback" not in out + err


def test_columns_dependent_at_every_lam_point_leave_the_span(capsys, tmp_path):
    # B = lam*A is independent of A over the constants but dependent at every
    # value of lam, so no sample point decides, and [A, C] = 1 leaves the span.
    real_path = tmp_path / "real.txt"
    real_path.write_text(_dmodule("  A = dt\n  B = lam*dt\n  C = t\n", _AB + "  C (0,0)\n"))
    code, out, err = run(capsys, "extract", "--file", str(real_path))
    assert (code, err) == (1, "")
    assert out == (f"{real_path}: extraction failed\n  bracket of A and C leaves the basis span;"
                   " residual " + " + ".join(f"e({k},{k})*(1)" for k in range(1, 5)) + "\n")


@pytest.mark.parametrize("text", [
    _dmodule("  A = t\n  B = x\n\nderived:\n  C = [A, B]\n", _AB + "  C (0,1)\n"),
    "algebra demo\nkind vector-field\n\nvariables:\n  x1 (0,0)\n\nbasis:\n  A (0,0)\n"
    "  C (0,1)\n\noperators:\n  A = D(x1)\n\nderived:\n  C = [A, A]\n",
], ids=["d-module", "vector-field"])
def test_a_vanishing_derived_bracket_takes_its_declared_degree(capsys, tmp_path, text):
    # C = 0 is declared (0,1); the realization holds it, and extract finds it dependent
    real_path = tmp_path / "real.txt"
    real_path.write_text(text)
    code, out, err = run(capsys, "extract", "--file", str(real_path))
    assert (code, err) == (1, "")
    assert out.startswith(f"{real_path}: extraction failed\n"
                          "  the basis operators are linearly dependent")
    assert parse_definition(text).payload["realization"].op("C").degree == (0, 1)


@pytest.mark.parametrize("entries, where, reason", [
    ("  [A, A] = 0\n    [B, A] = lam*A\n", "11:5", "structure constant for (A,B) depends on lam"),
    ("  [A, A] = 0\n  [A, B] = P\n", "11:3",
     "bracket of A and B has degree (0,0) but targets P of degree (1,1)"),
    ("  [A, B] = -A\n  [B, B] = B\n", "11:3", "[[B, B]] is a commutator and must vanish"),
], ids=["lam", "target-degree", "commuting-square"])
def test_table_entry_errors_point_at_the_entry(capsys, tmp_path, entries, where, reason):
    table_path = tmp_path / "table.txt"
    table_path.write_text("algebra demo\nkind table\n\nbasis:\n  A (0,0)\n  B (0,0)\n"
                          "  P (1,1)\n\ntable:\n" + entries)
    code, out, err = run(capsys, "jacobi", "--file", str(table_path))
    assert (code, out) == (2, "")
    assert f"{table_path}:{where}: {reason}" in err


def test_a_wrong_degree_entry_reads_alike_in_jacobi_and_extract(capsys, tmp_path):
    # the table [A, B] = P and the d-module whose bracket solves onto P
    reason = "bracket of A and B has degree (0,0) but targets P of degree (1,1)"
    table_path = tmp_path / "table.txt"
    table_path.write_text("algebra demo\nkind table\n\nbasis:\n" + _BASES["DegreeViolation"]
                          + "\ntable:\n  [A, B] = P\n")
    code, out, err = run(capsys, "jacobi", "--file", str(table_path))
    assert (code, out, err) == (2, "", f"error: {table_path}:10:3: {reason}\n")
    real_path = tmp_path / "real.txt"
    real_path.write_text(_dmodule("  A = t*dx\n  B = dt\n  P = dx\n", _BASES["DegreeViolation"]))
    code, out, err = run(capsys, "extract", "--file", str(real_path))
    assert (code, out, err) == (1, f"{real_path}: extraction failed\n  {reason}\n", "")


@pytest.mark.parametrize("targets, first", [
    ("  P (1,1)\n  Q (0,1)\n", "P of degree (1,1)"),
    ("  Q (0,1)\n  P (1,1)\n", "Q of degree (0,1)"),
], ids=["P-first", "Q-first"])
def test_a_degree_violation_names_the_first_wrong_target_in_basis_order(
        capsys, tmp_path, targets, first):
    # [A, B] = -P - Q, and neither P nor Q has the degree (0,0) of the bracket
    real_path = tmp_path / "real.txt"
    real_path.write_text(_dmodule("  A = t*dx + t*x*dx\n  B = dt\n  P = dx\n  Q = x*dx\n",
                                  _AB + targets))
    code, out, err = run(capsys, "extract", "--file", str(real_path))
    reason = f"bracket of A and B has degree (0,0) but targets {first}"
    assert (code, out, err) == (1, f"{real_path}: extraction failed\n  {reason}\n", "")


def test_an_id_outside_the_identifier_rule_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(GOOD_TABLE.replace("algebra demo", "algebra démo"), encoding="utf-8")
    code, out, err = run(capsys, "jacobi", "--file", str(bad))
    assert (code, out) == (2, "")
    assert f"{bad}:1:9: 'démo' is not an id" in err


def test_extract_reports_a_coefficient_rational_in_lam(capsys, tmp_path):
    # [A, B] = dx = C/(lam-1): the span closes over rational functions of lam,
    # no constant combination gives dx, and at lam = 1 the column of C vanishes
    real_path = tmp_path / "real.txt"
    real_path.write_text(_dmodule("  A = dt\n  B = t*dx\n  C = (lam-1)*dx\n", _AB + "  C (0,0)\n"))
    code, out, err = run(capsys, "extract", "--file", str(real_path))
    assert (code, err) == (1, "")
    assert out == (f"{real_path}: extraction failed\n"
                   "  bracket of A and B needs lam-dependent coefficients\n")
    code, out, err = run(capsys, "extract", "--file", str(real_path), "--format", "json")
    data = json.loads(out)
    assert code == 1 and data["error"] == "LambdaDependence" and data["pair"] == ["A", "B"]


def test_extract_usage_error(capsys):
    code, out, err = run(capsys, "extract")
    assert code == 2 and "extract needs" in err


def test_jacobi_corpus_table(capsys):
    code, out, err = run(capsys, "jacobi", "--algebra", "n1")
    assert code == 0
    assert out == "graded Jacobi on n1 table (standard): 2197 triples verified\n"


def test_jacobi_failure_names_triple(capsys, tmp_path):
    table_path = tmp_path / "table.txt"
    table_path.write_text(BROKEN_JACOBI_TABLE)
    code, out, err = run(capsys, "jacobi", "--file", str(table_path))
    assert code == 1
    assert "64 triples checked" in out and "failures" in out
    assert "[A, B, E]" in out


def test_weights_text_and_json(capsys):
    code, out, err = run(capsys, "weights", "--algebra", "n1")
    assert code == 0
    assert out.splitlines()[0] == "n1 weights (standard basis) under (D)"
    assert "  H = (1)" in out
    code, out, err = run(capsys, "weights", "--algebra", "n1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["weights"]["H"] == ["1"]
    assert data["weights"]["Q"] == ["1/2"]


def test_weights_wrong_basis_rejected(capsys):
    # weights and split take no --basis: each algebra's weights have one basis
    for command in ("weights", "split"):
        code, out, err = run(capsys, command, "--algebra", "g121", "--basis", "pm")
        assert code == 2 and "--basis" in err


def test_split_matches_weights_entry(capsys):
    for algebra in corpus.ALGEBRAS:
        code, out, err = run(capsys, "split", "--algebra", algebra)
        assert code == 0
        lines = dict(line.strip().split(": ", 1) for line in out.splitlines()[1:])
        reference = corpus.weights_entry(algebra).payload["split"]
        for bucket in ("positive", "zero", "negative"):
            assert sorted(lines[bucket].split()) == sorted(reference[bucket])


def test_split_json(capsys):
    code, out, err = run(capsys, "split", "--algebra", "n1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data["split"]["zero"]) == {"D", "U", "X"}


def test_export_definition_reparses(capsys):
    code, out, err = run(capsys, "export", "--entry", "n1.vectorfield")
    assert code == 0
    entry = parse_definition(out)
    assert entry.kind == "vector-field"
    assert entry.payload["realization"] == corpus.load(
        "n1.vectorfield").payload["realization"]


def test_export_table_formats(capsys):
    code, out, err = run(capsys, "export", "--entry", "n1.table",
                         "--format", "json")
    assert code == 0
    assert json.loads(out) == table_to_dict(corpus.table("n1"))
    code, out, err = run(capsys, "export", "--entry", "n1.table",
                         "--format", "latex")
    assert code == 0
    assert "\\begin{align*}" in out
    code, out, err = run(capsys, "export", "--entry", "g121.table_pm",
                         "--format", "text")
    assert code == 0 and "[D," in out


def test_export_rejects_non_table_format_mix(capsys):
    code, out, err = run(capsys, "export", "--entry", "n1.vectorfield",
                         "--format", "text")
    assert code == 2 and "expected a table" in err


def test_export_unknown_entry(capsys):
    code, out, err = run(capsys, "export", "--entry", "n1.nope")
    assert code == 2 and "unknown corpus id" in err


def test_argparse_errors_return_2(capsys):
    assert run(capsys, "jacobi", "--algebra", "so3")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "--jobs", "0")[0] == 2


def test_parallel_output_is_deterministic(capsys):
    base = run(capsys, "verify", "--algebra", "n1", "--realization", "dmodule",
               "--jobs", "1")
    multi = run(capsys, "verify", "--algebra", "n1", "--realization", "dmodule",
                "--jobs", "3")
    assert base == multi


def test_jacobi_parallel_matches_serial(capsys):
    serial = run(capsys, "jacobi", "--algebra", "n1", "--jobs", "1")
    parallel = run(capsys, "jacobi", "--algebra", "n1", "--jobs", "4")
    assert serial == parallel == (
        0, "graded Jacobi on n1 table (standard): 2197 triples verified\n", "")


def test_export_help_points_to_no_missing_option(capsys):
    code, out, err = run(capsys, "export", "--help")
    assert code == 0 and "--list" not in out and "an unknown id" in out

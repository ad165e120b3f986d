"""End-to-end CLI behavior: exit codes, output formats, parallel determinism."""

import json

import pytest

from colorlie import corpus
from colorlie.cli import main
from colorlie.io import parse_definition, table_from_json


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


def test_extract_matches_reference_table(capsys):
    code, out, err = run(capsys, "extract", "--algebra", "n1",
                         "--realization", "dmodule", "--format", "json")
    assert code == 0
    assert table_from_json(out) == corpus.table("n1")


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
    assert table_from_json(out) == corpus.table("n1")
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

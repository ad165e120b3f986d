"""Grammar, error reporting, and round-trip behavior of the io module."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from colorlie.algebra import BracketTable
from colorlie.grading import Degree
from colorlie.grassmann import VarContext
from colorlie.lincomb import signed_sum, term_text
from colorlie.cli import main
from colorlie.io import (_MAX_NESTING, _MIXING, CorpusEntry, ParseError, _coeff_latex, _combo_latex,
                         emit_definition, emit_report, emit_table, label_to_latex,
                         parse_combination, parse_definition, parse_operator_expr,
                         table_to_dict, tokenize)
from colorlie.matop import MatDiffOp
from colorlie.scalars import GaussianRational, Scalar
from colorlie.vecfield import GradedDiffOp, partial
from colorlie import weyl


CTX = VarContext([("x1", Degree(0, 0)), ("psi", Degree(0, 1)),
                  ("th", Degree(1, 0)), ("z", Degree(1, 1))])


def test_scalar_expressions():
    assert parse_operator_expr("3/4") == Scalar.constant(Fraction(3, 4))
    assert parse_operator_expr("-i") == Scalar.constant(GaussianRational(0, -1))
    assert parse_operator_expr("2*lam + 1") == (
        Scalar.lam_power(1, 2) + Scalar.constant(1))
    assert parse_operator_expr("(1+i)*(1-i)") == Scalar.constant(2)
    assert parse_operator_expr("lam^2") == Scalar.lam_power(2)


def test_matrix_operator_expression():
    op = parse_operator_expr("e(1,3) + e(4,2) + (e(2,4) + e(3,1))*dt")
    assert isinstance(op, MatDiffOp)
    assert op.entries[0][2] == weyl.DiffOp.constant(1)
    assert op.entries[1][3] == weyl.DiffOp.monomial(dt=1)


def test_graded_operator_expression():
    op = parse_operator_expr("-D(psi) + 1/2*psi*D(x1)", context=CTX)
    assert isinstance(op, GradedDiffOp)
    assert op == (-partial(CTX, "psi")) + partial(CTX, "x1").lmul(
        CTX.poly("psi")).scale(Fraction(1, 2))


def test_implicit_multiplication_and_powers():
    a = parse_operator_expr("2t dx", )
    b = parse_operator_expr("2*t*dx")
    assert a == b
    c = parse_operator_expr("t^2*dt")
    d = parse_operator_expr("t*t*dt")
    assert c == d


def test_operator_reference_in_later_definition():
    text = """algebra demo
kind vector-field

variables:
  x1 (0,0)

basis:
  A (0,0)
  B (0,0)

operators:
  A = -D(x1)
  B = -2*x1*A
"""
    entry = parse_definition(text)
    real = entry.payload["realization"]
    ctx = entry.payload["context"]
    expected = partial(ctx, "x1").lmul(ctx.poly("x1")).scale(2)
    assert real.op("B") == expected


def test_mixing_matrix_and_graded_atoms_rejected():
    with pytest.raises(ParseError, match="mix"):
        parse_operator_expr("dt + D(psi)", context=CTX)


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError, match="unknown"):
        parse_operator_expr("nope + dt")


def test_error_carries_line_and_column():
    bad = """algebra demo
kind table

basis:
  H (0,0)

table:
  [H, H] = 3 +
"""
    with pytest.raises(ParseError) as err:
        parse_definition(bad)
    assert err.value.line == 8
    assert err.value.col >= 11
    assert "line 8" in str(err.value)


@pytest.mark.parametrize("kind, section, line, col", [
    ("d-module", "operators:\n  A = dt $ 2", 8, 10),
    ("table", "table:\n  [A, A] = 3 +", 8, 15),
    ("table", "table:\n  [A, A] = A  + 3", 8, 15),
])
def test_error_column_is_the_offending_character(kind, section, line, col):
    # indentation and the spaces after '=' count toward the column; a sum
    # that cannot be formed is located at its operator
    text = f"algebra demo\nkind {kind}\n\nbasis:\n  A (0,0)\n\n{section}\n"
    with pytest.raises(ParseError) as err:
        parse_definition(text)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("kind, basis, section, line, col, reason", [
    ("table", "  A (0,0)", "table:\n  [A, C] = A", 8, 7, "unknown basis label 'C'"),
    ("table", "  A (0,0)\n   B (0,2)", "table:\n  [A, A] = A", 6, 4, "expected 'basis element"),
    ("table", "  A (0,1)", "table:\n  [A, A] = A", 8, 3, "must be written {A, B}"),
    ("d-module", "  A (0,0)", "operators:\n  A dt", 8, 3, "expected 'name = expression'"),
], ids=["unknown-label", "basis-line", "delimiter", "no-equals"])
def test_whole_line_errors_point_past_the_indentation(kind, basis, section, line, col, reason):
    # checks that judge a whole line or its bracket head report the column
    # where that text starts, not column 1
    text = f"algebra demo\nkind {kind}\n\nbasis:\n{basis}\n\n{section}\n"
    with pytest.raises(ParseError) as err:
        parse_definition(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert reason in err.value.reason


@pytest.mark.parametrize("kind, section", [
    ("table", "table:\n  [A, B] = {open}A{close}"),
    ("d-module", "operators:\n  A = {open}1 + dt{close}\n  B = dx"),
], ids=["table", "operators"])
def test_deep_nesting_is_refused_at_the_parenthesis_past_the_bound(kind, section):
    # the corpus nests 3 deep; past the bound the parser stops at the '('
    # rather than recursing until Python's recursion limit
    template = f"algebra demo\nkind {kind}\n\nbasis:\n  A (0,0)\n  B (0,0)\n\n{section}\n"
    ok = template.format(open="(" * _MAX_NESTING, close=")" * _MAX_NESTING)
    assert parse_definition(ok).kind == kind
    for depth in (_MAX_NESTING + 1, 300, 5000):
        text = template.format(open="(" * depth, close=")" * depth)
        with pytest.raises(ParseError, match="nest deeper") as err:
            parse_definition(text)
        first = text.splitlines()[8].index("(") + 1
        assert (err.value.line, err.value.col) == (9, first + _MAX_NESTING)


def test_tokens_carry_the_line_and_column_of_their_first_character():
    # blanks take a column each and a comment none, so the end of a
    # commented line sits at its '#'
    tokens = tokenize("2x1 # note\n  D(z)^2", 4, 7)
    assert [tuple(token) for token in tokens] == [
        ("int", 2, 4, 7), ("ident", "x1", 4, 8),
        ("ident", "D", 5, 3), ("sym", "(", 5, 4), ("ident", "z", 5, 5), ("sym", ")", 5, 6),
        ("sym", "^", 5, 7), ("int", 2, 5, 8), ("end", "", 5, 9)]
    assert tokenize("P~' # c")[-1] == ("end", "", 1, 5)
    with pytest.raises(ParseError, match="unexpected character '²'") as err:
        tokenize("t\n x²")
    assert (err.value.line, err.value.col) == (2, 3)


def test_zero_expression_parses():
    op = parse_operator_expr("0")
    assert op.is_zero


def test_scalar_promotion_with_identity():
    op = parse_operator_expr("2 + dt")
    ident = weyl.DiffOp.constant(2)
    assert op.entries[0][0] == ident + weyl.DiffOp.monomial(dt=1)
    assert op.entries[1][1] == ident + weyl.DiffOp.monomial(dt=1)


def test_scalar_promotes_over_a_defined_graded_operator():
    # the scalar takes the operator's own variables; no context is passed
    op = parse_operator_expr("2 + A", definitions={"A": partial(CTX, "x1")})
    assert op == parse_operator_expr("2 + D(x1)", context=CTX)


def test_parse_combination():
    combo = parse_combination("2*A - B + 1/2*C~", ["A", "B", "C~"])
    assert combo == {"A": Scalar.constant(2), "B": Scalar.constant(-1),
                     "C~": Scalar.constant(Fraction(1, 2))}
    with pytest.raises(ParseError):
        parse_combination("A*B", ["A", "B"])


def test_reserved_words_rejected_as_labels():
    bad = """algebra demo
kind table

basis:
  lam (0,0)

table:
"""
    with pytest.raises(ParseError, match="reserved"):
        parse_definition(bad)


def test_duplicate_table_entry_rejected():
    bad = """algebra demo
kind table

basis:
  A (0,0)
  B (0,0)

table:
  [A, B] = A
  [B, A] = -A
"""
    with pytest.raises(ParseError, match="duplicate"):
        parse_definition(bad)


def test_table_orientation_normalized():
    text = """algebra demo
kind table

basis:
  Q (1,0)
  X (1,1)
  P (0,1)

table:
  [P, Q] = -X
"""
    table = parse_definition(text).payload["table"]
    # stored at (Q, P) with the graded-antisymmetry flip applied
    assert table.bracket_by_label("Q", "P") == ((1, Scalar.constant(1)),)


def test_definition_round_trips_all_kinds():
    from colorlie import corpus
    for entry_id in corpus.ids():
        entry = corpus.load(entry_id)
        text = emit_definition(entry)
        again = parse_definition(text)
        assert again.kind == entry.kind, entry_id
        if entry.kind == "table":
            assert again.payload["table"] == entry.payload["table"], entry_id
        elif entry.kind in ("d-module", "vector-field"):
            a, b = again.payload["realization"], entry.payload["realization"]
            assert a.basis == b.basis and a == b, entry_id
            assert again.payload["operator_order"] == entry.payload["operator_order"]
            assert again.payload["derived"] == entry.payload["derived"]
        else:
            assert again.payload == entry.payload, entry_id


def test_table_json_round_trip():
    from colorlie import corpus
    table = corpus.table("n1")
    text = emit_table(table, "json")
    assert json.loads(text) == table_to_dict(table)
    data = table_to_dict(table)
    assert data["basis"][0] == {"label": "H", "degree": [0, 0]}


def test_table_text_contains_expected_line():
    from colorlie import corpus
    text = emit_table(corpus.table("n1"), "text")
    assert "{P,P} = P~" in text.replace(", ", ",")


def test_complex_coefficients_print_in_one_pair_of_parentheses():
    """str(GaussianRational) already wraps a complex value; the term printer adds none."""
    one_plus_2i = GaussianRational(1, 2)
    assert str(one_plus_2i * weyl.DT) == "(1+2*i)*dt"
    assert str(weyl.DT * GaussianRational(-1, -1) - weyl.T) == "(-1-i)*dt-t"
    assert str(one_plus_2i * partial(CTX, "psi")) == "(1+2*i)*D(psi)"
    lam_sum = Scalar.lam_power(1, GaussianRational(1, 1)) + Scalar.constant(2)
    assert str(lam_sum * weyl.DT) == "((1+i)*lam+2)*dt"
    for op in (one_plus_2i * weyl.DT, lam_sum * weyl.DT + GaussianRational(0, 3) * weyl.X):
        assert parse_operator_expr(str(op)) == MatDiffOp({(r, r, mono): c for r in range(4)
                                                          for mono, c in op.terms.items()})
    graded = one_plus_2i * partial(CTX, "psi")
    assert parse_operator_expr(str(graded), context=CTX) == graded


def test_empty_table_emits_empty_sections():
    table = BracketTable([("A", Degree(0, 0))], {})
    assert emit_table(table, "text").strip() == ""
    assert "\\begin{align*}" not in emit_table(table, "latex")


def test_latex_labels():
    from colorlie.io import label_to_latex
    assert label_to_latex("P~") == r"\tilde{P}"
    assert label_to_latex("Rbar") == r"\bar{R}"
    assert label_to_latex("Qp") == "Q_{+}"
    assert label_to_latex("Lamm") == r"\Lambda_{-}"
    assert label_to_latex("Pi1") == r"\Pi_{1}"


def _rational_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return sign + r"\tfrac{%d}{%d}" % (abs(value.numerator), value.denominator)


def _gaussian_latex(value: GaussianRational) -> str:
    """The LaTeX coefficient written out part by part: the oracle for _coeff_latex."""
    if not value.im:
        return _rational_latex(value.re)
    imag = "i" if value.im == 1 else "-i" if value.im == -1 else _rational_latex(value.im) + "i"
    return signed_sum([_rational_latex(value.re), imag]) if value.re else imag


_PARTS = st.one_of(st.sampled_from([0, 1, -1]),
                   st.fractions(min_value=-50, max_value=50, max_denominator=40))
_LATEX_LABELS = [("H", Degree(0, 0)), ("Qp", Degree(0, 1)), ("P~", Degree(1, 0)),
                 ("Lam1", Degree(1, 1))]


@given(st.lists(st.builds(GaussianRational, _PARTS, _PARTS),
                min_size=1, max_size=len(_LATEX_LABELS)))
def test_latex_coefficients_print_as_the_oracle(values):
    for value in values:  # alone, as the one term printer would place it
        assert term_text(_coeff_latex(value), []) == term_text(_gaussian_latex(value), [])
    table = BracketTable(_LATEX_LABELS, {})
    entry = [(t, value) for t, value in enumerate(values) if value]
    assert _combo_latex(table, entry) == signed_sum(
        term_text(_gaussian_latex(value), [label_to_latex(_LATEX_LABELS[t][0])], "")
        for t, value in entry)


def test_report_emitters():
    from colorlie.algebra import Discrepancy, DiscrepancyReport
    report = DiscrepancyReport("demo", 3, [
        Discrepancy("bracket", ("A", "B"), "0", "C", "C")])
    text = emit_report(report, "text", "3 pairs", "discrepancies")
    assert text == "demo: 3 pairs checked, 1 discrepancies\n  [A, B] expected 0; computed C; residual C\n"
    assert emit_report(report._replace(entries=()), "text", "3 pairs", "discrepancies") \
        == "demo: 3 pairs verified\n"
    js = emit_report(report, "json", "3 pairs", "discrepancies")
    assert '"ok": false' in js
    tex = emit_report(report, "latex", "3 pairs", "discrepancies")
    assert tex.startswith("% demo: 3 checks, 1 discrepancies\n" r"\begin{itemize}")


WEIGHTS = """algebra g22
kind weights

grading-operators:
  D Rbar

weights:
  H = (1, 0)
  D = (0, 0)

split:
  positive: H
  zero: D
"""


@pytest.mark.parametrize("old, new, line, col, word", [
    ("  D Rbar", "  D H²", 5, 5, "H²"),
    ("  H = (1, 0)", "  A² = (1, 0)", 8, 3, "A²"),
    ("  zero: D", "  zero: D Zé", 13, 11, "Zé"),
    ("algebra g22", "algebra démo", 1, 9, "démo"),
    ("algebra g22", "algebra g22.", 1, 9, "g22."),
], ids=["grading-operator", "weight-label", "split-label", "id", "id-trailing-dot"])
def test_weights_labels_and_ids_follow_the_identifier_rule(old, new, line, col, word):
    with pytest.raises(ParseError) as info:
        parse_definition(WEIGHTS.replace(old, new, 1))
    assert (info.value.line, info.value.col) == (line, col)
    assert info.value.reason.startswith(f"{word!r} is not")


@pytest.mark.parametrize("old, new, line, col, reason", [
    ("  D Rbar", "", 8, 7, "expected 0 weight components, found 2"),
    ("  D = (0, 0)", "  D = (0)", 9, 7, "expected 2 weight components, found 1"),
    ("  zero: D", "  zero: D Zed", 13, 11, "split label 'Zed' has no weight line"),
    ("  zero: D", "  zero: D H", 13, 11, "split label 'H' is listed twice"),
    ("  zero: D", "  zero: D D", 13, 11, "split label 'D' is listed twice"),
    ("  zero: D", "  zero:", 9, 3, "weight label 'D' is in no split bucket"),
    ("  D Rbar", "  D Rbar D", 5, 10, "duplicate grading operator 'D'"),
], ids=["no-grading-operators", "short-tuple", "split-label-without-weight",
        "split-label-in-two-buckets", "split-label-twice-in-one-bucket",
        "weight-label-in-no-bucket", "grading-operator-twice"])
def test_weights_need_one_component_per_grading_operator_and_split_labels_with_weights(
        old, new, line, col, reason):
    with pytest.raises(ParseError) as info:
        parse_definition(WEIGHTS.replace(old, new, 1))
    assert (info.value.reason, info.value.line, info.value.col) == (reason, line, col)


def test_dotted_ids_parse_and_round_trip():
    entry = parse_definition(WEIGHTS.replace("algebra g22", "algebra g22.table_pm", 1))
    assert entry.id == "g22.table_pm"
    assert entry.payload["grading_labels"] == ["D", "Rbar"]
    assert entry.payload["split"] == {"positive": ["H"], "zero": ["D"], "negative": []}
    assert parse_definition(emit_definition(entry)) == entry


def _parses_back(text: str, op):
    """The printed operator reads back as the operator, up to its degree metadata."""
    parsed = parse_operator_expr(text, getattr(op, "ctx", None))
    assert type(parsed) is type(op)
    assert parsed.with_degree(op.degree) == op
    assert str(parsed) == text


def test_printed_residuals_parse_back():
    from pathlib import Path
    from colorlie import corpus
    from colorlie.algebra import ClosureFailure, extract_structure_constants, verify_realization
    golden = Path(__file__).parent / "golden"

    def read(name):
        return parse_definition((golden / name).read_text(encoding="utf-8")).payload

    # verify: a matrix realization against a wrong table, and the corpus's graded one
    for real, table in ((read("dmodule.txt")["realization"], read("bad_table.txt")["table"]),
                        corpus.realization("g22", "vectorfield")):
        report = verify_realization(real, table)
        assert report.entries
        for item in report.entries:
            computed = residual = real.bracket(*item.labels)
            for target, coeff in table.bracket_by_label(*item.labels):
                residual = residual - real.op(table.basis[target][0]).scale(coeff)
            _parses_back(item.computed, computed)
            _parses_back(item.residual, residual)

    # extract: brackets that leave the span of operators they share no terms with
    for head, operators in (("kind d-module\n", "  A = t^2*dt\n  B = dt\n"),
                            ("kind vector-field\n\nvariables:\n  x1 (0,0)\n",
                             "  A = D(x1)\n  B = x1^2*D(x1)\n")):
        real = parse_definition("algebra demo\n" + head + "\nbasis:\n  A (0,0)\n  B (0,0)\n"
                                "\noperators:\n" + operators).payload["realization"]
        with pytest.raises(ClosureFailure) as info:
            extract_structure_constants(real)
        _parses_back(info.value.residual, real.bracket("A", "B"))


def _entry(kind: str, *sections: str) -> str:
    """A definition file: the head lines, then each section after a blank line."""
    return f"algebra demo\nkind {kind}\n" + "".join(f"\n{section}\n" for section in sections)


_AB = "basis:\n  A (0,0)\n  B (0,0)"  # lines 4-6, so the next section's first line is 9
_Y = "variables:\n  y (0,0)"  # before _AB, the operators' first line is 12
_D = "grading-operators:\n  D"  # the weights' first line is 8


@pytest.mark.parametrize("text, where", [
    (_entry("vector-field", _Y, _AB, "operators:\n  A = y*t\n  B = y"), "12:8: " + _MIXING),
    (_entry("d-module", _AB, "operators:\n  A = e(x,1)"), "9:9: expected an integer"),
    (_entry("d-module", _AB, "operators:\n  A = dt)"), "9:9: unexpected ')' after expression"),
    (_entry("d-module", _AB, "operators:\n  A = 1/0*dt"), "9:9: division by zero"),
    (_entry("vector-field", _Y, _AB, "operators:\n  A = D(1)"),
     "12:9: expected a variable name inside D(...)"),
    (_entry("table", _AB, "table:\n  [A, B] = e(1,2)"),
     "9:12: e(i,j) is not allowed in a bracket-table entry"),
    (_entry("table", _AB, "table:\n  [A, B] = t"), "9:12: 't' is not allowed in a bracket-table entry"),
    (_entry("d-module", _AB, "operators:\n  A = e(5,1)"),
     "9:7: elementary matrix indices run from 1 to 4"),
    (_entry("d-module", _AB, "operators:\n  A = D(y)"), "9:7: D(...) needs declared variables"),
    (_entry("vector-field", _Y, _AB, "operators:\n  A = D(q)"), "12:7: unknown variable 'q'"),
    (_entry("table", _AB, "table:\n  [A, B] = 2"),
     "9:12: a table entry must be 0 or a combination of basis labels"),
    (_entry("d-module", _AB, "operators:\n  A = dt\n  C = dt"), "10:3: 'C' is not in the basis"),
    (_entry("d-module", _AB, "operators:\n  A = dt\n  A = t"), "10:3: 'A' is defined twice"),
    (_entry("table", "basis:\n  A (0,0)\n  A (0,1)"), "6:3: duplicate label 'A'"),
    (_entry("table", _AB, "table:\n  [A, B} = 0"), "9:3: mismatched bracket delimiters"),
    (_entry("table", _AB, "operators:\n  A = dt"),
     "8:1: section 'operators' does not belong in a table entry"),
    (_entry("table", _AB, "basis:\n  C (0,0)"), "8:1: duplicate section 'basis'"),
    (_entry("d-module", _AB), "1:1: the d-module entry has no 'operators' section"),
    # the one check that a matrix realization's derived bracket has its declared degree
    (_entry("d-module", "basis:\n  A (0,0)\n  B (0,1)\n  C (0,0)", "operators:\n  A = t\n  B = dt",
            "derived:\n  C = [A, B]"), "14:7: C evaluates to degree (0,1), basis says (0,0)"),
    (_entry("vector-field", _Y, _AB, "operators:\n  A = dt"),
     "12:7: a vector-field entry defines graded vector fields"),
    (_entry("d-module", _AB, "operators:\n  A = dt"), "1:1: basis elements without definitions: B"),
    ("algebra demo\n", "1:1: expected 'algebra <id>' and 'kind <kind>' head lines"),
    (_entry("nope", _AB),
     "2:1: unknown kind 'nope' (expected one of d-module, vector-field, table, grading, "
     "basis-change, weights)"),
    (_entry("basis-change", "source-basis:\n  A (0,0)", _AB,
            "combos:\n  A = A"), "1:1: new basis elements without combos: B"),
    (_entry("weights", _D, "weights:\n  H = (1)\n  H = (1)"), "9:3: duplicate weight line for 'H'"),
    (_entry("weights", _D, "weights:\n  H = (1)", "split:\n  positive H"),
     "11:3: expected 'positive|zero|negative: labels...'"),
    (_entry("weights", _D, "weights:\n  H = (1)", "split:\n  upper: H"),
     "11:3: unknown split bucket 'upper'"),
    (_entry("weights", _D, "weights:\n  H = (dt)"), "8:8: weight components must be scalars"),
    # a weight is an eigenvalue of ad Z, so it is a constant
    (_entry("weights", "grading-operators:\n  D Z", "weights:\n  H = (1, 2*lam)"),
     "8:11: weight components must not depend on lam"),
], ids=["mixed-product", "integer", "closing-parenthesis", "division-by-zero", "D-argument",
        "table-elem", "table-t", "elem-index", "D-without-variables", "unknown-variable",
        "table-scalar", "label-outside-basis", "defined-twice", "duplicate-label", "delimiters",
        "foreign-section", "duplicate-section", "missing-section", "derived-degree",
        "matrix-in-vector-field", "undefined-basis", "head-lines", "unknown-kind",
        "missing-combo", "duplicate-weight", "split-colon", "split-bucket", "weight-operator",
        "weight-lam"])
def test_each_reader_error_names_its_line_column_and_reason(capsys, tmp_path, text, where):
    with pytest.raises(ParseError) as info:
        parse_definition(text)
    assert f"{info.value.line}:{info.value.col}: {info.value.reason}" == where
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    command = "jacobi" if text.startswith("algebra demo\nkind table\n") else "extract"
    assert main([command, "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}:{where}\n")

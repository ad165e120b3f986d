"""Malformed definition files end in ParseError, never in another exception.

Corpus definition files are mutated by deleting, inserting, replacing and
duplicating spans, by swapping lines, and by inserting runs of up to 600
'(', past the parser's nesting bound and Python's recursion limit.
``parse_definition`` must then either succeed or raise ParseError, which
the CLI maps to exit code 2.
A mutant that parses must also round-trip through ``emit_definition``.
A leak it found, a scalar added to an operator of another degree, is
pinned below.  Inserted and replacing text holds no '^': a large power of
a sum is valid input that takes unbounded time until exponents are
bounded (ROADMAP 5(b)).
"""

import re
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from colorlie.io import _MAX_NESTING, ParseError, emit_definition, parse_definition

TEXTS = [path.read_text(encoding="utf-8")
         for path in sorted((resources.files("colorlie") / "defs").iterdir(), key=str)
         if path.name.endswith(".txt")]
#: ends in non-ASCII characters, which no digit or identifier may hold
ALPHABET = "0123456789+-*/(),:=[]{}#~' \n\tabcdeilmptxzDHKPQRSX_²٣é"


@st.composite
def mutated_definitions(draw):
    text = draw(st.sampled_from(TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "insert", "replace", "duplicate", "swap", "nest")))
        at = draw(st.integers(0, len(text)))
        width = draw(st.integers(1, 12))
        if kind == "delete":
            text = text[:at] + text[at + width:]
        elif kind == "insert":
            text = text[:at] + draw(st.text(ALPHABET, min_size=1, max_size=3)) + text[at:]
        elif kind == "replace":
            text = text[:at] + draw(st.sampled_from(ALPHABET)) + text[at + 1:]
        elif kind == "nest":  # just after the next '=', where an expression starts
            at = text.find("=", at) + 1
            text = text[:at] + "(" * draw(st.sampled_from((1, 3, 64, 65, 300, 600))) + text[at:]
        elif kind == "duplicate":
            text = text[:at + width] + text[at:]
        else:
            lines = text.split("\n")
            i, j = at % len(lines), (at + width) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_definitions())
def test_only_parse_error_escapes(text):
    try:
        entry = parse_definition(text)
    except ParseError:
        return
    emitted = emit_definition(entry)
    assert emit_definition(parse_definition(emitted)) == emitted


#: (text, offset just past the '=' of an expression line, not a comment or a bracket)
EXPRESSION_STARTS = [(text, match.end()) for text in TEXTS
                     for match in re.finditer(r"^[ \t]+[^#\n=]*=(?![ \t]*[{\[])", text, re.M)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EXPRESSION_STARTS), st.integers(_MAX_NESTING - 3, 600))
def test_unclosed_parentheses_end_in_parse_error(start, depth):
    text, at = start
    with pytest.raises(ParseError) as err:
        parse_definition(text[:at] + " " + "(" * depth + text[at:])
    if depth > _MAX_NESTING:
        assert "nest deeper" in err.value.reason


@pytest.mark.parametrize("text, line", [
    ("algebra demo\nkind vector-field\n\nvariables:\n  z (1,1)\n\nbasis:\n  A (1,1)\n\n"
     "operators:\n  A = 1 - D(z)\n", 11),
    ("algebra demo\nkind d-module\n\nbasis:\n  P (0,1)\n  A (0,1)\n\n"
     "operators:\n  P = dx\n  A = 1 + P\n", 10),
])
def test_scalar_plus_operator_of_another_degree(text, line):
    # the scalar promotes to degree (0,0), so the sum is refused where it stands
    with pytest.raises(ParseError, match=r"cannot add operators of degrees \(0,0\)") as info:
        parse_definition(text)
    assert info.value.line == line

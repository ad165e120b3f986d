"""Text and JSON interchange for operators, tables, and definition files.

Operator expressions use a small grammar shared by every file kind::

    expression := ("+" | "-")? term (("+" | "-") term)*
    term       := factor ("*"? factor)*
    factor     := atom ("^" INT)?
    atom       := INT ("/" INT)?
                | "i" | "lam" | "t" | "x" | "dt" | "dx"
                | "e" "(" INT "," INT ")"
                | "D" "(" IDENT ")"
                | IDENT
                | "(" expression ")"

`t, x, dt, dx, e(i,j)` build matrix differential operators; `D(v)` and
declared variable names build graded differential operators; a bare
IDENT otherwise refers to a previously defined operator or, inside a
bracket-table entry, to a basis label.  Mixing matrix and graded atoms
in one expression is an error.  Scalars promote when combined with an
operator (`2 + H` means `2*identity + H`).

Definition files hold one algebra entry each: `algebra <id>` and
`kind <kind>` head lines, then sections introduced by a header at
column 0 (`basis:`, `operators:`, `derived:`, `table:`, `variables:`,
`source-basis:`, `combos:`, `grading-operators:`, `weights:`,
`split:`, `notes:`).  Lines starting with `#` are comments.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .grading import Degree, koszul_sign
from .lincomb import add_into, signed_sum, term_text
from .scalars import GaussianRational, Scalar, as_scalar
from . import matop, vecfield, weyl
from .algebra import AlgebraError, BracketTable, DiscrepancyReport, Realization
from .grassmann import VarContext
from .matop import MatDiffOp
from .vecfield import GradedDiffOp
from .weyl import DiffOp


class ParseError(ValueError):
    """A syntax or resolution error, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


# ---------------------------------------------------------------------------
# lexer

RESERVED = ("i", "lam", "t", "x", "dt", "dx", "e", "D")

_IDENT_START = re.compile(r"[A-Za-z_]")
_IDENT_CONT = re.compile(r"[A-Za-z0-9_~']")
_SYMBOLS = "+-*/^(),"


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "sym" | "end"
    value: object
    line: int
    col: int


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """Lex an expression fragment; (line, col) locate its first character."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdigit():
            start = i
            start_col = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("int", int(text[start:i]), line, start_col))
        elif _IDENT_START.match(ch):
            start = i
            start_col = col
            while i < n and _IDENT_CONT.match(text[i]):
                i += 1
                col += 1
            tokens.append(Token("ident", text[start:i], line, start_col))
        elif ch in _SYMBOLS:
            tokens.append(Token("sym", ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# expression parser (tokens -> AST)
#
# AST nodes are tuples tagged by their first element:
#   ("num", Fraction, pos)      ("atom", name, pos)     name in RESERVED[:6]
#   ("elem", i, j, pos)         ("partial", var, pos)   ("name", label, pos)
#   ("neg", node)               ("add", a, b)  ("sub", a, b)  ("mul", a, b)
#   ("pow", node, exponent, pos)


class _ExprParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_sym(self, symbol: str) -> Token:
        token = self.peek()
        if token.kind != "sym" or token.value != symbol:
            raise ParseError(f"expected {symbol!r}", token.line, token.col)
        return self.advance()

    def at_sym(self, symbol: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.value == symbol

    # -- grammar ----------------------------------------------------------
    def parse_expression(self):
        node = None
        negate = False
        if self.at_sym("+") or self.at_sym("-"):
            negate = self.advance().value == "-"
        node = self.parse_term()
        if negate:
            node = ("neg", node)
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance().value
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            if self.at_sym("*"):
                self.advance()
                node = ("mul", node, self.parse_factor())
            elif self._starts_factor():
                node = ("mul", node, self.parse_factor())
            else:
                return node

    def _starts_factor(self) -> bool:
        token = self.peek()
        return token.kind in ("int", "ident") or (token.kind == "sym" and token.value == "(")

    def parse_factor(self):
        node = self.parse_atom()
        if self.at_sym("^"):
            caret = self.advance()
            token = self.peek()
            if token.kind != "int":
                raise ParseError("expected an integer exponent after '^'", token.line, token.col)
            self.advance()
            node = ("pow", node, token.value, (caret.line, caret.col))
        return node

    def parse_atom(self):
        token = self.peek()
        pos = (token.line, token.col)
        if token.kind == "int":
            self.advance()
            value = Fraction(token.value)
            if self.at_sym("/"):
                self.advance()
                denom = self.peek()
                if denom.kind != "int":
                    raise ParseError("expected an integer denominator", denom.line, denom.col)
                self.advance()
                if denom.value == 0:
                    raise ParseError("division by zero", denom.line, denom.col)
                value = Fraction(token.value, denom.value)
            return ("num", value, pos)
        if token.kind == "ident":
            name = token.value
            self.advance()
            # "e" and "D" are keywords only when immediately applied to "(";
            # otherwise they are ordinary names (D is a common basis label).
            if name == "e" and self.at_sym("("):
                self.expect_sym("(")
                i = self._expect_int()
                self.expect_sym(",")
                j = self._expect_int()
                self.expect_sym(")")
                return ("elem", i, j, pos)
            if name == "D" and self.at_sym("("):
                self.expect_sym("(")
                inner = self.peek()
                if inner.kind != "ident":
                    raise ParseError("expected a variable name inside D(...)", inner.line, inner.col)
                self.advance()
                self.expect_sym(")")
                return ("partial", inner.value, pos)
            if name in ("i", "lam", "t", "x", "dt", "dx"):
                return ("atom", name, pos)
            return ("name", name, pos)
        if token.kind == "sym" and token.value == "(":
            self.advance()
            node = self.parse_expression()
            self.expect_sym(")")
            return node
        raise ParseError(f"expected a value, found {token.value!r}" if token.kind != "end"
                         else "unexpected end of expression", token.line, token.col)

    def _expect_int(self) -> int:
        token = self.peek()
        if token.kind != "int":
            raise ParseError("expected an integer", token.line, token.col)
        self.advance()
        return token.value

    def expect_end(self):
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected {token.value!r} after expression", token.line, token.col)


# ---------------------------------------------------------------------------
# evaluation
#
# Values are tagged: ("s", Scalar) | ("m", MatDiffOp) | ("g", GradedDiffOp)
# | ("c", {label: Scalar}).


class _Env:
    def __init__(self, context=None, definitions=None, labels=None):
        self.ctx = context
        self.defs = dict(definitions or {})
        self.labels = None if labels is None else list(labels)


def _wrap(obj):
    if isinstance(obj, MatDiffOp):
        return ("m", obj)
    if isinstance(obj, GradedDiffOp):
        return ("g", obj)
    return ("s", as_scalar(obj))


_MIXING = "expression mixes matrix tokens (t, x, dt, dx, e(i,j)) with graded-variable tokens"


def _eval(node, env: _Env):
    tag = node[0]
    if tag == "num":
        return ("s", as_scalar(node[1]))
    if tag == "atom":
        name, pos = node[1], node[2]
        if name == "i":
            return ("s", Scalar.constant(GaussianRational(0, 1)))
        if name == "lam":
            return ("s", Scalar.lam_power(1))
        if env.labels is not None:
            raise ParseError(f"{name!r} is not allowed in a bracket-table entry", *pos)
        base = {"t": weyl.T, "x": weyl.X, "dt": weyl.DT, "dx": weyl.DX}[name]
        return ("m", matop.scalar_op(base))
    if tag == "elem":
        _, i, j, pos = node
        if env.labels is not None:
            raise ParseError("e(i,j) is not allowed in a bracket-table entry", *pos)
        try:
            return ("m", matop.elem(i, j))
        except ValueError as exc:
            raise ParseError(str(exc), *pos) from None
    if tag == "partial":
        _, name, pos = node
        if env.ctx is None:
            raise ParseError("D(...) needs declared variables", *pos)
        if name not in env.ctx:
            raise ParseError(f"unknown variable {name!r}", *pos)
        return ("g", vecfield.partial(env.ctx, name))
    if tag == "name":
        _, name, pos = node
        if env.labels is not None:
            if name in env.labels:
                return ("c", {name: Scalar.constant(1)})
            raise ParseError(f"unknown basis label {name!r}", *pos)
        if env.ctx is not None and name in env.ctx:
            return ("g", vecfield.multiplier(env.ctx.poly(name)))
        if name in env.defs:
            return _wrap(env.defs[name])
        raise ParseError(f"unknown identifier {name!r}", *pos)
    if tag == "neg":
        kind, value = _eval(node[1], env)
        if kind == "s":
            return ("s", -value)
        if kind == "c":
            return ("c", {label: -coeff for label, coeff in value.items()})
        return (kind, -value)
    if tag in ("add", "sub"):
        left = _eval(node[1], env)
        right = _eval(node[2], env)
        if tag == "sub":
            kind, value = right
            if kind == "s":
                right = ("s", -value)
            elif kind == "c":
                right = ("c", {label: -coeff for label, coeff in value.items()})
            else:
                right = (kind, -value)
        return _combine_add(left, right, env, _node_pos(node[1]))
    if tag == "mul":
        left = _eval(node[1], env)
        right = _eval(node[2], env)
        return _combine_mul(left, right, _node_pos(node[1]))
    if tag == "pow":
        _, base_node, exponent, pos = node
        base = _eval(base_node, env)
        if exponent == 0:
            return ("s", Scalar.constant(1))
        result = base
        for _ in range(exponent - 1):
            result = _combine_mul(result, base, pos)
        return result
    raise AssertionError(f"unhandled node {tag}")


def _node_pos(node):
    tag = node[0]
    if tag in ("num", "atom", "name"):
        return node[2]
    if tag in ("elem", "pow"):
        return node[3]
    if tag == "partial":
        return node[2]
    if tag == "neg":
        return _node_pos(node[1])
    return _node_pos(node[1])


def _promote_scalar(scalar: Scalar, template_kind: str, env: _Env):
    if template_kind == "m":
        return matop.scalar_op(DiffOp.constant(scalar))
    if template_kind == "g":
        return vecfield.multiplier(env.ctx.scalar(scalar))
    raise AssertionError


def _combine_add(left, right, env: _Env, pos):
    lk, lv = left
    rk, rv = right
    if lk == "s" and rk in ("m", "g"):
        lk, lv = rk, _promote_scalar(lv, rk, env)
    elif rk == "s" and lk in ("m", "g"):
        rk, rv = lk, _promote_scalar(rv, lk, env)
    if lk != rk:
        if "c" in (lk, rk):
            raise ParseError("cannot add a bare scalar or operator to basis labels", *pos)
        raise ParseError(_MIXING, *pos)
    if lk == "c":
        merged = dict(lv)
        for label, coeff in rv.items():
            add_into(merged, label, coeff)
        return ("c", merged)
    try:  # operators of different degrees or variable contexts
        return (lk, lv + rv)
    except ValueError as exc:
        raise ParseError(str(exc), *pos) from None


def _combine_mul(left, right, pos):
    lk, lv = left
    rk, rv = right
    if lk == "s" and rk == "s":
        return ("s", lv * rv)
    if lk == "s":
        if rk == "c":
            return ("c", {label: lv * coeff for label, coeff in rv.items()})
        return (rk, rv.scale(lv))
    if rk == "s":
        if lk == "c":
            return ("c", {label: coeff * rv for label, coeff in lv.items()})
        return (lk, lv.scale(rv))
    if lk == rk and lk in ("m", "g"):
        try:
            return (lk, lv * rv)
        except ValueError as exc:
            raise ParseError(str(exc), *pos) from None
    if "c" in (lk, rk):
        raise ParseError("basis labels cannot be multiplied inside a table entry", *pos)
    raise ParseError(_MIXING, *pos)


def _parse_value(text: str, env: _Env, line: int = 1, col: int = 1):
    parser = _ExprParser(tokenize(text, line, col))
    node = parser.parse_expression()
    parser.expect_end()
    return _eval(node, env)


def parse_operator_expr(text: str, context: Union[VarContext, None] = None,
                        definitions: Union[Mapping[str, object], None] = None):
    """Parse an operator expression.

    Returns a MatDiffOp (matrix tokens present), a GradedDiffOp (variable
    tokens present), or a Scalar (neither).  `definitions` supplies named
    operators usable as factors; `context` supplies graded variables.
    """
    kind, value = _parse_value(text, _Env(context=context, definitions=definitions))
    return value


def parse_scalar_expr(text: str, line: int = 1, col: int = 1) -> Scalar:
    """Parse an expression that must reduce to a bare scalar."""
    kind, value = _parse_value(text, _Env(), line, col)
    if kind != "s":
        raise ParseError("expected a scalar expression", line, col)
    return value


def parse_combination(text: str, labels: Sequence[str], line: int = 1, col: int = 1) -> dict[str, Scalar]:
    """Parse a linear combination of basis labels; '0' gives {}."""
    kind, value = _parse_value(text, _Env(labels=labels), line, col)
    if kind == "s":
        if not value:
            return {}
        raise ParseError("a table entry must be 0 or a combination of basis labels", line, col)
    if kind != "c":
        raise ParseError("a table entry must be 0 or a combination of basis labels", line, col)
    return value


# ---------------------------------------------------------------------------
# expression emission (inverse of the grammar above)


def scalar_expr_text(scalar: Scalar) -> str:
    """A scalar as expression text, parenthesized when it is a sum."""
    return term_text(str(scalar), [])


def mat_expr_text(op: MatDiffOp) -> str:
    """A matrix operator as expression text over e(i,j) factors."""
    parts = [f"e({i + 1},{j + 1})*({entry})" for i, j, entry in op.nonzero_entries()]
    return " + ".join(parts) if parts else "0"


def graded_expr_text(op: GradedDiffOp) -> str:
    """A graded operator as expression text (its str form already parses)."""
    return str(op)


def operator_expr_text(op) -> str:
    if isinstance(op, MatDiffOp):
        return mat_expr_text(op)
    if isinstance(op, GradedDiffOp):
        return graded_expr_text(op)
    return scalar_expr_text(as_scalar(op))


# ---------------------------------------------------------------------------
# definition files

KINDS = ("d-module", "vector-field", "table", "grading", "basis-change", "weights")

_SECTION_RE = re.compile(
    r"^(variables|basis|source-basis|operators|derived|table|combos|"
    r"grading-operators|weights|split|notes):\s*$"
)
_BASIS_LINE_RE = re.compile(r"^([A-Za-z_][\w~']*)\s*\(\s*([01])\s*,\s*([01])\s*\)$")
_BRACKET_RE = re.compile(r"^([\[{])\s*([A-Za-z_][\w~']*)\s*,\s*([A-Za-z_][\w~']*)\s*([\]}])$")
_SPLIT_KEYS = ("positive", "zero", "negative")


@dataclass
class CorpusEntry:
    """One parsed definition file: an algebra id, a kind, and its payload."""

    id: str
    kind: str
    payload: dict
    notes: str = ""


def _split_sections(text: str):
    """Yields (header_line_number, header, [(line_number, line), ...]) groups."""
    head: list[tuple[int, str]] = []
    sections: list[tuple[int, str, list[tuple[int, str]]]] = []
    current: Union[list[tuple[int, str]], None] = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _SECTION_RE.match(line)
        if match:
            current = []
            sections.append((number, match.group(1), current))
            continue
        if current is None:
            head.append((number, stripped))
        else:
            current.append((number, stripped))
    return head, sections


def _split_equals(line: str, number: int):
    if "=" not in line:
        raise ParseError("expected 'name = expression'", number, 1)
    left, right = line.split("=", 1)
    rhs_col = len(left) + 2
    return left.strip(), right.strip(), rhs_col


# "D" and "e" stay usable as basis labels (keywords only before "("),
# but variables must avoid all keywords to stay referenceable.
_RESERVED_LABELS = frozenset(("i", "lam", "t", "x", "dt", "dx"))
_RESERVED_VARIABLES = frozenset(RESERVED)


def _parse_basis_lines(lines, what="basis element",
                       reserved: frozenset = _RESERVED_LABELS) -> tuple[tuple[str, Degree], ...]:
    basis = []
    seen = set()
    for number, line in lines:
        match = _BASIS_LINE_RE.match(line)
        if not match:
            raise ParseError(f"expected '{what} (a1,a2)'", number, 1)
        label = match.group(1)
        if label in reserved:
            raise ParseError(f"{label!r} is a reserved word", number, 1)
        if label in seen:
            raise ParseError(f"duplicate label {label!r}", number, 1)
        seen.add(label)
        basis.append((label, Degree(int(match.group(2)), int(match.group(3)))))
    return tuple(basis)


def _bracket_head(text: str, number: int, col: int = 1):
    match = _BRACKET_RE.match(text)
    if not match:
        raise ParseError("expected '[A, B]' or '{A, B}'", number, col)
    open_sym, left, right, close_sym = match.groups()
    if (open_sym, close_sym) not in (("[", "]"), ("{", "}")):
        raise ParseError("mismatched bracket delimiters", number, col)
    return open_sym, left, right


def _check_bracket_symbol(symbol: str, da: Degree, db: Degree, la: str, lb: str, number: int):
    expected = "{" if koszul_sign(da, db) == -1 else "["
    if symbol != expected:
        shape = "{A, B}" if expected == "{" else "[A, B]"
        raise ParseError(
            f"bracket of {la} {da} and {lb} {db} must be written {shape}", number, 1)


def _section_map(sections, entry_kind: str, allowed: Sequence[str]):
    seen = {}
    for number, name, lines in sections:
        if name not in allowed:
            raise ParseError(f"section {name!r} does not belong in a {entry_kind} entry", number, 1)
        if name in seen:
            raise ParseError(f"duplicate section {name!r}", number, 1)
        seen[name] = lines
    return seen


def _require(sections: Mapping[str, list], name: str, kind: str):
    if name not in sections:
        raise ParseError(f"a {kind} entry needs a {name!r} section", 1, 1)
    return sections[name]


def _parse_operator_sections(sections, kind: str, basis, context=None):
    """Shared operators/derived handling for realization kinds."""
    degrees = dict(basis)
    ops: dict[str, object] = {}
    operator_order: list[str] = []
    for number, line in _require(sections, "operators", kind):
        label, rhs, rhs_col = _split_equals(line, number)
        if label not in degrees:
            raise ParseError(f"{label!r} is not in the basis", number, 1)
        if label in ops:
            raise ParseError(f"{label!r} is defined twice", number, 1)
        value_kind, value = _parse_value(rhs, _Env(context=context, definitions=ops), number, rhs_col)
        declared = degrees[label]
        if value_kind == "s":
            if context is not None:
                value = vecfield.multiplier(context.scalar(value))
                value_kind = "g"
            else:
                value = matop.scalar_op(DiffOp.constant(value))
                value_kind = "m"
        wanted = "g" if context is not None else "m"
        if value_kind != wanted:
            flavour = "graded vector field" if wanted == "g" else "matrix operator"
            raise ParseError(f"a {kind} entry defines {flavour}s", number, rhs_col)
        if value_kind == "m":
            value = value.with_degree(declared)
        elif value.is_zero:
            value = vecfield.zero(context, declared)
        elif value.degree != declared:
            raise ParseError(
                f"{label} evaluates to degree {value.degree}, basis says {declared}",
                number, rhs_col)
        ops[label] = value
        operator_order.append(label)

    derived: list[tuple[str, str, tuple[str, str]]] = []
    for number, line in sections.get("derived", []):
        label, rhs, rhs_col = _split_equals(line, number)
        if label not in degrees:
            raise ParseError(f"{label!r} is not in the basis", number, 1)
        if label in ops:
            raise ParseError(f"{label!r} is defined twice", number, 1)
        symbol, la, lb = _bracket_head(rhs, number, rhs_col)
        for operand in (la, lb):
            if operand not in ops:
                raise ParseError(f"{operand!r} is not defined yet", number, rhs_col)
        _check_bracket_symbol(symbol, ops[la].degree, ops[lb].degree, la, lb, number)
        value = ops[la].bracket(ops[lb])
        if not value.is_zero and value.degree != degrees[label]:
            raise ParseError(
                f"{label} evaluates to degree {value.degree}, basis says {degrees[label]}",
                number, rhs_col)
        ops[label] = value
        derived.append((label, symbol, (la, lb)))

    missing = [label for label, _ in basis if label not in ops]
    if missing:
        raise ParseError(f"basis elements without definitions: {', '.join(missing)}", 1, 1)
    realization = Realization(basis, ops)
    return realization, operator_order, derived


def parse_definition(text: str) -> CorpusEntry:
    """Parse one definition file into a CorpusEntry."""
    head, sections = _split_sections(text)
    if len(head) < 2:
        raise ParseError("expected 'algebra <id>' and 'kind <kind>' head lines", 1, 1)
    entry_id = _head_field(head[0], "algebra")
    kind = _head_field(head[1], "kind")
    for number, line in head[2:]:
        raise ParseError(f"unexpected line before the first section: {line!r}", number, 1)
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r} (expected one of {', '.join(KINDS)})", head[1][0], 1)
    notes = "\n".join(line for _, line in dict(_section_map_raw(sections)).get("notes", []))

    if kind == "d-module":
        named = _section_map(sections, kind, ("basis", "operators", "derived", "notes"))
        basis = _parse_basis_lines(_require(named, "basis", kind))
        realization, order, derived = _parse_operator_sections(named, kind, basis)
        payload = {"basis": basis, "realization": realization,
                   "operator_order": order, "derived": derived}
    elif kind == "vector-field":
        named = _section_map(sections, kind, ("variables", "basis", "operators", "derived", "notes"))
        variables = _parse_basis_lines(_require(named, "variables", kind), what="variable",
                                       reserved=_RESERVED_VARIABLES)
        context = VarContext(variables)
        basis = _parse_basis_lines(_require(named, "basis", kind))
        realization, order, derived = _parse_operator_sections(named, kind, basis, context)
        payload = {"context": context, "basis": basis, "realization": realization,
                   "operator_order": order, "derived": derived}
    elif kind == "table":
        named = _section_map(sections, kind, ("basis", "table", "notes"))
        basis = _parse_basis_lines(_require(named, "basis", kind))
        labels = [label for label, _ in basis]
        index = {label: k for k, label in enumerate(labels)}
        degrees = dict(basis)
        constants: dict[tuple[int, int], list] = {}
        stated: set[tuple[int, int]] = set()
        for number, line in _require(named, "table", kind):
            headtext, rhs, rhs_col = _split_equals(line, number)
            symbol, la, lb = _bracket_head(headtext, number)
            for operand in (la, lb):
                if operand not in index:
                    raise ParseError(f"unknown basis label {operand!r}", number, 1)
            _check_bracket_symbol(symbol, degrees[la], degrees[lb], la, lb, number)
            i, j = index[la], index[lb]
            combo = parse_combination(rhs, labels, number, rhs_col)
            entry = [(index[target], coeff) for target, coeff in combo.items()]
            if i > j:
                # stored orientation is (j, i); flip via graded antisymmetry
                sign = -koszul_sign(degrees[la], degrees[lb])
                entry = [(target, coeff * sign) for target, coeff in entry]
                i, j = j, i
            if (i, j) in stated:
                raise ParseError(f"duplicate entry for ({la}, {lb})", number, 1)
            stated.add((i, j))
            if entry:
                constants[(i, j)] = entry
        try:
            payload = {"table": BracketTable(basis, constants)}
        except ValueError as exc:
            raise ParseError(str(exc), 1, 1) from None
    elif kind == "grading":
        named = _section_map(sections, kind, ("basis", "notes"))
        payload = {"basis": _parse_basis_lines(_require(named, "basis", kind))}
    elif kind == "basis-change":
        named = _section_map(sections, kind, ("source-basis", "basis", "combos", "notes"))
        old_basis = _parse_basis_lines(_require(named, "source-basis", kind))
        new_basis = _parse_basis_lines(_require(named, "basis", kind))
        old_labels = [label for label, _ in old_basis]
        old_index = {label: k for k, label in enumerate(old_labels)}
        rows: dict[str, list[Scalar]] = {}
        for number, line in _require(named, "combos", kind):
            label, rhs, rhs_col = _split_equals(line, number)
            if label not in {l for l, _ in new_basis}:
                raise ParseError(f"{label!r} is not in the new basis", number, 1)
            if label in rows:
                raise ParseError(f"{label!r} is defined twice", number, 1)
            combo = parse_combination(rhs, old_labels, number, rhs_col)
            row = [Scalar() for _ in old_labels]
            for old_label, coeff in combo.items():
                row[old_index[old_label]] = coeff
            rows[label] = row
        missing = [label for label, _ in new_basis if label not in rows]
        if missing:
            raise ParseError(f"new basis elements without combos: {', '.join(missing)}", 1, 1)
        payload = {"old_basis": old_basis, "new_basis": new_basis,
                   "matrix": [rows[label] for label, _ in new_basis]}
    else:  # weights
        named = _section_map(sections, kind,
                             ("grading-operators", "weights", "split", "notes"))
        grading_labels: list[str] = []
        for number, line in _require(named, "grading-operators", kind):
            grading_labels.extend(line.split())
        weights: dict[str, tuple[Scalar, ...]] = {}
        weight_order: list[str] = []
        for number, line in _require(named, "weights", kind):
            label, rhs, rhs_col = _split_equals(line, number)
            if label in weights:
                raise ParseError(f"duplicate weight line for {label!r}", number, 1)
            weights[label] = _parse_scalar_tuple(rhs, number, rhs_col, len(grading_labels))
            weight_order.append(label)
        split: Union[dict[str, list[str]], None] = None
        if "split" in named:
            split = {key: [] for key in _SPLIT_KEYS}
            for number, line in named["split"]:
                if ":" not in line:
                    raise ParseError("expected 'positive|zero|negative: labels...'", number, 1)
                key, _, rest = line.partition(":")
                key = key.strip()
                if key not in _SPLIT_KEYS:
                    raise ParseError(f"unknown split bucket {key!r}", number, 1)
                split[key].extend(rest.split())
        payload = {"grading_labels": grading_labels, "weights": weights,
                   "weight_order": weight_order, "split": split}
    return CorpusEntry(entry_id, kind, payload, notes)


def _section_map_raw(sections):
    return [(name, lines) for _, name, lines in sections]


def _head_field(head_line: tuple[int, str], expected: str) -> str:
    number, line = head_line
    parts = line.split()
    if len(parts) != 2 or parts[0] != expected:
        raise ParseError(f"expected '{expected} <value>'", number, 1)
    return parts[1]


def _parse_scalar_tuple(text: str, line: int, col: int, arity: int) -> tuple[Scalar, ...]:
    parser = _ExprParser(tokenize(text, line, col))
    parser.expect_sym("(")
    values = [parser.parse_expression()]
    while parser.at_sym(","):
        parser.advance()
        values.append(parser.parse_expression())
    parser.expect_sym(")")
    parser.expect_end()
    env = _Env()
    scalars = []
    for node in values:
        kind, value = _eval(node, env)
        if kind != "s":
            raise ParseError("weight components must be scalars", line, col)
        scalars.append(value)
    if arity and len(scalars) != arity:
        raise ParseError(
            f"expected {arity} weight components, found {len(scalars)}", line, col)
    return tuple(scalars)


# ---------------------------------------------------------------------------
# definition emission (canonical round-trippable text)


def emit_definition(entry: CorpusEntry) -> str:
    out: list[str] = [f"algebra {entry.id}", f"kind {entry.kind}", ""]

    def basis_section(name: str, items):
        out.append(f"{name}:")
        out.extend(f"  {label} {degree}" for label, degree in items)
        out.append("")

    payload = entry.payload
    if entry.kind in ("d-module", "vector-field"):
        if entry.kind == "vector-field":
            basis_section("variables", [(v.name, v.degree) for v in payload["context"].variables])
        basis_section("basis", payload["basis"])
        realization = payload["realization"]
        out.append("operators:")
        for label in payload["operator_order"]:
            out.append(f"  {label} = {operator_expr_text(realization.op(label))}")
        out.append("")
        if payload["derived"]:
            out.append("derived:")
            close = {"[": "]", "{": "}"}
            for label, symbol, (la, lb) in payload["derived"]:
                out.append(f"  {label} = {symbol}{la}, {lb}{close[symbol]}")
            out.append("")
    elif entry.kind == "table":
        table: BracketTable = payload["table"]
        basis_section("basis", table.basis)
        out.append("table:")
        for (i, j), entry_value in sorted(table.constants.items()):
            la, da = table.basis[i]
            lb, db = table.basis[j]
            symbol = ("{", "}") if koszul_sign(da, db) == -1 else ("[", "]")
            out.append(f"  {symbol[0]}{la}, {lb}{symbol[1]} = {table.combo_str(entry_value)}")
        out.append("")
    elif entry.kind == "grading":
        basis_section("basis", payload["basis"])
    elif entry.kind == "basis-change":
        basis_section("source-basis", payload["old_basis"])
        basis_section("basis", payload["new_basis"])
        out.append("combos:")
        old_labels = [label for label, _ in payload["old_basis"]]
        for row, (label, _) in zip(payload["matrix"], payload["new_basis"]):
            out.append(f"  {label} = {_combo_text(zip(old_labels, row))}")
        out.append("")
    elif entry.kind == "weights":
        out.append("grading-operators:")
        out.append("  " + " ".join(payload["grading_labels"]))
        out.append("")
        out.append("weights:")
        for label in payload["weight_order"]:
            values = ", ".join(str(value) for value in payload["weights"][label])
            out.append(f"  {label} = ({values})")
        out.append("")
        if payload["split"] is not None:
            out.append("split:")
            for key in _SPLIT_KEYS:
                out.append(f"  {key}: " + " ".join(payload["split"][key]))
            out.append("")
    if entry.notes:
        out.append("notes:")
        out.extend(f"  {line}" for line in entry.notes.splitlines())
        out.append("")
    return "\n".join(out)


def _combo_text(pairs) -> str:
    return signed_sum(term_text(str(as_scalar(coeff)), [label]) for label, coeff in pairs if coeff)


# ---------------------------------------------------------------------------
# JSON


def _scalar_to_json(scalar: Scalar) -> list[dict]:
    terms = []
    for exp, value in scalar.items():
        terms.append({
            "re": [value.re.numerator, value.re.denominator],
            "im": [value.im.numerator, value.im.denominator],
            "lam": exp,
        })
    return terms


def _scalar_from_json(terms) -> Scalar:
    total = Scalar()
    for term in terms:
        re_num, re_den = term["re"]
        im_num, im_den = term["im"]
        value = GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))
        total = total + Scalar.constant(value) * Scalar.lam_power(int(term.get("lam", 0)))
    return total


def table_to_dict(table: BracketTable) -> dict:
    basis = [{"label": label, "degree": [degree.a1, degree.a2]} for label, degree in table.basis]
    brackets = []
    for (i, j), entry in sorted(table.constants.items()):
        brackets.append({
            "left": table.basis[i][0],
            "right": table.basis[j][0],
            "value": [{"target": table.basis[target][0], "coeff": _scalar_to_json(coeff)}
                      for target, coeff in entry],
        })
    return {"basis": basis, "brackets": brackets}


def table_from_dict(data: Mapping) -> BracketTable:
    basis = [(item["label"], Degree(*item["degree"])) for item in data["basis"]]
    index = {label: k for k, (label, _) in enumerate(basis)}
    constants = {}
    for bracket in data["brackets"]:
        i = index[bracket["left"]]
        j = index[bracket["right"]]
        entry = [(index[piece["target"]], _scalar_from_json(piece["coeff"]))
                 for piece in bracket["value"]]
        constants[(i, j)] = entry
    return BracketTable(basis, constants)


def table_from_json(text: str) -> BracketTable:
    return table_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# LaTeX

_GREEK = {"Pi": r"\Pi", "Lam": r"\Lambda", "lam": r"\lambda",
          "psi": r"\psi", "th": r"\theta"}


def label_to_latex(label: str) -> str:
    """Render a basis label: P~ -> \\tilde{P}, Qp -> Q_{+}, Rbar -> \\bar{R}."""
    if label.endswith("~"):
        return r"\tilde{" + label_to_latex(label[:-1]) + "}"
    if label.endswith("bar") and len(label) > 3:
        return r"\bar{" + label_to_latex(label[:-3]) + "}"
    match = re.fullmatch(r"([A-Za-z]+?)(\d+)", label)
    if match:
        return label_to_latex(match.group(1)) + "_{" + match.group(2) + "}"
    match = re.fullmatch(r"([A-Za-z]+)(p|m)", label)
    if match and (match.group(1) in _GREEK or len(match.group(1)) == 1):
        sign = "+" if match.group(2) == "p" else "-"
        return label_to_latex(match.group(1)) + "_{" + sign + "}"
    return _GREEK.get(label, label)


def _rational_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return sign + r"\tfrac{%d}{%d}" % (abs(value.numerator), value.denominator)


def _gaussian_latex(value: GaussianRational) -> str:
    if not value.im:
        return _rational_latex(value.re)
    imag = "i" if value.im == 1 else "-i" if value.im == -1 else _rational_latex(value.im) + "i"
    return signed_sum([_rational_latex(value.re), imag]) if value.re else imag


def scalar_to_latex(scalar: Scalar) -> str:
    """Constants print raw; each lam power is a term with its coefficient."""
    parts = []
    for exp, value in scalar.items():
        coeff = _gaussian_latex(value)
        power = r"\lambda" if exp == 1 else r"\lambda^{%d}" % exp
        parts.append(term_text(coeff, [power], "") if exp else coeff)
    return signed_sum(parts)


def _combo_latex(table: BracketTable, entry) -> str:
    return signed_sum(term_text(scalar_to_latex(c), [label_to_latex(table.basis[t][0])], "")
                      for t, c in entry)


def table_to_latex(table: BracketTable) -> str:
    sectors: dict[tuple[Degree, Degree], list[tuple[int, int]]] = {}
    for (i, j) in sorted(table.constants):
        da, db = table.basis[i][1], table.basis[j][1]
        key = (da, db) if (da.a1, da.a2) <= (db.a1, db.a2) else (db, da)
        sectors.setdefault(key, []).append((i, j))
    out = ["% nonzero brackets grouped by degree sector"]
    for (da, db) in sorted(sectors, key=lambda pair: (pair[0].a1, pair[0].a2, pair[1].a1, pair[1].a2)):
        out.append(f"% sector {da} x {db}")
        out.append(r"\begin{align*}")
        lines = []
        for i, j in sectors[(da, db)]:
            la = label_to_latex(table.basis[i][0])
            lb = label_to_latex(table.basis[j][0])
            symbol = ("\\{", "\\}") if koszul_sign(table.basis[i][1], table.basis[j][1]) == -1 else ("[", "]")
            value = _combo_latex(table, table.constants[(i, j)])
            lines.append(f"{symbol[0]}{la}, {lb}{symbol[1]} &= {value}")
        out.append(" ,\\\\\n".join(lines))
        out.append(r"\end{align*}")
    return "\n".join(out) + "\n"


def emit_table(table: BracketTable, fmt: str = "text") -> str:
    """Render a bracket table as text lines, JSON, or LaTeX."""
    if fmt == "text":
        lines = []
        for (i, j), entry in sorted(table.constants.items()):
            la, da = table.basis[i]
            lb, db = table.basis[j]
            symbol = ("{", "}") if koszul_sign(da, db) == -1 else ("[", "]")
            lines.append(f"{symbol[0]}{la},{lb}{symbol[1]} = {table.combo_str(entry)}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(table_to_dict(table), indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        return table_to_latex(table)
    raise ValueError(f"unknown format {fmt!r} (expected text, json, or latex)")


def report_to_dict(report: DiscrepancyReport) -> dict:
    return {
        "subject": report.subject,
        "checked": report.checked,
        "ok": report.ok,
        "discrepancies": [
            {"kind": item.kind, "labels": list(item.labels), "expected": item.expected,
             "computed": item.computed, "residual": item.residual}
            for item in report.entries
        ],
    }


def emit_report(report: DiscrepancyReport, fmt: str = "text") -> str:
    """Render a verification report as text, JSON, or LaTeX."""
    if fmt == "text":
        lines = [report.summary()]
        lines.extend(f"  {item}" for item in report.entries)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        out = [r"% " + report.summary(), r"\begin{itemize}"]
        if report.ok:
            out.append(r"\item all %d checks passed exactly" % report.checked)
        for item in report.entries:
            labels = ", ".join(label_to_latex(l) for l in item.labels)
            out.append(r"\item $[%s]$: expected $%s$, computed $%s$ (residual $%s$)"
                       % (labels, item.expected, item.computed, item.residual))
        out.append(r"\end{itemize}")
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected text, json, or latex)")


def emit_extract_failure(subject: str, exc: AlgebraError, fmt: str = "text") -> str:
    """Render why extraction stopped: the failing pair, if any, and the reason."""
    if fmt == "text":
        return f"{subject}: extraction failed\n  {exc}\n"
    if fmt == "json":
        payload = {"subject": subject, "ok": False, "error": type(exc).__name__,
                   "pair": list(getattr(exc, "pair", [])) or None,
                   "residual": getattr(exc, "residual", None), "message": str(exc)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        return f"% {subject}: extraction failed\n\\begin{{verbatim}}\n{exc}\n\\end{{verbatim}}\n"
    raise ValueError(f"unknown format {fmt!r} (expected text, json, or latex)")

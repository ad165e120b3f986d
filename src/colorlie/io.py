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

Expressions are evaluated in one pass, with no syntax tree: each grammar
rule returns its value as it parses.  A ParseError gives the line and
column of the offending character in the file as written, indentation
included.

Definition files hold one algebra entry each: `algebra <id>` and
`kind <kind>` head lines, then sections introduced by a header at
column 0 (`basis:`, `operators:`, `derived:`, `table:`, `variables:`,
`source-basis:`, `combos:`, `grading-operators:`, `weights:`,
`split:`, `notes:`).  Lines starting with `#` are comments.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

from .grading import Degree, koszul_sign
from .lincomb import add_into, signed_sum, term_text
from .scalars import GaussianRational, Scalar, as_scalar
from . import matop, scalars, vecfield, weyl
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


class Token(NamedTuple):
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
# expression parser (tokens -> values, in one pass)
#
# Each grammar rule returns the value it denotes: a Scalar, a MatDiffOp, a
# GradedDiffOp or, inside a bracket-table entry, a {label: Scalar} dict.
# Sums and products dispatch on those types, and errors are located at the
# token in hand: the operator that fails, or the name that does not resolve.

_MIXING = "expression mixes matrix tokens (t, x, dt, dx, e(i,j)) with graded-variable tokens"
_CONSTANTS = {"i": scalars.I, "lam": scalars.LAM}
_MATRIX_ATOMS = {name: matop.scalar_op(base)
                 for name, base in (("t", weyl.T), ("x", weyl.X), ("dt", weyl.DT), ("dx", weyl.DX))}
_OPERATORS = (MatDiffOp, GradedDiffOp)
#: deepest parenthesis nesting (the corpus uses 3); keeps the recursion shallow
_MAX_NESTING = 64


def _promote(scalar: Scalar, context: Union[VarContext, None]):
    """A scalar as an operator: a multiplier over `context`, else scalar*identity."""
    if context is None:
        return matop.scalar_op(DiffOp.constant(scalar))
    return vecfield.multiplier(context.scalar(scalar))


def _neg(value):
    if isinstance(value, dict):
        return {label: -coeff for label, coeff in value.items()}
    return -value


def _add(left, right, at: Token):
    if isinstance(left, Scalar) and isinstance(right, _OPERATORS):
        left = _promote(left, getattr(right, "ctx", None))
    elif isinstance(right, Scalar) and isinstance(left, _OPERATORS):
        right = _promote(right, getattr(left, "ctx", None))
    if type(left) is not type(right):
        if isinstance(left, dict) or isinstance(right, dict):
            raise ParseError("cannot add a bare scalar or operator to basis labels", at.line, at.col)
        raise ParseError(_MIXING, at.line, at.col)
    if isinstance(left, dict):
        merged = dict(left)
        for label, coeff in right.items():
            add_into(merged, label, coeff)
        return merged
    try:  # operators of different degrees or variable contexts
        return left + right
    except ValueError as exc:
        raise ParseError(str(exc), at.line, at.col) from None


def _mul(left, right, at: Token):
    if isinstance(left, Scalar) and not isinstance(right, Scalar):
        left, right = right, left  # a scalar factor commutes with everything
    if isinstance(right, Scalar):
        if isinstance(left, dict):
            return {label: coeff * right for label, coeff in left.items()}
        return left * right
    if isinstance(left, dict) or isinstance(right, dict):
        raise ParseError("basis labels cannot be multiplied inside a table entry", at.line, at.col)
    if type(left) is not type(right):
        raise ParseError(_MIXING, at.line, at.col)
    try:
        return left * right
    except ValueError as exc:
        raise ParseError(str(exc), at.line, at.col) from None


class _ExprParser:
    """Recursive descent that evaluates as it parses.

    `context` supplies graded variables and `definitions` named operators.
    With `labels` the text is a bracket-table entry: bare names are basis
    labels and matrix tokens are refused.
    """

    def __init__(self, text: str, line: int = 1, col: int = 1,
                 context: Union[VarContext, None] = None,
                 definitions: Union[Mapping[str, object], None] = None,
                 labels: Union[Sequence[str], None] = None):
        self.tokens = tokenize(text, line, col)
        self.pos = 0
        self.depth = 0
        self.ctx = context
        self.defs = definitions or {}
        self.labels = labels

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_sym(self, symbol: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.value == symbol

    def expect_sym(self, symbol: str) -> Token:
        if not self.at_sym(symbol):
            token = self.peek()
            raise ParseError(f"expected {symbol!r}", token.line, token.col)
        return self.advance()

    def expect_int(self, message: str = "expected an integer") -> Token:
        token = self.peek()
        if token.kind != "int":
            raise ParseError(message, token.line, token.col)
        return self.advance()

    def expect_end(self):
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected {token.value!r} after expression", token.line, token.col)

    def parse_all(self):
        value = self.parse_expression()
        self.expect_end()
        return value

    # -- grammar ----------------------------------------------------------
    def parse_expression(self):
        negate = (self.at_sym("+") or self.at_sym("-")) and self.advance().value == "-"
        value = self.parse_term()
        if negate:
            value = _neg(value)
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance()
            rhs = self.parse_term()
            value = _add(value, rhs if op.value == "+" else _neg(rhs), op)
        return value

    def parse_term(self):
        value = self.parse_factor()
        while True:
            at = self.peek()
            if self.at_sym("*"):
                self.advance()
            elif not (at.kind in ("int", "ident") or self.at_sym("(")):
                return value
            value = _mul(value, self.parse_factor(), at)

    def parse_factor(self):
        value = self.parse_atom()
        if not self.at_sym("^"):
            return value
        caret = self.advance()
        exponent = self.expect_int("expected an integer exponent after '^'").value
        if exponent == 0:
            return scalars.ONE
        result = value
        for _ in range(exponent - 1):
            result = _mul(result, value, caret)
        return result

    def parse_atom(self):
        token = self.advance()
        if token.kind == "int":
            if not self.at_sym("/"):
                return as_scalar(token.value)
            self.advance()
            denom = self.expect_int("expected an integer denominator")
            if denom.value == 0:
                raise ParseError("division by zero", denom.line, denom.col)
            return as_scalar(Fraction(token.value, denom.value))
        if token.kind == "ident":
            # "e" and "D" are keywords only when immediately applied to "(";
            # otherwise they are ordinary names (D is a common basis label).
            if token.value == "e" and self.at_sym("("):
                self.advance()
                i = self.expect_int().value
                self.expect_sym(",")
                j = self.expect_int().value
                self.expect_sym(")")
                return self.elem(i, j, token)
            if token.value == "D" and self.at_sym("("):
                self.advance()
                var = self.peek()
                if var.kind != "ident":
                    raise ParseError("expected a variable name inside D(...)", var.line, var.col)
                self.advance()
                self.expect_sym(")")
                return self.partial(var.value, token)
            return self.resolve(token)
        if token.kind == "sym" and token.value == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {_MAX_NESTING}",
                                 token.line, token.col)
            self.depth += 1
            value = self.parse_expression()
            self.expect_sym(")")
            self.depth -= 1
            return value
        raise ParseError(f"expected a value, found {token.value!r}" if token.kind != "end"
                         else "unexpected end of expression", token.line, token.col)

    # -- values -----------------------------------------------------------
    def elem(self, i: int, j: int, at: Token) -> MatDiffOp:
        if self.labels is not None:
            raise ParseError("e(i,j) is not allowed in a bracket-table entry", at.line, at.col)
        try:
            return matop.elem(i, j)
        except ValueError as exc:
            raise ParseError(str(exc), at.line, at.col) from None

    def partial(self, name: str, at: Token) -> GradedDiffOp:
        if self.ctx is None:
            raise ParseError("D(...) needs declared variables", at.line, at.col)
        if name not in self.ctx:
            raise ParseError(f"unknown variable {name!r}", at.line, at.col)
        return vecfield.partial(self.ctx, name)

    def resolve(self, at: Token):
        name = at.value
        if name in _CONSTANTS:
            return _CONSTANTS[name]
        if name in _MATRIX_ATOMS:
            if self.labels is not None:
                raise ParseError(f"{name!r} is not allowed in a bracket-table entry", at.line, at.col)
            return _MATRIX_ATOMS[name]
        if self.labels is not None:
            if name in self.labels:
                return {name: scalars.ONE}
            raise ParseError(f"unknown basis label {name!r}", at.line, at.col)
        if self.ctx is not None and name in self.ctx:
            return vecfield.multiplier(self.ctx.poly(name))
        if name in self.defs:
            value = self.defs[name]
            return value if isinstance(value, _OPERATORS) else as_scalar(value)
        raise ParseError(f"unknown identifier {name!r}", at.line, at.col)


def parse_operator_expr(text: str, context: Union[VarContext, None] = None,
                        definitions: Union[Mapping[str, object], None] = None):
    """Parse an operator expression.

    Returns a MatDiffOp (matrix tokens present), a GradedDiffOp (variable
    tokens present), or a Scalar (neither).  `definitions` supplies named
    operators usable as factors; `context` supplies graded variables.
    """
    return _ExprParser(text, context=context, definitions=definitions).parse_all()


def parse_scalar_expr(text: str, line: int = 1, col: int = 1) -> Scalar:
    """Parse an expression that must reduce to a bare scalar."""
    value = _ExprParser(text, line, col).parse_all()
    if not isinstance(value, Scalar):
        raise ParseError("expected a scalar expression", line, col)
    return value


def parse_combination(text: str, labels: Sequence[str], line: int = 1, col: int = 1) -> dict[str, Scalar]:
    """Parse a linear combination of basis labels; '0' gives {}."""
    value = _ExprParser(text, line, col, labels=labels).parse_all()
    if isinstance(value, dict):
        return value
    if isinstance(value, Scalar) and not value:
        return {}
    raise ParseError("a table entry must be 0 or a combination of basis labels", line, col)


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


class CorpusEntry(NamedTuple):
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
            current.append((number, line))
    return head, sections


def _indent_col(line: str) -> int:
    """The column of the first non-blank character of a raw line."""
    return len(line) - len(line.lstrip()) + 1


def _split_equals(line: str, number: int):
    """'name = rhs' -> (name, column of name, rhs, column of rhs), in the raw line."""
    left, equals, right = line.partition("=")
    if not equals:
        raise ParseError("expected 'name = expression'", number, _indent_col(line))
    rhs_col = len(left) + 2 + len(right) - len(right.lstrip())
    return left.strip(), _indent_col(left), right.strip(), rhs_col


# "D" and "e" stay usable as basis labels (keywords only before "("),
# but variables must avoid all keywords to stay referenceable.
_RESERVED_LABELS = frozenset(("i", "lam", "t", "x", "dt", "dx"))
_RESERVED_VARIABLES = frozenset(RESERVED)


def _parse_basis_lines(lines, what="basis element",
                       reserved: frozenset = _RESERVED_LABELS) -> tuple[tuple[str, Degree], ...]:
    basis = []
    seen = set()
    for number, line in lines:
        col = _indent_col(line)
        match = _BASIS_LINE_RE.match(line.strip())
        if not match:
            raise ParseError(f"expected '{what} (a1,a2)'", number, col)
        label = match.group(1)
        if label in reserved:
            raise ParseError(f"{label!r} is a reserved word", number, col)
        if label in seen:
            raise ParseError(f"duplicate label {label!r}", number, col)
        seen.add(label)
        basis.append((label, Degree(int(match.group(2)), int(match.group(3)))))
    return tuple(basis)


def _bracket_head(text: str, number: int, col: int, degrees: Mapping[str, Degree], unknown: str):
    """'[A, B]' at column col -> (symbol, A, B): labels in degrees, delimiters as _delimiters says."""
    match = _BRACKET_RE.match(text)
    if not match:
        raise ParseError("expected '[A, B]' or '{A, B}'", number, col)
    open_sym, left, right, close_sym = match.groups()
    if (open_sym, close_sym) not in (("[", "]"), ("{", "}")):
        raise ParseError("mismatched bracket delimiters", number, col)
    for group in (2, 3):
        if match.group(group) not in degrees:
            raise ParseError(unknown.format(match.group(group)), number, col + match.start(group))
    da, db = degrees[left], degrees[right]
    opening, closing = _delimiters(da, db)
    if open_sym != opening:
        raise ParseError(f"bracket of {left} {da} and {right} {db} must be written "
                         f"{opening}A, B{closing}", number, col)
    return open_sym, left, right


def _delimiters(da: Degree, db: Degree) -> tuple[str, str]:
    """How the bracket of degrees da, db is written: braces exactly when the color sign is -1."""
    return ("{", "}") if koszul_sign(da, db) == -1 else ("[", "]")


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
        label, label_col, rhs, rhs_col = _split_equals(line, number)
        if label not in degrees:
            raise ParseError(f"{label!r} is not in the basis", number, label_col)
        if label in ops:
            raise ParseError(f"{label!r} is defined twice", number, label_col)
        value = _ExprParser(rhs, number, rhs_col, context=context, definitions=ops).parse_all()
        declared = degrees[label]
        if isinstance(value, Scalar):
            value = _promote(value, context)
        if isinstance(value, MatDiffOp) != (context is None):
            flavour = "matrix operator" if context is None else "graded vector field"
            raise ParseError(f"a {kind} entry defines {flavour}s", number, rhs_col)
        if isinstance(value, MatDiffOp):
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
        label, label_col, rhs, rhs_col = _split_equals(line, number)
        if label not in degrees:
            raise ParseError(f"{label!r} is not in the basis", number, label_col)
        if label in ops:
            raise ParseError(f"{label!r} is defined twice", number, label_col)
        defined = {name: op.degree for name, op in ops.items()}
        symbol, la, lb = _bracket_head(rhs, number, rhs_col, defined, "{!r} is not defined yet")
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
            headtext, head_col, rhs, rhs_col = _split_equals(line, number)
            symbol, la, lb = _bracket_head(headtext, number, head_col, degrees,
                                           "unknown basis label {!r}")
            i, j = index[la], index[lb]
            combo = parse_combination(rhs, labels, number, rhs_col)
            entry = [(index[target], coeff) for target, coeff in combo.items()]
            if i > j:
                # stored orientation is (j, i); flip via graded antisymmetry
                sign = -koszul_sign(degrees[la], degrees[lb])
                entry = [(target, coeff * sign) for target, coeff in entry]
                i, j = j, i
            if (i, j) in stated:
                raise ParseError(f"duplicate entry for ({la}, {lb})", number, head_col)
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
            label, label_col, rhs, rhs_col = _split_equals(line, number)
            if label not in {l for l, _ in new_basis}:
                raise ParseError(f"{label!r} is not in the new basis", number, label_col)
            if label in rows:
                raise ParseError(f"{label!r} is defined twice", number, label_col)
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
            label, label_col, rhs, rhs_col = _split_equals(line, number)
            if label in weights:
                raise ParseError(f"duplicate weight line for {label!r}", number, label_col)
            weights[label] = _parse_scalar_tuple(rhs, number, rhs_col, len(grading_labels))
            weight_order.append(label)
        split: Union[dict[str, list[str]], None] = None
        if "split" in named:
            split = {key: [] for key in _SPLIT_KEYS}
            for number, line in named["split"]:
                if ":" not in line:
                    raise ParseError("expected 'positive|zero|negative: labels...'",
                                     number, _indent_col(line))
                key, _, rest = line.partition(":")
                key = key.strip()
                if key not in _SPLIT_KEYS:
                    raise ParseError(f"unknown split bucket {key!r}", number, _indent_col(line))
                split[key].extend(rest.split())
        payload = {"grading_labels": grading_labels, "weights": weights,
                   "weight_order": weight_order, "split": split}
    notes = "\n".join(line.strip() for _, line in named.get("notes", []))
    return CorpusEntry(entry_id, kind, payload, notes)


def _head_field(head_line: tuple[int, str], expected: str) -> str:
    number, line = head_line
    parts = line.split()
    if len(parts) != 2 or parts[0] != expected:
        raise ParseError(f"expected '{expected} <value>'", number, 1)
    return parts[1]


def _parse_scalar_tuple(text: str, line: int, col: int, arity: int) -> tuple[Scalar, ...]:
    parser = _ExprParser(text, line, col)
    parser.expect_sym("(")
    values = [parser.parse_expression()]
    while parser.at_sym(","):
        parser.advance()
        values.append(parser.parse_expression())
    parser.expect_sym(")")
    parser.expect_end()
    if not all(isinstance(value, Scalar) for value in values):
        raise ParseError("weight components must be scalars", line, col)
    if arity and len(values) != arity:
        raise ParseError(
            f"expected {arity} weight components, found {len(values)}", line, col)
    return tuple(values)


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
            for label, _, (la, lb) in payload["derived"]:
                opening, closing = _delimiters(realization.op(la).degree, realization.op(lb).degree)
                out.append(f"  {label} = {opening}{la}, {lb}{closing}")
            out.append("")
    elif entry.kind == "table":
        table: BracketTable = payload["table"]
        basis_section("basis", table.basis)
        out.append("table:")
        for (i, j), entry_value in sorted(table.constants.items()):
            la, da = table.basis[i]
            lb, db = table.basis[j]
            opening, closing = _delimiters(da, db)
            out.append(f"  {opening}{la}, {lb}{closing} = {table.combo_str(entry_value)}")
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


def json_text(payload) -> str:
    """The one JSON writer: two-space indent, sorted keys, a final newline."""
    import json  # loaded by the first run that writes JSON, not by every import
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
        total = total + Scalar.lam_power(int(term.get("lam", 0)), value)
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
    import json
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
        key = (da, db) if da <= db else (db, da)
        sectors.setdefault(key, []).append((i, j))
    out = ["% nonzero brackets grouped by degree sector"]
    for (da, db) in sorted(sectors):
        out.append(f"% sector {da} x {db}")
        out.append(r"\begin{align*}")
        opening, closing = _delimiters(da, db)
        if opening == "{":
            opening, closing = r"\{", r"\}"
        lines = []
        for i, j in sectors[(da, db)]:
            la = label_to_latex(table.basis[i][0])
            lb = label_to_latex(table.basis[j][0])
            value = _combo_latex(table, table.constants[(i, j)])
            lines.append(f"{opening}{la}, {lb}{closing} &= {value}")
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
            opening, closing = _delimiters(da, db)
            lines.append(f"{opening}{la},{lb}{closing} = {table.combo_str(entry)}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json_text(table_to_dict(table))
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
        return json_text(report_to_dict(report))
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
        return json_text(payload)
    if fmt == "latex":
        return f"% {subject}: extraction failed\n\\begin{{verbatim}}\n{exc}\n\\end{{verbatim}}\n"
    raise ValueError(f"unknown format {fmt!r} (expected text, json, or latex)")

"""Definition-file reading and writing for operators, tables and entries; JSON and LaTeX writers.

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
    INT        := [0-9]+
    IDENT      := [A-Za-z_][A-Za-z0-9_~']*

Every token is ASCII; any other character is an error.  IDENT is also
the rule for basis labels, variable names, grading operators, weight
labels and split labels; the `algebra <id>` head line takes IDENTs joined
by `.` (`g22.table_pm`).  Operators print as this grammar reads them:
``str(op)`` of a matrix or graded operator is its definition-file text.

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
column 0, such as `basis:`.  `_LAYOUT` names the sections of each kind;
every kind may also hold `notes:`.  Lines starting with `#` are comments.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

from .grading import Degree, koszul_sign
from .lincomb import LinComb, signed_sum, term_text
from .scalars import GaussianRational, Scalar, as_scalar
from . import matop, scalars, vecfield, weyl
from .algebra import AlgebraError, BadEntry, BracketTable, DiscrepancyReport, Realization
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

#: the one identifier rule: basis labels, variables and names in expressions
_IDENT = r"[A-Za-z_][A-Za-z0-9_~']*"
_TOKEN_RE = re.compile(rf"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)"
                       rf"|(?P<int>[0-9]+)|(?P<ident>{_IDENT})|(?P<sym>[-+*/^(),])|(?P<bad>.)")


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "sym" | "end"
    value: object
    line: int
    col: int


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """Lex an expression fragment; (line, col) locate its first character."""
    tokens: list[Token] = []
    offset = -col  # text[k] sits in column k - offset of the current line
    match = None
    for match in _TOKEN_RE.finditer(text):
        kind, value, at = match.lastgroup, match.group(), match.start() - offset
        if kind == "newline":
            line, offset = line + 1, match.start()
        elif kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, at)
        elif kind not in ("blank", "comment"):
            try:
                value = int(value) if kind == "int" else value
            except ValueError:  # past the interpreter's limit on integer digits
                raise ParseError(f"{len(value)}-digit integer is too long", line, at) from None
            tokens.append(Token(kind, value, line, at))
    # a comment takes no columns, so the end of a commented line sits at its '#'
    stop = match.start() if match and match.lastgroup == "comment" else len(text)
    tokens.append(Token("end", "", line, stop - offset))
    return tokens


# ---------------------------------------------------------------------------
# expression parser (tokens -> values, in one pass)
#
# Each grammar rule returns the value it denotes: a Scalar, a MatDiffOp, a
# GradedDiffOp or, inside a bracket-table entry, a _Labels combination.
# Sums and products dispatch on those types, and errors are located at the
# token in hand: the operator that fails, or the name that does not resolve.

_MIXING = "expression mixes matrix tokens (t, x, dt, dx, e(i,j)) with graded-variable tokens"
_CONSTANTS = {"i": scalars.I, "lam": scalars.LAM}
_MATRIX_ATOMS = {name: matop.scalar_op(base)
                 for name, base in (("t", weyl.T), ("x", weyl.X), ("dt", weyl.DT), ("dx", weyl.DX))}
#: no basis label may be a constant or matrix atom; no variable may also be
#: "e" or "D", which are keywords only before "(" and so stay usable as labels
_RESERVED_LABELS = frozenset(_CONSTANTS).union(_MATRIX_ATOMS)
RESERVED = _RESERVED_LABELS | {"e", "D"}
_OPERATORS = (MatDiffOp, GradedDiffOp)
#: deepest parenthesis nesting (the corpus uses 3); keeps the recursion shallow
_MAX_NESTING = 64


def _promote(scalar: Scalar, context: Union[VarContext, None]):
    """A scalar as an operator: a multiplier over `context`, else scalar*identity."""
    if context is None:
        return matop.scalar_op(DiffOp.constant(scalar))
    return vecfield.multiplier(context.scalar(scalar))


class _Labels(LinComb):
    """A combination of basis labels, {label: Scalar}: the value of a table entry."""

    __slots__ = ("terms",)
    __mul__ = LinComb.scale


def _add(left, right, at: Token):
    if isinstance(left, Scalar) and isinstance(right, _OPERATORS):
        left = _promote(left, getattr(right, "ctx", None))
    elif isinstance(right, Scalar) and isinstance(left, _OPERATORS):
        right = _promote(right, getattr(left, "ctx", None))
    if type(left) is not type(right):
        if isinstance(left, _Labels) or isinstance(right, _Labels):
            raise ParseError("cannot add a bare scalar or operator to basis labels", at.line, at.col)
        raise ParseError(_MIXING, at.line, at.col)
    try:  # operators of different degrees or variable contexts
        return left + right
    except ValueError as exc:
        raise ParseError(str(exc), at.line, at.col) from None


def _mul(left, right, at: Token):
    if isinstance(left, Scalar) and not isinstance(right, Scalar):
        left, right = right, left  # a scalar factor commutes with everything
    if isinstance(right, Scalar):
        return left * right
    if isinstance(left, _Labels) or isinstance(right, _Labels):
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
            value = -value
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance()
            rhs = self.parse_term()
            value = _add(value, rhs if op.value == "+" else -rhs, op)
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
                return _Labels._of({name: scalars.ONE})
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


def parse_combination(text: str, labels: Sequence[str], line: int = 1, col: int = 1) -> dict[str, Scalar]:
    """Parse a linear combination of basis labels; '0' gives {}."""
    value = _ExprParser(text, line, col, labels=labels).parse_all()
    if isinstance(value, _Labels):
        return value.terms
    if isinstance(value, Scalar) and not value:
        return {}
    raise ParseError("a table entry must be 0 or a combination of basis labels", line, col)


# ---------------------------------------------------------------------------
# definition files

#: the sections an entry of each kind may hold besides `notes`
_LAYOUT = {
    "d-module": ("basis", "operators", "derived"),
    "vector-field": ("variables", "basis", "operators", "derived"),
    "table": ("basis", "table"),
    "grading": ("basis",),
    "basis-change": ("source-basis", "basis", "combos"),
    "weights": ("grading-operators", "weights", "split"),
}
KINDS = tuple(_LAYOUT)
_SECTIONS = {"notes", *(name for names in _LAYOUT.values() for name in names)}
_BASIS_LINE_RE = re.compile(rf"({_IDENT})\s*\(\s*([01])\s*,\s*([01])\s*\)")
_BRACKET_RE = re.compile(rf"([\[{{])\s*({_IDENT})\s*,\s*({_IDENT})\s*([\]}}])")
_SPLIT_KEYS = ("positive", "zero", "negative")
_IDENT_RE = re.compile(_IDENT)
_ID_RE = re.compile(rf"{_IDENT}(?:\.{_IDENT})*")
_WORD_RE = re.compile(r"\S+")


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
        if line.endswith(":") and line[:-1] in _SECTIONS:
            current = []
            sections.append((number, line[:-1], current))
        elif current is None:
            head.append((number, line))
        else:
            current.append((number, line))
    return head, sections


def _labels(line: str, number: int, start: int = 0):
    """The whitespace-separated words of line[start:], each an IDENT, with their columns."""
    for match in _WORD_RE.finditer(line, start):
        col = match.start() + 1
        yield _ident(match.group(), number, col), col


def _ident(word: str, number: int, col: int, rule: re.Pattern = _IDENT_RE,
           what: str = "an identifier") -> str:
    if not rule.fullmatch(word):
        raise ParseError(f"{word!r} is not {what}", number, col)
    return word


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


def _assignments(lines, labels, defined: Mapping, where: str = "the basis"):
    """'label = rhs' lines -> (number, label, rhs, column of rhs), each label one of
    `labels` and not yet in `defined`, which the caller fills as it goes."""
    for number, line in lines:
        label, label_col, rhs, rhs_col = _split_equals(line, number)
        if label not in labels:
            raise ParseError(f"{label!r} is not in {where}", number, label_col)
        if label in defined:
            raise ParseError(f"{label!r} is defined twice", number, label_col)
        yield number, label, rhs, rhs_col


def _parse_basis_lines(lines, what="basis element",
                       reserved: frozenset = _RESERVED_LABELS) -> tuple[tuple[str, Degree], ...]:
    basis = []
    seen = set()
    for number, line in lines:
        col = _indent_col(line)
        match = _BASIS_LINE_RE.fullmatch(line.strip())
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
    match = _BRACKET_RE.fullmatch(text)
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


def _section_map(sections, kind: str):
    """{name: lines}, each section given once and allowed in a `kind` entry by _LAYOUT."""
    seen = {}
    for number, name, lines in sections:
        if name not in _LAYOUT[kind] and name != "notes":
            raise ParseError(f"section {name!r} does not belong in a {kind} entry", number, 1)
        if name in seen:
            raise ParseError(f"duplicate section {name!r}", number, 1)
        seen[name] = lines
    return seen


def _require(sections: Mapping[str, list], name: str, kind: str):
    if name not in sections:
        raise ParseError(f"a {kind} entry needs a {name!r} section", 1, 1)
    return sections[name]


def _of_degree(value, label: str, degree: Degree, number: int, col: int):
    """The operator `value` defining `label` of `degree`; zero takes that degree."""
    if value.is_zero:
        return value.with_degree(degree)
    if value.degree != degree:
        raise ParseError(f"{label} evaluates to degree {value.degree}, basis says {degree}",
                         number, col)
    return value


def _parse_operator_sections(sections, kind: str, basis, context=None):
    """Shared operators/derived handling for realization kinds."""
    degrees = dict(basis)
    ops: dict[str, object] = {}
    for number, label, rhs, rhs_col in _assignments(_require(sections, "operators", kind),
                                                    degrees, ops):
        value = _ExprParser(rhs, number, rhs_col, context=context, definitions=ops).parse_all()
        if isinstance(value, Scalar):
            value = _promote(value, context)
        if isinstance(value, MatDiffOp) != (context is None):
            flavour = "matrix operator" if context is None else "graded vector field"
            raise ParseError(f"a {kind} entry defines {flavour}s", number, rhs_col)
        if isinstance(value, MatDiffOp):  # a matrix operator's degree is what the basis says
            value = value.with_degree(degrees[label])
        ops[label] = _of_degree(value, label, degrees[label], number, rhs_col)
    operator_order = list(ops)

    derived: list[tuple[str, str, tuple[str, str]]] = []
    for number, label, rhs, rhs_col in _assignments(sections.get("derived", []), degrees, ops):
        defined = {name: op.degree for name, op in ops.items()}
        symbol, la, lb = _bracket_head(rhs, number, rhs_col, defined, "{!r} is not defined yet")
        ops[label] = _of_degree(ops[la].bracket(ops[lb]), label, degrees[label], number, rhs_col)
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
    entry_id, id_col = _head_field(head[0], "algebra")
    _ident(entry_id, head[0][0], id_col, _ID_RE, "an id: identifiers joined by '.'")
    kind = _head_field(head[1], "kind")[0]
    for number, line in head[2:]:
        raise ParseError(f"unexpected line before the first section: {line.strip()!r}", number, 1)
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r} (expected one of {', '.join(KINDS)})", head[1][0], 1)
    named = _section_map(sections, kind)

    if kind in ("d-module", "vector-field"):
        payload = {}
        if kind == "vector-field":
            payload["context"] = VarContext(_parse_basis_lines(
                _require(named, "variables", kind), what="variable", reserved=RESERVED))
        basis = _parse_basis_lines(_require(named, "basis", kind))
        realization, order, derived = _parse_operator_sections(
            named, kind, basis, payload.get("context"))
        payload.update(basis=basis, realization=realization, operator_order=order, derived=derived)
    elif kind == "table":
        basis = _parse_basis_lines(_require(named, "basis", kind))
        labels = [label for label, _ in basis]
        index = {label: k for k, label in enumerate(labels)}
        degrees = dict(basis)
        constants: dict[tuple[int, int], list] = {}
        where: dict[tuple[int, int], tuple[int, int]] = {}  # stored pair -> its bracket's position
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
            if (i, j) in where:
                raise ParseError(f"duplicate entry for ({la}, {lb})", number, head_col)
            where[(i, j)] = (number, head_col)
            if entry:
                constants[(i, j)] = entry
        try:
            payload = {"table": BracketTable(basis, constants)}
        except BadEntry as exc:
            raise ParseError(str(exc), *where[exc.pair]) from None
    elif kind == "grading":
        payload = {"basis": _parse_basis_lines(_require(named, "basis", kind))}
    elif kind == "basis-change":
        old_basis = _parse_basis_lines(_require(named, "source-basis", kind))
        new_basis = _parse_basis_lines(_require(named, "basis", kind))
        old_labels = [label for label, _ in old_basis]
        old_index = {label: k for k, label in enumerate(old_labels)}
        rows: dict[str, list[Scalar]] = {}
        for number, label, rhs, rhs_col in _assignments(_require(named, "combos", kind),
                                                        dict(new_basis), rows, "the new basis"):
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
        grading_labels: list[str] = []
        for number, line in _require(named, "grading-operators", kind):
            for label, col in _labels(line, number):
                if label in grading_labels:
                    raise ParseError(f"duplicate grading operator {label!r}", number, col)
                grading_labels.append(label)
        weights: dict[str, tuple[Scalar, ...]] = {}
        weight_at: dict[str, tuple[int, int]] = {}
        for number, line in _require(named, "weights", kind):
            label, label_col, rhs, rhs_col = _split_equals(line, number)
            _ident(label, number, label_col)
            if label in weights:
                raise ParseError(f"duplicate weight line for {label!r}", number, label_col)
            weights[label] = _parse_scalar_tuple(rhs, number, rhs_col, len(grading_labels))
            weight_at[label] = (number, label_col)
        split: Union[dict[str, list[str]], None] = None
        if "split" in named:
            split = {key: [] for key in _SPLIT_KEYS}
            for number, line in named["split"]:
                key, colon, _ = line.partition(":")
                if not colon:
                    raise ParseError("expected 'positive|zero|negative: labels...'",
                                     number, _indent_col(line))
                if key.strip() not in split:
                    raise ParseError(f"unknown split bucket {key.strip()!r}", number, _indent_col(line))
                for label, col in _labels(line, number, len(key) + 1):
                    if label not in weights:
                        raise ParseError(f"split label {label!r} has no weight line", number, col)
                    if weight_at.pop(label, None) is None:
                        raise ParseError(f"split label {label!r} is listed twice", number, col)
                    split[key.strip()].append(label)
            if weight_at:
                label = next(iter(weight_at))
                raise ParseError(f"weight label {label!r} is in no split bucket", *weight_at[label])
        payload = {"grading_labels": grading_labels, "weights": weights,
                   "weight_order": list(weights), "split": split}
    notes = "\n".join(line.strip() for _, line in named.get("notes", []))
    return CorpusEntry(entry_id, kind, payload, notes)


def _head_field(head_line: tuple[int, str], expected: str) -> tuple[str, int]:
    """'<expected> <value>' -> (value, column of value)."""
    number, line = head_line
    words = list(_WORD_RE.finditer(line))
    if len(words) != 2 or words[0].group() != expected:
        raise ParseError(f"expected '{expected} <value>'", number, 1)
    return words[1].group(), words[1].start() + 1


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
    if len(values) != arity:
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
            out.append(f"  {label} = {realization.op(label)}")
        out.append("")
        if payload["derived"]:
            out.append("derived:")
            for label, _, (la, lb) in payload["derived"]:
                opening, closing = _delimiters(realization.op(la).degree, realization.op(lb).degree)
                out.append(f"  {label} = {opening}{la}, {lb}{closing}")
            out.append("")
    elif entry.kind == "table":
        basis_section("basis", payload["table"].basis)
        out.append("table:")
        out.extend(f"  {line}" for line in _bracket_lines(payload["table"], ", "))
        out.append("")
    elif entry.kind == "grading":
        basis_section("basis", payload["basis"])
    elif entry.kind == "basis-change":
        basis_section("source-basis", payload["old_basis"])
        basis_section("basis", payload["new_basis"])
        out.append("combos:")
        old_labels = [label for label, _ in payload["old_basis"]]
        for row, (label, _) in zip(payload["matrix"], payload["new_basis"]):
            combo = signed_sum(term_text(str(c), [old]) for old, c in zip(old_labels, row) if c)
            out.append(f"  {label} = {combo}")
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


def _bracket_lines(table: BracketTable, comma: str):
    """'[A,<comma>B] = combination' for each stored entry, in index order."""
    for (i, j), entry in sorted(table.constants.items()):
        (la, da), (lb, db) = table.basis[i], table.basis[j]
        opening, closing = _delimiters(da, db)
        yield f"{opening}{la}{comma}{lb}{closing} = {table.combo_str(entry)}"


# ---------------------------------------------------------------------------
# JSON


def json_text(payload) -> str:
    """The one JSON writer: two-space indent, sorted keys, a final newline."""
    import json  # loaded by the first run that writes JSON, not by every import
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _constant_to_json(value: GaussianRational) -> list[dict]:
    """A table constant in the one-term form of a lam-polynomial."""
    re, im = value.re, value.im
    return [{"re": [re.numerator, re.denominator], "im": [im.numerator, im.denominator], "lam": 0}]


def table_to_dict(table: BracketTable) -> dict:
    basis = [{"label": label, "degree": [degree.a1, degree.a2]} for label, degree in table.basis]
    brackets = []
    for (i, j), entry in sorted(table.constants.items()):
        brackets.append({
            "left": table.basis[i][0],
            "right": table.basis[j][0],
            "value": [{"target": table.basis[target][0], "coeff": _constant_to_json(coeff)}
                      for target, coeff in entry],
        })
    return {"basis": basis, "brackets": brackets}


# ---------------------------------------------------------------------------
# LaTeX

_GREEK = {"Pi": r"\Pi", "Lam": r"\Lambda", "lam": r"\lambda",
          "psi": r"\psi", "th": r"\theta"}


def label_to_latex(label: str) -> str:
    """Render a basis label: P~ -> \\tilde{P}, Qp -> Q_{+}, Rbar -> \\bar{R}."""
    accents = ""  # of the suffixes, peeled from the end: outermost first
    while label.endswith("~") or (label.endswith("bar") and len(label) > 3):
        tilde = label.endswith("~")
        accents, label = accents + (r"\tilde{" if tilde else r"\bar{"), label[:-1 if tilde else -3]
    if accents:
        return accents + label_to_latex(label) + "}" * accents.count("{")
    match = re.fullmatch(r"([A-Za-z]+?)(\d+)", label)
    if match:
        return label_to_latex(match.group(1)) + "_{" + match.group(2) + "}"
    match = re.fullmatch(r"([A-Za-z]+)(p|m)", label)
    if match and (match.group(1) in _GREEK or len(match.group(1)) == 1):
        sign = "+" if match.group(2) == "p" else "-"
        return label_to_latex(match.group(1)) + "_{" + sign + "}"
    return _GREEK.get(label, label)


def _coeff_latex(value: GaussianRational) -> str:
    """str(value) in LaTeX: each p/q as \\tfrac{p}{q}, and q*i as qi."""
    return re.sub(r"(\d+)/(\d+)", r"\\tfrac{\1}{\2}", str(value)).replace("*i", "i")


def _combo_latex(table: BracketTable, entry) -> str:
    return signed_sum(term_text(_coeff_latex(c), [label_to_latex(table.basis[t][0])], "")
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
        return "\n".join(_bracket_lines(table, ",")) + "\n"
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


def emit_report(report: DiscrepancyReport, fmt: str, counted: str, problems: str) -> str:
    """Render a check report as text, JSON, or LaTeX.

    Text reads '<subject>: <counted> verified', or '<subject>: <counted>
    checked, N <problems>' and one line per entry: `counted` says what was
    checked ('12 triples'), `problems` names the entries ('failures').
    """
    if fmt == "text":
        if report.ok:
            return f"{report.subject}: {counted} verified\n"
        lines = [f"{report.subject}: {counted} checked, {len(report.entries)} {problems}"]
        lines += [f"  {item}" for item in report.entries]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json_text(report_to_dict(report))
    if fmt == "latex":
        state = "ok" if report.ok else f"{len(report.entries)} discrepancies"
        out = [f"% {report.subject}: {report.checked} checks, {state}", r"\begin{itemize}"]
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

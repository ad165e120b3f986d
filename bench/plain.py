"""Independent oracle arithmetic for the benchmark, in plain ``fractions``.

Nothing here imports colorlie.  Gaussian rationals are ``(re, im)``
pairs of Fractions, a table is ``(basis, constants)`` with ``basis`` a
list of ``(label, (a1, a2))`` and ``constants`` a dict
``(i, j) -> {target: (re, im)}`` for ``i <= j``.  The readers accept the
definition-file and CLI text formats the benchmark checks; the writer
emits a table definition file the program must parse.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gneg(a):
    return (-a[0], -a[1])


def ginv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


def gnonzero(a) -> bool:
    return bool(a[0]) or bool(a[1])


def sign(da, db) -> int:
    """The color sign (-1)^(a1*b1 + a2*b2) of two degrees."""
    return -1 if (da[0] * db[0] + da[1] * db[1]) % 2 else 1


# -- expressions -----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][\w~']*)|(.))")


def _tokens(text: str):
    out = []
    for number, name, sym in _TOKEN.findall(text):
        if number:
            num, _, den = number.partition("/")
            out.append(("n", Fraction(int(num), int(den or 1))))
        elif name:
            out.append(("i", None) if name == "i" else ("l", name))
        elif sym.strip():
            out.append(("s", sym))
    return out


def _parse_sum(tokens, pos):
    """Sum of signed products; returns ({label or None: value}, pos)."""
    total: dict = {}
    first = True
    while pos < len(tokens):
        negative = False
        if tokens[pos] in (("s", "+"), ("s", "-")):
            negative = tokens[pos] == ("s", "-")
            pos += 1
        elif not first:
            break
        first = False
        value, label, pos = _parse_product(tokens, pos)
        if negative:
            value = gneg(value)
        total[label] = gadd(total.get(label, ZERO), value)
        if pos < len(tokens) and tokens[pos] == ("s", ")"):
            break
    return total, pos


def _parse_product(tokens, pos):
    value, label = ONE, None
    while pos < len(tokens):
        kind, item = tokens[pos]
        if kind == "n":
            value = gmul(value, (item, Fraction(0)))
        elif kind == "i":
            value = gmul(value, (Fraction(0), Fraction(1)))
        elif kind == "l":
            if label is not None:
                raise ValueError(f"two labels in one term: {label}, {item}")
            label = item
        elif (kind, item) == ("s", "("):
            inner, pos = _parse_sum(tokens, pos + 1)
            if tokens[pos:pos + 1] != [("s", ")")] or set(inner) - {None}:
                raise ValueError("bad parenthesised coefficient")
            value = gmul(value, inner.get(None, ZERO))
        else:
            raise ValueError(f"unexpected {item!r}")
        pos += 1
        if pos < len(tokens) and tokens[pos] == ("s", "*"):
            pos += 1
        elif pos < len(tokens) and tokens[pos] == ("s", "("):
            continue
        else:
            break
    return value, label, pos


def parse_combo(text: str) -> dict:
    """A combination like ``2*H - (1/2+i)*R`` as {label: value}, zeros dropped."""
    tokens = _tokens(text)
    if not tokens or tokens == [("n", Fraction(0))]:
        return {}
    total, pos = _parse_sum(tokens, 0)
    if pos != len(tokens) or None in total:
        raise ValueError(f"not a combination of labels: {text!r}")
    return {label: value for label, value in total.items() if gnonzero(value)}


def parse_number(text: str):
    """A Gaussian rational written like ``-1/2``, ``3*i`` or ``(1-i)``."""
    tokens = _tokens(text)
    total, pos = _parse_sum(tokens, 0)
    if pos != len(tokens) or set(total) - {None}:
        raise ValueError(f"not a number: {text!r}")
    return total.get(None, ZERO)


def fmt_number(value) -> str:
    re_, im = value
    if not im:
        return f"({re_})"
    return f"({re_}+({im})*i)"


# -- definition files ------------------------------------------------------

_BASIS_LINE = re.compile(r"^(\S+)\s*\(\s*([01])\s*,\s*([01])\s*\)$")
_BRACKET = re.compile(r"^([\[{])\s*(\S+?)\s*,\s*(\S+?)\s*[\]}]$")


def sections(text: str) -> dict:
    """Head fields and sections of a definition file: {name: [lines]}."""
    out: dict = {"": []}
    current = out[""]
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        if not raw[0].isspace() and raw.rstrip().endswith(":"):
            current = out.setdefault(raw.rstrip()[:-1], [])
        else:
            current.append(raw.strip())
    return out


def read_basis(lines) -> list:
    basis = []
    for line in lines:
        match = _BASIS_LINE.match(line)
        if not match:
            raise ValueError(f"bad basis line {line!r}")
        basis.append((match.group(1), (int(match.group(2)), int(match.group(3)))))
    return basis


def table_from_lines(basis, lines) -> dict:
    """Constants from ``[A, B] = combo`` lines over a basis."""
    index = {label: k for k, (label, _) in enumerate(basis)}
    constants: dict = {}
    for line in lines:
        head, _, rhs = line.partition("=")
        match = _BRACKET.match(head.strip())
        if not match:
            raise ValueError(f"bad bracket line {line!r}")
        i, j = index[match.group(2)], index[match.group(3)]
        entry = {index[label]: value for label, value in parse_combo(rhs).items()}
        if i > j:
            flip = -sign(basis[i][1], basis[j][1])
            entry = {t: gmul(v, (Fraction(flip), Fraction(0))) for t, v in entry.items()}
            i, j = j, i
        if entry:
            constants[(i, j)] = entry
    return constants


def read_table(text: str):
    parts = sections(text)
    basis = read_basis(parts["basis"])
    return basis, table_from_lines(basis, parts.get("table", []))


def read_basis_change(text: str):
    """(old basis, new basis, rows) with new_i = sum_j rows[i][j] * old_j."""
    parts = sections(text)
    old, new = read_basis(parts["source-basis"]), read_basis(parts["basis"])
    old_index = {label: k for k, (label, _) in enumerate(old)}
    combos = {}
    for line in parts["combos"]:
        label, _, rhs = line.partition("=")
        combos[label.strip()] = parse_combo(rhs)
    rows = []
    for label, _ in new:
        row = [ZERO] * len(old)
        for old_label, value in combos[label].items():
            row[old_index[old_label]] = value
        rows.append(row)
    return old, new, rows


def read_weights(text: str):
    """(grading labels, {label: (values...)}, split or None)."""
    parts = sections(text)
    grading = " ".join(parts["grading-operators"]).split()
    weights = {}
    for line in parts["weights"]:
        label, _, rhs = line.partition("=")
        body = rhs.strip()
        weights[label.strip()] = tuple(parse_number(v) for v in body[1:-1].split(","))
    split = None
    if "split" in parts:
        split = {}
        for line in parts["split"]:
            key, _, rest = line.partition(":")
            split[key.strip()] = rest.split()
    return grading, weights, split


def write_table(algebra: str, basis, constants, notes: str = "") -> str:
    """A table definition file in the program's grammar."""
    out = [f"algebra {algebra}", "kind table", "", "basis:"]
    out += [f"  {label} ({d[0]},{d[1]})" for label, d in basis]
    out += ["", "table:"]
    for (i, j) in sorted(constants):
        open_, close = ("{", "}") if sign(basis[i][1], basis[j][1]) == -1 else ("[", "]")
        terms = " + ".join(f"{fmt_number(v)}*{basis[t][0]}"
                           for t, v in sorted(constants[(i, j)].items()))
        out.append(f"  {open_}{basis[i][0]}, {basis[j][0]}{close} = {terms}")
    if notes:
        out += ["", "notes:", f"  {notes}"]
    return "\n".join(out) + "\n"


# -- table algebra -----------------------------------------------------------

def full_brackets(basis, constants) -> dict:
    """Every ordered pair (i, j) -> [(target, value)], by graded antisymmetry."""
    out = {}
    for (i, j), entry in constants.items():
        items = sorted(entry.items())
        out[(i, j)] = items
        if i != j:
            flip = (Fraction(-sign(basis[i][1], basis[j][1])), Fraction(0))
            out[(j, i)] = [(t, gmul(v, flip)) for t, v in items]
    return out


def invert(matrix):
    """Exact inverse by Gauss-Jordan elimination with pivot search."""
    n = len(matrix)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if gnonzero(aug[r][col]))
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = ginv(aug[col][col])
        aug[col] = [gmul(v, scale) for v in aug[col]]
        for r in range(n):
            if r != col and gnonzero(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [gadd(a, gneg(gmul(factor, b))) for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def change_basis(basis, constants, matrix) -> dict:
    """Constants of M . T . M^-1 under new_i = sum_k M[i][k] old_k."""
    n = len(basis)
    inverse = invert(matrix)
    brackets = full_brackets(basis, constants)
    rows = [[(k, v) for k, v in enumerate(row) if gnonzero(v)] for row in matrix]
    out = {}
    for i in range(n):
        for j in range(i, n):
            acc: dict = {}
            for k, mik in rows[i]:
                for l, mjl in rows[j]:
                    weight = gmul(mik, mjl)
                    for t, value in brackets.get((k, l), ()):
                        w = gmul(weight, value)
                        for m, inv in enumerate(inverse[t]):
                            if gnonzero(inv):
                                acc[m] = gadd(acc.get(m, ZERO), gmul(w, inv))
            entry = {m: v for m, v in acc.items() if gnonzero(v)}
            if entry:
                out[(i, j)] = entry
    return out


def jacobi_failures(basis, constants) -> set:
    """Label triples (x, y, z) on which graded Jacobi fails."""
    n = len(basis)
    brackets = full_brackets(basis, constants)
    degrees = [d for _, d in basis]
    failing = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc: dict = {}
                for outer, (p, q), s in ((i, (j, k), sign(degrees[i], degrees[k])),
                                         (j, (k, i), sign(degrees[j], degrees[i])),
                                         (k, (i, j), sign(degrees[k], degrees[j]))):
                    for mid, c1 in brackets.get((p, q), ()):
                        for target, c2 in brackets.get((outer, mid), ()):
                            term = gmul(c1, c2)
                            if s < 0:
                                term = gneg(term)
                            acc[target] = gadd(acc.get(target, ZERO), term)
                if any(gnonzero(v) for v in acc.values()):
                    failing.add((basis[i][0], basis[j][0], basis[k][0]))
    return failing


def restrict(basis, constants, labels, rename):
    """The subtable on the given labels, renamed; errors if it does not close."""
    keep = [next(k for k, (l, _) in enumerate(basis) if l == label) for label in labels]
    new_index = {old: new for new, old in enumerate(keep)}
    brackets = full_brackets(basis, constants)
    new_basis = [(rename.get(basis[old][0], basis[old][0]), basis[old][1]) for old in keep]
    out = {}
    for a in range(len(keep)):
        for b in range(a, len(keep)):
            entry = {new_index[t]: v for t, v in brackets.get((keep[a], keep[b]), ())}
            if entry:
                out[(a, b)] = entry
    return new_basis, out

"""Bracket tables, structure-constant extraction, and verification.

A BracketTable stores the structure constants of a Z2xZ2-graded algebra
over labeled, graded basis elements.  Constants are Gaussian rationals;
entries are stored for index pairs i <= j and the graded antisymmetry

    [[x, y]] = -koszul_sign(deg x, deg y) [[y, x]]

supplies the rest, on first use.  A Realization maps the same labels
to concrete operators (matrix differential operators or graded vector
fields); extraction re-derives the table from operator brackets by
exact linear solving, and verification replays every bracket against
the table and reports residuals instead of ever auto-correcting them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from typing import Mapping, NamedTuple, Sequence, Union

from .grading import Degree, koszul_sign
from .lincomb import add_into, add_scaled, signed_sum, term_text
from .linsolve import ColumnSolver, DependentColumns
from .scalars import QI_ZERO, GaussianRational, Scalar, as_scalar

Entry = Sequence[tuple[int, object]]  # exact constants, or Scalars that must be lam-free
Constants = tuple[tuple[int, GaussianRational], ...]
BasisItem = tuple[str, Degree]


class AlgebraError(Exception):
    """Base class for structural failures."""


class ClosureFailure(AlgebraError):
    """A bracket does not lie in the span of the basis."""

    def __init__(self, pair: tuple[str, str], residual: str):
        super().__init__(f"bracket of {pair[0]} and {pair[1]} leaves the basis span; residual {residual}")
        self.pair = pair
        self.residual = residual


class DependentBasis(AlgebraError):
    """The realization operators are linearly dependent."""


class LambdaDependence(AlgebraError):
    """A structure constant would have to depend on lam."""

    def __init__(self, pair: tuple[str, str]):
        super().__init__(f"bracket of {pair[0]} and {pair[1]} needs lam-dependent coefficients")
        self.pair = pair


def _wrong_degree(pair: tuple[str, str], degree: Degree, target: BasisItem) -> str:
    """The one wording of a bracket entry outside the sum of its operand degrees."""
    return (f"bracket of {pair[0]} and {pair[1]} has degree {degree} but targets "
            f"{target[0]} of degree {target[1]}")


class DegreeViolation(AlgebraError, ValueError):
    """A bracket solves onto a basis element outside the sum of its operand degrees.

    Also a ValueError: BracketTable refuses such an entry with one."""

    def __init__(self, pair: tuple[str, str], degree: Degree, target: BasisItem):
        super().__init__(_wrong_degree(pair, degree, target))
        self.pair = pair


class BadEntry(ValueError):
    """BracketTable refuses the entry given for the index pair ``pair``."""

    def __init__(self, pair: tuple[int, int], message: str):
        super().__init__(message)
        self.pair = pair


class BasisMismatch(AlgebraError):
    """Two tables disagree on labels or degrees."""


class SingularTransform(AlgebraError):
    """A basis-change matrix is not invertible."""


class DegreeMixing(AlgebraError):
    """A basis change mixes different degrees."""


class NotEigenvector(AlgebraError):
    """A grading element does not act diagonally on a basis element."""

    def __init__(self, grading_label: str, label: str, combo: str):
        super().__init__(f"[[{grading_label}, {label}]] = {combo} is not proportional to {label}")
        self.grading_label = grading_label
        self.label = label


def _normalize_entry(entry: Entry) -> tuple:
    """Ascending (target, nonzero coefficient) pairs, targets summed; Scalars unless all Gaussian rationals."""
    gauss = all(type(coeff) is GaussianRational for _, coeff in entry)
    if gauss and type(entry) is tuple and all(type(pair) is tuple and pair[1] for pair in entry) and all(
            a < b for (a, _), (b, _) in zip(entry, entry[1:])):
        return entry
    acc: dict = {}
    for target, coeff in entry:
        add_into(acc, target, coeff if gauss else as_scalar(coeff))
    return tuple(sorted(acc.items()))


class BracketTable:
    """Structure constants over a labeled, graded basis.  ``constants`` holds each nonzero pair i <= j
    once, the caller's tuple if already normal; the other ordered pairs are formed on first use."""

    def __init__(self, basis: Sequence[BasisItem], constants: Mapping[tuple[int, int], Entry]):
        self.basis: tuple[BasisItem, ...] = tuple((str(l), d) for l, d in basis)
        labels = [l for l, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        self.index: dict[str, int] = {l: i for i, (l, _) in enumerate(self.basis)}
        clean: dict[tuple[int, int], Constants] = {}
        n = len(self.basis)
        for (i, j), entry in constants.items():
            if not (0 <= i <= j < n):
                raise ValueError(f"bad index pair ({i},{j})")
            entry = _normalize_entry(entry)
            if not entry:
                continue
            deg_sum = self.basis[i][1] + self.basis[j][1]
            for target, coeff in entry:
                if type(coeff) is Scalar and not coeff.is_lam_free:
                    raise BadEntry((i, j), f"structure constant for ({labels[i]},{labels[j]}) "
                                           f"depends on lam: {coeff}")
                if not 0 <= target < n:
                    raise BadEntry((i, j), f"bracket of {labels[i]} and {labels[j]} targets index {target}, "
                                           f"outside the {n}-element basis")
                if self.basis[target][1] != deg_sum:
                    raise BadEntry((i, j), _wrong_degree((labels[i], labels[j]), deg_sum,
                                                         self.basis[target]))
            if i == j and koszul_sign(self.basis[i][1], self.basis[i][1]) == 1:
                raise BadEntry((i, j), f"[[{labels[i]}, {labels[i]}]] is a commutator and must vanish")
            clean[(i, j)] = entry if type(entry[0][1]) is GaussianRational else tuple(
                (target, coeff.constant_value()) for target, coeff in entry)
        self.constants = clean
        self._signed = None  # every ordered pair's entry: _signed_map()

    def _signed_map(self) -> dict[tuple[int, int], Constants]:
        """Every ordered pair's entry, (j, i) by graded antisymmetry, built on first use."""
        if self._signed is None:
            self._signed = dict(self.constants)
            for (i, j), entry in self.constants.items():
                if i < j:
                    sign = -koszul_sign(self.basis[j][1], self.basis[i][1])
                    self._signed[(j, i)] = tuple((t, c * sign) for t, c in entry)
        return self._signed

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.basis)

    def labels(self) -> list[str]:
        return [l for l, _ in self.basis]

    def bracket(self, i: int, j: int) -> Constants:
        """[[basis_i, basis_j]] as ((target index, coefficient), ...)."""
        return self._signed_map().get((i, j), ())

    def bracket_by_label(self, la: str, lb: str) -> Constants:
        return self.bracket(self.index[la], self.index[lb])

    def combo_str(self, entry) -> str:
        """Human form of a combination: '2*H-R', '0'."""
        return signed_sum(term_text(str(coeff), [self.basis[target][0]]) for target, coeff in entry)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BracketTable):
            return NotImplemented
        return self.basis == other.basis and self.constants == other.constants

    def __repr__(self) -> str:
        return f"BracketTable({len(self.basis)} elements, {len(self.constants)} nonzero pairs)"

    # -- derived tables ----------------------------------------------------------
    def restrict(self, labels: Sequence[str], rename: Union[Mapping[str, str], None] = None) -> BracketTable:
        """The subalgebra spanned by the given labels; errors if not closed."""
        rename = dict(rename or {})
        keep = [self.index[l] for l in labels]
        old_to_new = {old: new for new, old in enumerate(keep)}
        new_basis = [(rename.get(self.basis[old][0], self.basis[old][0]), self.basis[old][1]) for old in keep]
        constants = {}
        for ni in range(len(keep)):
            for nj in range(ni, len(keep)):
                entry = self.bracket(keep[ni], keep[nj])
                remapped = []
                for target, coeff in entry:
                    if target not in old_to_new:
                        raise ClosureFailure(
                            (self.basis[keep[ni]][0], self.basis[keep[nj]][0]),
                            self.combo_str(entry),
                        )
                    remapped.append((old_to_new[target], coeff))
                if remapped:
                    constants[(ni, nj)] = remapped
        return BracketTable(new_basis, constants)


class Discrepancy(NamedTuple):
    kind: str
    labels: tuple[str, ...]
    expected: str
    computed: str
    residual: str

    def __str__(self) -> str:
        who = ", ".join(self.labels)
        return f"[{who}] expected {self.expected}; computed {self.computed}; residual {self.residual}"


class DiscrepancyReport(NamedTuple):
    subject: str
    checked: int = 0
    entries: Sequence[Discrepancy] = ()

    @property
    def ok(self) -> bool:
        return not self.entries


class Realization:
    """Labels and degrees bound to concrete graded operators."""

    def __init__(self, basis: Sequence[BasisItem], ops: Mapping[str, object]):
        self.basis: tuple[BasisItem, ...] = tuple((str(l), d) for l, d in basis)
        self.index = {l: i for i, (l, _) in enumerate(self.basis)}
        if len(self.index) != len(self.basis):
            raise ValueError("duplicate basis labels")
        if set(ops) != set(self.index):
            missing = set(self.index) ^ set(ops)
            raise ValueError(f"operator set does not match basis: {sorted(missing)}")
        for label, degree in self.basis:
            if ops[label].degree != degree:
                raise ValueError(
                    f"operator for {label} has degree {ops[label].degree}, basis says {degree}"
                )
        self.ops = dict(ops)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Realization):
            return NotImplemented
        return self.basis == other.basis and self.ops == other.ops

    def op(self, label: str):
        return self.ops[label]

    def labels(self) -> list[str]:
        return [l for l, _ in self.basis]

    def bracket(self, la: str, lb: str):
        return self.ops[la].bracket(self.ops[lb])

    def transform(self, new_basis: Sequence[BasisItem], matrix: Sequence[Sequence[Scalar]]) -> Realization:
        """New operators new_i = sum_j matrix[i][j] * old_j."""
        ops = {}
        for (label, _), row in zip(new_basis, _transform_rows(self.basis, new_basis, matrix)[0]):
            olds = [(self.ops[self.basis[j][0]], c) for j, c in row.items()]
            total = _combine(olds[0][0]._like({}), olds)
            if total.is_zero:  # the operators themselves may be dependent
                raise SingularTransform(f"new basis element {label} is the zero combination")
            ops[label] = total
        return Realization(new_basis, ops)


def _combine(total, pairs):
    """total + sum c * op over (op, lam-free c) pairs, in one dict, of total's kind and degree."""
    terms = dict(total.terms)
    for op, c in pairs:
        add_scaled(terms, c, op.terms.items())
    return total._like(terms)


def _transform_rows(old_basis, new_basis, matrix) -> tuple[list[dict[int, GaussianRational]], ColumnSolver]:
    """Rows {j: nonzero constant} of new_i = sum_j matrix[i][j] * old_j, once
    checked, and the solver over them; a zero or dependent row is refused."""
    n = len(old_basis)
    if len(new_basis) != n or len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("basis change needs a square matrix over equally sized bases")
    rows = []
    for (label, degree), entries in zip(new_basis, matrix):
        row = {}
        for j, ((old_label, old_degree), value) in enumerate(zip(old_basis, entries)):
            coeff = as_scalar(value)
            if not coeff:
                continue
            if not coeff.is_lam_free:
                raise ValueError(f"basis-change coefficient for {label} depends on lam")
            if degree != old_degree:
                raise DegreeMixing(
                    f"{label} of degree {degree} draws on {old_label} of degree {old_degree}"
                )
            row[j] = coeff.constant_value()
        if not row:
            raise SingularTransform(f"new basis element {label} is the zero combination")
        rows.append(row)
    try:
        return rows, ColumnSolver(rows)
    except DependentColumns as exc:
        raise SingularTransform("basis-change matrix is singular") from exc


def change_basis(table: BracketTable, new_basis: Sequence[BasisItem],
                 matrix: Sequence[Sequence[Scalar]]) -> BracketTable:
    """Rewrite a table under new_i = sum_j matrix[i][j] * old_j."""
    rows, solver = _transform_rows(table.basis, new_basis, matrix)
    n = len(rows)
    # new_i = sum_k rows[i][k] * old_k, so solving against the rows for old_t
    # gives row t of the inverse: old_t in the new basis.
    inverse = [solver.solve({t: GaussianRational(1)})[0] for t in range(n)]
    constants = {}
    for i in range(n):
        for j in range(i, n):
            acc: dict[int, GaussianRational] = {}
            for k, cik in rows[i].items():
                for l, cjl in rows[j].items():
                    for target, coeff in table.bracket(k, l):
                        add_scaled(acc, cik * cjl * coeff, inverse[target].items())
            constants[(i, j)] = tuple(sorted(acc.items()))
    return BracketTable(new_basis, constants)


def _jacobi_sum(signed, degrees, i: int, j: int, k: int) -> dict[int, GaussianRational]:
    """The Jacobi sum of the basis triple (i, j, k) over the entries of every ordered pair."""
    a, b, c = degrees[i], degrees[j], degrees[k]
    acc: dict[int, GaussianRational] = {}
    for outer, y, z, sign in ((i, j, k, koszul_sign(a, c)), (j, k, i, koszul_sign(b, a)),
                              (k, i, j, koszul_sign(c, b))):
        for mid, coeff in signed.get((y, z), ()):
            add_scaled(acc, -coeff if sign < 0 else coeff, signed.get((outer, mid), ()))
    return acc


def check_jacobi(table: BracketTable, triples: Union[Sequence[tuple[int, int, int]], None] = None) -> DiscrepancyReport:
    """Graded Jacobi identity over ordered basis triples.

    For degrees a, b, c of x, y, z the identity is
    (-1)^<a,c> [[x,[[y,z]]]] + (-1)^<b,a> [[y,[[z,x]]]] + (-1)^<c,b> [[z,[[x,y]]]] = 0.

    The sum J is formed once per sorted triple i <= j <= k.  Graded
    antisymmetry of the table makes J of a permutation J or -J, so only a
    nonzero J is formed again, once for each other ordered permutation, each
    with its own residual, listed in lexicographic order.  ``checked``
    still counts ordered triples: n^3, or len(triples) for a given subset.
    """
    degrees = [d for _, d in table.basis]
    n = len(degrees)
    if triples is None:
        checked = n ** 3
        sorted_triples = combinations_with_replacement(range(n), 3)
    else:
        checked = len(triples)
        sorted_triples = {tuple(sorted(t)) for t in triples}
    signed = table._signed_map()
    sums = {t: acc for t in sorted_triples if (acc := _jacobi_sum(signed, degrees, *t))}
    if triples is None:
        triples = sorted({p for t in sums for p in permutations(t)})
    entries = []
    for t in map(tuple, triples):
        if tuple(sorted(t)) not in sums:
            continue
        if t not in sums:
            sums[t] = _jacobi_sum(signed, degrees, *t)
        residual = table.combo_str(sorted(sums[t].items()))
        labels = tuple(table.basis[x][0] for x in t)
        entries.append(Discrepancy("jacobi", labels, "0", residual, residual))
    return DiscrepancyReport("graded Jacobi", checked, tuple(entries))


def _diagnose_failure(pair, columns, target, base_solver_residual):
    """Decide lam-dependent coefficients against a genuine closure failure.

    Coordinate keys end in their lam exponent.  Precondition: the caller's
    solve failed, so no constant combination of the columns gives the
    target, and any solution over Q(i)(lam) depends on lam.  Let n be the
    number of columns and d the largest lam exponent.  The solve at every
    lam = 1 .. (2n+1)*d + 1 decides exactly.  If the columns have rank n
    over Q(i)(lam) and the target is outside their span, a nonzero n-minor
    of the columns times a nonzero (n+1)-minor with the target has
    lam-degree at most (2n+1)*d, so one of these points has independent
    columns and leaves a residual.  If the target is in their span, every
    point with independent columns solves exactly, and one exists.  If no
    point has independent columns, the columns are dependent over
    Q(i)(lam), and that too is a closure failure.
    """
    def eval_vector(vec, value: int):
        out: dict = {}
        for key, gauss in vec.items():
            add_into(out, key[:-1], gauss * value ** key[-1])
        return out

    degree = max((key[-1] for vec in (target, *columns) for key in vec), default=0)
    independent = False
    for value in range(1, (2 * len(columns) + 1) * degree + 2):
        try:
            solver = ColumnSolver([eval_vector(col, value) for col in columns])
        except DependentColumns:
            continue
        if solver.solve(eval_vector(target, value))[1]:
            raise ClosureFailure(pair, base_solver_residual)
        independent = True
    if independent:
        raise LambdaDependence(pair)
    raise ClosureFailure(pair, base_solver_residual)


def extract_structure_constants(real: Realization) -> BracketTable:
    """Re-derive the bracket table of a realization by exact linear solving."""
    labels = real.labels()
    ops = [real.op(l) for l in labels]
    columns = [op.coordinate_vector() for op in ops]
    try:
        solver = ColumnSolver(columns)
    except DependentColumns as exc:
        raise DependentBasis(f"the basis operators are linearly dependent ({exc})") from exc
    constants = {}
    n = len(ops)
    for i in range(n):
        for j in range(i, n):
            bracket = ops[i].bracket(ops[j])
            target = bracket.coordinate_vector()
            coeffs, residual = solver.solve(target)
            if residual:  # bracket - sum c_k op_k, whatever their degrees
                _diagnose_failure((labels[i], labels[j]), columns, target, str(bracket._like(residual)))
            degree = real.basis[i][1] + real.basis[j][1]
            for k in coeffs:  # ascending, so the first wrong-degree target in basis order
                if real.basis[k][1] != degree:
                    raise DegreeViolation((labels[i], labels[j]), degree, real.basis[k])
            constants[(i, j)] = tuple(coeffs.items())
    return BracketTable(real.basis, constants)


def weights(table: BracketTable, grading_labels: Sequence[str]) -> dict[str, tuple[GaussianRational, ...]]:
    """Eigenvalues of ad(grading element) on each basis element.

    [[Z, Y]] must equal weight * Y (or 0) for every listed Z; anything
    else raises NotEigenvector.
    """
    out: dict[str, tuple[GaussianRational, ...]] = {}
    for label, _ in table.basis:
        y = table.index[label]
        row = []
        for z_label in grading_labels:
            entry = table.bracket(table.index[z_label], y)
            if not entry:
                row.append(QI_ZERO)
            elif len(entry) == 1 and entry[0][0] == y:
                row.append(entry[0][1])
            else:
                raise NotEigenvector(z_label, label, table.combo_str(entry))
        out[label] = tuple(row)
    return out


def triangular_split(weight_map: Mapping[str, tuple[GaussianRational, ...]]) -> dict[str, list[str]]:
    """Partition labels by the lexicographic sign of their real weight vector."""
    split = {"positive": [], "zero": [], "negative": []}
    for label, row in weight_map.items():
        bucket = "zero"
        for value in row:
            (re, _), (im, _) = value.parts()
            if im:
                raise ValueError(f"weight {value} of {label} is not real")
            if re:
                bucket = "positive" if re > 0 else "negative"
                break
        split[bucket].append(label)
    return split


def verify_realization(real: Realization, table: BracketTable) -> DiscrepancyReport:
    """Replay every bracket of the realization against the table."""
    if real.basis != table.basis:
        raise BasisMismatch("realization and table bases differ")
    labels = real.labels()
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    entries = []
    for i, j in pairs:
        computed = real.op(labels[i]).bracket(real.op(labels[j]))
        entry = table.constants.get((i, j), ())
        residual = _combine(computed, ((real.op(labels[target]), -coeff) for target, coeff in entry))
        if not residual.is_zero:
            entries.append(Discrepancy(
                "bracket", (labels[i], labels[j]),
                table.combo_str(entry), str(computed), str(residual),
            ))
    return DiscrepancyReport("realization vs table", len(pairs), tuple(entries))


def derived_generators(real: Realization, defs: Sequence[tuple[str, tuple[str, str]]]) -> Realization:
    """Extend a realization with new elements defined by graded brackets.

    Each definition is (new label, (label a, label b)); the new operator
    is [[a, b]] and its degree is the sum of the operand degrees.  The
    bracket is an anticommutator or commutator exactly as the degrees
    dictate, so one construction covers both.
    """
    basis = list(real.basis)
    ops = dict(real.ops)
    for label, (la, lb) in defs:
        if label in ops:
            raise ValueError(f"label {label} already defined")
        ops[label] = ops[la].bracket(ops[lb])
        basis.append((label, ops[label].degree))
    return Realization(basis, ops)

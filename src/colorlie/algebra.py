"""Bracket tables, structure-constant extraction, and verification.

A BracketTable stores the structure constants of a Z2xZ2-graded algebra
over labeled, graded basis elements.  Constants are lam-free Scalars;
entries are stored for index pairs i <= j and the graded antisymmetry

    [[x, y]] = -koszul_sign(deg x, deg y) [[y, x]]

supplies the rest, once per table.  A Realization maps the same labels
to concrete operators (matrix differential operators or graded vector
fields); extraction re-derives the table from operator brackets by
exact linear solving, and verification replays every bracket against
the table and reports residuals instead of ever auto-correcting them.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence, Union

from .grading import Degree, koszul_sign
from .lincomb import add_into, signed_sum, term_text
from .linsolve import ColumnSolver, DependentColumns
from .scalars import GaussianRational, Scalar, as_scalar

Entry = Sequence[tuple[int, Scalar]]
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


class DegreeViolation(AlgebraError, ValueError):
    """A bracket solves onto a basis element outside the sum of its operand degrees.

    Also a ValueError: BracketTable refuses such an entry with one."""

    def __init__(self, pair: tuple[str, str], degree: Degree, target: BasisItem):
        super().__init__(f"bracket of {pair[0]} and {pair[1]} has degree {degree} but targets "
                         f"{target[0]} of degree {target[1]}")
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


def _normalize_entry(entry) -> tuple[tuple[int, Scalar], ...]:
    acc: dict[int, Scalar] = {}
    for target, coeff in entry:
        add_into(acc, target, as_scalar(coeff))
    return tuple(sorted(acc.items()))


class BracketTable:
    """Structure constants over a labeled, graded basis."""

    def __init__(self, basis: Sequence[BasisItem], constants: Mapping[tuple[int, int], Entry]):
        self.basis: tuple[BasisItem, ...] = tuple((str(l), d) for l, d in basis)
        labels = [l for l, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        self.index: dict[str, int] = {l: i for i, (l, _) in enumerate(self.basis)}
        clean: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
        n = len(self.basis)
        for (i, j), entry in constants.items():
            if not (0 <= i <= j < n):
                raise ValueError(f"bad index pair ({i},{j})")
            entry = _normalize_entry(entry)
            if not entry:
                continue
            deg_sum = self.basis[i][1] + self.basis[j][1]
            for target, coeff in entry:
                if not coeff.is_lam_free:
                    raise ValueError(
                        f"structure constant for ({labels[i]},{labels[j]}) depends on lam: {coeff}"
                    )
                if self.basis[target][1] != deg_sum:
                    raise ValueError(
                        f"bracket of {labels[i]} ({self.basis[i][1]}) and {labels[j]} "
                        f"({self.basis[j][1]}) targets {labels[target]} of degree "
                        f"{self.basis[target][1]}"
                    )
            if i == j and koszul_sign(self.basis[i][1], self.basis[i][1]) == 1:
                raise ValueError(
                    f"[[{labels[i]}, {labels[i]}]] is a commutator and must vanish"
                )
            clean[(i, j)] = entry
        self.constants = clean
        self._signed = dict(clean)  # every ordered pair: (j, i) by graded antisymmetry
        for (i, j), entry in clean.items():
            if i < j:
                sign = -koszul_sign(self.basis[j][1], self.basis[i][1])
                self._signed[(j, i)] = tuple((t, c * sign) for t, c in entry)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.basis)

    def labels(self) -> list[str]:
        return [l for l, _ in self.basis]

    def bracket(self, i: int, j: int) -> tuple[tuple[int, Scalar], ...]:
        """[[basis_i, basis_j]] as ((target index, coefficient), ...)."""
        return self._signed.get((i, j), ())

    def bracket_by_label(self, la: str, lb: str) -> tuple[tuple[int, Scalar], ...]:
        return self.bracket(self.index[la], self.index[lb])

    def combo_str(self, entry) -> str:
        """Human form of a combination: '2*H-R', '0'."""
        return signed_sum(term_text(str(coeff), [self.basis[target][0]]) for target, coeff in entry)

    def sector(self, da: Degree, db: Degree):
        """Stored entries whose operand degrees form the unordered pair {da, db}."""
        wanted = {da, db}
        out = []
        for (i, j), entry in sorted(self.constants.items()):
            if {self.basis[i][1], self.basis[j][1]} == wanted:
                out.append((i, j, entry))
        return out

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

    def restrict_degrees(self, degrees) -> BracketTable:
        degrees = set(degrees)
        labels = [l for l, d in self.basis if d in degrees]
        return self.restrict(labels)


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

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.entries)} discrepancies"
        return f"{self.subject}: {self.checked} checks, {state}"


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

    def restrict(self, labels: Sequence[str], rename: Union[Mapping[str, str], None] = None) -> Realization:
        rename = dict(rename or {})
        basis = [(rename.get(l, l), self.basis[self.index[l]][1]) for l in labels]
        ops = {rename.get(l, l): self.ops[l] for l in labels}
        return Realization(basis, ops)

    def transform(self, new_basis: Sequence[BasisItem], matrix: Sequence[Sequence[Scalar]]) -> Realization:
        """New operators new_i = sum_j matrix[i][j] * old_j."""
        _check_transform(self.basis, new_basis, matrix)
        ops = {}
        for i, (label, degree) in enumerate(new_basis):
            total = None
            for j, (_, old_degree) in enumerate(self.basis):
                coeff = as_scalar(matrix[i][j])
                if not coeff:
                    continue
                piece = self.ops[self.basis[j][0]].scale(coeff)
                total = piece if total is None else total + piece
            if total is None or total.is_zero:
                raise SingularTransform(f"new basis element {label} is the zero combination")
            ops[label] = total
        return Realization(new_basis, ops)


def _check_transform(old_basis, new_basis, matrix):
    n = len(old_basis)
    if len(new_basis) != n or len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("basis change needs a square matrix over equally sized bases")
    for i, (label, degree) in enumerate(new_basis):
        for j, (old_label, old_degree) in enumerate(old_basis):
            coeff = as_scalar(matrix[i][j])
            if not coeff:
                continue
            if not coeff.is_lam_free:
                raise ValueError(f"basis-change coefficient for {label} depends on lam")
            if degree != old_degree:
                raise DegreeMixing(
                    f"{label} of degree {degree} draws on {old_label} of degree {old_degree}"
                )


def change_basis(table: BracketTable, new_basis: Sequence[BasisItem],
                 matrix: Sequence[Sequence[Scalar]]) -> BracketTable:
    """Rewrite a table under new_i = sum_j matrix[i][j] * old_j."""
    _check_transform(table.basis, new_basis, matrix)
    n = len(table.basis)
    rows = [{k: v for k in range(n) if (v := as_scalar(matrix[i][k]).constant_value())}
            for i in range(n)]
    # new_i = sum_k rows[i][k] * old_k, so solving against the rows for old_t
    # gives row t of the inverse: old_t in the new basis.
    try:
        solver = ColumnSolver(rows)
    except DependentColumns as exc:
        raise SingularTransform("basis-change matrix is singular") from exc
    inverse = [{m: c for m, c in enumerate(solver.solve({t: GaussianRational(1)})[0]) if c}
               for t in range(n)]
    constants: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for i in range(n):
        for j in range(i, n):
            acc: dict[int, GaussianRational] = {}
            for k, cik in rows[i].items():
                for l, cjl in rows[j].items():
                    for target, coeff in table.bracket(k, l):
                        weight = cik * cjl * coeff.constant_value()
                        for m, inv in inverse[target].items():
                            add_into(acc, m, weight * inv)
            constants[(i, j)] = [(m, Scalar.constant(v)) for m, v in acc.items()]
    return BracketTable(new_basis, constants)


def check_jacobi(table: BracketTable, triples: Union[Sequence[tuple[int, int, int]], None] = None) -> DiscrepancyReport:
    """Graded Jacobi identity over ordered basis triples.

    For degrees a, b, c of x, y, z the identity is
    (-1)^<a,c> [[x,[[y,z]]]] + (-1)^<b,a> [[y,[[z,x]]]] + (-1)^<c,b> [[z,[[x,y]]]] = 0.
    """
    n = len(table.basis)
    if triples is None:
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    entries = []
    for i, j, k in triples:
        a = table.basis[i][1]
        b = table.basis[j][1]
        c = table.basis[k][1]
        acc: dict[int, Scalar] = {}

        def accumulate(outer: int, inner_pair: tuple[int, int], sign: int):
            for mid, coeff in table.bracket(*inner_pair):
                for target, coeff2 in table.bracket(outer, mid):
                    add_into(acc, target, coeff * coeff2 * sign)

        accumulate(i, (j, k), koszul_sign(a, c))
        accumulate(j, (k, i), koszul_sign(b, a))
        accumulate(k, (i, j), koszul_sign(c, b))
        if acc:
            residual = table.combo_str(sorted(acc.items()))
            labels = (table.basis[i][0], table.basis[j][0], table.basis[k][0])
            entries.append(Discrepancy("jacobi", labels, "0", residual, residual))
    return DiscrepancyReport("graded Jacobi", len(triples), tuple(entries))


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
            if residual:
                from .io import operator_expr_text  # io imports this module
                for k, c in enumerate(coeffs):  # bracket - sum c_k op_k, whatever their degrees
                    if c:
                        bracket -= ops[k].scale(Scalar.constant(c)).with_degree(bracket.degree)
                _diagnose_failure((labels[i], labels[j]), columns, target,
                                  operator_expr_text(bracket))
            degree = real.basis[i][1] + real.basis[j][1]
            for k, c in enumerate(coeffs):
                if c and real.basis[k][1] != degree:
                    raise DegreeViolation((labels[i], labels[j]), degree, real.basis[k])
            constants[(i, j)] = [(k, Scalar.constant(c)) for k, c in enumerate(coeffs) if c]
    return BracketTable(real.basis, constants)


def compare_tables(expected: BracketTable, computed: BracketTable) -> DiscrepancyReport:
    """Entry-by-entry comparison of two tables over the same basis."""
    if expected.basis != computed.basis:
        raise BasisMismatch(
            f"bases differ: {expected.basis!r} vs {computed.basis!r}"
        )
    entries = []
    n = len(expected.basis)
    for i in range(n):
        for j in range(i, n):
            left = expected.constants.get((i, j), ())
            right = computed.constants.get((i, j), ())
            if left == right:
                continue
            delta: dict[int, Scalar] = dict(left)
            for target, coeff in right:
                add_into(delta, target, -coeff)
            labels = (expected.basis[i][0], expected.basis[j][0])
            entries.append(Discrepancy(
                "table", labels,
                expected.combo_str(left), computed.combo_str(right),
                expected.combo_str(sorted(delta.items())),
            ))
    return DiscrepancyReport("table comparison", n * (n + 1) // 2, tuple(entries))


def weights(table: BracketTable, grading_labels: Sequence[str]) -> dict[str, tuple[Scalar, ...]]:
    """Eigenvalues of ad(grading element) on each basis element.

    [[Z, Y]] must equal weight * Y (or 0) for every listed Z; anything
    else raises NotEigenvector.
    """
    out: dict[str, tuple[Scalar, ...]] = {}
    for label, _ in table.basis:
        y = table.index[label]
        row = []
        for z_label in grading_labels:
            entry = table.bracket(table.index[z_label], y)
            if not entry:
                row.append(Scalar())
            elif len(entry) == 1 and entry[0][0] == y:
                row.append(entry[0][1])
            else:
                raise NotEigenvector(z_label, label, table.combo_str(entry))
        out[label] = tuple(row)
    return out


def triangular_split(weight_map: Mapping[str, tuple[Scalar, ...]]) -> dict[str, list[str]]:
    """Partition labels by the lexicographic sign of their weight vector."""
    split = {"positive": [], "zero": [], "negative": []}
    for label, row in weight_map.items():
        bucket = "zero"
        for value in row:
            rat = value.as_real_rational()
            if rat > 0:
                bucket = "positive"
                break
            if rat < 0:
                bucket = "negative"
                break
        split[bucket].append(label)
    return split


def verify_realization(real: Realization, table: BracketTable,
                       pairs: Union[Sequence[tuple[int, int]], None] = None) -> DiscrepancyReport:
    """Replay every bracket of the realization against the table."""
    if real.basis != table.basis:
        raise BasisMismatch("realization and table bases differ")
    labels = real.labels()
    n = len(labels)
    if pairs is None:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    entries = []
    for i, j in pairs:
        computed = real.op(labels[i]).bracket(real.op(labels[j]))
        entry = table.constants.get((i, j), ())
        expected = None
        for target, coeff in entry:
            piece = real.op(labels[target]).scale(coeff)
            expected = piece if expected is None else expected + piece
        residual = computed if expected is None else computed - expected
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
    index = dict(real.index)
    for label, (la, lb) in defs:
        if label in index:
            raise ValueError(f"label {label} already defined")
        op = ops[la].bracket(ops[lb])
        degree = op.degree
        basis.append((label, degree))
        ops[label] = op
        index[label] = len(basis) - 1
    return Realization(basis, ops)

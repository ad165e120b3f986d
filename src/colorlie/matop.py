"""4x4 matrices of Weyl-algebra operators with a declared Z2xZ2 degree.

An operator is one sparse ``LinComb`` keyed by (row, col, WeylMonomial),
0-indexed; the per-cell DiffOps (``nonzero_entries``, ``entries``) are
derived on demand for printing and ``apply``.  The degree is metadata,
not something inferred from the block structure: the presentations
assign it, and the graded bracket trusts it.  Addition requires equal
degrees (a sum of different degrees would not be homogeneous); the zero
operator is degree-polymorphic so residuals can be formed in any sector.

The product of terms (i, j, lm) and (j, k, rm) is the uncontracted term
(i, k, lm + rm) plus the contractions of lm's derivatives with rm's
variables.  In a bracket of sign +1, a.b - b.a, ``compose`` skips, pair
by pair, an uncontracted term that the reversed product cancels: a left
term c (i, i, lm) times a right term (i, k, rm) is matched in b.a by
(i, k, rm) times (k, k, lm) when the left operand also has c at
(k, k, lm); a right term c (k, k, rm) likewise, when the right operand
also has c at (i, i, rm).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .grading import D00, Degree, koszul_sign
from .scalars import Scalar, as_scalar
from . import lincomb, weyl
from .lincomb import LinComb, add_into, setslot
from .weyl import DiffOp, WeylMonomial

MatKey = tuple[int, int, WeylMonomial]


class MatDiffOp(LinComb):
    """A declared degree and terms {(row, col, monomial): nonzero Scalar}."""

    __slots__ = ("degree", "terms")

    def __init__(self, terms: Mapping[MatKey, Scalar] = (), degree: Degree = D00):
        clean = {}
        for (row, col, mono), coeff in dict(terms).items():
            if row not in range(4) or col not in range(4):
                raise ValueError(f"matrix position ({row},{col}) is outside 0..3")
            mono = WeylMonomial(*mono)
            if min(mono) < 0:
                raise ValueError(f"negative exponent in {mono}")
            coeff = as_scalar(coeff)
            if coeff:
                clean[(row, col, mono)] = coeff
        setslot(self, "degree", degree)
        setslot(self, "terms", clean)

    @classmethod
    def zero(cls, degree: Degree = D00) -> MatDiffOp:
        return cls({}, degree)

    def with_degree(self, degree: Degree) -> MatDiffOp:
        return MatDiffOp._of(degree, self.terms)

    # -- linear structure (sums, negation and scaling are LinComb's) ----------
    def _check(self, other: MatDiffOp) -> None:
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError(
                f"cannot add operators of degrees {self.degree} and {other.degree}"
            )

    def __mul__(self, other) -> MatDiffOp:
        if isinstance(other, MatDiffOp):
            return compose(self, other)
        return self.scale(other)

    def bracket(self, other: MatDiffOp) -> MatDiffOp:
        return graded_bracket(self, other)

    # -- queries ---------------------------------------------------------------
    def nonzero_entries(self):
        """(row, col, DiffOp) for each nonzero cell, row-major."""
        cells: dict[tuple[int, int], dict] = {}
        for row, col, mono in sorted(self.terms):
            cells.setdefault((row, col), {})[mono] = self.terms[(row, col, mono)]
        for (row, col), terms in cells.items():
            yield row, col, DiffOp._of(terms)

    @property
    def entries(self) -> tuple[tuple[DiffOp, ...], ...]:
        """The 4x4 grid of cells, built on each access."""
        grid = [[weyl.ZERO] * 4 for _ in range(4)]
        for i, j, d in self.nonzero_entries():
            grid[i][j] = d
        return tuple(map(tuple, grid))

    def coordinate_vector(self) -> dict:
        """Exact coordinates: (row, col, weyl monomial, lam exponent) -> GaussianRational."""
        return {(*key, exp): value for key, coeff in self.terms.items()
                for exp, value in coeff.items()}

    def __repr__(self) -> str:
        return f"MatDiffOp(degree={self.degree}, terms={str(self)!r})"

    def __str__(self) -> str:
        """Definition-file text: 'e(1,1)*(t*dt) + e(2,2)*(lam)', or '0'."""
        return " + ".join(f"e({i+1},{j+1})*({d})" for i, j, d in self.nonzero_entries()) or "0"


def elem(i: int, j: int) -> MatDiffOp:
    """The elementary matrix e(i,j) (1-indexed), degree (0,0)."""
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError("elementary matrix indices run from 1 to 4")
    return MatDiffOp({(i - 1, j - 1, WeylMonomial(0, 0, 0, 0)): 1})


def scalar_op(d: DiffOp) -> MatDiffOp:
    """d broadcast along the diagonal: the operator d * identity."""
    return MatDiffOp({(i, i, mono): c for i in range(4) for mono, c in d.terms.items()})


IDENTITY = scalar_op(weyl.ONE)


def compose(left: MatDiffOp, right: MatDiffOp, commuting: bool = False) -> MatDiffOp:
    """Matrix product: each left (i, j) term meets each right (j, k) term.  With
    ``commuting`` (a bracket of sign +1) a pair skips an uncontracted product
    that right.left cancels (module notes)."""
    right_rows: dict[int, list] = {}
    for (j, k, rm), rc in right.terms.items():
        right_rows.setdefault(j, []).append((k, rm, rc))
    terms: dict[MatKey, Scalar] = {}
    for (i, j, lm), lc in left.terms.items():
        for k, rm, rc in right_rows.get(j, ()):
            # the uncontracted term comes first
            skip = commuting and (i == j and left.terms.get((k, k, lm)) == lc
                                  or j == k and right.terms.get((i, i, rm)) == rc)
            product = weyl.mono_product(lm, rm)[skip:]
            if product:
                coeff = lc * rc
                for factor, mono in product:
                    add_into(terms, (i, k, mono), coeff * factor)
    return MatDiffOp._of(left.degree + right.degree, terms)


def graded_bracket(a: MatDiffOp, b: MatDiffOp) -> MatDiffOp:
    """[[a, b]] by ``lincomb.graded_bracket``, less cancelling products (module notes)."""
    plus = koszul_sign(a.degree, b.degree) == 1
    return lincomb.graded_bracket(a, b, lambda x, y: compose(x, y, plus))


def apply(op: MatDiffOp, column: Sequence[DiffOp]) -> list[DiffOp]:
    """Apply a matrix operator to a 4-component polynomial column."""
    column = list(column)
    if len(column) != 4:
        raise ValueError("expected a 4-component column")
    out = [weyl.ZERO] * 4
    for i, j, d in op.nonzero_entries():
        if not column[j].is_zero:
            out[i] = out[i] + weyl.apply(d, column[j])
    return out

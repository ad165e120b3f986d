"""4x4 matrices of Weyl-algebra operators with a declared Z2xZ2 degree.

An operator is a ``LamKeyed`` sum keyed by (row, col, WeylMonomial, lam
exponent), 0-indexed, as a vector field is; the sum rule, ``scale``, the
coordinates and the regroup into Scalars are ``LamKeyed``'s.  The public
constructor flattens {(row, col, monomial): Scalar}; ``nonzero_entries`` and
``entries`` regroup the cells as DiffOps for printing and ``apply``.  The
degree is metadata that the presentations assign and the graded bracket
trusts, unchecked.

The product of terms (i, j, lm, e) and (j, k, rm, f) is the uncontracted
term (i, k, lm + rm, e + f) plus the contractions of lm's derivatives with
rm's variables.  In a bracket of sign +1, a.b - b.a, ``_product_into``
skips, pair by pair, an uncontracted term that the reversed product
cancels: a left term c (i, i, lm, e) times a right term (i, k, rm, f) is
matched in b.a by (i, k, rm, f) times (k, k, lm, e) when the left operand
also has c at (k, k, lm, e); a right term c (k, k, rm, f) likewise, when
the right operand also has c at (i, i, rm, f).
"""

from __future__ import annotations

from itertools import groupby
from typing import Mapping, Sequence

from .grading import D00, Degree, koszul_sign
from .scalars import LamKeyed, Scalar, as_scalar
from . import lincomb, weyl
from .lincomb import add_into, setslot
from .weyl import DiffOp, WeylMonomial

MatKey = tuple[int, int, WeylMonomial]


class MatDiffOp(LamKeyed):
    """A declared degree and terms {(row, col, monomial, lam exponent): nonzero GaussianRational}."""

    __slots__ = ("degree", "terms")

    def __init__(self, terms: Mapping[MatKey, Scalar] = (), degree: Degree = D00):
        clean = {}
        for (row, col, mono), coeff in dict(terms).items():
            if row not in range(4) or col not in range(4):
                raise ValueError(f"matrix position ({row},{col}) is outside 0..3")
            mono = WeylMonomial(*mono)
            if min(mono) < 0:
                raise ValueError(f"negative exponent in {mono}")
            for exp, value in as_scalar(coeff).items():  # a Scalar holds no zero
                clean[(row, col, mono, exp)] = value
        setslot(self, "degree", degree)
        setslot(self, "terms", clean)

    @classmethod
    def zero(cls, degree: Degree = D00) -> MatDiffOp:
        return cls({}, degree)

    def with_degree(self, degree: Degree) -> MatDiffOp:
        return MatDiffOp._of(degree, self.terms)

    def __mul__(self, other) -> MatDiffOp:
        return compose(self, other) if isinstance(other, MatDiffOp) else self.scale(other)

    def bracket(self, other: MatDiffOp) -> MatDiffOp:
        return graded_bracket(self, other)

    # -- queries ---------------------------------------------------------------
    def nonzero_entries(self):
        """(row, col, DiffOp) for each nonzero cell, row-major, with Scalar coefficients."""
        for (row, col), cell in groupby(self.scalar_terms().items(), lambda item: item[0][:2]):
            yield row, col, DiffOp._of({mono: coeff for (_, _, mono), coeff in cell})

    @property
    def entries(self) -> tuple[tuple[DiffOp, ...], ...]:
        """The 4x4 grid of cells, built on each access."""
        grid = [[weyl.ZERO] * 4 for _ in range(4)]
        for i, j, d in self.nonzero_entries():
            grid[i][j] = d
        return tuple(map(tuple, grid))

    coordinate_vector = LamKeyed.coordinate_vector  # own attribute: bench/tracer.py wraps it per class

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


def _product_into(terms: dict, left: MatDiffOp, right: MatDiffOp, sign: int,
                  commuting: bool = False) -> dict:
    """terms += sign * left.right, each left (i, j) term times each right (j, k) one;
    ``commuting`` (a bracket of sign +1) skips what right.left cancels (module notes)."""
    right_rows: dict[int, list] = {}
    for (j, k, rm, rexp), rc in right.terms.items():
        right_rows.setdefault(j, []).append((k, rm, rexp, rc))
    for (i, j, lm, lexp), lc in left.terms.items():
        for k, rm, rexp, rc in right_rows.get(j, ()):
            # the uncontracted term comes first
            skip = commuting and (i == j and left.terms.get((k, k, lm, lexp)) == lc
                                  or j == k and right.terms.get((i, i, rm, rexp)) == rc)
            product = weyl.mono_product(lm, rm)[skip:]
            if product:
                coeff = lc * rc if sign == 1 else -(lc * rc)
                exp = lexp + rexp
                for factor, mono in product:
                    add_into(terms, (i, k, mono, exp), coeff if factor == 1 else coeff * factor)
    return terms


def compose(left: MatDiffOp, right: MatDiffOp) -> MatDiffOp:
    """The matrix product left.right."""
    return MatDiffOp._of(left.degree + right.degree, _product_into({}, left, right, 1))


def graded_bracket(a: MatDiffOp, b: MatDiffOp) -> MatDiffOp:
    """[[a, b]] by ``lincomb.graded_bracket``, less cancelling products (module notes)."""
    commuting = koszul_sign(a.degree, b.degree) == 1
    return MatDiffOp._of(a.degree + b.degree, lincomb.graded_bracket(
        a, b, lambda out, x, y, sign: _product_into(out, x, y, sign, commuting)))


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

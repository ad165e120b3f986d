"""4x4 matrices of Weyl-algebra operators with a declared Z2xZ2 degree.

The degree is metadata, not something inferred from the block structure:
the presentations assign it, and the graded bracket trusts it.  Addition
requires equal degrees (a sum of different degrees would not be
homogeneous); the zero operator is degree-polymorphic so residuals can
be formed in any sector.
"""

from __future__ import annotations

from typing import Sequence

from .grading import D00, Degree
from .scalars import GaussianRational, as_scalar
from . import lincomb, weyl
from .lincomb import Frozen, setslot
from .weyl import DiffOp


class MatDiffOp(Frozen):
    """A 4x4 matrix with DiffOp entries and a declared degree."""

    __slots__ = ("entries", "degree")

    def __init__(self, entries: Sequence[Sequence[DiffOp]], degree: Degree = D00):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("MatDiffOp needs a 4x4 grid of entries")
        setslot(self, "entries", rows)
        setslot(self, "degree", degree)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, degree: Degree = D00) -> MatDiffOp:
        return cls([[weyl.ZERO] * 4 for _ in range(4)], degree)

    def with_degree(self, degree: Degree) -> MatDiffOp:
        return MatDiffOp(self.entries, degree)

    # -- linear structure ----------------------------------------------------
    def __add__(self, other: MatDiffOp) -> MatDiffOp:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add operators of degrees {self.degree} and {other.degree}"
            )
        return MatDiffOp(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.degree,
        )

    def __sub__(self, other: MatDiffOp) -> MatDiffOp:
        return self + (-other)

    def __neg__(self) -> MatDiffOp:
        return MatDiffOp([[-d for d in row] for row in self.entries], self.degree)

    def scale(self, factor) -> MatDiffOp:
        factor = as_scalar(factor)
        return MatDiffOp([[d.scale(factor) for d in row] for row in self.entries], self.degree)

    def __mul__(self, other) -> MatDiffOp:
        if isinstance(other, MatDiffOp):
            return compose(self, other)
        return self.scale(other)

    def __rmul__(self, other) -> MatDiffOp:
        return self.scale(other)

    def bracket(self, other: MatDiffOp) -> MatDiffOp:
        return graded_bracket(self, other)

    # -- queries ---------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return all(d.is_zero for row in self.entries for d in row)

    def nonzero_entries(self):
        for i, row in enumerate(self.entries):
            for j, d in enumerate(row):
                if not d.is_zero:
                    yield i, j, d

    def coordinate_vector(self) -> dict:
        """Exact coordinates: (row, col, weyl monomial, lam exponent) -> GaussianRational."""
        coords: dict[tuple, GaussianRational] = {}
        for i, j, d in self.nonzero_entries():
            for mono, coeff in d.terms.items():
                for exp, value in coeff.items():
                    coords[(i, j, mono, exp)] = value
        return coords

    def __repr__(self) -> str:
        cells = {f"({i+1},{j+1})": str(d) for i, j, d in self.nonzero_entries()}
        return f"MatDiffOp(degree={self.degree}, entries={cells})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = [f"[{i+1},{j+1}] {d}" for i, j, d in self.nonzero_entries()]
        return "; ".join(parts)


def elem(i: int, j: int) -> MatDiffOp:
    """The elementary matrix e(i,j) (1-indexed), degree (0,0)."""
    if not (1 <= i <= 4 and 1 <= j <= 4):
        raise ValueError("elementary matrix indices run from 1 to 4")
    grid = [[weyl.ZERO] * 4 for _ in range(4)]
    grid[i - 1][j - 1] = weyl.ONE
    return MatDiffOp(grid)


def scalar_op(d: DiffOp) -> MatDiffOp:
    """d broadcast along the diagonal: the operator d * identity."""
    grid = [[weyl.ZERO] * 4 for _ in range(4)]
    for i in range(4):
        grid[i][i] = d
    return MatDiffOp(grid)


IDENTITY = scalar_op(weyl.ONE)


def compose(left: MatDiffOp, right: MatDiffOp) -> MatDiffOp:
    """Matrix product with Weyl-algebra entry composition."""
    grid = [[weyl.ZERO] * 4 for _ in range(4)]
    right_cols: list[list[tuple[int, DiffOp]]] = [[] for _ in range(4)]
    for j, k, d in right.nonzero_entries():
        right_cols[j].append((k, d))
    for i, j, a in left.nonzero_entries():
        for k, b in right_cols[j]:
            grid[i][k] = grid[i][k] + weyl.compose(a, b)
    return MatDiffOp(grid, left.degree + right.degree)


def graded_bracket(a: MatDiffOp, b: MatDiffOp) -> MatDiffOp:
    """[[a, b]] of matrix operators, by ``lincomb.graded_bracket``."""
    return lincomb.graded_bracket(a, b, compose)


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

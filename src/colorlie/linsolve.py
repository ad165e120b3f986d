"""Exact sparse linear solving over the Gaussian rationals.

Used to express a bracket as a combination of basis operators, or an
old-basis combination in a new basis.  Columns are sparse coordinate
vectors (dict: coordinate key -> value), and the solver is built one
column at a time: ``extend`` solves for a column against the columns so
far, and what is left, if anything, becomes a pivot led by its first key
in repr order, scaled to 1 there, cleared from the other pivots there, and
kept with the combination of columns it equals.  The pivots are thus the
reduced echelon form of the columns, and the pivot keys the first
independent coordinates in repr order.  A solve sums the pivot
combinations, each times the target's value at its lead, into a sparse
candidate {column index: coefficient}, then verifies it on every coordinate
-- the residual doubles as the discrepancy certificate when none exists.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .lincomb import add_scaled
from .scalars import GaussianRational

Vector = Mapping[Hashable, GaussianRational]


class DependentColumns(ValueError):
    """The proposed basis columns are linearly dependent."""


class ColumnSolver:
    """Solve sum_k c_k * column_k = target exactly, for many targets."""

    def __init__(self, columns: Sequence[Vector]):
        self.columns: list[dict] = []
        # lead key -> (pivot, {column: coefficient}); 1 at its lead, 0 at the other leads
        self._pivots: dict[Hashable, tuple[dict, dict]] = {}
        for col in columns:
            self.extend(col)
        if len(self.columns) < len(columns):
            raise DependentColumns(f"only {len(self.columns)} independent coordinates"
                                   f" for {len(columns)} columns")

    @property
    def pivot_keys(self) -> list[Hashable]:
        return sorted(self._pivots, key=repr)

    def extend(self, column: Vector) -> bool:
        """Keep column if it is independent of the columns so far; say whether it was."""
        coeffs, rest = self.solve(column)
        if not rest:
            return False
        lead = min(rest, key=repr)
        scale = GaussianRational(1) / rest[lead]
        pivot = {key: scale * value for key, value in rest.items()}
        combination = {j: -scale * c for j, c in coeffs.items()}
        combination[len(self.columns)] = scale
        for other, other_combination in self._pivots.values():
            if lead in other:
                factor = -other[lead]
                add_scaled(other, factor, pivot.items())
                add_scaled(other_combination, factor, combination.items())
        self._pivots[lead] = (pivot, combination)
        self.columns.append({key: value for key, value in column.items() if value})
        return True

    def solve(self, target: Vector):
        """(coeffs, residual): the unique candidate agreeing with target on the
        pivot keys, as {column index: nonzero coefficient} in ascending column
        order, and target - its combination wherever they differ."""
        combination: dict[int, GaussianRational] = {}
        for key, value in target.items():
            if value and key in self._pivots:
                add_scaled(combination, value, self._pivots[key][1].items())
        coeffs = dict(sorted(combination.items()))
        residual = {key: value for key, value in target.items() if value}
        for j, c in coeffs.items():
            add_scaled(residual, -c, self.columns[j].items())
        return coeffs, residual

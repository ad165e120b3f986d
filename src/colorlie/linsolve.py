"""Exact sparse linear solving over the Gaussian rationals.

Used to express a bracket as a combination of basis operators, or an
old-basis combination in a new basis.  Columns are sparse coordinate
vectors (dict: coordinate key -> value).  Factoring eliminates the
coordinate rows, keys in repr order, as sparse dicts against the pivot
rows found so far, touching only nonzero entries; a row with anything
left becomes a pivot row led by its first nonzero column, kept with the
multipliers that reduced it.  No inverse is formed.  A solve applies the
multipliers to the target's pivot coordinates and back-substitutes
against the pivot rows, at a cost that follows their nonzeros, then
verifies the candidate on every coordinate -- the verification residual
doubles as the discrepancy certificate when no solution exists.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .lincomb import add_into
from .scalars import GaussianRational, QI_ZERO

Vector = Mapping[Hashable, GaussianRational]


class DependentColumns(ValueError):
    """The proposed basis columns are linearly dependent."""


def _axpy(row: dict, factor: GaussianRational, other: Mapping) -> None:
    """row -= factor * other, in place, dropping entries that cancel."""
    factor = -factor
    for key, value in other.items():
        add_into(row, key, factor * value)


class ColumnSolver:
    """Solve sum_k c_k * column_k = target exactly, for many targets."""

    def __init__(self, columns: Sequence[Vector]):
        self.columns = [dict(col) for col in columns]
        n = len(self.columns)
        rows: dict[Hashable, dict[int, GaussianRational]] = {}
        for j, col in enumerate(self.columns):
            for key, value in col.items():
                if value:
                    rows.setdefault(key, {})[j] = value
        self.pivot_keys: list[Hashable] = []
        self._pivots: list[tuple] = []  # (lead column, row, {earlier pivot: multiplier})
        for key in sorted(rows, key=repr):
            row = dict(rows[key])
            multipliers = {}
            for index, (lead, prow, _) in enumerate(self._pivots):
                if lead in row:
                    factor = row[lead] / prow[lead]
                    multipliers[index] = factor
                    _axpy(row, factor, prow)
            if not row:
                continue
            self._pivots.append((min(row), row, multipliers))
            self.pivot_keys.append(key)
            if len(self.pivot_keys) == n:
                break
        if len(self.pivot_keys) < n:
            raise DependentColumns(
                f"only {len(self.pivot_keys)} independent coordinates for {n} columns"
            )

    def solve(self, target: Vector):
        """Return (coefficients, residual). residual == {} iff the solve is exact.

        coefficients is the unique candidate satisfying the pivot
        coordinates; residual maps coordinate keys to target - combination
        wherever they differ.
        """
        reduced: list[GaussianRational] = []
        for key, (_, _, multipliers) in zip(self.pivot_keys, self._pivots):
            value = target.get(key, QI_ZERO)
            for index, factor in multipliers.items():
                if reduced[index]:
                    value = value - factor * reduced[index]
            reduced.append(value)
        coeffs = [QI_ZERO] * len(self.columns)
        for (lead, prow, _), value in zip(reversed(self._pivots), reversed(reduced)):
            for j, entry in prow.items():
                if coeffs[j]:  # still zero at the lead itself
                    value = value - entry * coeffs[j]
            if value:
                coeffs[lead] = value / prow[lead]
        residual = {key: value for key, value in target.items() if value}
        for c, col in zip(coeffs, self.columns):
            if c:
                _axpy(residual, c, col)
        return coeffs, residual

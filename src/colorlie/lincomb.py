"""The sparse linear-combination core shared by every value type.

Weyl and matrix operators, graded polynomials and vector fields, table
entries, residuals and lam-polynomials are all finite sums held as a dict
{key: nonzero coefficient}: a Scalar in Weyl operators, polynomials and
vector fields, a Gaussian rational elsewhere (matrix operator keys end in
the lam exponent).  This module owns what they share:

* ``add_into`` -- the one accumulate-and-drop-zero step, and ``add_scaled``,
  which accumulates a multiple of (key, value) pairs with it;
* ``Frozen`` -- immutable slotted values that pickle slot by slot;
* ``LinComb`` -- the linear structure of a ``terms`` dict;
* ``term_text`` and ``signed_sum`` -- the one term printer;
* ``graded_bracket`` -- the one Koszul sign rule, filling one accumulator.

Construction rule: public constructors (``DiffOp(...)``, ``GradedDiffOp(...)``,
...) validate outside input; internal results, computed from valid values,
go through ``Frozen._of``, which sets the slots unchecked, as unpickling does.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .grading import koszul_sign

#: set a slot of a Frozen value; only constructors and unpickling call it
setslot = object.__setattr__


def add_into(terms: dict, key, value) -> None:
    """terms[key] += value, in place, dropping the key when it cancels."""
    old = terms.get(key)
    if old is None:
        if value:
            terms[key] = value
        return
    total = old + value
    if total:
        terms[key] = total
    else:
        del terms[key]


def add_scaled(terms: dict, factor, items: Iterable) -> None:
    """terms += factor * the (key, value) pairs of items, in place, dropping keys that cancel."""
    for key, value in items:
        add_into(terms, key, factor * value)


class Frozen:
    """An immutable value: slots are set once, in the constructor.

    Pickling stores the slot values in declaration order (base classes
    first); equality and hashing compare them too, dict slots by content.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            setslot(self, name, value)

    @classmethod
    def _of(cls, *slots):
        """The value with these slot values, unchecked: the trusted builder."""
        new = object.__new__(cls)
        new.__setstate__(slots)
        return new

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(tuple(frozenset(value.items()) if isinstance(value, dict) else value
                          for value in self.__getstate__()))


class LinComb(Frozen):
    """A sparse sum: the slot ``terms``, declared last, maps keys to nonzero coefficients.

    Subclasses may define ``_check(other)``, which raises ValueError when
    ``other`` cannot be added to ``self``.
    """

    __slots__ = ()

    def _like(self, terms: dict):
        """A new element over the same context (variables, degree)."""
        return self._of(*self.__getstate__()[:-1], terms)

    def _check(self, other) -> None:
        pass

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate: bool):
        """self + other, or self - other, in one pass over other's terms."""
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        if not self.terms:  # a zero summand leaves the other as it is, degree included
            return -other if negate else other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            add_into(terms, key, -coeff if negate else coeff)
        return self._like(terms)

    def __neg__(self):
        return self._like({key: -coeff for key, coeff in self.terms.items()})

    def scale(self, factor):
        return self._like({key: product for key, coeff in self.terms.items()
                           if (product := coeff * factor)})

    def __rmul__(self, other):
        # scalar * element; element * element goes through __mul__
        return self.scale(other)

    @property
    def is_zero(self) -> bool:
        return not self.terms


def term_text(coeff: str, factors: Sequence[str], sep: str = "*") -> str:
    """One printed term: '2*t*dx', '-D(x)', '(1+lam)*H', or a bare coefficient.

    A coefficient of 1 or -1 before factors prints as its sign only; a
    coefficient that is itself a sum is parenthesised, unless it already is
    one parenthesised group, as a complex constant prints: '(1+2*i)*dt'.
    """
    if coeff in ("1", "-1") and factors:
        return coeff[:-1] + sep.join(factors)
    if "+" in coeff[1:] or "-" in coeff[1:]:
        depths = list(accumulate((char == "(") - (char == ")") for char in coeff))
        if coeff[0] != "(" or 0 in depths[:-1]:
            coeff = f"({coeff})"
    return sep.join([coeff, *factors])


def signed_sum(parts: Iterable[str]) -> str:
    """Join printed terms with their signs: 'a', '-b', 'c' -> 'a-b+c'; none -> '0'."""
    out = "".join(part if part.startswith("-") else "+" + part for part in parts)
    return out.removeprefix("+") or "0"


def graded_bracket(a, b, product_into: Callable) -> dict:
    """The terms of [[a, b]] = a.b - (-1)^<deg a, deg b> b.a, of degree deg a + deg b:
    ``product_into(terms, x, y, sign)`` adds sign * x.y into the one dict."""
    terms: dict = {}
    product_into(terms, a, b, 1)
    product_into(terms, b, a, -koszul_sign(a.degree, b.degree))
    return terms

"""Exact scalar arithmetic.

Every coefficient in this package is a polynomial in one formal parameter
``lam`` (the scaling weight that appears in the differential-operator
presentations) whose coefficients are Gaussian rationals a + b*i.  All
arithmetic is exact; equality means coefficient-by-coefficient identity.
Scalars form a commutative ring -- division only exists for Gaussian
rationals (constants), which is all the linear solver ever needs.

A Gaussian rational is one reduced int triple (a, b, d) meaning
(a + b*i)/d, with d > 0 and gcd(a, b, d) == 1: each value has one triple,
and each operation is int arithmetic and at most one ``math.gcd``.
``Fraction`` appears only where ``re``/``im`` are read or rationals come in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union

from .lincomb import Frozen, add_into, setslot, signed_sum, term_text
RationalLike = Union[int, Fraction]


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, lowest terms."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {value!r}")


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    new = object.__new__(GaussianRational)
    setslot(new, "_abd", (a, b, d) if g == 1 else (a // g, b // g, d // g))
    return new


class GaussianRational(Frozen):
    """An exact complex number ``re + im*i`` with rational parts."""

    __slots__ = ("_abd",)

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        a, q = _ratio(re)
        b, s = _ratio(im)
        d = q * s // gcd(q, s)
        # both parts are in lowest terms, so the triple over lcm(q, s) is reduced
        setslot(self, "_abd", (a * (d // q), b * (d // s), d))

    @property
    def re(self) -> Fraction:
        return Fraction(self._abd[0], self._abd[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._abd[1], self._abd[2])

    # bench/workloads.py reads table entries with c.constant_value(), as when they were Scalars
    def constant_value(self) -> GaussianRational:
        return self

    # -- ring / field operations -------------------------------------------
    def __add__(self, other) -> GaussianRational:
        a, b, d = self._abd
        c, e, f = _as_gauss(other)._abd
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> GaussianRational:
        a, b, d = self._abd
        c, e, f = _as_gauss(other)._abd
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other) -> GaussianRational:
        return _as_gauss(other) - self

    def __mul__(self, other) -> GaussianRational:
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented  # so other.__rmul__ runs: an operator scales itself
            other = _as_gauss(other)
        a, b, d = self._abd
        c, e, f = other._abd
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other) -> GaussianRational:
        a, b, d = self._abd
        c, e, f = _as_gauss(other)._abd
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    def __neg__(self) -> GaussianRational:
        a, b, d = self._abd
        return _reduced(-a, -b, d)

    # -- predicates ---------------------------------------------------------
    def __bool__(self) -> bool:
        return self._abd != (0, 0, 1)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _as_gauss(other)
        return self._abd == other._abd

    def __hash__(self):
        a, b, d = self._abd  # a real value hashes as the int or Fraction it equals
        return hash(self._abd) if b else hash(a) if d == 1 else hash(Fraction(a, d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        imag = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
        return f"({signed_sum([str(re), imag])})" if re else imag


def _as_gauss(value) -> GaussianRational:
    if type(value) is GaussianRational:
        return value
    a, d = _ratio(value)
    return _reduced(a, 0, d)


QI_ZERO = GaussianRational(0)
QI_I = GaussianRational(0, 1)


def _scalar(terms: dict) -> Scalar:
    """The Scalar over a dict of int exponents >= 0 and nonzero GaussianRationals."""
    new = object.__new__(Scalar)
    setslot(new, "_terms", terms)
    return new


class Scalar(Frozen):
    """A polynomial in ``lam`` with GaussianRational coefficients.

    Internally a map {lam-exponent: nonzero coefficient}.  Immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, GaussianRational] = ()):
        clean = {}
        for exp, coeff in dict(terms).items():
            if not isinstance(exp, int) or exp < 0:
                raise ValueError(f"lam exponent must be a nonnegative int, got {exp!r}")
            coeff = _as_gauss(coeff)
            if coeff:
                clean[exp] = coeff
        setslot(self, "_terms", clean)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def constant(cls, value) -> Scalar:
        return cls({0: _as_gauss(value)})

    @classmethod
    def lam_power(cls, exp: int, coeff=1) -> Scalar:
        return cls({exp: _as_gauss(coeff)})

    # -- access ---------------------------------------------------------------
    def items(self):
        """Iterate (exponent, coefficient) pairs, exponent ascending."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, exp: int) -> GaussianRational:
        return self._terms.get(exp, QI_ZERO)

    def lam_degree(self) -> int:
        """Largest lam exponent with nonzero coefficient; -1 for the zero scalar."""
        return max(self._terms) if self._terms else -1

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_lam_free(self) -> bool:
        return all(exp == 0 for exp in self._terms)

    def constant_value(self) -> GaussianRational:
        """The value of a lam-free scalar, as a Gaussian rational."""
        if not self.is_lam_free:
            raise ValueError(f"scalar {self} depends on lam")
        return self._terms.get(0, QI_ZERO)

    def eval_lam(self, value: RationalLike) -> GaussianRational:
        """Exact evaluation at lam = value, by Horner's rule."""
        point = _as_gauss(value)
        total = QI_ZERO
        for exp in range(self.lam_degree(), -1, -1):
            total = total * point + self.coefficient(exp)
        return total

    # -- ring operations ------------------------------------------------------
    def __add__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = as_scalar(other)
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            add_into(terms, exp, coeff)
        return _scalar(terms)

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        return self + (-as_scalar(other))

    def __rsub__(self, other) -> Scalar:
        return as_scalar(other) + (-self)

    def __mul__(self, other) -> Scalar:
        if type(other) is int:  # the integer sign and combinatorial factors
            if other == 1:
                return self
            if not other:
                return ZERO
            terms: dict[int, GaussianRational] = {}
            for exp, coeff in self._terms.items():
                a, b, d = coeff._abd
                terms[exp] = _reduced(a * other, b * other, d)
            return _scalar(terms)
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction, GaussianRational)):
                return NotImplemented  # so other.__rmul__ runs: an operator scales itself
            other = as_scalar(other)
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                add_into(terms, e1 + e2, c1 * c2)
        return _scalar(terms)

    __rmul__ = __mul__

    def __neg__(self) -> Scalar:
        return _scalar({exp: -coeff for exp, coeff in self._terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = as_scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):  # a lam-free value hashes as its constant, which may equal an int
        return hash(self.coefficient(0) if self.lam_degree() < 1 else frozenset(self.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Scalar({self._terms!r})"

    def __str__(self) -> str:
        def power(exp: int) -> list[str]:
            return [] if exp == 0 else ["lam"] if exp == 1 else [f"lam^{exp}"]
        return signed_sum(term_text(str(self._terms[exp]), power(exp))
                          for exp in sorted(self._terms, reverse=True))


def as_scalar(value) -> Scalar:
    """Promote ints, Fractions, and GaussianRationals to Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        coeff = _as_gauss(value)
        return _scalar({0: coeff} if coeff else {})
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def rational(num: int, den: int = 1) -> Scalar:
    """The constant scalar num/den."""
    return Scalar.constant(Fraction(num, den))


ZERO = Scalar()
ONE = Scalar.constant(1)
I = Scalar.constant(QI_I)
LAM = Scalar.lam_power(1)
HALF = rational(1, 2)

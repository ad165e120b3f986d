"""Exact scalar arithmetic.

Every coefficient in this package is a polynomial in one formal parameter
``lam`` (the scaling weight that appears in the differential-operator
presentations) whose coefficients are Gaussian rationals a + b*i.  All
arithmetic is exact; equality means coefficient-by-coefficient identity.
Scalars form a commutative ring -- division only exists for Gaussian
rationals (constants), which is all the linear solver ever needs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .lincomb import Frozen, add_into, setslot, signed_sum
RationalLike = Union[int, Fraction]


def _frac(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


class GaussianRational(Frozen):
    """An exact complex number ``re + im*i`` with rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        setslot(self, "re", _frac(re))
        setslot(self, "im", _frac(im))

    # -- ring / field operations -------------------------------------------
    def __add__(self, other: GaussianRational) -> GaussianRational:
        other = _as_gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        other = _as_gauss(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> GaussianRational:
        return _as_gauss(other) - self

    def __mul__(self, other) -> GaussianRational:
        other = _as_gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> GaussianRational:
        other = _as_gauss(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    # -- predicates ---------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        imag = "i" if self.im == 1 else "-i" if self.im == -1 else f"{self.im}*i"
        return f"({signed_sum([str(self.re), imag])})" if self.re else imag


def _as_gauss(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(_frac(value))


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


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

    def as_real_rational(self) -> Fraction:
        """The value of a lam-free, real scalar; errors otherwise."""
        value = self.constant_value()
        if value.im:
            raise ValueError(f"scalar {self} is not real")
        return value.re

    def eval_lam(self, value: RationalLike) -> GaussianRational:
        """Exact evaluation at lam = value."""
        value = _frac(value)
        total = QI_ZERO
        for exp, coeff in self._terms.items():
            total = total + coeff * GaussianRational(value**exp)
        return total

    # -- ring operations ------------------------------------------------------
    def __add__(self, other) -> Scalar:
        other = as_scalar(other)
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            add_into(terms, exp, coeff)
        return Scalar(terms)

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        return self + (-as_scalar(other))

    def __rsub__(self, other) -> Scalar:
        return as_scalar(other) + (-self)

    def __mul__(self, other) -> Scalar:
        other = as_scalar(other)
        terms: dict[int, GaussianRational] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                add_into(terms, e1 + e2, c1 * c2)
        return Scalar(terms)

    __rmul__ = __mul__

    def __neg__(self) -> Scalar:
        return Scalar({exp: -coeff for exp, coeff in self._terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = as_scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted((e, c.re, c.im) for e, c in self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Scalar({self._terms!r})"

    def __str__(self) -> str:
        parts = []
        for exp in sorted(self._terms, reverse=True):
            coeff = self._terms[exp]
            if exp == 0:
                parts.append(str(coeff))
            else:
                lam = "lam" if exp == 1 else "lam^" + str(exp)
                if coeff == QI_ONE:
                    parts.append(lam)
                elif coeff == -QI_ONE:
                    parts.append("-" + lam)
                else:
                    parts.append(f"{coeff}*{lam}")
        return signed_sum(parts)


def as_scalar(value) -> Scalar:
    """Promote ints, Fractions, and GaussianRationals to Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return Scalar({0: _as_gauss(value)})
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def rational(num: int, den: int = 1) -> Scalar:
    """The constant scalar num/den."""
    return Scalar.constant(Fraction(num, den))


ZERO = Scalar()
ONE = Scalar.constant(1)
I = Scalar.constant(QI_I)
LAM = Scalar.lam_power(1)
HALF = rational(1, 2)

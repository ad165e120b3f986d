"""Exact scalar arithmetic.

Every coefficient in this package is a polynomial in one formal parameter
``lam`` (the scaling weight that appears in the differential-operator
presentations) whose coefficients are Gaussian rationals a + b*i.  All
arithmetic is exact; equality means coefficient-by-coefficient identity.
Scalars form a commutative ring -- division only exists for Gaussian
rationals (constants), which is all the linear solver ever needs.
A ``Scalar`` is a ``LinComb`` over lam exponents: sums, negation, scaling and
the term-pair loop of products are the sparse core's; a product adds exponents.
An operator (``LamKeyed``) splits each Scalar coefficient over its keys.

A Gaussian rational is one reduced int triple (a, b, d) meaning
(a + b*i)/d, with d > 0 and gcd(a, b, d) == 1: each value has one triple,
and each operation is int arithmetic and at most one ``math.gcd``.  It is
read, printed and written from the triple; ``fractions`` is imported only
on first use of ``re``, ``im``, ``repr`` or the hash of a non-integer real.
"""

from __future__ import annotations

import sys
from math import gcd
from typing import TYPE_CHECKING, Mapping, Union

from .lincomb import Frozen, LinComb, product, setslot, signed_sum, term_text
if TYPE_CHECKING:
    from fractions import Fraction
RationalLike = Union[int, "Fraction"]


def _is_rational(value) -> bool:
    """An int or a Fraction, told without importing ``numbers``: floats and Decimals have
    no int numerator and denominator."""
    return type(getattr(value, "numerator", None)) is type(getattr(value, "denominator", None)) is int


def _ratio(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, lowest terms."""
    if not _is_rational(value):
        raise TypeError(f"expected an exact rational, got {value!r}")
    return value.numerator, value.denominator


class TooLongToPrint(ValueError):
    """A coefficient with more digits than the interpreter converts to text."""

    def __init__(self):
        super().__init__(f"a coefficient has more than {sys.get_int_max_str_digits()} digits, too many to print")


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

    def parts(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """((re numerator, re denominator), (im numerator, im denominator)), lowest terms."""
        a, b, d = self._abd
        g, h = gcd(a, d), gcd(b, d)
        return (a // g, d // g), (b // h, d // h)

    @property
    def re(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._abd[0], self._abd[2])

    @property
    def im(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._abd[1], self._abd[2])

    # bench/workloads.py reads table entries with c.constant_value(), as when they were Scalars
    def constant_value(self) -> GaussianRational:
        return self

    # -- ring / field operations -------------------------------------------
    def __add__(self, other) -> GaussianRational:
        if type(other) is not GaussianRational and not _is_rational(other):
            return NotImplemented  # so other.__radd__ runs: a Scalar adds itself
        a, b, d = self._abd
        c, e, f = _as_gauss(other)._abd
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> GaussianRational:
        return self + -other  # a Scalar's negation adds itself through its __radd__

    def __rsub__(self, other) -> GaussianRational:
        return _as_gauss(other) - self

    def __mul__(self, other) -> GaussianRational:
        a, b, d = self._abd
        if type(other) is int:  # the integer signs and combinatorial factors
            return _reduced(a * other, b * other, d)
        if type(other) is not GaussianRational:
            if not _is_rational(other):
                return NotImplemented  # so other.__rmul__ runs: an operator scales itself
            other = _as_gauss(other)
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
            if not _is_rational(other):
                return NotImplemented
            other = _as_gauss(other)
        return self._abd == other._abd

    def __hash__(self):
        a, b, d = self._abd  # a real value hashes as the int or Fraction it equals
        return hash(self._abd) if b else hash(a) if d == 1 else hash(self.re)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        try:  # each part as Fraction prints it
            re, im = (str(num) if den == 1 else f"{num}/{den}" for num, den in self.parts())
        except ValueError:  # str() of an int past the interpreter's digit limit
            raise TooLongToPrint() from None
        if im == "0":
            return re
        imag = "i" if im == "1" else "-i" if im == "-1" else f"{im}*i"
        return f"({signed_sum([re, imag])})" if re != "0" else imag


def _as_gauss(value) -> GaussianRational:
    if type(value) is GaussianRational:
        return value
    a, d = _ratio(value)
    return _reduced(a, 0, d)


QI_ZERO = GaussianRational(0)
QI_I = GaussianRational(0, 1)


class Scalar(LinComb):
    """A polynomial in ``lam`` with GaussianRational coefficients.

    A LinComb over lam exponents, {lam-exponent: nonzero coefficient}, so
    sums, negation, scaling and the product's loop are the core's.  Immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, GaussianRational] = ()):
        clean = {}
        for exp, coeff in dict(terms).items():
            if not isinstance(exp, int) or exp < 0:
                raise ValueError(f"lam exponent must be a nonnegative int, got {exp!r}")
            coeff = _as_gauss(coeff)
            if coeff:
                clean[exp] = coeff
        setslot(self, "terms", clean)

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
        return iter(sorted(self.terms.items()))

    def coefficient(self, exp: int) -> GaussianRational:
        return self.terms.get(exp, QI_ZERO)

    def lam_degree(self) -> int:
        """Largest lam exponent with nonzero coefficient; -1 for the zero scalar."""
        return max(self.terms) if self.terms else -1

    @property
    def is_lam_free(self) -> bool:
        return all(exp == 0 for exp in self.terms)

    def constant_value(self) -> GaussianRational:
        """The value of a lam-free scalar, as a Gaussian rational."""
        if not self.is_lam_free:
            raise ValueError(f"scalar {self} depends on lam")
        return self.terms.get(0, QI_ZERO)

    def eval_lam(self, value: RationalLike) -> GaussianRational:
        """Exact evaluation at lam = value, by Horner's rule."""
        point = _as_gauss(value)
        total = QI_ZERO
        for exp in range(self.lam_degree(), -1, -1):
            total = total * point + self.coefficient(exp)
        return total

    # -- ring operations: a constant is promoted, then the core adds ----------
    def __add__(self, other) -> Scalar:
        return self._sum(as_scalar(other), False)

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        return self._sum(as_scalar(other), True)

    def __rsub__(self, other) -> Scalar:
        return as_scalar(other)._sum(self, True)

    def __mul__(self, other) -> Scalar:
        if type(other) is not Scalar:
            if type(other) is not GaussianRational and not _is_rational(other):
                return NotImplemented  # so other.__rmul__ runs: an operator scales itself
            return self if other == 1 else self.scale(other)
        return Scalar._of(product(self.terms, other.terms, lambda e1, e2: ((1, e1 + e2),)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational) or _is_rational(other):
            other = as_scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):  # a lam-free value hashes as its constant, which may equal an int
        return hash(self.coefficient(0) if self.lam_degree() < 1 else frozenset(self.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Scalar({self.terms!r})"

    def __str__(self) -> str:
        def power(exp: int) -> list[str]:
            return [] if exp == 0 else ["lam"] if exp == 1 else [f"lam^{exp}"]
        return signed_sum(term_text(str(self.terms[exp]), power(exp))
                          for exp in sorted(self.terms, reverse=True))


def as_scalar(value) -> Scalar:
    """Promote ints, Fractions, and GaussianRationals to Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, GaussianRational) or _is_rational(value):
        coeff = _as_gauss(value)
        return Scalar._of({0: coeff} if coeff else {})
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def rational(num: int, den: int = 1) -> Scalar:
    """The constant scalar num/den of two ints; den == 0 raises ZeroDivisionError."""
    return as_scalar(GaussianRational(num) / den)


ZERO = Scalar()
ONE = Scalar.constant(1)
I = Scalar.constant(QI_I)
LAM = Scalar.lam_power(1)
HALF = rational(1, 2)


class LamKeyed(LinComb):
    """An operator of declared degree, {(key..., lam exponent): nonzero GaussianRational}:
    lam is central, so it is one more exponent, and the terms are the solver's coordinates.
    Only equal degrees add, as a sum must be homogeneous; zero takes any degree."""

    __slots__ = ()

    def _check(self, other) -> None:
        if self.terms and other.terms and self.degree != other.degree:
            raise ValueError(f"cannot add operators of degrees {self.degree} and {other.degree}")

    def scale(self, factor):
        """factor * self; a lam-dependent factor shifts the lam exponents."""
        return self._like(product(as_scalar(factor).terms, self.terms,
                                  lambda fexp, key: ((1, (*key[:-1], key[-1] + fexp)),)))

    def coordinate_vector(self) -> dict:
        """The terms, (key..., lam exponent) -> GaussianRational: read only."""
        return self.terms

    def scalar_terms(self) -> dict:
        """{key: Scalar}, keys ascending: the terms with their lam exponents regrouped."""
        grouped: dict = {}
        for (*key, exp), value in sorted(self.terms.items()):
            grouped.setdefault(tuple(key), {})[exp] = value
        return {key: Scalar._of(lams) for key, lams in grouped.items()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree}, terms={str(self)!r})"

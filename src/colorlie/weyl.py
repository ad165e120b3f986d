"""The Weyl algebra in two commuting variables t, x.

Operators are finite sums of normally ordered monomials
t^pt * x^px * dt^dt * dx^dx (all polynomial factors to the left of all
derivatives) with Scalar coefficients.  ``mono_product`` re-normal-orders
a product of two monomials with the exchange rule

    dt^m . t^n = sum_k C(m,k) * n!/(n-k)! * t^(n-k) * dt^(m-k)

once per pair: ``compose`` reads it as the rule of ``lincomb.product``, and
``matop``'s products read it too.  Its first term is the uncontracted k = 0
one, which ``matop`` brackets skip when the coefficients of the two symbols
commute as matrices.  ``apply``'s rule differentiates directly; compose and
apply must agree on every polynomial, a cross-check of the two rules.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm
from typing import Mapping, NamedTuple

from .lincomb import LinComb, product, setslot, signed_sum, term_text
from .scalars import Scalar, as_scalar


class WeylMonomial(NamedTuple):
    """Exponents of the normally ordered word t^pt x^px dt^dt dx^dx."""

    pt: int
    px: int
    dt: int
    dx: int


_UNIT = WeylMonomial(0, 0, 0, 0)


class DiffOp(LinComb):
    """A scalar differential operator in t, x (element of the Weyl algebra)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[WeylMonomial, Scalar] = ()):
        clean = {}
        for mono, coeff in dict(terms).items():
            mono = WeylMonomial(*mono)
            if min(mono) < 0:
                raise ValueError(f"negative exponent in {mono}")
            coeff = as_scalar(coeff)
            if coeff:
                clean[mono] = coeff
        setslot(self, "terms", clean)

    # -- constructors -----------------------------------------------------
    @classmethod
    def monomial(cls, pt=0, px=0, dt=0, dx=0, coeff=1) -> DiffOp:
        return cls({WeylMonomial(pt, px, dt, dx): as_scalar(coeff)})

    @classmethod
    def constant(cls, coeff) -> DiffOp:
        return cls({_UNIT: as_scalar(coeff)})

    # -- ring structure ----------------------------------------------------
    def __mul__(self, other) -> DiffOp:
        """Operator composition self . other; scalars scale instead."""
        if isinstance(other, DiffOp):
            return compose(self, other)
        return self.scale(other)

    # -- queries -------------------------------------------------------------
    def order(self) -> int:
        """Highest total derivative order appearing (0 for a multiplication operator)."""
        return max((m.dt + m.dx for m in self.terms), default=0)

    def is_polynomial(self) -> bool:
        return all(m.dt == 0 and m.dx == 0 for m in self.terms)

    def apply(self, poly: DiffOp) -> DiffOp:
        return apply(self, poly)

    def __repr__(self) -> str:
        return f"DiffOp({self.terms!r})"

    def __str__(self) -> str:
        return signed_sum(
            term_text(str(self.terms[mono]),
                      [sym if exp == 1 else f"{sym}^{exp}"
                       for sym, exp in zip(("t", "x", "dt", "dx"), mono) if exp])
            for mono in sorted(self.terms))


ZERO = DiffOp()
ONE = DiffOp.constant(1)
T = DiffOp.monomial(pt=1)
X = DiffOp.monomial(px=1)
DT = DiffOp.monomial(dt=1)
DX = DiffOp.monomial(dx=1)


def _exchange(d_exp: int, p_exp: int):
    """Terms of d^m . v^n as (coefficient, v-power, d-power), one variable."""
    for k in range(min(d_exp, p_exp) + 1):
        yield comb(d_exp, k) * perm(p_exp, k), p_exp - k, d_exp - k


@lru_cache(maxsize=4096)
def mono_product(lm: WeylMonomial, rm: WeylMonomial) -> tuple:
    """lm . rm normally ordered, ((int factor, monomial), ...), (1, lm + rm) first.
    The 4096 latest used pairs are kept: the corpus meets under 150, high orders more."""
    return tuple((ct * cx, WeylMonomial(lm.pt + et, lm.px + ex, dt + rm.dt, dx + rm.dx))
                 for ct, et, dt in _exchange(lm.dt, rm.pt)
                 for cx, ex, dx in _exchange(lm.dx, rm.px))


def compose(left: DiffOp, right: DiffOp) -> DiffOp:
    """Normal ordering of the operator product left . right: ``mono_product``,
    read as the rule of ``lincomb.product``, re-orders each pair of monomials."""
    return DiffOp._of(product(left.terms, right.terms, mono_product))


def apply(op: DiffOp, poly: DiffOp) -> DiffOp:
    """Apply a differential operator to a polynomial in t, x.

    The polynomial is a DiffOp with no derivative factors; so is the result.
    Implemented by direct term-by-term differentiation, independently of
    ``compose``.
    """
    if not poly.is_polynomial():
        raise ValueError("apply expects a polynomial (no derivative factors)")
    return DiffOp._of(product(op.terms, poly.terms, _differentiate))


def _differentiate(om: WeylMonomial, pm: WeylMonomial) -> tuple:
    """The monomial om applied to the polynomial monomial pm: one (factor, monomial) or none."""
    if om.dt > pm.pt or om.dx > pm.px:
        return ()
    return ((perm(pm.pt, om.dt) * perm(pm.px, om.dx),
             WeylMonomial(om.pt + pm.pt - om.dt, om.px + pm.px - om.dx, 0, 0)),)

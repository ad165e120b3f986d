"""Differential operators on Z2xZ2-graded polynomial algebras.

An operator is a ``LamKeyed`` sum of terms (coefficient monomial) *
(ordered word of partials), keyed by (monomial, partial word, lam exponent),
with a declared degree.  A partial d/d(v) carries the degree of v and obeys
the graded Leibniz exchange

    d_v . f = (d_v f) + koszul_sign(deg v, deg f) * f . d_v

for homogeneous f, which is exactly how ``compose`` normal-orders
products; ``_leibniz`` expands d^P . m once per (partial word, monomial)
and caches it on the context.  The bracket sums contractions only: the
term of a.b in which no partial of a lands on b's coefficient is the
product of two normally ordered symbols, which graded-commute, so it is
koszul_sign(deg a, deg b) times that term of b.a and cancels.  Every
contraction lowers the exponent, so that term keeps b's coefficient whole.
``GradedDiffOp(...)`` refuses a term whose degree differs from
the declared one.  Composition preserves degree by construction (degrees
add, and each exchange step keeps them), so ``compose`` and the bracket
build their results through the trusted ``_of`` without re-checking.
"""

from __future__ import annotations

from typing import Mapping, Tuple, Union

from .grading import D00, Degree, koszul_sign
from . import lincomb
from .lincomb import add_into, setslot, signed_sum, term_text
from .scalars import LamKeyed, Scalar, as_scalar
from .grassmann import (
    GradedPoly,
    GradedVariable,
    Monomial,
    UNIT,
    VarContext,
    derive_monomial,
    graded_derivative,
    mono_mul,
)

# (coefficient monomial, partial word) -- both normally ordered.
OpTerm = Tuple[Monomial, Monomial]


class GradedDiffOp(LamKeyed):
    """A declared degree and terms {(monomial, partial word, lam exponent): nonzero GaussianRational}."""

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx: VarContext, degree: Degree, terms: Mapping[OpTerm, Scalar] = ()):
        clean = {}
        for (mono, parts), coeff in dict(terms).items():
            mono = tuple(mono)
            parts = tuple(parts)
            term_degree = ctx.monomial_degree(mono) + ctx.monomial_degree(parts)
            if term_degree != degree:
                raise ValueError(
                    f"term {ctx.monomial_str(mono)}*d[{ctx.monomial_str(parts)}] has degree "
                    f"{term_degree}, operator declares {degree}"
                )
            for exp, value in as_scalar(coeff).items():  # a Scalar holds no zero
                clean[(mono, parts, exp)] = value
        setslot(self, "ctx", ctx)
        setslot(self, "degree", degree)
        setslot(self, "terms", clean)

    def with_degree(self, degree: Degree) -> GradedDiffOp:
        return GradedDiffOp(self.ctx, degree, self.scalar_terms())

    def _check_ctx(self, other: GradedDiffOp):
        if self.ctx != other.ctx:
            raise ValueError("operators belong to different variable contexts")

    # -- linear structure --------------------------------------------------
    def _check(self, other: GradedDiffOp):
        self._check_ctx(other)
        super()._check(other)

    def __mul__(self, other) -> GradedDiffOp:
        return compose(self, other) if isinstance(other, GradedDiffOp) else self.scale(other)

    def lmul(self, poly: GradedPoly) -> GradedDiffOp:
        """Left multiplication by a homogeneous polynomial coefficient."""
        return compose(multiplier(poly), self)

    def bracket(self, other: GradedDiffOp) -> GradedDiffOp:
        return graded_bracket(self, other)

    def apply(self, poly: GradedPoly) -> GradedPoly:
        return apply(self, poly)

    # -- queries ---------------------------------------------------------------
    def order(self) -> int:
        """Highest total number of partials in any term."""
        return max((sum(e for _, e in parts) for _, parts, _ in self.terms), default=0)

    coordinate_vector = LamKeyed.coordinate_vector  # own attribute: bench/tracer.py wraps it per class

    def __str__(self) -> str:
        return signed_sum(term_text(str(coeff), self._factors(*key))
                          for key, coeff in self.scalar_terms().items())

    def _factors(self, mono: Monomial, parts: Monomial) -> list[str]:
        factors = [self.ctx.monomial_str(mono)] if mono else []
        for index, exp in parts:
            factors += [f"D({self.ctx.variables[index].name})"] * exp
        return factors


def zero(ctx: VarContext, degree: Union[Degree, None] = None) -> GradedDiffOp:
    return GradedDiffOp(ctx, degree if degree is not None else D00, {})


def partial(ctx: VarContext, name: Union[str, GradedVariable]) -> GradedDiffOp:
    """The left derivative operator d/d(name)."""
    var = ctx[name] if isinstance(name, str) else name
    return GradedDiffOp(ctx, var.degree, {(UNIT, ((var.index, 1),)): as_scalar(1)})


def multiplier(poly: GradedPoly) -> GradedDiffOp:
    """Left multiplication by a homogeneous polynomial, as an operator."""
    degree = poly.homogeneous_degree()  # None for the zero polynomial
    return GradedDiffOp(poly.ctx, degree or D00, {(mono, UNIT): c for mono, c in poly.terms.items()})


def _leibniz(ctx: VarContext, parts: Monomial, mono: Monomial):
    """d^parts . mono normally ordered: ((int coefficient, monomial, partials), ...)."""
    key = (parts, mono)
    expansion = ctx.leibniz.get(key)
    if expansion is None:
        current = {(mono, UNIT): 1}
        for index, exp in reversed(parts):
            var = ctx.variables[index]
            for _ in range(exp):
                step: dict = {}
                for (m, rest), coeff in current.items():
                    hit = derive_monomial(ctx, var, m)
                    if hit is not None:
                        add_into(step, (hit[1], rest), coeff * hit[0])
                    merge_sign, merged = mono_mul(ctx, ((index, 1),), rest)
                    if merged is not None:
                        sign = koszul_sign(var.degree, ctx.monomial_degree(m))
                        add_into(step, (m, merged), coeff * sign * merge_sign)
                current = step
        expansion = ctx.leibniz[key] = tuple((c, m, rest) for (m, rest), c in current.items())
    return expansion


def _product_into(result: dict, left: GradedDiffOp, right: GradedDiffOp, sign: int,
                  contractions_only: bool = False) -> dict:
    """result += sign * left.right normally ordered; ``contractions_only`` for brackets."""
    left._check_ctx(right)
    ctx = left.ctx
    for (lmono, lparts, lexp), lcoeff in left.terms.items():
        for (rmono, rparts, rexp), rcoeff in right.terms.items():
            coeff = None
            for factor, mono, parts in _leibniz(ctx, lparts, rmono):
                if contractions_only and mono == rmono:
                    continue
                merge_sign, merged = mono_mul(ctx, lmono, mono)
                parts_sign, parts = mono_mul(ctx, parts, rparts)
                if merged is None or parts is None:
                    continue
                if coeff is None:
                    coeff = lcoeff * rcoeff
                add_into(result, (merged, parts, lexp + rexp),
                         coeff * (factor * sign * merge_sign * parts_sign))
    return result


def compose(left: GradedDiffOp, right: GradedDiffOp) -> GradedDiffOp:
    """Normal ordering of left . right."""
    return GradedDiffOp._of(left.ctx, left.degree + right.degree, _product_into({}, left, right, 1))


def graded_bracket(a: GradedDiffOp, b: GradedDiffOp) -> GradedDiffOp:
    """[[a, b]] of graded operators, by ``lincomb.graded_bracket`` over contractions only."""
    return GradedDiffOp._of(a.ctx, a.degree + b.degree, lincomb.graded_bracket(
        a, b, lambda out, x, y, sign: _product_into(out, x, y, sign, contractions_only=True)))


def apply(op: GradedDiffOp, poly: GradedPoly) -> GradedPoly:
    """Apply the operator to a polynomial, partials acting innermost first.

    Implemented with graded_derivative directly, independently of
    ``compose``; the two must agree on every polynomial.
    """
    if op.ctx != poly.ctx:
        raise ValueError("operator and polynomial belong to different contexts")
    ctx = op.ctx
    out = ctx.zero()
    for (mono, parts), coeff in op.scalar_terms().items():
        value = poly
        for index, exp in reversed(parts):
            for _ in range(exp):
                value = graded_derivative(ctx.variables[index], value)
                if value.is_zero:
                    break
            if value.is_zero:
                break
        if value.is_zero:
            continue
        out = out + GradedPoly._of(ctx, {mono: coeff}) * value
    return out

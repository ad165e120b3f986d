"""Polynomial calculus on Z2xZ2-graded commuting/anticommuting variables.

A variable carries a degree in {(0,0),(0,1),(1,0),(1,1)}.  Two variables
u, v satisfy u v = koszul_sign(deg u, deg v) v u; a variable with
<deg,deg> = 1 (degrees (0,1) and (1,0)) squares to zero.  Note the
(1,1) sector: a (1,1) variable anticommutes with (0,1) and (1,0)
variables but commutes with itself, so its powers do not truncate.

Monomials are kept normally ordered (variable declaration order);
``normal_order`` reduces an arbitrary word to sign * ordered monomial.
Derivatives act from the left, picking up the Koszul sign of the
variable against every factor it passes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence, Tuple, Union

from .grading import D00, Degree
from .lincomb import LinComb, add_into, product, setslot, signed_sum, term_text
from .scalars import Scalar, as_scalar

# A normally ordered monomial: ((var_index, exponent), ...) with indices
# strictly increasing and exponents >= 1.
Monomial = Tuple[Tuple[int, int], ...]

UNIT: Monomial = ()


class GradedVariable(NamedTuple):
    name: str
    degree: Degree
    index: int

    @property
    def square_zero(self) -> bool:
        return self.degree.dot(self.degree) == 1

    def __str__(self) -> str:
        return self.name


class VarContext:
    """An ordered list of graded variables; the home of every polynomial."""

    def __init__(self, declarations: Iterable[tuple[str, Degree]]):
        variables = []
        by_name = {}
        for name, degree in declarations:
            if name in by_name:
                raise ValueError(f"duplicate variable {name!r}")
            var = GradedVariable(name, degree, len(variables))
            variables.append(var)
            by_name[name] = var
        self.variables: tuple[GradedVariable, ...] = tuple(variables)
        self.by_name: dict[str, GradedVariable] = by_name
        #: graded-Leibniz expansions cached by ``vecfield``; not part of equality
        self.leibniz: dict = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, VarContext):
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    def __getitem__(self, key: Union[int, str]) -> GradedVariable:
        if isinstance(key, str):
            try:
                return self.by_name[key]
            except KeyError:
                raise KeyError(f"unknown variable {key!r}") from None
        return self.variables[key]

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def poly(self, name: str) -> GradedPoly:
        var = self[name]
        return GradedPoly(self, {((var.index, 1),): as_scalar(1)})

    def one(self) -> GradedPoly:
        return GradedPoly(self, {UNIT: as_scalar(1)})

    def zero(self) -> GradedPoly:
        return GradedPoly(self, {})

    def scalar(self, value) -> GradedPoly:
        return GradedPoly(self, {UNIT: as_scalar(value)})

    def monomial_degree(self, mono: Monomial) -> Degree:
        total = D00
        for index, exp in mono:
            if exp % 2:
                total = total + self.variables[index].degree
        return total

    def monomial_str(self, mono: Monomial) -> str:
        if not mono:
            return "1"
        factors = []
        for index, exp in mono:
            name = self.variables[index].name
            factors.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(factors)


def mono_mul(ctx: VarContext, left: Monomial, right: Monomial):
    """Normally order the concatenation left*right.

    Returns (sign, monomial) or (0, None) when a square-zero variable
    repeats.  Signs come from moving each right-hand factor past the
    left-hand factors with larger variable index.
    """
    if not left:
        return 1, right
    result = list(left)
    sign = 1
    for index, exp in right:
        degree = ctx.variables[index].degree
        pos = len(result)
        # walk left past factors with larger index, collecting Koszul signs
        while pos > 0 and result[pos - 1][0] > index:
            other_index, other_exp = result[pos - 1]
            if (exp * other_exp) % 2 and degree.dot(ctx.variables[other_index].degree):
                sign = -sign
            pos -= 1
        if pos > 0 and result[pos - 1][0] == index:
            if ctx.variables[index].square_zero:
                return 0, None
            result[pos - 1] = (index, result[pos - 1][1] + exp)
        else:
            result.insert(pos, (index, exp))
    return sign, tuple(result)


def normal_order(ctx: VarContext, word: Sequence[Union[GradedVariable, str]]):
    """Reduce a word of variables to (sign, ordered monomial or None)."""
    sign = 1
    mono: Monomial = UNIT
    for item in word:
        var = ctx[item] if isinstance(item, str) else item
        step_sign, mono = mono_mul(ctx, mono, ((var.index, 1),))
        if mono is None:
            return 0, None
        sign *= step_sign
    return sign, mono


class GradedPoly(LinComb):
    """A polynomial over a VarContext with Scalar coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: Mapping[Monomial, Scalar] = ()):
        clean = {}
        for mono, coeff in dict(terms).items():
            coeff = as_scalar(coeff)
            if coeff:
                clean[tuple(mono)] = coeff
        setslot(self, "ctx", ctx)
        setslot(self, "terms", clean)

    # -- ring structure ------------------------------------------------------
    def _check(self, other: GradedPoly):
        if self.ctx != other.ctx:
            raise ValueError("polynomials belong to different variable contexts")

    def __mul__(self, other) -> GradedPoly:
        if not isinstance(other, GradedPoly):
            return self.scale(other)
        self._check(other)

        def rule(lm: Monomial, rm: Monomial) -> tuple:  # mono_mul's term, or none if it vanishes
            sign, mono = mono_mul(self.ctx, lm, rm)
            return () if mono is None else ((sign, mono),)
        return GradedPoly._of(self.ctx, product(self.terms, other.terms, rule))

    # -- queries -----------------------------------------------------------
    def homogeneous_degree(self) -> Union[Degree, None]:
        """The common degree of all terms; None for the zero polynomial."""
        degrees = {self.ctx.monomial_degree(m) for m in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(map(str, degrees))}")
        return degrees.pop()

    def __repr__(self) -> str:
        return f"GradedPoly({ {self.ctx.monomial_str(m): str(c) for m, c in self.terms.items()} })"

    def __str__(self) -> str:
        return signed_sum(
            term_text(str(self.terms[mono]), [self.ctx.monomial_str(mono)] if mono else [])
            for mono in sorted(self.terms))


def derive_monomial(ctx: VarContext, var: GradedVariable, mono: Monomial):
    """Left derivative of a monomial: (integer coefficient with sign, monomial) or None."""
    sign = 1
    for pos, (index, exp) in enumerate(mono):
        if index == var.index:
            rest = list(mono)
            if exp == 1:
                del rest[pos]
            else:
                rest[pos] = (index, exp - 1)
            return sign * exp, tuple(rest)
        if exp % 2 and var.degree.dot(ctx.variables[index].degree):
            sign = -sign
    return None


def graded_derivative(var: Union[GradedVariable, str], poly: GradedPoly) -> GradedPoly:
    """The left derivative d/d(var) with Koszul signs past passed factors."""
    ctx = poly.ctx
    if isinstance(var, str):
        var = ctx[var]
    terms: dict[Monomial, Scalar] = {}
    for mono, coeff in poly.terms.items():
        hit = derive_monomial(ctx, var, mono)
        if hit is None:
            continue
        factor, rest = hit
        add_into(terms, rest, coeff * factor)
    return GradedPoly._of(ctx, terms)


def berezin_integral(var: Union[GradedVariable, str], poly: GradedPoly) -> GradedPoly:
    """Berezin integration over a square-zero variable (equals the left derivative)."""
    ctx = poly.ctx
    if isinstance(var, str):
        var = ctx[var]
    if not var.square_zero:
        raise ValueError(
            f"Berezin integration needs a square-zero variable; {var.name} has degree {var.degree}"
        )
    return graded_derivative(var, poly)

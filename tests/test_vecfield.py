"""Graded differential operators: exchange rule, composition, brackets."""

import random

import pytest

from colorlie.grading import D00, D01, D10, D11, koszul_sign
from colorlie.grassmann import GradedPoly, VarContext, normal_order
from colorlie.scalars import HALF, Scalar
from colorlie.vecfield import (
    GradedDiffOp,
    apply,
    compose,
    graded_bracket,
    multiplier,
    partial,
    zero,
)


def small_context():
    return VarContext([
        ("x1", D00), ("x2", D00), ("psi", D01), ("th1", D10), ("th2", D10), ("z", D11),
    ])


CTX = small_context()


def mono_poly(*names, coeff=1):
    sign, mono = normal_order(CTX, list(names))
    assert mono is not None
    return GradedPoly(CTX, {mono: coeff * sign})


def test_partial_and_multiplier_degrees():
    assert partial(CTX, "psi").degree == D01
    assert partial(CTX, "z").degree == D11
    assert multiplier(CTX.poly("th1")).degree == D10
    assert multiplier(mono_poly("psi", "th1")).degree == D11


def test_homogeneity_is_a_hard_error():
    mixed = CTX.poly("psi") + CTX.poly("x1")
    with pytest.raises(ValueError):
        multiplier(mixed)
    with pytest.raises(ValueError):
        GradedDiffOp(CTX, D00, {((), ((CTX["psi"].index, 1),)): Scalar.constant(1)})


def test_exchange_rule_against_square_zero_variable():
    # d_psi . psi = 1 - psi d_psi as operators
    dpsi = partial(CTX, "psi")
    psi = multiplier(CTX.poly("psi"))
    composed = compose(dpsi, psi)
    expected = multiplier(CTX.one()) - compose(psi, dpsi)
    assert composed == expected
    # and then {d_psi, psi} = 1
    assert graded_bracket(dpsi, psi) == multiplier(CTX.one())


def test_exchange_rule_koszul_sign_cases():
    # d_z . psi = -psi d_z  (degrees (1,1) and (0,1) anticommute; dz psi = 0)
    dz = partial(CTX, "z")
    psi = multiplier(CTX.poly("psi"))
    assert compose(dz, psi) == compose(psi, dz).scale(-1)
    # d_z . z = 1 + z d_z  (z commutes with itself)
    z = multiplier(CTX.poly("z"))
    assert compose(dz, z) == multiplier(CTX.one()) + compose(z, dz)


def test_apply_is_an_oracle_for_compose():
    rng = random.Random(99)
    names = [v.name for v in CTX.variables]

    def random_poly():
        total = CTX.zero()
        for _ in range(rng.randint(1, 3)):
            word = [rng.choice(names) for _ in range(rng.randint(0, 4))]
            sign, mono = normal_order(CTX, word)
            if mono is None:
                continue
            total = total + GradedPoly(CTX, {mono: sign * rng.choice([1, -1, 2])})
        return total

    def random_op():
        # homogeneous first-order operator: pick a coefficient monomial and a partial
        for _ in range(50):
            word = [rng.choice(names) for _ in range(rng.randint(0, 2))]
            sign, mono = normal_order(CTX, word)
            if mono is None:
                continue
            var = CTX[rng.choice(names)]
            coeff = GradedPoly(CTX, {mono: sign})
            return compose(multiplier(coeff), partial(CTX, var))
        raise AssertionError("could not build a random operator")

    for _ in range(80):
        a, b = random_op(), random_op()
        p = random_poly()
        assert apply(compose(a, b), p) == apply(a, apply(b, p))
        assert apply(compose(b, a), p) == apply(b, apply(a, p))


def test_momentum_square_from_first_order_realization():
    # p = -d_psi + 1/2 psi d_x2 ; p.p = -1/2 d_x2 and {p,p} = -d_x2
    p = -partial(CTX, "psi") + compose(multiplier(CTX.poly("psi")), partial(CTX, "x2")).scale(HALF)
    assert p.degree == D01
    square = compose(p, p)
    assert square == partial(CTX, "x2").scale(-HALF)
    assert graded_bracket(p, p) == -partial(CTX, "x2")
    assert graded_bracket(p, p).degree == D00


def test_first_order_brackets_stay_first_order():
    rng = random.Random(3)
    names = [v.name for v in CTX.variables]
    ops = []
    for _ in range(12):
        word = [rng.choice(names) for _ in range(rng.randint(0, 2))]
        sign, mono = normal_order(CTX, word)
        if mono is None:
            continue
        ops.append(compose(multiplier(GradedPoly(CTX, {mono: sign})),
                           partial(CTX, rng.choice(names))))
    for a in ops:
        assert a.order() == 1
        for b in ops:
            assert graded_bracket(a, b).order() <= 1


def test_zero_operator_and_addition_degrees():
    dz = partial(CTX, "z")
    assert zero(CTX, D11) + dz == dz
    assert (dz - dz).is_zero
    with pytest.raises(ValueError):
        dz + partial(CTX, "psi")


def test_order_counts_all_partials():
    dxx = compose(partial(CTX, "x1"), partial(CTX, "x1"))
    assert dxx.order() == 2
    assert multiplier(CTX.poly("x1")).order() == 0


@pytest.mark.parametrize("name", ["x1", "z"])
def test_bracket_keeps_a_partial_that_lowers_an_exponent_from_two_to_one(name):
    # [D(v), v^2] = 2v for a commuting variable, of degree (0,0) or (1,1): the
    # contraction leaves v in the monomial, so it must not be taken for the
    # uncontracted term, which is v^2 D(v) itself
    v = multiplier(CTX.poly(name))
    assert graded_bracket(partial(CTX, name), v * v) == v.scale(2)
    assert graded_bracket(v * v, partial(CTX, name)) == v.scale(-2)

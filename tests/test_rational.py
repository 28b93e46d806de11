"""Exact scalar arithmetic: canonical forms, gcd reduction, derivatives."""

import random
from fractions import Fraction

import pytest

from hhokit.errors import NonlinearAnsatzError, ParameterInDenominatorError
from hhokit.rational import Poly, RatFunc, affine_rows, exact_div, poly_gcd, rf_arith, rf_partial

from genutil import rand_poly, rand_ratfunc


def u(i):
    return RatFunc.var(i)


def c(k):
    return RatFunc.var(-k)


def test_cancellation():
    assert rf_arith(u(1) / u(2), u(2), "mul") == u(1)


def test_additive_inverse():
    assert rf_arith(u(1), -u(1), "add").is_zero


def test_difference_of_squares_division():
    q = rf_arith(u(1) * u(1) - u(2) * u(2), u(1) - u(2), "div")
    # verify by multiplying back (independent of the reduction path)
    assert q * (u(1) - u(2)) == u(1) * u(1) - u(2) * u(2)
    assert q == u(1) + u(2)


def test_partials():
    assert rf_partial(u(1) ** 2 * u(2), 1) == 2 * u(1) * u(2)
    assert rf_partial(RatFunc.one() / u(2), 2) == -RatFunc.one() / (u(2) ** 2)
    assert rf_partial(c(1) * u(1) + c(2), 1) == c(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        rf_arith(u(1), RatFunc.zero(), "div")


def test_parameter_denominator_rejected():
    with pytest.raises(ParameterInDenominatorError):
        u(1) / c(1)


def test_parameter_cancellation_allowed():
    # c1*u1 / c1 would need a parameter denominator, but c1*u1/(c1*u2) cancels
    num = c(1) * u(1)
    den_ok = c(1) * u(2)
    assert num / den_ok == u(1) / u(2)


def test_normal_form_is_order_independent():
    rng = random.Random(1)
    terms = [(Poly.var(1) * Poly.var(2), Fraction(2, 3)),
             (Poly.var(1) ** 2, Fraction(-1)),
             (Poly.one(), Fraction(5, 7))]
    for _ in range(5):
        rng.shuffle(terms)
        acc = Poly.zero()
        for p, coeff in terms:
            acc = acc + p * coeff
        assert str(acc) == "-u1^2 + 2/3*u1*u2 + 5/7"


def test_poly_gcd_divides_products():
    rng = random.Random(7)
    for _ in range(25):
        p = rand_poly(rng, 2, 2)
        q = rand_poly(rng, 2, 2)
        r = rand_poly(rng, 2, 1)
        if p.is_zero or q.is_zero or r.is_zero:
            continue
        g = poly_gcd(p * q, p * r)
        # p divides the gcd, and the gcd divides both products
        assert exact_div(g, p) is not None or p.is_const
        assert exact_div(p * q, g) is not None
        assert exact_div(p * r, g) is not None


def test_ratfunc_field_axioms_random():
    rng = random.Random(11)
    for _ in range(100):
        a = rand_ratfunc(rng, 2)
        b = rand_ratfunc(rng, 2)
        assert (a - a).is_zero
        if not b.is_zero:
            assert (a / b) * b == a
        assert (a + b) - b == a


def test_quotient_rule_matches_expanded():
    rng = random.Random(13)
    for _ in range(40):
        a = rand_ratfunc(rng, 2)
        b = rand_ratfunc(rng, 2)
        if b.is_zero:
            continue
        q = a / b
        lhs = q.diff(1) * b * b
        rhs = a.diff(1) * b - a * b.diff(1)
        assert lhs == rhs


def test_affine_rows():
    expr = c(1) * u(1) + c(2) * (u(2) ** 2) + u(1) * u(2)
    assert affine_rows(expr.num.terms) == {((1, 1),): {-1: 1}, ((2, 2),): {-2: 1},
                                           ((1, 1), (2, 1)): {0: 1}}
    with pytest.raises(NonlinearAnsatzError):
        affine_rows((c(1) * c(2)).num.terms)
    with pytest.raises(NonlinearAnsatzError):
        affine_rows((c(1) ** 2).num.terms)


def test_denominator_is_monic():
    q = u(1) / (u(2) * 3 - u(1) * 3)
    # leading coefficient of the denominator normalized to 1
    _, lead = q.den.leading()
    assert lead == 1


def test_evaluate():
    q = (u(1) + u(2)) / u(2)
    assert q.evaluate({1: Fraction(3), 2: Fraction(2)}) == Fraction(5, 2)


def test_rf_arith_subtracts_and_refuses_an_unknown_operation():
    assert rf_arith(u(1) + u(2), u(2), "sub") == u(1)
    assert rf_arith(u(1), u(1), "sub").is_zero
    with pytest.raises(ValueError, match="unknown operation 'pow'"):
        rf_arith(u(1), u(2), "pow")

"""Powers by square-and-multiply: equal to the repeated product, and a large
exponent of a one-term base costs a few products, not one per unit."""

import time

import pytest

from hhokit.errors import OddDegreeError
from hhokit.grammar import parse
from hhokit.jets import DiffPoly, mono, pjet, ujet
from hhokit.rational import Poly, RatFunc


@pytest.mark.parametrize("k", range(10))
def test_power_equals_repeated_product(k):
    base = parse("u1_x + u2")
    product = DiffPoly.one()
    for _ in range(k):
        product = product * base
    assert parse(f"(u1_x + u2)^{k}") == product
    assert base ** k == product
    poly = Poly.var(1) + Poly.var(2) * 3
    repeated = Poly.one()
    for _ in range(k):
        repeated = repeated * poly
    assert poly ** k == repeated


def test_large_exponent_of_one_term():
    start = time.perf_counter()
    jet = parse("u1_x^100000")
    field = parse("u1^100000")
    assert time.perf_counter() - start < 0.5
    assert jet == DiffPoly.monomial(mono(((ujet(1, 1), 100000),)), RatFunc.one())
    assert field == DiffPoly.from_scalar(RatFunc.from_poly(Poly.var(1, 100000)))


def test_negative_and_odd_powers_keep_their_errors():
    with pytest.raises(ValueError, match="negative power of a differential polynomial"):
        parse("u1_x") ** -1
    with pytest.raises(ValueError, match="negative exponent on polynomial"):
        Poly.var(1) ** -1
    p1 = DiffPoly.monomial(mono((), pjet(1, 0)), RatFunc.one())
    assert p1 ** 1 == p1
    with pytest.raises(OddDegreeError):
        p1 ** 2

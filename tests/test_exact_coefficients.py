"""Coefficient contract of ``hhokit.rational``: every ``Poly`` coefficient is
an exact rational, an ``int`` or a ``Fraction`` and never a float, and the
constructors and divisions store integral values as ``int``.

Each operation is checked against the same operation on copies whose
coefficients are all coerced to ``Fraction``: the results must be equal and
print identically, so which type is stored never shows in an answer.
"""

import random
from fractions import Fraction

import pytest

from hhokit.covering import BivectorForm, EvolutionSystem, bivector_residual, build_cotangent
from hhokit.grammar import parse, parse_scalar
from hhokit.jets import DiffPoly
from hhokit.rational import Poly, RatFunc, _int_form, exact_div, poly_from_ints, poly_gcd
from hhokit.rational import RatSum
from hhokit.solver import make_operator_ansatz

from genutil import rand_diffpoly, rand_fraction, rand_poly, rand_ratfunc, subs_params


def as_fractions(x):
    """A copy of a Poly or RatFunc with every coefficient a Fraction."""
    if isinstance(x, RatFunc):
        return RatFunc._new(as_fractions(x.num), as_fractions(x.den))
    return Poly({m: Fraction(c) for m, c in x.terms.items()})


def coefficients(x):
    if isinstance(x, RatFunc):
        return [*x.num.terms.values(), *x.den.terms.values()]
    return list(x.terms.values())


def assert_exact(x):
    for c in coefficients(x):
        assert type(c) in (int, Fraction), (c, type(c))


def assert_same(got, ref):
    """got equals the all-Fraction reference, prints the same and is exact."""
    assert got == ref
    assert str(got) == str(ref)
    assert_exact(got)


def pairs(seed, count, make):
    rng = random.Random(seed)
    for _ in range(count):
        a, b = make(rng), make(rng)
        yield a, b, as_fractions(a), as_fractions(b)


def _poly(rng):
    return rand_poly(rng, 3, 3, terms=4, allow_params=2)


def test_poly_ring_operations_match_fraction_copies():
    for a, b, fa, fb in pairs(11, 60, _poly):
        assert_same(a + b, fa + fb)
        assert_same(a - b, fa - fb)
        assert_same(a * b, fa * fb)
        assert_same(-a, -fa)
        assert_same(a ** 2, fa ** 2)
        for c in (3, Fraction(6, 3), Fraction(-5, 2), 0):
            assert_same(a * c, fa * Fraction(c))
        for vid in (1, 2, -1):
            assert_same(a.diff(vid), fa.diff(vid))


def test_exact_div_and_gcd_match_fraction_copies():
    for a, b, fa, fb in pairs(12, 40, lambda rng: rand_poly(rng, 2, 2, terms=3)):
        if b.is_zero:
            continue
        assert_same(exact_div(a * b, b), exact_div(fa * fb, fb))
        assert exact_div(a * b, b) == a
        assert_same(poly_gcd(a * b, b * b), poly_gcd(fa * fb, fb * fb))
        assert_same(poly_gcd(a, b), poly_gcd(fa, fb))
        for c in (2, Fraction(3, 4)):
            assert_same(exact_div(a, Poly.const(c)), exact_div(fa, Poly.const(Fraction(c))))
        lone = Poly.var(1, 2) * Fraction(4, 3)
        assert_same(exact_div(a * lone, lone), exact_div(fa * lone, lone))


def test_subs_params_matches_fraction_copies():
    rng = random.Random(13)
    for _ in range(40):
        a = _poly(rng)
        values = {-1: rand_fraction(rng), -2: rng.randint(-3, 3)}
        assert_same(subs_params(a, values), subs_params(as_fractions(a), values))


def test_derivative_integer_form_equals_a_fresh_one():
    """Whenever a derivative carries ``ints``, it is the integer form a fresh copy gets:
    ``int`` numerators over the lcm of the denominators.  Sources with ``ints`` unset, set by
    ``_int_form`` and set by ``poly_from_ints``, and ones whose terms hold Fraction(n, 1)."""
    rng = random.Random(15)
    polys = [Poly({((1, 2),): Fraction(3, 1), ((1, 1), (2, 1)): 2, (): 5}),
             Poly({((1, 3),): Fraction(3, 1)}), Poly({((2, 2),): 4, ((1, 1),): Fraction(1, 2)})]
    for _ in range(40):
        p = _poly(rng)
        polys += [p, as_fractions(p), Poly({m: Fraction(c.numerator) for m, c in
                                            as_fractions(p).terms.items()})]
    for p in filter(None, polys):
        sources = [Poly(dict(p.terms)), p, poly_from_ints(*_int_form(Poly(dict(p.terms))))]
        _int_form(p)
        for source in sources:
            for vid in (1, 2, 3, -1):
                d = source.diff(vid)
                if d.ints is not None:
                    assert all(type(n) is int for n in d.ints[1].values()), (p, vid)
                    assert d.ints == _int_form(Poly(dict(d.terms)))
                assert_same(d, as_fractions(p).diff(vid))


def test_ratfunc_operations_match_fraction_copies():
    for a, b, fa, fb in pairs(14, 30, lambda rng: rand_ratfunc(rng, 2)):
        assert_same(a + b, fa + fb)
        assert_same(a - b, fa - fb)
        assert_same(a * b, fa * fb)
        if not b.is_zero:
            assert_same(a / b, fa / fb)
        assert_same(RatFunc(a.num * 3, b.den * 6), RatFunc(fa.num * 3, fb.den * 6))
        assert_same(a.diff(1), fa.diff(1))


def test_constructors_store_integral_values_as_int():
    for c in (Poly.const(3), Poly.const(Fraction(8, 4)), Poly.const(-7)):
        assert [type(v) for v in c.terms.values()] == [int]
    assert [type(v) for v in Poly.one().terms.values()] == [int]
    assert [type(v) for v in Poly.var(2, 3).terms.values()] == [int]
    assert [type(v) for v in (Poly.var(1) * Fraction(6, 3)).terms.values()] == [int]
    half = Poly.var(1) * Fraction(1, 2)
    assert [type(v) for v in half.terms.values()] == [Fraction]
    q = exact_div(Poly.var(1) * 2 + 4, Poly.const(2))
    assert {type(v) for v in q.terms.values()} == {int}
    assert type(RatFunc(6, 3).const_value()) is int
    assert RatFunc(1, 3).const_value() == Fraction(1, 3)
    assert type(RatFunc.const(Fraction(10, 5)).num.const_value()) is int


def test_ratsum_stores_integral_coefficients_as_int():
    half_u1, two_u2 = RatFunc.var(1) * Fraction(1, 2), RatFunc.var(2) * 2
    acc = RatSum()
    acc.addmul(half_u1, two_u2)
    got = acc.value()
    assert str(got) == "u1*u2"
    assert [type(v) for v in got.num.terms.values()] == [int]
    # sums of polynomial products, against all-Fraction copies
    rng = random.Random(19)
    for _ in range(60):
        acc, ref = RatSum(), RatFunc.zero()
        for _ in range(rng.randint(1, 5)):
            a, b = (RatFunc.from_poly(_poly(rng)) for _ in range(2))
            k = rng.choice((1, -2, Fraction(3, 2), Fraction(-6, 4)))
            acc.addmul(a, b, k)
            ref = ref + as_fractions(a) * as_fractions(b) * Fraction(k)
        got = acc.value()
        assert_same(got, ref)
        for c in got.num.terms.values():
            assert type(c) is (int if c.denominator == 1 else Fraction), c


def test_ratsum_joins_a_first_add_through_the_integer_path():
    """A polynomial first add() and a later product, or one add() with k != 1,
    leave no Fraction of denominator 1."""
    half_u1 = RatFunc.var(1) * Fraction(1, 2)
    joined = RatSum()
    joined.add(half_u1)
    joined.addmul(half_u1, RatFunc.one())
    scaled = RatSum()
    scaled.add(half_u1, 2)
    for acc in (joined, scaled):
        got = acc.value()
        assert got == RatFunc.var(1)
        assert [type(v) for v in got.num.terms.values()] == [int]


def test_scalar_multiple_skips_the_reduction():
    rng = random.Random(15)
    for _ in range(40):
        a = rand_ratfunc(rng, 3)
        for c in (2, -1, Fraction(-7, 3), Fraction(9, 3)):
            got = a * c
            ref = RatFunc(a.num * c, a.den)
            assert (got.num, got.den) == (ref.num, ref.den)
            assert str(got) == str(ref)
            assert_exact(got)
        assert (a * 0).is_zero


def test_difference_matches_sum_with_negation():
    rng = random.Random(16)
    for _ in range(60):
        # polynomial operands take the constant-denominator path
        a = RatFunc.from_poly(rand_poly(rng, 3, 2, allow_params=2))
        b = RatFunc.from_poly(rand_poly(rng, 3, 2, allow_params=2))
        for x, y in ((a, b), (a, a), (a, RatFunc.zero()), (RatFunc.zero(), b)):
            got, ref = x - y, x + (-y)
            assert (got.num, got.den) == (ref.num, ref.den)
            assert str(got) == str(ref)
        assert (a - 3) == a + (-3)
        r = rand_ratfunc(rng, 2)
        assert r - a == r + (-a)
        assert a - r == a + (-r)


def _residual(system, n, order, degree):
    ansatz = make_operator_ansatz(n, order, degree)
    return bivector_residual(build_cotangent(system), BivectorForm(ansatz.components))


_CYCLIC_V = (("u1", "u2", "u3"), ("u2", "u3", "u1"), ("u3", "u1", "u2"))


@pytest.mark.parametrize("case", ["kdv-o5", "cyclic-o1"])
def test_residuals_hold_no_float(case):
    if case == "kdv-o5":
        residual = _residual(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")]), 1, 5, 2)
    else:
        V = [[parse_scalar(x) for x in row] for row in _CYCLIC_V]
        residual = _residual(EvolutionSystem.hydrodynamic(V), 3, 1, 1)
    count = 0
    for comp in residual:
        for rf in comp.terms.values():
            assert_exact(rf)
            count += 1
    assert count


_SCALARS = (3, -1, 0, True, False, Fraction(5, 2), Fraction(6, 3), Fraction(0))


def assert_exact_dp(d):
    for c in d.terms.values():
        assert_exact(c)


def test_scalar_and_mixed_operands_of_every_operator():
    # the operators test their own class first; int, bool and Fraction
    # operands, and RatFunc operands of DiffPoly, still act as constants
    rng = random.Random(17)
    for _ in range(25):
        p, r = _poly(rng), rand_ratfunc(rng, 2)
        d = rand_diffpoly(rng, nvars=2)
        for c in _SCALARS:
            pc, rc = Poly.const(c), RatFunc.const(c)
            dc = DiffPoly.from_scalar(rc)
            for got, ref in ((p + c, p + pc), (p - c, p - pc), (p * c, p * pc),
                             (c * p, pc * p), (c + p, pc + p), (c - p, pc - p)):
                assert_same(got, ref)
            for got, ref in ((r + c, r + rc), (r - c, r - rc), (r * c, r * rc),
                             (c + r, rc + r), (c - r, rc - r), (c * r, rc * r)):
                assert_same(got, ref)
            assert (r == c) == (r == rc)
            assert RatFunc.const(c) == c
            if c:
                assert_same(r / c, r / rc)
            if not r.is_zero:
                assert_same(c / r, rc / r)
            for got, ref in ((d + c, d + dc), (d - c, d - dc), (c + d, dc + d),
                             (d * c, d * dc), (c * d, dc * d), (d.scalar_mul(c), d * dc)):
                assert got == ref
                assert_exact_dp(got)
        assert type(RatFunc(True).const_value()) is int
        assert RatFunc(Fraction(6, 3), 2) == RatFunc(1)
        rd = DiffPoly.from_scalar(r)
        for got, ref in ((d + r, d + rd), (d - r, d - rd), (d * r, d * rd),
                         (d.scalar_mul(r), d * rd)):
            assert got == ref
            assert_exact_dp(got)

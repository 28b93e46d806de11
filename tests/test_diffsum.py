"""``DiffSum``, one integer accumulator over one common denominator, against
the term-by-term ``RatFunc`` chain it replaces.

Every case compares the sum with the chain by ``==`` and by ``str``, and checks
that each polynomial coefficient's integer form ``Poly.ints`` is in lowest
terms for its monomial and names the exact coefficients stored.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from hhokit import rational
from hhokit.covering import BivectorForm, EvolutionSystem, bivector_residual, build_cotangent
from hhokit.errors import OddDegreeError
from hhokit.grammar import parse
from hhokit.jets import DiffPoly, DiffSum
from hhokit.solver import make_operator_ansatz

from genutil import dm_mul, rand_diffpoly

KDV5 = "u1_x5 + 5/3*u1*u1_x3 + 10/3*u1_x*u1_xx + 5/6*u1^2*u1_x"


class Chain:
    """The reference: every term added to its monomial's coefficient by RatFunc ``+``."""

    def __init__(self):
        self.terms = {}

    def put(self, m, c):
        self.terms[m] = self.terms[m] + c if m in self.terms else c

    def add(self, a, k=1):
        for m, c in a.terms.items():
            self.put(m, c * k)

    def addmul(self, a, b, k=1):
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                self.put(dm_mul(m1, m2), c1 * c2 * k)

    def value(self):
        return DiffPoly(self.terms)


def assert_same(got, ref):
    assert got == ref
    assert str(got) == str(ref)
    for c in got.terms.values():
        num = c.num
        if num.ints is not None:
            d, nums = num.ints
            assert d > 0 and gcd(d, *nums.values()) == 1
            assert {m: Fraction(n, d) for m, n in nums.items()} == num.terms
        for x in (*num.terms.values(), *c.den.terms.values()):
            assert type(x) in (int, Fraction), x


def run_both(steps):
    """Apply (method, args) steps to a DiffSum and to the chain; return both values."""
    acc, ref = DiffSum(), Chain()
    for method, args in steps:
        getattr(acc, method)(*args)
        getattr(ref, method)(*args)
    return acc.value(), ref.value()


def test_denominator_grows_across_monomials():
    third, fifth = parse("u1_x/3 + u2*u1_x"), parse("u2_xx/5")
    big = parse("u1*u1_x/1000003 + u2_xx*u1")
    steps = [("addmul", (third, parse("u1 + 1/7"))), ("add", (fifth,)),
             ("addmul", (big, parse("2*u2 + 3"))), ("add", (third, 2)),
             ("addmul", (fifth, big, -1))]
    assert_same(*run_both(steps))
    acc, _ = run_both(steps)
    assert any(c.num.ints and c.num.ints[0] % 1000003 == 0 for c in acc.terms.values())
    # den follows the lcm sequence test_ratsum_denominator_grows_to_the_lcm pins for RatSum
    acc, dens = DiffSum(), []
    for x, d in (("u1_x", 2), ("u2_x", 3), ("u1_xx", 4), ("u2_xx", 9), ("u1_x*u2_x", 1000003)):
        acc.addmul(parse(f"{x}/{d}"), parse("u2"))
        dens.append(acc.den)
    assert dens == [2, 6, 12, 36, 36 * 1000003]


def test_fraction_scalars():
    a, b = parse("u1_x/2 + u1*u2_x"), parse("3/4*u2 + u1_xx")
    steps = [("add", (a, Fraction(2, 3))), ("addmul", (a, b, Fraction(-5, 6))),
             ("add", (b, Fraction(4, 1))), ("addmul", (b, b, Fraction(1, 1)))]
    assert_same(*run_both(steps))
    # a rational coefficient times its own denominator joins the integer numerators
    rat, den = parse("u1_x/(u1 + 1)"), parse("u1 + 1")
    steps = [("addmul", (parse("u1_x/3"), parse("u2"))), ("addmul", (rat, den, 2)),
             ("addmul", (rat, den, Fraction(-5, 7)))]
    acc = DiffSum()
    for method, args in steps:
        getattr(acc, method)(*args)
    assert not acc.rats
    assert_same(*run_both(steps))


def test_integer_part_that_cancels_vanishes():
    a = parse("u1*u1_x/3 + u2_x")
    got, ref = run_both([("add", (a,)), ("addmul", (a, parse("1/2"), -2))])
    assert_same(got, ref)
    assert got.is_zero
    # a rational part on the same monomial stays, alone
    rat = parse("u1_x/(u1 + 1)")
    steps = [("add", (a,)), ("addmul", (rat, parse("u2"))), ("add", (a, Fraction(-1)))]
    got, ref = run_both(steps)
    assert_same(got, ref)
    assert got == parse("u2*u1_x/(u1 + 1)")
    # and the whole monomial goes when the rational part cancels too
    steps += [("addmul", (rat, parse("u2"), -1))]
    got, ref = run_both(steps)
    assert_same(got, ref)
    assert got.is_zero


def test_lone_first_add_then_product_with_a_growing_denominator():
    lone = parse("u1*u1_x/6 + u2_xx")
    steps = [("add", (lone,)), ("addmul", (parse("u1_x/35"), parse("u1 + 1/11")))]
    assert_same(*run_both(steps))
    # polynomial coefficients with Fraction coefficients and Fraction scalars, added as terms
    stored = {m: rational.Poly({u: Fraction(n) for u, n in c.num.terms.items()})
              for m, c in parse("3*u1*u1_x + u2_xx - 2*u2*u1_x").terms.items()}
    whole = DiffPoly({m: rational.RatFunc.from_poly(p) for m, p in stored.items()})
    assert {type(n) for p in stored.values() for n in p.terms.values()} == {Fraction}
    steps = [("add", (lone,)), ("add", (parse("u1_x/35 + 2/9*u2*u1_x"), Fraction(3, 4))),
             ("add", (whole, Fraction(-5, 3))), ("add", (parse("u2_xx/1000003"), Fraction(1, 1))),
             ("add", (parse("u1*u1_x/4 + u1_xx"), 2)), ("add", (whole, Fraction(7, 2)))]
    assert_same(*run_both(steps))
    acc = DiffSum()
    acc.add(lone)
    assert acc.value() == lone  # one contribution: returned as given
    # a rational lone entry moves to its monomial's RatSum
    steps = [("add", (parse("u1_x/(u1 + 2)"),)), ("addmul", (parse("u1_x/3"), parse("u2")))]
    assert_same(*run_both(steps))


def test_use_after_value():
    a, b = parse("u1_x/3 + u2_xx"), parse("u1/5 + u2_x/7")
    acc, ref = DiffSum(), Chain()
    for step, (method, args) in enumerate([("add", (a,)), ("addmul", (a, b)),
                                           ("add", (b, Fraction(3, 2))), ("addmul", (b, b, 7)),
                                           ("add", (a, -1))]):
        getattr(acc, method)(*args)
        getattr(ref, method)(*args)
        if step % 2:
            assert_same(acc.value(), ref.value())
    first = acc.value()
    assert_same(first, ref.value())
    acc.add(a)  # the value already returned is never mutated
    assert_same(first, ref.value())
    ref.add(a)
    assert_same(acc.value(), ref.value())


def test_random_sums_match_the_chain():
    rng = random.Random(1907)
    for _ in range(60):
        steps = []
        for _ in range(rng.randint(1, 6)):
            a = rand_diffpoly(rng, nvars=2, max_order=2, terms=3, odd=False)
            k = rng.choice((1, 1, -1, 2, Fraction(1, 3), Fraction(-7, 5)))
            if rng.random() < 0.5:
                steps.append(("add", (a, k)))
            else:
                b = rand_diffpoly(rng, nvars=2, max_order=2, terms=3)
                steps.append(("addmul", (a, b, k)))
        assert_same(*run_both(steps))


def test_odd_times_odd_raises():
    p = parse("p1 + u1_x*p2")
    with pytest.raises(OddDegreeError):
        DiffSum().addmul(p, p)


def test_kdv5_residual_builds_no_ratsum(monkeypatch):
    built = []
    init = rational.RatSum.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(rational.RatSum, "__init__", counting)
    ctx = build_cotangent(EvolutionSystem.general([parse(KDV5)]))
    ansatz = make_operator_ansatz(1, 7, 2)
    residual = bivector_residual(ctx, BivectorForm(ansatz.components))
    assert any(not comp.is_zero for comp in residual)
    assert not built

"""Oracle tests for ``RatSum`` and the in-place sums built on it.

``RatSum`` is checked against the sequential ``RatFunc`` chain it replaces,
and the ``DiffSum``-based product, ``total_x``, ``total_t`` and ``linearize``
against reference copies of the term-by-term implementations they replaced
(kept below, with their ``add_into`` helper).  Results must be equal, print
identically and hold only ``int`` or ``Fraction`` coefficients.
"""

import math
import random
from fractions import Fraction

from hhokit.config import jet_cap
from hhokit.covering import EvolutionSystem, build_cotangent
from hhokit.errors import UnregisteredNonlocalError
from hhokit.grammar import parse, parse_scalar
from hhokit.jets import (KIND_P, DiffMonomial, DiffPoly, _bump_even, _raise_order, dm_mul, mono,
                         total_x, ujet)
from hhokit.rational import RatFunc, RatSum, mono_mul, vkey
from hhokit.rational import Poly

from genutil import rand_diffpoly, rand_poly, rand_ratfunc


def assert_exact(rf):
    for c in (*rf.num.terms.values(), *rf.den.terms.values()):
        assert type(c) in (int, Fraction), (c, type(c))


def assert_same(got, ref):
    assert got == ref
    assert str(got) == str(ref)
    if isinstance(got, DiffPoly):
        for c in got.terms.values():
            assert_exact(c)
    else:
        assert_exact(got)


# -- RatSum against the RatFunc chain ---------------------------------------------


_SCALES = (0, 1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2))


def _operand(rng):
    roll = rng.random()
    if roll < 0.15:
        return RatFunc.zero()
    if roll < 0.3:
        return RatFunc.const(rng.choice((1, -2, Fraction(3, 4))))
    if roll < 0.7:
        return RatFunc.from_poly(rand_poly(rng, 3, 2, terms=3, allow_params=2))
    return rand_ratfunc(rng, 2)


def _ops(rng, count):
    ops = []
    for _ in range(count):
        k = rng.choice(_SCALES)
        if rng.random() < 0.3:
            ops.append((_operand(rng), None, k))
        else:
            ops.append((_operand(rng), _operand(rng), k))
    return ops


def _ratsum(ops, first=None):
    acc = RatSum(first)
    for a, b, k in ops:
        if b is None:
            acc.add(a, k)
        else:
            acc.addmul(a, b, k)
    return acc.value()


def _chain(ops, first=None):
    acc = RatFunc.zero() if first is None else first
    for a, b, k in ops:
        acc = acc + (a if b is None else a * b) * k
    return acc


def test_ratsum_matches_the_ratfunc_chain():
    rng = random.Random(901)
    for _ in range(150):
        ops = _ops(rng, rng.randint(0, 8))
        assert_same(_ratsum(ops), _chain(ops))
        first = _operand(rng)
        assert_same(_ratsum(ops, first), _chain(ops, first))


def test_ratsum_goes_on_after_value():
    # value() takes over the polynomial dict; the sum stays usable and unchanged
    rng = random.Random(910)
    for _ in range(80):
        ops = _ops(rng, rng.randint(0, 8))
        cut = rng.randint(0, len(ops))
        acc = RatSum()
        for a, b, k in ops[:cut]:
            acc.addmul(a, b if b is not None else RatFunc.one(), k)
        head = acc.value()
        assert_same(head, _chain(ops[:cut]))
        assert_same(acc.value(), head)
        for a, b, k in ops[cut:]:
            acc.addmul(a, b if b is not None else RatFunc.one(), k)
        assert_same(acc.value(), _chain(ops))
        assert_same(head, _chain(ops[:cut]))


def test_ratsum_sums_that_cancel():
    rng = random.Random(902)
    for _ in range(80):
        ops = _ops(rng, rng.randint(1, 6))
        undo = [(a, b, -k) for a, b, k in ops]
        rng.shuffle(undo)
        got = _ratsum(ops + undo)
        assert got.is_zero and got == RatFunc.zero()
        assert str(got) == "0"
        # a partial cancellation leaves exactly the rest of the chain
        keep = rng.randint(0, len(ops))
        assert_same(_ratsum(ops + [(a, b, -k) for a, b, k in ops[keep:]]), _chain(ops[:keep]))


def test_ratsum_polynomial_products_stay_off_ratfunc():
    # polynomial operands: the result is a polynomial with a unit denominator
    rng = random.Random(903)
    for _ in range(60):
        ops = [(RatFunc.from_poly(rand_poly(rng, 3, 2, terms=4, allow_params=2)),
                RatFunc.from_poly(rand_poly(rng, 3, 2, terms=4)), rng.choice(_SCALES))
               for _ in range(rng.randint(1, 5))]
        got = _ratsum(ops)
        assert got.den == RatFunc.one().den
        assert_same(got, _chain(ops))


def test_ratsum_zero_operands_return_at_once():
    acc = RatSum()
    acc.addmul(RatFunc.zero(), rand_ratfunc(random.Random(904), 2))
    acc.addmul(RatFunc.var(1), RatFunc.zero(), 5)
    assert acc.terms == {} and acc.rest is None
    assert acc.value() == RatFunc.zero()


def test_mono_mul_keeps_the_term_order():
    # field variables u{i} first, then parameters c{k}, each by index (vkey)
    rng = random.Random(909)
    for _ in range(300):
        m1, m2 = ({rng.choice((1, 2, 3, 12, -1, -2, -9)): rng.randint(1, 3)
                   for _ in range(rng.randint(0, 4))} for _ in range(2))
        merged = dict(m1)
        for v, e in m2.items():
            merged[v] = merged.get(v, 0) + e
        ref = tuple(sorted(merged.items(), key=lambda p: vkey(p[0])))
        got = mono_mul(tuple(sorted(m1.items(), key=lambda p: vkey(p[0]))),
                       tuple(sorted(m2.items(), key=lambda p: vkey(p[0]))))
        assert got == ref


# -- reference implementations: the term-by-term sums replaced by DiffSum ---------


def ref_add_into(acc, terms):
    for m, c in terms.items():
        s = acc.get(m)
        if s is None:
            acc[m] = c
        else:
            s = s + c
            if s.is_zero:
                del acc[m]
            else:
                acc[m] = s


def ref_mul(a, b):
    res = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = dm_mul(m1, m2)
            c = c1 * c2
            s = res.get(m)
            if s is None:
                if not c.is_zero:
                    res[m] = c
            else:
                s = s + c
                if s.is_zero:
                    del res[m]
                else:
                    res[m] = s
    return DiffPoly._new(res)


def ref_total_x(a, rx_rules=None, cap=None):
    if cap is None:
        cap = jet_cap()
    res = {}
    for m, c in a.terms.items():
        for vid in c.field_vars():
            dc = c.diff(vid)
            if not dc.is_zero:
                ref_add_into(res, {dm_mul(m, mono([(ujet(vid, 1), 1)])): dc})
        for pos, (jv, e) in enumerate(m.even):
            ref_add_into(res, {_bump_even(m, pos, cap): c * e})
        if m.odd is not None:
            jv = m.odd
            if jv.kind == KIND_P:
                ref_add_into(res, {DiffMonomial(m.even, _raise_order(jv, cap)): c})
            else:
                if rx_rules is None or jv.index not in rx_rules:
                    raise UnregisteredNonlocalError(f"r{jv.index}")
                rest = DiffPoly._new({DiffMonomial(m.even, None): c})
                ref_add_into(res, ref_mul(rest, rx_rules[jv.index]).terms)
    return DiffPoly._new(res)


def ref_dx(ctx, a, k):
    for _ in range(k):
        a = ref_total_x(a, ctx._rx_rules, ctx._cap)
    return a


def ref_table(ctx):
    """The coefficients (i, j, sigma, a) of the covering's linearization."""
    return [(i, j, sigma, a) for i, row in enumerate(ctx.linearization.entries)
            for j, entry in enumerate(row) for a, sigma in entry]


def ref_total_t(ctx, a):
    res = {}
    for m, c in a.terms.items():
        for vid in c.field_vars():
            dc = c.diff(vid)
            if not dc.is_zero:
                ref_add_into(res, ref_mul(DiffPoly.monomial(m, dc),
                                          ctx.system.fluxes[vid - 1]).terms)
        for pos, (jv, e) in enumerate(m.even):
            if e > 1:
                lowered = m.even[:pos] + ((jv, e - 1),) + m.even[pos + 1:]
            else:
                lowered = m.even[:pos] + m.even[pos + 1:]
            rest = DiffPoly.monomial(DiffMonomial(lowered, m.odd), c * e)
            ref_add_into(res, ref_mul(rest, ref_dx(ctx, ctx.system.fluxes[jv.index - 1],
                                                        jv.xorder)).terms)
        if m.odd is not None:
            jv = m.odd
            rest = DiffPoly.monomial(DiffMonomial(m.even, None), c)
            if jv.kind == KIND_P:
                rule = ref_dx(ctx, ctx.pt_rules[jv.index - 1], jv.xorder)
            else:
                rule = ctx.slot(jv.index).rt_rule
            ref_add_into(res, ref_mul(rest, rule).terms)
    return DiffPoly._new(res)


def ref_linearize(ctx, phi):
    out = []
    for i in range(ctx.system.n):
        acc = ref_total_t(ctx, phi[i])
        for ii, j, sigma, a in ref_table(ctx):
            if ii == i:
                dphi = phi[j]
                for _ in range(sigma):
                    dphi = ref_total_x(dphi, ctx._rx_rules, ctx._cap)
                acc = acc - ref_mul(a, dphi)
        out.append(acc)
    return tuple(out)


def ref_adjoint_rules(ctx):
    rules = []
    for j in range(ctx.system.n):
        acc = DiffPoly.zero()
        for i, jj, sigma, a in ref_table(ctx):
            if jj == j:
                term = ref_mul(a, DiffPoly.odd_p(i + 1, 0))
                for _ in range(sigma):
                    term = ref_total_x(term, ctx._rx_rules, ctx._cap)
                acc = acc - term if sigma % 2 == 0 else acc + term
        rules.append(acc)
    return tuple(rules)


# -- DiffSum-based routines against the references ---------------------------------


def rational_diffpoly(rng, nvars, slots, odd=True):
    """A random DiffPoly with rational coefficients (and odd p and r factors)."""
    d = rand_diffpoly(rng, nvars=nvars, max_order=3, terms=4, odd=odd, slots=slots)
    out = {}
    for m, c in d.terms.items():
        scale = rand_ratfunc(rng, nvars) if rng.random() < 0.6 else RatFunc.const(
            rng.choice((1, -1, Fraction(2, 3))))
        if not scale.is_zero:
            out[m] = c * scale
    return DiffPoly(out)


def _coverings():
    rng = random.Random(905)
    kdv = build_cotangent(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")]))
    kdv.register_symmetry((parse("u1_x"),))
    hyd = build_cotangent(EvolutionSystem.hydrodynamic(
        [[parse_scalar("u1"), parse_scalar("u2")], [parse_scalar("u2"), parse_scalar("u1")]]))
    hyd.register_symmetry((parse("u1_x + u2_x"), parse("u1_x + u2_x")))
    # a rational velocity and a rational symmetry: every rule has real denominators
    v, w = rand_ratfunc(rng, 1), rand_ratfunc(rng, 1)
    rat = build_cotangent(EvolutionSystem.hydrodynamic([[v]]))
    rat.register_symmetry((DiffPoly.jet(1, 1).scalar_mul(w),))
    return ((kdv, 1), (hyd, 2), (rat, 1))


def test_product_matches_reference():
    rng = random.Random(906)
    for _ in range(120):
        nvars = rng.randint(1, 2)
        a = rational_diffpoly(rng, nvars, slots=2)
        b = rational_diffpoly(rng, nvars, slots=0, odd=False)
        assert_same(a * b, ref_mul(a, b))
        assert_same(b * a, ref_mul(b, a))
        assert_same(a * (b - b), DiffPoly.zero())


def test_ratfunc_and_diffpoly_operands_commute():
    rng = random.Random(909)
    for _ in range(60):
        nvars = rng.randint(1, 2)
        r = rand_ratfunc(rng, nvars) if rng.random() < 0.8 else RatFunc.zero()
        d = rational_diffpoly(rng, nvars, slots=1)
        assert_same(r + d, d + r)
        assert_same(r * d, d * r)
        assert_same(r - d, -(d - r))
        for c in (0, 3, Fraction(-2, 5), True):
            assert_same(r + c, c + r)
            assert_same(r * c, c * r)
            assert_same(r - c, -(c - r))


def test_total_x_and_total_t_match_reference():
    rng = random.Random(907)
    for ctx, nvars in _coverings():
        assert ctx.pt_rules == ref_adjoint_rules(ctx)
        for _ in range(25):
            a = rational_diffpoly(rng, nvars, slots=1)
            assert_same(ctx.total_x(a), ref_total_x(a, ctx._rx_rules, ctx._cap))
            assert_same(ctx.total_t(a), ref_total_t(ctx, a))
        # the plain total_x needs no covering for odd p only
        b = rational_diffpoly(rng, nvars, slots=0)
        assert_same(total_x(b), ref_total_x(b))


def test_linearize_matches_reference():
    rng = random.Random(908)
    for ctx, nvars in _coverings():
        for _ in range(6):
            phi = tuple(rational_diffpoly(rng, nvars, slots=1) for _ in range(ctx.system.n))
            got, ref = ctx.linearize(phi), ref_linearize(ctx, phi)
            for g, r in zip(got, ref):
                assert_same(g, r)


# -- the integer accumulator: numerators over one running denominator ---------------


def _over(d, seed, n=1):
    """A random polynomial in u1, u2 whose coefficients are multiples of 1/d."""
    rng = random.Random(seed)
    terms = {}
    for _ in range(3):
        m = tuple((v, rng.randint(1, 2)) for v in (1, 2) if rng.random() < 0.6)
        terms[m] = Fraction(n * rng.choice((1, -1, 2, 5, -7)), d)
    return RatFunc.from_poly(Poly(terms))


def _sum_and_chain(ops):
    acc, ref = RatSum(), RatFunc.zero()
    for a, b, k in ops:
        acc.addmul(a, b, k)
        ref = ref + a * b * k
    return acc, ref


def assert_lowest_int_form(rf):
    """The integer form value() leaves on its numerator is in lowest terms."""
    form = rf.num.ints
    if form is not None:
        d, nums = form
        assert d == math.lcm(*(Fraction(c).denominator for c in rf.num.terms.values()))
        assert nums == {m: c * d for m, c in rf.num.terms.items()}


def test_ratsum_denominator_grows_to_the_lcm():
    big = 1_000_003  # prime
    ops = [(_over(d, d), RatFunc.from_poly(Poly.var(2)), 1) for d in (2, 3, 4, 9, big)]
    acc = RatSum()
    dens = []
    for a, b, k in ops:
        acc.addmul(a, b, k)
        dens.append(acc.den)
    assert dens == [2, 6, 12, 36, 36 * big]
    acc2, ref = _sum_and_chain(ops)
    got = acc2.value()
    assert_same(got, ref)
    assert_lowest_int_form(got)
    # any order of the same products gives the same value
    rng = random.Random(911)
    for _ in range(20):
        rng.shuffle(ops)
        acc, ref = _sum_and_chain(ops)
        assert_same(acc.value(), ref)


def test_ratsum_fraction_scalars_and_fraction_one_coefficients():
    # a Fraction k, and input coefficients stored as Fraction(n, 1)
    whole = RatFunc.from_poly(Poly({((1, 1),): Fraction(4, 1), ((2, 1),): Fraction(-3, 1)}))
    assert {type(c) for c in whole.num.terms.values()} == {Fraction}
    for k in (Fraction(-5, 6), Fraction(7, 4), Fraction(4, 2), 3):
        for other in (whole, _over(4, 912), _over(9, 913, n=3), RatFunc.var(1)):
            ops = [(whole, other, k), (other, _over(2, 914), Fraction(1, 3)), (whole, whole, k)]
            acc, ref = _sum_and_chain(ops)
            got = acc.value()
            assert_same(got, ref)
            assert_lowest_int_form(got)
    # k/(d_a*d_b) = (4/3)/2 is reduced to 2/3 before the denominator grows
    acc = RatSum()
    acc.addmul(RatFunc.var(1) * Fraction(1, 2), RatFunc.var(1), Fraction(4, 3))
    assert acc.den == 3
    assert_same(acc.value(), RatFunc.var(1) * RatFunc.var(1) * Fraction(2, 3))


def test_ratsum_cancels_to_zero_over_a_denominator():
    a, b = _over(3, 915), _over(5, 916)
    acc = RatSum()
    acc.addmul(a, b, Fraction(2, 7))
    acc.addmul(b, a, Fraction(-2, 7))
    assert acc.terms == {} and acc.den > 1
    got = acc.value()
    assert got.is_zero and str(got) == "0"
    # and goes on from zero, over denominators of its own
    acc.addmul(a, a)
    acc.addmul(RatFunc.var(1), RatFunc.var(2), 3)
    assert_same(acc.value(), a * a + RatFunc.var(1) * RatFunc.var(2) * 3)


def test_ratsum_goes_on_after_value_with_new_denominators():
    rng = random.Random(917)
    for _ in range(40):
        head = [(_over(rng.choice((1, 2, 3)), rng.random()), _over(1, rng.random()),
                 rng.choice(_SCALES)) for _ in range(rng.randint(1, 4))]
        tail = [(_over(rng.choice((5, 7, 25)), rng.random()), _over(rng.choice((1, 11)), rng.random()),
                 rng.choice(_SCALES)) for _ in range(rng.randint(1, 4))]
        acc = RatSum()
        for a, b, k in head:
            acc.addmul(a, b, k)
        first = acc.value()
        assert_same(first, _chain(head))
        for a, b, k in tail:
            acc.addmul(a, b, k)
        assert_same(acc.value(), _chain(head + tail))
        assert_same(first, _chain(head))


def test_ratsum_mixes_rational_operands_with_the_accumulator():
    rng = random.Random(918)
    for _ in range(60):
        ops = []
        for _ in range(rng.randint(2, 7)):
            roll = rng.random()
            a = rand_ratfunc(rng, 2) if roll < 0.3 else _over(rng.choice((1, 2, 6, 9)), rng.random())
            b = _over(rng.choice((1, 4, 13)), rng.random()) if rng.random() < 0.7 else RatFunc.one()
            ops.append((a, b, rng.choice(_SCALES)))
        assert_same(_ratsum(ops), _chain(ops))
        first = rand_ratfunc(rng, 2)
        assert_same(_ratsum(ops, first), _chain(ops, first))

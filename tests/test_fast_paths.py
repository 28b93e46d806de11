"""The shortcut paths of the scalar and jet layers against the general ones.

``RatFunc`` products and sums skip reduction when both denominators are 1,
and a sum reduces its numerator only against the denominators' gcd;
``exact_div`` divides by a one-term divisor term by term and ``poly_gcd``
returns the shared monomial when an operand is one term; ``total_x``,
``total_t`` and ``partial_jet`` accumulate their terms into one dict.  Each
must give exactly the canonical result of the general route.
"""

import random
from fractions import Fraction

from hhokit.covering import EvolutionSystem, build_cotangent
from hhokit.grammar import parse, parse_scalar
from hhokit.jets import DiffPoly, total_x
from hhokit.rational import Poly, RatFunc, exact_div, mono_div, mono_key, mono_mul, poly_gcd

from genutil import rand_diffpoly, rand_poly, rand_ratfunc


def _rand_operand(rng):
    """A polynomial (denominator 1) or a rational function, with parameters
    in the numerator now and then."""
    if rng.random() < 0.5:
        return RatFunc.from_poly(rand_poly(rng, 2, 2, allow_params=2))
    return rand_ratfunc(rng, 2)


def test_ratfunc_ops_match_canonical_form():
    rng = random.Random(5)
    den1_pairs = 0
    for _ in range(400):
        a, b = _rand_operand(rng), _rand_operand(rng)
        if rng.random() < 0.1:
            b = -a  # exact cancellation
        den1_pairs += a.is_poly and b.is_poly
        cases = (
            (a * b, RatFunc(a.num * b.num, a.den * b.den)),
            (a + b, RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)),
            (a - b, RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)),
        )
        for fast, general in cases:
            assert fast.num == general.num and fast.den == general.den, (a, b)
    assert den1_pairs >= 50


def _per_term(op, a):
    """op applied to each term of a on its own, summed coefficient by
    coefficient (op is linear)."""
    acc = {}
    for m, c in a.terms.items():
        for m2, c2 in op(DiffPoly.monomial(m, c)).terms.items():
            acc[m2] = acc[m2] + c2 if m2 in acc else c2
    return DiffPoly(acc)  # drops the coefficients that cancelled


def _assert_same(fast, reference):
    assert all(not c.is_zero for c in fast.terms.values())
    assert fast == reference
    assert fast.sorted_terms() == reference.sorted_terms()


# Random coefficients almost never cancel exactly, so each test also runs
# inputs whose images cancel: across two terms (the u1_x*p1_x term of D_x)
# and within one term (the u1_x term of D_t(u1/u2) on the system below).
_CANCEL_X = "u1_x*p1 - u1*p1_x"
_CANCEL_T = "u1/u2"


def test_total_x_matches_per_term_sum():
    rng = random.Random(7)
    inputs = [parse(_CANCEL_X)]
    inputs += [rand_diffpoly(rng, nvars=2, max_order=3, terms=6) for _ in range(60)]
    for a in inputs:
        _assert_same(total_x(a), _per_term(total_x, a))


def _hydro2_context():
    system = EvolutionSystem.hydrodynamic(
        [[parse_scalar("u1"), parse_scalar("u2")], [parse_scalar("u2"), parse_scalar("u1")]])
    ctx = build_cotangent(system)
    ctx.register_symmetry((parse("u1_x + u2_x"), parse("u1_x + u2_x")))
    return ctx


def test_covering_total_x_and_total_t_match_per_term_sum():
    rng = random.Random(11)
    ctx = _hydro2_context()
    inputs = [parse(_CANCEL_X), parse(_CANCEL_T)]
    inputs += [rand_diffpoly(rng, nvars=2, max_order=2, terms=6, slots=1) for _ in range(40)]
    for a in inputs:
        _assert_same(ctx.total_x(a), _per_term(ctx.total_x, a))
        _assert_same(ctx.total_t(a), _per_term(ctx.total_t, a))


def test_partial_jet_matches_per_term_sum():
    rng = random.Random(13)
    for _ in range(60):
        a = rand_diffpoly(rng, nvars=2, max_order=3, terms=6)
        for index in (1, 2):
            for xorder in range(4):
                _assert_same(a.partial_jet(index, xorder),
                             _per_term(lambda t: t.partial_jet(index, xorder), a))


# -- one-term operands of exact_div and poly_gcd --------------------------------------------


def reference_exact_div(a, b):
    """The leading-term division loop, which takes any nonzero divisor."""
    bm, bc = b.leading()
    rem = dict(a.terms)
    quot = {}
    while rem:
        m = min(rem, key=mono_key)
        qm = mono_div(m, bm)
        if qm is None:
            return None
        qc = Fraction(rem[m]) / bc
        quot[qm] = qc
        for m2, c2 in b.terms.items():
            mm = mono_mul(qm, m2)
            s = rem.get(mm, 0) - qc * c2
            if s:
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return Poly(quot)


def _one_term_pairs(rng):
    """(a, b) with b one term: a constant now and then, with parameters on
    either side, and a sometimes a multiple of b."""
    pairs = []
    for _ in range(300):
        a = rand_poly(rng, 3, 3, terms=rng.randint(1, 4), allow_params=2)
        b = rand_poly(rng, 3, 2, terms=1, allow_params=1)
        if not a.is_zero and not b.is_zero:
            pairs.append((a * b if rng.random() < 0.3 else a, b))
    # no shared variable: multi-term in u1 against a power of u2 or of c1
    u1, u2, c1 = Poly.var(1), Poly.var(2), Poly.var(-1)
    pairs += [(u1 * u1 + u1, u2 ** 3), (u1 * u1 + u1, c1), (u1 + 1, u2), (u1 ** 2 * u2, c1 * 3)]
    return pairs


def test_one_term_exact_div_matches_leading_term_loop():
    outcomes = set()
    for a, b in _one_term_pairs(random.Random(17)):
        got = exact_div(a, b)
        assert got == reference_exact_div(a, b), (a, b)
        if got is not None:
            assert got * b == a
        outcomes.add((b.is_const, got is None))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_one_term_gcd_is_the_shared_monomial():
    kinds = set()
    for a, b in _one_term_pairs(random.Random(19)):
        for x, y in ((a, b), (b, a)):
            g = poly_gcd(x, y)
            assert g.is_monomial and g.leading()[1] == 1
            assert reference_exact_div(x, g) is not None
            assert reference_exact_div(y, g) is not None
            # nothing larger divides both: no extra factor of any variable
            for v in set(x.vars_used()) | set(y.vars_used()):
                gv = g * Poly.var(v)
                assert (reference_exact_div(x, gv) is None
                        or reference_exact_div(y, gv) is None), (x, y, g)
        kinds.add("constant" if g.is_const else "monomial")
    assert kinds == {"constant", "monomial"}
    assert poly_gcd(Poly.var(1) * Poly.var(1) + Poly.var(1), Poly.var(2) ** 3) == Poly.one()


def test_sum_over_shared_denominator_factor_matches_canonical_form():
    # with g = gcd of the denominators, only g can share a factor with the new
    # numerator: 1/(u1(u1 + 1)) + 1/(u1(u1 - 1)) = 2/((u1 + 1)(u1 - 1))
    x = Poly.var(1)
    a, b = RatFunc(Poly.one(), x * (x + 1)), RatFunc(Poly.one(), x * (x - 1))
    assert a + b == RatFunc(Poly.const(2), (x + 1) * (x - 1))
    rng = random.Random(23)
    for _ in range(150):
        g = rand_poly(rng, 2, 1, terms=2)
        dens = [g * rand_poly(rng, 2, 1, terms=2) for _ in range(2)]
        if any(d.is_zero for d in dens):
            continue
        a, b = (RatFunc(rand_poly(rng, 2, 2, allow_params=1), d) for d in dens)
        total = a + b
        general = RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)
        assert total.num == general.num and total.den == general.den, (a, b)

"""The shortcut paths of the scalar and jet layers against the general ones.

``RatFunc`` products and sums skip reduction when both denominators are 1;
``total_x``, ``total_t`` and ``partial_jet`` accumulate their terms into one
dict.  Each must give exactly the canonical result of the general route.
"""

import random

from hhokit.covering import EvolutionSystem, build_cotangent
from hhokit.grammar import parse, parse_scalar
from hhokit.jets import DiffPoly, total_x
from hhokit.rational import RatFunc

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

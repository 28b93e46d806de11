"""Differential polynomials: products, total derivative, collection."""

import random

import pytest

from hhokit.errors import JetCapError, OddDegreeError, UnregisteredNonlocalError
from hhokit.grammar import parse
from hhokit.jets import (KIND_P, KIND_R, KIND_U, DiffPoly, collect, dp_mul, jet_gradient,
                         mono_weight, total_x)
from hhokit.rational import RatFunc

from genutil import rand_diffpoly, rand_ratfunc


def test_simple_products():
    assert parse("u1_x") * parse("p1") == parse("u1_x*p1")
    assert (parse("u1") + parse("u1_x")) * parse("u1_x") == parse("u1*u1_x + u1_x^2")


def test_odd_times_odd_rejected():
    with pytest.raises(OddDegreeError):
        dp_mul(parse("p1"), parse("p2"))
    with pytest.raises(OddDegreeError):
        parse("p1_x") * parse("r1")


def test_total_x_basic():
    assert total_x(parse("u1")) == parse("u1_x")
    assert total_x(parse("u1*u1_x")) == parse("u1_x^2 + u1*u1_xx")
    # Leibniz through a coefficient function g(u) = u1^2
    assert total_x(parse("u1^2*p1")) == parse("2*u1*u1_x*p1 + u1^2*p1_x")


def test_total_x_r_needs_rule():
    with pytest.raises(UnregisteredNonlocalError):
        total_x(parse("r1"))
    rule = parse("u1_x*p1")
    assert total_x(parse("u1*r1"), rx_rules={1: rule}) == \
        parse("u1_x*r1 + u1*u1_x*p1")


def test_jet_cap(monkeypatch):
    monkeypatch.setenv("HHOKIT_JET_CAP", "3")
    with pytest.raises(JetCapError):
        total_x(parse("u1_x3"))
    total_x(parse("u1_xx"))  # still within the cap


def test_leibniz_rule_randomized():
    rng = random.Random(5)
    cases = 0
    while cases < 100:
        a = rand_diffpoly(rng, odd=False)
        b = rand_diffpoly(rng)
        try:
            ab = a * b
        except OddDegreeError:
            continue
        lhs = total_x(ab)
        rhs = total_x(a) * b + a * total_x(b)
        assert lhs == rhs
        cases += 1


def test_collect_literal_example():
    parts = collect(parse("u1_x*p1 + u1*p1_x"))
    assert len(parts) == 2
    by_text = {str(DiffPoly.monomial(m, RatFunc.one())): c for m, c in parts.items()}
    assert by_text["u1_x*p1"] == RatFunc.one()
    assert by_text["p1_x"] == RatFunc.var(1)


def test_collect_is_a_partition():
    rng = random.Random(6)
    for _ in range(100):
        a = rand_diffpoly(rng)
        parts = collect(a)
        rebuilt = DiffPoly.zero()
        for m, coeff in parts.items():
            rebuilt = rebuilt + DiffPoly.monomial(m, coeff)
        assert rebuilt == a
    assert collect(DiffPoly.zero()) == {}


def test_determinism_under_permutation():
    rng = random.Random(9)
    a = rand_diffpoly(rng, terms=6)
    items = list(a.terms.items())
    for _ in range(5):
        rng.shuffle(items)
        acc = DiffPoly.zero()
        for m, coeff in items:
            acc = acc + DiffPoly.monomial(m, coeff)
        assert acc == a
        assert str(acc) == str(a)


def test_partial_jet():
    f = parse("u1_x3 + u1*u1_x")
    assert f.partial_jet(1, 0) == parse("u1_x")
    assert f.partial_jet(1, 1) == parse("u1")
    assert f.partial_jet(1, 3) == DiffPoly.one()
    assert f.partial_jet(1, 2).is_zero
    assert parse("u1_x^2").partial_jet(1, 1) == parse("2*u1_x")


def _as_poly(v) -> DiffPoly:
    """The jet variable v as a differential polynomial."""
    if v.kind == KIND_P:
        return DiffPoly.odd_p(v.index, v.xorder)
    if v.kind == KIND_R:
        return DiffPoly.odd_r(v.index)
    return DiffPoly.jet(v.index, v.xorder)


def test_jet_gradient_oracle():
    """Seeded: jet_gradient(a) holds exactly the variables of a; Euler's weight identity
    sum_v xorder(v) v da/dv = sum_m mono_weight(m) (term m) holds, and so does its twin
    counting the jet and odd factors; each coefficient entry (u, i, 0) is RatFunc.diff(i)."""
    rng = random.Random(26)
    powers = 0
    for case in range(80):
        a = rand_diffpoly(rng, nvars=2, max_order=3, terms=5, slots=2)
        if case % 2:
            a = a.scalar_mul(rand_ratfunc(rng, 2))
        grad = jet_gradient(a)
        held = {v for m, c in a.terms.items()
                for v in (*(jv for jv, _ in m.even), m.odd,
                          *((KIND_U, i, 0) for i in c.field_vars())) if v is not None}
        assert set(grad) == held
        weighted = counted = DiffPoly.zero()
        for v, cofactors in grad.items():
            if v.kind == KIND_U and v.xorder == 0:
                continue
            for m, (c, e) in cofactors.items():
                powers += e > 1
                term = DiffPoly.monomial(m, c * e) * _as_poly(v)
                weighted += term.scalar_mul(v.xorder)
                counted += term
        assert weighted == DiffPoly({m: c * mono_weight(m) for m, c in a.terms.items()})
        assert counted == DiffPoly({m: c * (sum(e for _, e in m.even) + (m.odd is not None))
                                    for m, c in a.terms.items()})
        for m, c in a.terms.items():
            for i in (1, 2):
                dc = c.diff(i)
                assert grad.get((KIND_U, i, 0), {}).get(m) == ((dc, 1) if dc else None)
    assert powers  # some even factor carries an exponent above 1


def test_scalar_embedding():
    s = DiffPoly.from_scalar(RatFunc.var(1))
    assert s.is_scalar and s.scalar_value() == RatFunc.var(1)
    assert not parse("u1_x").is_scalar

"""Coverings: linearization, adjoint rules, residuals, symmetries, adjoints."""

import random
from fractions import Fraction

import pytest

from hhokit.covering import (
    BivectorForm,
    CoveringContext,
    EvolutionSystem,
    LocalOperator,
    bivector_residual,
    build_cotangent,
    extract_conditions,
    linearize,
    operator_to_bivector,
)
from hhokit.errors import InputError, NotASymmetryError
from hhokit.geometry import (Connection, Metric, ThirdOrderData, first_order_operator,
                             tail_characteristic, third_order_nonlocal_checks)
from hhokit.grammar import parse, parse_scalar
from hhokit.jets import KIND_P, DiffMonomial, DiffPoly, DiffSum, even_lowered, total_x
from hhokit.rational import Poly, RatFunc

from genutil import (formal_adjoint, neg, operator_normal_form, rand_diffpoly, rand_poly,
                     rand_ratfunc)


def kdv_system():
    return EvolutionSystem.general([parse("u1_x3 + u1*u1_x")])


def all_zero(vec):
    return all(c.is_zero for c in vec)


# -- linearization -----------------------------------------------------------------


def test_kdv_translation_symmetry():
    assert all_zero(linearize(kdv_system(), (parse("u1_x"),)))


def test_kdv_galilean_characteristic_is_not_a_symmetry():
    res = linearize(kdv_system(), (parse("u1"),))
    assert res[0] == parse("-u1*u1_x")


def test_scalar_hydrodynamic_everything_commutes():
    # u_t = v(u) u_x and phi = w(u) u_x: the residual cancels for every w
    rng = random.Random(2)
    for _ in range(5):
        v = RatFunc.from_poly(rand_poly(rng, 1, 2))
        w = RatFunc.from_poly(rand_poly(rng, 1, 2))
        system = EvolutionSystem.hydrodynamic([[v]])
        phi = (DiffPoly.jet(1, 1).scalar_mul(w),)
        assert all_zero(linearize(system, phi))


# -- the cotangent covering ----------------------------------------------------------


def test_kdv_adjoint_rule():
    ctx = build_cotangent(kdv_system())
    assert ctx.pt_rules[0] == parse("p1_x3 + u1*p1_x")


def test_transport_adjoint_rule():
    ctx = build_cotangent(EvolutionSystem.general([parse("u1_x")]))
    assert ctx.pt_rules[0] == parse("p1_x")


def test_hydrodynamic_adjoint_rule_matches_formula():
    rng = random.Random(8)
    n = 2
    V = [[RatFunc.from_poly(rand_poly(rng, n, 1, terms=2)) for _ in range(n)]
         for _ in range(n)]
    ctx = build_cotangent(EvolutionSystem.hydrodynamic(V))
    # independent transcription: p_{i,t} = (V^k_{i,j} - V^k_{j,i}) u^j_x p_k + V^k_i p_{k,x}
    for i in range(n):
        expected = DiffPoly.zero()
        for k in range(n):
            for j in range(n):
                coeff = V[k][i].diff(j + 1) - V[k][j].diff(i + 1)
                expected = expected + (DiffPoly.jet(j + 1, 1)
                                       * DiffPoly.odd_p(k + 1, 0)).scalar_mul(coeff)
            expected = expected + DiffPoly.odd_p(k + 1, 1).scalar_mul(V[k][i])
        assert ctx.pt_rules[i] == expected


def test_total_t_on_kdv():
    ctx = build_cotangent(kdv_system())
    assert ctx.total_t(parse("u1")) == parse("u1_x3 + u1*u1_x")
    assert ctx.total_t(parse("p1")) == parse("p1_x3 + u1*p1_x")


def test_potential_covering_rules():
    # b_t = V(b_x) has p_{i,t} = V^j_{,i} p_{j,x} + V^j_{,il} u^l_x p_j
    V = [parse_scalar("u1^2 + u2"), parse_scalar("u1*u2")]
    pot = EvolutionSystem.potential(V)
    ctx = build_cotangent(pot)
    n = 2
    for i in range(n):
        expected = DiffPoly.zero()
        for j in range(n):
            expected = expected + DiffPoly.odd_p(j + 1, 1).scalar_mul(V[j].diff(i + 1))
            for l in range(n):
                expected = expected + (DiffPoly.jet(l + 1, 1) *
                                       DiffPoly.odd_p(j + 1, 0)).scalar_mul(
                    V[j].diff(i + 1).diff(l + 1))
        assert ctx.pt_rules[i] == expected
    # the u-jet rewrite is the conservative one
    assert ctx.system.fluxes[0] == parse("2*u1*u1_x + u2_x")


# -- symmetry registration ------------------------------------------------------------


def test_register_hydrodynamic_symmetry():
    rng = random.Random(3)
    v = RatFunc.from_poly(rand_poly(rng, 1, 2))
    w = RatFunc.from_poly(rand_poly(rng, 1, 2))
    system = EvolutionSystem.hydrodynamic([[v]])
    ctx = build_cotangent(system)
    phi = (DiffPoly.jet(1, 1).scalar_mul(w),)
    alpha = ctx.register_symmetry(phi)
    slot = ctx.slot(alpha)
    assert slot.rx_rule == (DiffPoly.jet(1, 1) * DiffPoly.odd_p(1)).scalar_mul(w)
    assert slot.rt_rule == (DiffPoly.jet(1, 1) * DiffPoly.odd_p(1)).scalar_mul(v * w)


def test_register_rejects_non_symmetry():
    ctx = build_cotangent(kdv_system())
    with pytest.raises(NotASymmetryError) as err:
        ctx.register_symmetry((parse("u1"),))
    assert err.value.residual[0] == parse("-u1*u1_x")


def test_kdv_symmetry_slot_consistency():
    # D_x(r_t) == D_t(r_x) in normal form once the slot is registered
    ctx = build_cotangent(kdv_system())
    alpha = ctx.register_symmetry((parse("u1_x"),))
    slot = ctx.slot(alpha)
    assert ctx.total_x(slot.rt_rule) == ctx.total_t(slot.rx_rule)


# -- bivector residuals -----------------------------------------------------------------


def test_kdv_bivectors():
    ctx = build_cotangent(kdv_system())
    assert all_zero(bivector_residual(ctx, BivectorForm((parse("p1_x"),))))
    A2 = BivectorForm((parse("p1_x3 + 2/3*u1*p1_x + 1/3*u1_x*p1"),))
    assert all_zero(bivector_residual(ctx, A2))
    res = bivector_residual(ctx, BivectorForm((parse("u1*p1_x"),)))
    assert not all_zero(res)


def test_residual_is_linear_in_the_operator():
    ctx = build_cotangent(kdv_system())
    rng = random.Random(17)
    for _ in range(10):
        A = rand_diffpoly(rng, nvars=1, max_order=2, odd=True)
        B = rand_diffpoly(rng, nvars=1, max_order=2, odd=True)
        A = DiffPoly({m: c for m, c in A.terms.items() if m.odd is not None})
        B = DiffPoly({m: c for m, c in B.terms.items() if m.odd is not None})
        rA = bivector_residual(ctx, BivectorForm((A,)))[0]
        rB = bivector_residual(ctx, BivectorForm((B,)))[0]
        rAB = bivector_residual(ctx, BivectorForm((A + B.scalar_mul(Fraction(3)),)))[0]
        assert rAB == rA + rB.scalar_mul(Fraction(3))


def test_extract_conditions_families():
    # first-order operator on a hydrodynamic system collects into the four
    # expected monomial shapes
    rng = random.Random(19)
    n = 2
    V = [[RatFunc.from_poly(rand_poly(rng, n, 1, terms=2)) for _ in range(n)]
         for _ in range(n)]
    metric = Metric([[1, 2], [2, 1]], variance="upper")
    conn = Connection(metric, [[[Fraction(1, 2), 0], [0, 1]],
                               [[0, 1], [1, 0]]])
    ctx = build_cotangent(EvolutionSystem.hydrodynamic(V))
    A = operator_to_bivector(first_order_operator(metric, conn))
    residual = bivector_residual(ctx, A)
    shapes = set()
    for comp in residual:
        for m in comp.terms:
            evens = tuple(sorted((jv.xorder, e) for jv, e in m.even))
            shapes.add((evens, m.odd.xorder))
    allowed = {((), 2), (((1, 1),), 1), (((1, 2),), 0), (((1, 1), (1, 1)), 0),
               (((2, 1),), 0)}
    assert shapes <= allowed
    assert extract_conditions((DiffPoly.zero(),)) == []


def test_extract_conditions_sum_matches_term_count():
    ctx = build_cotangent(kdv_system())
    res = bivector_residual(ctx, BivectorForm((parse("u1*p1_x"),)))
    conds = extract_conditions(res)
    assert len(conds) == sum(len(c.terms) for c in res)
    assert all(not c.is_zero for c in conds)


def test_expanded_families_match_residual_coefficients():
    """Every covering-residual coefficient is one of the four expanded
    condition families (up to the sign of the antisymmetric one and the
    factor 2 on the diagonal of the symmetrized quadratic family)."""
    from hhokit.geometry import expanded_first_order_conditions
    from genutil import flat_first_order_instance, random_velocity

    rng = random.Random(205)
    for _ in range(5):
        n = rng.choice([2, 3])
        metric, conn, _, _, _ = flat_first_order_instance(rng, n)
        V = random_velocity(rng, n, degree=1)
        rep = expanded_first_order_conditions(metric, conn, V)
        values = {}
        for fam, idx, rf in rep.residuals:
            values[(fam, idx)] = rf
        ctx = build_cotangent(EvolutionSystem.hydrodynamic(V))
        A = operator_to_bivector(first_order_operator(metric, conn))
        residual = bivector_residual(ctx, A)
        matched = 0
        for i, comp in enumerate(residual):
            for m, coeff in comp.terms.items():
                jv = m.odd
                evens = m.even
                if jv.xorder == 2 and not evens:
                    a, b = sorted((i + 1, jv.index))
                    expect = values.get(("coeff-p-xx", (a, b)))
                    if expect is None:
                        continue
                    sign = Fraction(-1) if (i + 1, jv.index) == (a, b) else Fraction(1)
                    assert (coeff - expect.__mul__(sign)).is_zero
                elif jv.xorder == 1 and len(evens) == 1 and evens[0][0].xorder == 1 \
                        and evens[0][1] == 1:
                    key = ("coeff-ux-px", (i + 1, jv.index, evens[0][0].index))
                    expect = values.get(key)
                    if expect is None:
                        continue
                    assert (coeff - expect).is_zero
                elif jv.xorder == 0 and len(evens) == 1 and evens[0][0].xorder == 2:
                    key = ("coeff-uxx-p", (i + 1, jv.index, evens[0][0].index))
                    expect = values.get(key)
                    if expect is None:
                        continue
                    assert (coeff - expect).is_zero
                elif jv.xorder == 0 and all(f.xorder == 1 for f, _ in evens):
                    if len(evens) == 2:
                        l, mm = evens[0][0].index, evens[1][0].index
                        factor = Fraction(1)
                    else:
                        l = mm = evens[0][0].index
                        factor = Fraction(2)
                    key = ("coeff-uxux-p", (i + 1, jv.index, min(l, mm), max(l, mm)))
                    expect = values.get(key)
                    if expect is None:
                        continue
                    assert (coeff * factor - expect).is_zero
                else:
                    raise AssertionError(f"unexpected residual monomial {m}")
                matched += 1
        assert matched > 0


# -- formal adjoints ----------------------------------------------------------------------


def test_adjoint_basic():
    dx = LocalOperator.build(1, [[[(1, 1)]]])
    assert formal_adjoint(dx) == neg(dx)
    u_dx = LocalOperator.build(1, [[[(RatFunc.var(1), 1)]]])
    expected = LocalOperator.build(
        1, [[[(-RatFunc.var(1), 1), (parse("-u1_x"), 0)]]])
    assert formal_adjoint(u_dx) == expected


def test_kdv_second_operator_is_skew_adjoint():
    A2 = LocalOperator.build(1, [[[(1, 3), (RatFunc.var(1) * Fraction(2, 3), 1),
                                   (parse("1/3*u1_x"), 0)]]])
    assert formal_adjoint(A2) == neg(A2)


def _bands(entries) -> set:
    return {(i, j, k) for i, row in enumerate(entries) for j, entry in enumerate(row)
            for _, k in entry}


def test_adjoint_involution_randomized():
    """The raw entries repeat k, cancel and come out of order; ``LocalOperator.build``
    brings them to the reference's normal form, and the adjoint is an involution on it."""
    rng = random.Random(23)
    merged = cancelled = unordered = 0
    for _ in range(100):
        n = rng.choice([1, 2])
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                terms = []
                for _ in range(rng.randint(0, 2)):
                    coeff = rand_diffpoly(rng, nvars=n, max_order=2, terms=2, odd=False)
                    terms.append((coeff, rng.randint(0, 4)))
                if terms and rng.random() < 0.2:  # a term and its negative at one k
                    terms.insert(rng.randint(0, len(terms)), (-terms[0][0], terms[0][1]))
                ks = [k for _, k in terms]
                merged += len(set(ks)) < len(ks)
                unordered += ks != sorted(ks)
                row.append(tuple(terms))
            entries.append(tuple(row))
        op = LocalOperator.build(n, entries)
        reference = operator_normal_form(n, entries)
        assert op == reference
        cancelled += _bands(reference.entries) != _bands(entries)
        assert formal_adjoint(formal_adjoint(op)) == op
    assert merged and cancelled and unordered


# -- mixed-derivative commutation -----------------------------------------------------------


def _commutation_case(ctx, rng, nvars, slots):
    a = rand_diffpoly(rng, nvars=nvars, max_order=3, terms=3, slots=slots)
    lhs = ctx.total_x(ctx.total_t(a))
    rhs = ctx.total_t(ctx.total_x(a))
    assert lhs == rhs


def test_dx_dt_commute_on_kdv_covering():
    rng = random.Random(29)
    ctx = build_cotangent(kdv_system())
    ctx.register_symmetry((parse("u1_x"),))
    for _ in range(50):
        _commutation_case(ctx, rng, 1, slots=1)


def test_dx_dt_commute_on_hydrodynamic_covering():
    rng = random.Random(31)
    V = [[parse_scalar(s) for s in row] for row in [["u1", "u2"], ["u2", "u1"]]]
    ctx = build_cotangent(EvolutionSystem.hydrodynamic(V))
    ctx.register_symmetry((parse("u1_x + u2_x"), parse("u1_x + u2_x")))
    for _ in range(50):
        _commutation_case(ctx, rng, 2, slots=1)


# -- D_t by rule against one product per term and factor ------------------------------------


def _per_term_total_t(ctx, a):
    """D_t as the covering formed it before grouping by rule: one product per term and
    differentiated factor, an even factor's exponent given as the product's scalar."""
    ladders = {}

    def dx(key, base, k):
        ladder = ladders.setdefault(key, [base])
        while len(ladder) <= k:
            ladder.append(ctx.total_x(ladder[-1]))
        return ladder[k]

    res = DiffSum()
    for m, c in a.terms.items():
        for vid in c.field_vars():
            res.addmul(DiffPoly._new({m: c.diff(vid)}), ctx.system.fluxes[vid - 1])
        for pos, (jv, e) in enumerate(m.even):
            rest = DiffPoly._new({DiffMonomial(even_lowered(m.even, pos), m.odd): c})
            res.addmul(rest, dx(("f", jv.index), ctx.system.fluxes[jv.index - 1], jv.xorder), e)
        if m.odd is not None:
            jv = m.odd
            rest = DiffPoly._new({DiffMonomial(m.even, None): c})
            if jv.kind == KIND_P:
                rule = dx(("pt", jv.index), ctx.pt_rules[jv.index - 1], jv.xorder)
            else:
                rule = ctx.slot(jv.index).rt_rule
            res.addmul(rest, rule)
    return res.value()


def test_total_t_by_rule_matches_per_term_products():
    rng = random.Random(25)
    kdv = build_cotangent(kdv_system())
    kdv.register_symmetry((parse("u1_x"),))  # the x-translation, potential r1
    V = [[parse_scalar(s) for s in row] for row in [["u1/u2", "u2"], ["1", "u1"]]]
    hydro = build_cotangent(EvolutionSystem.hydrodynamic(V))
    square = DiffPoly.jet(1, 1) ** 2
    seen = {"denominator": 0, "power": 0, "r1": 0}
    p_orders = set()
    for ctx, nvars, slots in ((kdv, 1, 1), (hydro, 2, 0)):
        for _ in range(30):
            a = (rand_diffpoly(rng, nvars=nvars, max_order=3, terms=4, slots=slots)
                 * DiffPoly.from_scalar(rand_ratfunc(rng, nvars))
                 + rand_diffpoly(rng, nvars=nvars, max_order=3, terms=3, slots=slots) * square)
            for m, c in a.terms.items():
                seen["denominator"] += not c.den.is_const
                seen["power"] += any(e >= 2 for _, e in m.even)
                seen["r1"] += m.odd is not None and m.odd.kind != KIND_P
                if m.odd is not None and m.odd.kind == KIND_P:
                    p_orders.add(m.odd.xorder)
            assert ctx.total_t(a) == _per_term_total_t(ctx, a)
    assert min(seen.values()) >= 5 and p_orders == {0, 1, 2, 3}


# -- operator application ---------------------------------------------------------------------


def test_operator_to_bivector_first_order_shape():
    g = Metric([[1, 0], [0, 1]], variance="upper")
    conn = Connection(g, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    A = operator_to_bivector(first_order_operator(g, conn))
    assert A.components[0] == parse("p1_x + u1_x*p1")
    assert A.components[1] == parse("p2_x")


def test_bivector_form_rejects_even_terms():
    from hhokit.errors import InputError
    with pytest.raises(InputError):
        BivectorForm((parse("u1_x"),))


def test_covering_reads_the_jet_cap_when_built(monkeypatch):
    from hhokit.errors import JetCapError
    system = EvolutionSystem.general([parse("u1*u1_x")])
    monkeypatch.setenv("HHOKIT_JET_CAP", "3")
    capped = build_cotangent(system)
    monkeypatch.delenv("HHOKIT_JET_CAP")
    default = build_cotangent(system)
    with pytest.raises(JetCapError, match="HHOKIT_JET_CAP"):
        capped.total_x(parse("u1_x3"))
    monkeypatch.setenv("HHOKIT_JET_CAP", "3")
    assert default.total_x(parse("u1_x3")) == parse("u1_x4")
    with pytest.raises(JetCapError):
        build_cotangent(system).total_x(parse("u1_x3"))


def test_third_order_tails_share_one_covering(monkeypatch):
    # every tail's symmetry residual is linearized on one potential covering per call
    built = []
    init = CoveringContext.__init__

    def counting_init(self, system):
        built.append(system)
        init(self, system)

    monkeypatch.setattr(CoveringContext, "__init__", counting_init)
    d = ThirdOrderData.from_lower_metric([[1]])
    vflux = [parse_scalar("1/2*u1^2")]
    tails = [[[parse_scalar("1")]], [[parse_scalar("u1")]]]
    rep = third_order_nonlocal_checks(d, tails, [Fraction(1), Fraction(2)], vflux)
    assert len(built) == 1
    # the shared covering gives each tail the residual a fresh covering gives it
    got = [(idx, value) for fam, idx, value in rep.residuals if fam == "tail-symmetry-residual"]
    pot = EvolutionSystem.potential(vflux)
    ref = [((a + 1, i + 1), coeff) for a, w in enumerate(tails)
           for i, comp in enumerate(linearize(pot, tail_characteristic(w)))
           for _, coeff in comp.sorted_terms()]
    assert got and got == ref
    built.clear()
    third_order_nonlocal_checks(d, [], [], vflux)
    assert built == []


@pytest.mark.parametrize("make, message", [
    (lambda: EvolutionSystem(n=0, fluxes=()), "system needs at least one dependent variable"),
    (lambda: EvolutionSystem(n=2, fluxes=(parse("u1_x"),)), "expected 2 fluxes, got 1"),
    (lambda: EvolutionSystem.general([parse("u1_x"), parse("p1")]),
     "flux 2 contains odd variables"),
    (lambda: EvolutionSystem.hydrodynamic([[parse_scalar("u1"), parse_scalar("u2")]]),
     "velocity matrix must be square"),
], ids=["n-below-one", "flux-count", "odd-flux", "non-square-velocity"])
def test_evolution_system_shape_checks(make, message):
    with pytest.raises(InputError) as err:
        make()
    assert str(err.value) == message

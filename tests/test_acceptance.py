"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every check here is exact (rational-arithmetic identity) unless the line
explicitly says it samples; each test prints a single pass/fail line.
"""

import random
import time
from fractions import Fraction

from hhokit.covering import (
    BivectorForm,
    EvolutionSystem,
    LocalOperator,
    bivector_residual,
    build_cotangent,
    operator_to_bivector,
)
from hhokit.catalog import N4_FLUXES, SIX_FLUXES
from hhokit.geometry import (
    char_square_check,
    expanded_first_order_conditions,
    first_order_hamiltonian_check,
    first_order_operator,
    haantjes_zero_check,
    linear_degeneracy_check,
    second_order_compat,
    third_order_compat,
    third_order_hamiltonian_check,
    third_order_operator,
    tsarev_check,
)
from hhokit.grammar import format_diffpoly, parse, parse_scalar
from hhokit.jets import DiffPoly, collect, total_x
from hhokit.rational import Poly, RatFunc
from hhokit.solver import (
    find_bivectors,
    find_fluxes_second_order,
    make_flux_ansatz,
    make_operator_ansatz,
)

from genutil import (
    catalog_data,
    constant_third_order_instance,
    flat_first_order_instance,
    formal_adjoint,
    hessian_velocity,
    rand_diffpoly,
    rand_poly,
    random_fluxes,
    random_velocity,
    symmetric_affine_fluxes,
)


def report(num, ok, elapsed, limit, desc):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} ({elapsed:.2f}s / limit {limit:.0f}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed <= limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def all_zero(vec):
    return all(c.is_zero for c in vec)


def test_criterion_01_kdv_bivector_search():
    t0 = time.time()
    system = EvolutionSystem.general([parse("u1_x3 + u1*u1_x")])
    family = find_bivectors(system, make_operator_ansatz(1, 3, 1))
    basis = {format_diffpoly(b[0]) for b in family.basis}
    expected = {format_diffpoly(parse("p1_x")),
                format_diffpoly(parse("p1_x3 + 2/3*u1*p1_x + 1/3*u1_x*p1"))}
    ok = family.dimension == 2 and basis == expected
    report(1, ok, time.time() - t0, 10,
           "KdV search (order<=3, degree<=1) has exactly the two-member basis")


def test_criterion_02_kdv_covering():
    t0 = time.time()
    ctx = build_cotangent(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")]))
    ok = ctx.pt_rules[0] == parse("p1_x3 + u1*p1_x")
    report(2, ok, time.time() - t0, 10, "KdV cotangent covering rule is exact")


def _first_order_instances(seed=421, count=24):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        metric, conn, J, Jinv, ubar = flat_first_order_instance(
            rng, n, constant_jacobian=rng.random() < 0.5)
        if rng.random() < 0.5:
            V = hessian_velocity(rng, n, J, Jinv, ubar)
        else:
            V = random_velocity(rng, n)
        out.append((n, metric, conn, V))
    return out


def test_criterion_03_first_order_equivalence():
    t0 = time.time()
    instances = _first_order_instances()
    passes = fails = 0
    agree = True
    for n, metric, conn, V in instances:
        assert first_order_hamiltonian_check(metric, conn).passed
        t = tsarev_check(metric, conn, V).passed
        e = expanded_first_order_conditions(metric, conn, V).passed
        ctx = build_cotangent(EvolutionSystem.hydrodynamic(V))
        A = operator_to_bivector(first_order_operator(metric, conn))
        cov = all_zero(bivector_residual(ctx, A))
        agree = agree and (t == e == cov)
        if t:
            passes += 1
        else:
            fails += 1
    ok = agree and len(instances) >= 20 and passes >= 3 and fails >= 3
    report(3, ok, time.time() - t0, 60,
           f"three first-order oracles agree pairwise on {len(instances)} "
           f"instances ({passes} passing, {fails} failing)")


def test_criterion_04_lemma_suite():
    t0 = time.time()
    rng = random.Random(1009)
    checked = 0
    ok = True
    while checked < 20:
        n = rng.choice([2, 3])
        metric, conn, J, Jinv, ubar = flat_first_order_instance(
            rng, n, constant_jacobian=rng.random() < 0.5)
        V = hessian_velocity(rng, n, J, Jinv, ubar)
        rep = expanded_first_order_conditions(metric, conn, V)
        fams = set(rep.families_failing())
        # flatness + the p_xx and u_xx p families hold by construction; the
        # derived families must then vanish identically
        if "coeff-p-xx" in fams or "coeff-uxx-p" in fams:
            continue
        checked += 1
        ok = ok and "coeff-ux-px" not in fams and "coeff-uxux-p" not in fams
    report(4, ok, time.time() - t0, 60,
           "derived coefficient families vanish on 20 passing instances")


def test_criterion_05_second_order_n2():
    t0 = time.time()
    from hhokit.geometry import SecondOrderData
    d = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 1], [-1, 0]])
    family = find_fluxes_second_order(d, make_flux_ansatz(2, 2), classify=False)
    ok = family.dimension == 3
    for member in family.basis:
        for comp in member:
            ok = ok and comp.is_poly and comp.num.degree() <= 1
    report(5, ok, time.time() - t0, 60,
           "n=2 constant skew metric forces affine fluxes only")


def test_criterion_06_n4_example():
    t0 = time.time()
    d = catalog_data("n4-second-order", "C")
    vflux = [parse_scalar(s) for s in N4_FLUXES]
    compat = second_order_compat(d, vflux).passed
    J = [[vflux[i].diff(j + 1) for j in range(4)] for i in range(4)]
    lindeg = linear_degeneracy_check(J).passed
    hz = haantjes_zero_check(J).passed
    square = char_square_check(J).passed
    ok = compat and lindeg and hz and square
    report(6, ok, time.time() - t0, 300,
           "ten-parameter n=4 family: compatibility, linear degeneracy, "
           "Haantjes = 0, squared characteristic polynomial (all symbolic)")


def test_criterion_07_third_order_cross_oracle():
    t0 = time.time()
    rng = random.Random(71)
    instances = []
    while len(instances) < 10:
        n = rng.choice([1, 2, 3])
        d = constant_third_order_instance(rng, n)
        if rng.random() < 0.5:
            vflux = symmetric_affine_fluxes(rng, n, d)
        else:
            vflux = random_fluxes(rng, n, degree=2)
        instances.append((d, vflux))
    # nonconstant-metric instances exercise the same equivalence, with a
    # genuinely rational compatible flux and a failing polynomial one
    dm = catalog_data("third-order-monge", "D")
    instances.append((dm, [RatFunc.var(2), RatFunc.var(2) ** 2 / RatFunc.var(1)]))
    instances.append((dm, [RatFunc.var(1) ** 2, RatFunc.var(2)]))
    agree = True
    passes = fails = 0
    for d, vflux in instances:
        assert third_order_hamiltonian_check(d).passed
        rep = third_order_compat(d, vflux).passed
        ctx = build_cotangent(EvolutionSystem.conservative(vflux))
        A = operator_to_bivector(third_order_operator(d))
        cov = all_zero(bivector_residual(ctx, A))
        agree = agree and rep == cov
        if rep:
            passes += 1
        else:
            fails += 1
    ok = agree and len(instances) >= 10 and passes >= 2 and fails >= 2
    report(7, ok, time.time() - t0, 120,
           f"third-order checker matches the covering residual on "
           f"{len(instances)} instances ({passes} passing, {fails} failing)")


def test_criterion_08_nonlocal_first_order_n1():
    t0 = time.time()
    rng = random.Random(83)
    ok = True
    for _ in range(8):
        v = RatFunc.from_poly(rand_poly(rng, 1, 2))
        w = RatFunc.from_poly(rand_poly(rng, 1, 2))
        g = RatFunc.from_poly(rand_poly(rng, 1, 2)) + RatFunc.const(
            Fraction(rng.randint(1, 4)))
        if g.is_zero:
            continue
        gamma = g.diff(1) / 2  # the metric-compatibility condition in n=1
        system = EvolutionSystem.hydrodynamic([[v]])
        ctx = build_cotangent(system)
        phi = (DiffPoly.jet(1, 1).scalar_mul(w),)
        alpha = ctx.register_symmetry(phi)  # any rational w is accepted
        B = BivectorForm((
            DiffPoly.odd_p(1, 1).scalar_mul(g)
            + (DiffPoly.jet(1, 1) * DiffPoly.odd_p(1, 0)).scalar_mul(gamma)
            + (DiffPoly.jet(1, 1) * DiffPoly.odd_r(alpha)).scalar_mul(w),))
        ok = ok and all_zero(bivector_residual(ctx, B))
    report(8, ok, time.time() - t0, 60,
           "n=1 symmetry tails register and the nonlocal residual vanishes")


def test_criterion_09_oriented_associativity():
    t0 = time.time()
    vflux = [parse_scalar(s) for s in SIX_FLUXES]
    J = [[vflux[i].diff(j + 1) for j in range(6)] for i in range(6)]
    lindeg = linear_degeneracy_check(J).passed
    hz = haantjes_zero_check(J)
    # spot-check certification at a rational point backs the symbolic verdict
    point = {i: Fraction(v) for i, v in zip(range(1, 7), (2, 3, 5, 7, 11, 13))}
    some_nonzero = any(rf.evaluate(point) != 0 for _, _, rf in hz.residuals[:5])
    ok = lindeg and (not hz.passed) and some_nonzero
    report(9, ok, time.time() - t0, 120,
           "oriented associativity: linearly degenerate, Haantjes nonzero")


def test_criterion_10_kernel_property_suites():
    t0 = time.time()
    rng = random.Random(97)
    # Leibniz rule for the total derivative
    cases = 0
    ok = True
    while cases < 100:
        a = rand_diffpoly(rng, odd=False)
        b = rand_diffpoly(rng)
        ok = ok and total_x(a * b) == total_x(a) * b + a * total_x(b)
        cases += 1
    # collect partitions
    for _ in range(100):
        a = rand_diffpoly(rng)
        rebuilt = DiffPoly.zero()
        for m, coeff in collect(a).items():
            rebuilt = rebuilt + DiffPoly.monomial(m, coeff)
        ok = ok and rebuilt == a
    # adjoint involution
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
                row.append(tuple(terms))
            entries.append(tuple(row))
        op = LocalOperator.build(n, entries)
        ok = ok and formal_adjoint(formal_adjoint(op)) == op
    # D_x / D_t commutation on coverings
    kdv = build_cotangent(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")]))
    kdv.register_symmetry((parse("u1_x"),))
    hyd = build_cotangent(EvolutionSystem.hydrodynamic(
        [[parse_scalar("u1"), parse_scalar("u2")],
         [parse_scalar("u2"), parse_scalar("u1")]]))
    hyd.register_symmetry((parse("u1_x + u2_x"), parse("u1_x + u2_x")))
    for k in range(100):
        if k % 2 == 0:
            a = rand_diffpoly(rng, nvars=1, max_order=3, terms=3, slots=1)
            ctx = kdv
        else:
            a = rand_diffpoly(rng, nvars=2, max_order=3, terms=3, slots=1)
            ctx = hyd
        ok = ok and ctx.total_x(ctx.total_t(a)) == ctx.total_t(ctx.total_x(a))
    report(10, ok, time.time() - t0, 300,
           "kernel property suites: Leibniz, collect, adjoint involution, "
           "D_x/D_t commutation (100 cases each)")

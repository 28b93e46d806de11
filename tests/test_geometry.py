"""Closed-form tensor checkers and classifiers."""

import random
from fractions import Fraction

import pytest

from hhokit.covering import EvolutionSystem, bivector_residual, build_cotangent, \
    operator_to_bivector
from hhokit.errors import DegenerateMetricError, InputError
from hhokit.geometry import (
    Connection,
    Metric,
    SecondOrderData,
    ThirdOrderData,
    char_poly_coeffs,
    char_square_check,
    curvature,
    determinant,
    expanded_first_order_conditions,
    first_order_hamiltonian_check,
    haantjes,
    haantjes_zero_check,
    inverse,
    linear_degeneracy_check,
    nonlocal_first_order_check,
    potentialize,
    second_order_canonical_check,
    second_order_compat,
    second_order_potential_bivector,
    third_order_compat,
    third_order_hamiltonian_check,
    third_order_nonlocal_checks,
    third_order_operator,
    tsarev_check,
)
from hhokit.grammar import parse_scalar
from hhokit.rational import RatFunc

from genutil import (
    constant_third_order_instance,
    flat_first_order_instance,
    hessian_velocity,
    nijenhuis,
    random_fluxes,
    symmetric_affine_fluxes,
)


def mat(rows):
    return [[parse_scalar(str(x)) for x in row] for row in rows]


def zero_gamma(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


# -- first order --------------------------------------------------------------------


def test_flat_euclidean_passes():
    g = Metric([[1, 0], [0, 1]], variance="upper")
    conn = Connection(g, zero_gamma(2))
    assert first_order_hamiltonian_check(g, conn).passed


def test_scalar_metric_with_half_symbol():
    g = Metric([["u1"]], variance="upper")
    conn = Connection(g, [[[Fraction(1, 2)]]])
    assert first_order_hamiltonian_check(g, conn).passed


def test_metric_compat_failure():
    g = Metric([[1, 0], [0, 1]], variance="upper")
    gamma = zero_gamma(2)
    gamma[0][0][0] = 1
    rep = first_order_hamiltonian_check(g, Connection(g, gamma))
    assert not rep.passed
    assert "metric-compat" in rep.families_failing()


def test_degenerate_metric_rejected():
    g = Metric([[1, 1], [1, 1]], variance="upper")
    with pytest.raises(DegenerateMetricError):
        first_order_hamiltonian_check(g, Connection(g, zero_gamma(2)))


def test_curvature_flat_and_scalar():
    g = Metric([[1, 0], [0, 1]], variance="upper")
    conn = Connection(g, zero_gamma(2))
    R = curvature(g, conn)
    assert all(R[i][j][k][l].is_zero for i in range(2) for j in range(2)
               for k in range(2) for l in range(2))
    g1 = Metric([["u1"]], variance="upper")
    R1 = curvature(g1, Connection(g1, [[[Fraction(1, 2)]]]))
    assert R1[0][0][0][0].is_zero


def test_curvature_polar_metric():
    # flat polar lower metric diag(1, u1^2), lifted to operator data
    g = Metric([["1", "0"], ["0", "u1^2"]], variance="lower")
    conn = Connection.levi_civita(g)
    R = curvature(g, conn)
    assert all(R[i][j][k][l].is_zero for i in range(2) for j in range(2)
               for k in range(2) for l in range(2))
    assert first_order_hamiltonian_check(g, conn).passed


def test_tsarev_examples():
    g = Metric([[1, 0], [0, 1]], variance="upper")
    conn = Connection(g, zero_gamma(2))
    identity_flow = mat([[1, 0], [0, 1]])
    assert tsarev_check(g, conn, identity_flow).passed
    V_pass = mat([["u1", "u2"], ["u2", "u1"]])
    assert tsarev_check(g, conn, V_pass).passed
    V_fail = mat([["u2", "0"], ["0", "u1"]])
    rep = tsarev_check(g, conn, V_fail)
    assert not rep.passed
    assert "covariant-curl" in rep.families_failing()


def test_expanded_conditions_match_tsarev():
    g = Metric([[1, 0], [0, 1]], variance="upper")
    conn = Connection(g, zero_gamma(2))
    assert expanded_first_order_conditions(g, conn, mat([["u1", "u2"], ["u2", "u1"]])).passed
    rep = expanded_first_order_conditions(g, conn, mat([["u2", "0"], ["0", "u1"]]))
    assert not rep.passed
    assert "coeff-uxx-p" in rep.families_failing()


def test_lemma_families_are_consequences():
    # whenever the flatness equations + the p_xx and u_xx p families hold,
    # the u_x p_x and u_x u_x p families vanish as well
    rng = random.Random(101)
    checked = 0
    while checked < 20:
        n = rng.choice([2, 3])
        metric, conn, J, Jinv, ubar = flat_first_order_instance(rng, n)
        V = hessian_velocity(rng, n, J, Jinv, ubar)
        rep = expanded_first_order_conditions(metric, conn, V)
        by_family = {}
        for fam, idx, rf in rep.residuals:
            by_family.setdefault(fam, []).append(rf)
        assert "coeff-p-xx" not in by_family
        assert "coeff-uxx-p" not in by_family
        assert "coeff-ux-px" not in by_family
        assert "coeff-uxux-p" not in by_family
        checked += 1


def test_nonlocal_first_order():
    # n=1: every rational w, v pair is compatible
    rng = random.Random(7)
    from genutil import rand_poly
    for _ in range(5):
        g = Metric([[RatFunc.from_poly(rand_poly(rng, 1, 2)) + RatFunc.const(1)]],
                   variance="upper")
        conn = Connection.levi_civita(g)
        w = [[RatFunc.from_poly(rand_poly(rng, 1, 2))]]
        v = [[RatFunc.from_poly(rand_poly(rng, 1, 2))]]
        rep = nonlocal_first_order_check(g, conn, w, v)
        assert rep.passed
        assert any("not a complete Hamiltonianity certificate" in note
                   for note in rep.notes)
    # n=2 rank-one tail along an eigenvector passes, generic tails fail
    g2 = Metric([[1, 0], [0, 1]], variance="upper")
    conn2 = Connection(g2, zero_gamma(2))
    V = mat([["u1", "u2"], ["u2", "u1"]])
    assert nonlocal_first_order_check(g2, conn2, mat([[1, 1], [1, 1]]), V).passed
    assert not nonlocal_first_order_check(g2, conn2, mat([[0, 1], [1, 0]]), V).passed


# -- second order -------------------------------------------------------------------


def test_second_order_canonical():
    d = SecondOrderData.from_generators(4, {(1, 2, 3): 1}, {(3, 4): 1})
    assert second_order_canonical_check(d).passed
    bad_T = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    bad_T[0][0][1] = 1  # symmetric in the first pair
    rep = second_order_canonical_check(SecondOrderData(bad_T, [[0, 1], [-1, 0]]))
    assert not rep.passed
    d2 = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 1], [-1, 0]])
    assert second_order_canonical_check(d2).passed


def test_second_order_compat_n2():
    d = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 1], [-1, 0]])
    affine = [parse_scalar("2*u1 + 3"), parse_scalar("2*u2 - 1")]
    assert second_order_compat(d, affine).passed
    quadratic = [parse_scalar("u1^2"), parse_scalar("u2")]
    assert not second_order_compat(d, quadratic).passed
    zero = [RatFunc.zero(), RatFunc.zero()]
    assert second_order_compat(d, zero).passed


def test_second_order_degenerate_rejected():
    d = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 0], [0, 0]])
    with pytest.raises(DegenerateMetricError):
        second_order_compat(d, [RatFunc.zero(), RatFunc.zero()])


def test_second_order_covering_oracle_n2():
    # compat <=> residual of the order-0 image on the potential covering
    d = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 1], [-1, 0]])
    C = second_order_potential_bivector(d)
    for vflux, expect in [
        ([parse_scalar("2*u1 + 3"), parse_scalar("2*u2 - 1")], True),
        ([parse_scalar("u1^2"), parse_scalar("u2")], False),
        ([parse_scalar("u1 + u2"), parse_scalar("u2")], False),
    ]:
        rep = second_order_compat(d, vflux)
        ctx = build_cotangent(EvolutionSystem.potential(vflux))
        res = bivector_residual(ctx, C)
        assert rep.passed == all(c.is_zero for c in res) == expect


# -- third order --------------------------------------------------------------------


def test_third_order_constant_metric_passes():
    d = ThirdOrderData.from_lower_metric([[2, 1], [1, 3]])
    assert third_order_hamiltonian_check(d).passed


def test_third_order_scalar_nonconstant_fails():
    d = ThirdOrderData.from_lower_metric([["u1"]])
    rep = third_order_hamiltonian_check(d)
    assert not rep.passed
    assert "metric-cyclic" in rep.families_failing()


def test_third_order_crafted_linear_fails():
    d = ThirdOrderData.from_lower_metric([["1", "u1"], ["u1", "1"]])
    rep = third_order_hamiltonian_check(d)
    assert not rep.passed
    assert "metric-cyclic" in rep.families_failing()


def test_third_order_monge_instance_passes():
    d = ThirdOrderData.from_lower_metric([["-2*u2", "u1"], ["u1", "0"]])
    assert third_order_hamiltonian_check(d).passed


def test_third_order_compat_examples():
    rng = random.Random(51)
    d = constant_third_order_instance(rng, 2)
    affine = symmetric_affine_fluxes(rng, 2, d)
    assert third_order_compat(d, affine).passed
    quad = [parse_scalar("u1^2"), parse_scalar("u2 + u1")]
    rep = third_order_compat(d, quad)
    assert not rep.passed
    assert "flux-hessian" in rep.families_failing()


def test_third_order_covering_cross_oracle():
    rng = random.Random(53)
    agreements = 0
    while agreements < 6:
        n = 2
        d = constant_third_order_instance(rng, n)
        if rng.random() < 0.5:
            vflux = symmetric_affine_fluxes(rng, n, d)
        else:
            vflux = random_fluxes(rng, n, degree=2)
        rep = third_order_compat(d, vflux)
        system = EvolutionSystem.conservative(vflux)
        ctx = build_cotangent(system)
        A = operator_to_bivector(third_order_operator(d))
        res = bivector_residual(ctx, A)
        assert rep.passed == all(c.is_zero for c in res)
        agreements += 1


def test_third_order_nonlocal():
    # constant symmetric g, c = 0: the closure family forces the weighted tail
    # products to cancel, so one skew tail alone cannot pass; two tails with
    # balancing weights do, and every derivative family vanishes
    d = ThirdOrderData.from_lower_metric([[1, 0], [0, 1]])
    w1 = [[parse_scalar("0"), parse_scalar("1")], [parse_scalar("-1"), parse_scalar("0")]]
    w2 = [[parse_scalar("0"), parse_scalar("2")], [parse_scalar("-2"), parse_scalar("0")]]
    vflux = [parse_scalar("u1"), parse_scalar("u2")]  # V' = identity commutes
    rep = third_order_nonlocal_checks(d, [w1, w2], [Fraction(4), Fraction(-1)], vflux)
    assert rep.passed
    single = third_order_nonlocal_checks(d, [w1], [Fraction(1)], vflux)
    assert not single.passed
    assert single.families_failing() == ["closure-with-tails"]
    # symmetric tail candidate violates the skewness family
    wsym = [[parse_scalar("1"), parse_scalar("0")], [parse_scalar("0"), parse_scalar("1")]]
    rep2 = third_order_nonlocal_checks(d, [wsym], [Fraction(1)], vflux)
    assert not rep2.passed
    assert "tail-skew" in rep2.families_failing()
    # empty tail list reduces to nothing beyond the local checks
    rep3 = third_order_nonlocal_checks(d, [], [], vflux)
    assert rep3.passed


def test_third_order_tail_conditions_track_the_symmetry_gate():
    # n=1, V = u^2/2: no nonzero w(u) u_x flow commutes with the potential
    # system, and the algebraic tail families detect it just like the
    # symmetry residual does
    d = ThirdOrderData.from_lower_metric([[1]])
    vflux = [parse_scalar("1/2*u1^2")]
    w = [[parse_scalar("1")]]
    rep = third_order_nonlocal_checks(d, [w], [Fraction(1)], vflux)
    fams = set(rep.families_failing())
    assert "tail-derivative-exchange" in fams
    assert "tail-symmetry-residual" in fams
    # the linear flux admits the same tail (both families go quiet)
    ok = third_order_nonlocal_checks(d, [w], [Fraction(0)], [parse_scalar("u1")])
    assert "tail-derivative-exchange" not in set(ok.families_failing())
    assert "tail-symmetry-residual" not in set(ok.families_failing())


def test_potentialize():
    cons = EvolutionSystem.conservative([parse_scalar("u1^2")])
    pot = potentialize(cons)
    assert pot.kind == "potential"
    assert pot.flux_potentials == cons.flux_potentials
    with pytest.raises(InputError):
        potentialize(EvolutionSystem.hydrodynamic([[RatFunc.one()]]))


# -- classification ------------------------------------------------------------------


def test_nijenhuis_constant_matrix():
    N = nijenhuis(mat([[1, 2], [3, 4]]))
    assert all(N[i][j][k].is_zero for i in range(2) for j in range(2) for k in range(2))


def test_haantjes_scalar_multiple_and_diagonal():
    lam = parse_scalar("u1^2 + u2")
    V = [[lam, RatFunc.zero()], [RatFunc.zero(), lam]]
    H = haantjes(V)
    assert all(H[i][j][k].is_zero for i in range(2) for j in range(2) for k in range(2))
    D = mat([["u1", 0], [0, "u2"]])
    assert haantjes_zero_check(D).passed


def test_haantjes_vanishes_for_random_diagonal():
    from genutil import rand_ratfunc
    rng = random.Random(77)
    for _ in range(5):
        n = rng.choice([2, 3])
        V = [[rand_ratfunc(rng, n) if i == j else RatFunc.zero()
              for j in range(n)] for i in range(n)]
        assert haantjes_zero_check(V).passed


def test_linear_degeneracy():
    assert linear_degeneracy_check(mat([[1, 2], [3, 4]])).passed
    rep = linear_degeneracy_check([[parse_scalar("u1")]])
    assert not rep.passed


def test_char_poly_coeffs():
    V = mat([["u1", 1], [0, "u2"]])
    f = char_poly_coeffs(V)
    # det(lam I - V) = lam^2 - (u1+u2) lam + u1 u2
    assert f[0] == -parse_scalar("u1 + u2")
    assert f[1] == parse_scalar("u1*u2")


def test_char_square():
    # V = diag(u1, u1, u2, u2) has char poly ((lam-u1)(lam-u2))^2
    V = mat([["u1", 0, 0, 0], [0, "u1", 0, 0], [0, 0, "u2", 0], [0, 0, 0, "u2"]])
    rep = char_square_check(V)
    assert rep.passed
    assert any("sampled" in note for note in rep.notes)
    V2 = mat([["u1", 0, 0, 0], [0, "u1", 0, 0], [0, 0, "u1", 0], [0, 0, 0, "u2"]])
    assert not char_square_check(V2).passed


def test_char_square_fails_at_odd_dimension():
    # a characteristic polynomial of odd degree is never a square
    rep = char_square_check(mat([["u1", 0, 0], [0, "u1", 0], [0, 0, "u2"]]))
    assert not rep.passed
    assert rep.families_failing() == ["even-dimension"]


def test_matrix_helpers():
    M = mat([["u1", 1], [1, "u2"]])
    Minv = inverse(M)
    from hhokit.geometry import mat_mul, identity
    assert mat_mul(M, Minv) == identity(2)
    assert determinant(M) == parse_scalar("u1*u2 - 1")
    with pytest.raises(DegenerateMetricError):
        inverse(mat([[1, 1], [1, 1]]))


def test_input_shape_validation():
    with pytest.raises(InputError):
        Metric([[1, 0]], variance="upper")
    with pytest.raises(InputError):
        Connection(Metric([[1, 0], [0, 1]]), [[[0]]])
    with pytest.raises(InputError):
        SecondOrderData.from_generators(3, {(1, 1, 2): 1}, {})


@pytest.mark.parametrize("t_entries, g0_entries, message", [
    ({(1, 2, 3): 1}, {(2, 2): 1}, "skew generators need two distinct indices"),
    ({(1, 1, 3): 1}, {}, "skew generators need three distinct indices"),
    ({(1, 2, 3): 1, (2, 1, 3): 1}, {}, "skew generators (1, 2, 3) and (2, 1, 3) name one entry"),
    ({(1, 2, 3): 1}, {(2, 3): 1, (3, 2): 5}, "skew generators (2, 3) and (3, 2) name one entry"),
    ({(1, 2, 4): 1}, {}, "generator (1, 2, 4) has an index outside 1..3"),
], ids=["g0-diagonal", "T-repeated-index", "T-twice", "g0-twice", "outside-n"])
def test_sparse_generators_refuse_data_that_is_not_skew(t_entries, g0_entries, message):
    with pytest.raises(InputError) as err:
        SecondOrderData.from_generators(3, t_entries, g0_entries)
    assert str(err.value) == message


"""The closed-form checkers against the loops they replaced.

``reference_inverse`` is Gauss-Jordan elimination over RatFunc, the
``reference_*`` checkers and contractions are the literal double sums (n^5
products for the two-index raise and lower).  The engine now inverts by
adjugate over determinant, tabulates nabla_k V^j_h once for Tsarev's
condition and raises or lowers one index at a time.  RatFunc values are
canonical, so both routes must give equal entries and equal residual lists;
every inverse is also certified by exact A * A^-1 = I.  The second half keeps
the hand-written index loops that one contraction helper, ``mat_mul`` and
``flux_jacobian`` replaced, and compares whole reports on passing and failing
instances.  The last part keeps the Nijenhuis sum, the n^5 Haantjes loop and
the matrix-power linear-degeneracy check that a derivative table, four
contractions and Horner's rule replaced.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hhokit.catalog import get_entry
from hhokit.covering import EvolutionSystem, flux_jacobian, linearize
from hhokit.errors import DegenerateMetricError
from hhokit.geometry import (
    ConditionReport,
    Connection,
    Metric,
    SecondOrderData,
    ThirdOrderData,
    as_matrix,
    char_poly_coeffs,
    curvature,
    determinant,
    first_order_hamiltonian_check,
    haantjes,
    identity,
    inverse,
    linear_degeneracy_check,
    mat_mul,
    nonlocal_first_order_check,
    second_order_compat,
    tail_characteristic,
    third_order_compat,
    third_order_hamiltonian_check,
    third_order_nonlocal_checks,
    tsarev_check,
)
from hhokit.problem import Problem
from hhokit.rational import Poly, RatFunc, RatSum

from genutil import (
    constant_third_order_instance,
    flat_first_order_instance,
    hessian_velocity,
    nijenhuis,
    rand_fraction,
    rand_poly,
    random_fluxes,
    random_velocity,
    symmetric_affine_fluxes,
)


def reference_inverse(A):
    """Exact inverse by Gauss-Jordan; DegenerateMetricError when singular."""
    n = len(A)
    work = [list(row) for row in A]
    inv = [list(row) for row in identity(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not work[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            raise DegenerateMetricError("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        for c in range(n):
            work[col][c] = work[col][c] / p
            inv[col][c] = inv[col][c] / p
        for r in range(n):
            if r == col or work[r][col].is_zero:
                continue
            f = work[r][col]
            for c in range(n):
                work[r][c] = work[r][c] - f * work[col][c]
                inv[r][c] = inv[r][c] - f * inv[col][c]
    return tuple(tuple(row) for row in inv)


def covariant_velocity_derivative(conn: Connection, V, k, j, h):
    """nabla_k V^j_h, the per-entry reference for the table that ``tsarev_check`` scatters."""
    n = conn.n
    chrs = conn.christoffel()
    acc = RatSum(V[j][h].diff(k + 1))
    for s in range(n):
        acc.addmul(chrs[j][k][s], V[s][h])
        acc.addmul(chrs[s][k][h], V[j][s], -1)
    return acc.value()


def reference_tsarev_check(metric, conn, V):
    metric.check_nondegenerate()
    n = metric.n
    g = metric.upper()
    V = as_matrix(V)
    rep = ConditionReport("tsarev-compat")
    for i in range(n):
        for j in range(i + 1, n):
            acc = RatFunc.zero()
            for k in range(n):
                acc = acc + g[i][k] * V[j][k] - g[j][k] * V[i][k]
            rep.add("velocity-g-symmetry", (i, j), acc)
    for i in range(n):
        for j in range(n):
            for h in range(n):
                acc = RatFunc.zero()
                for k in range(n):
                    acc = acc + g[i][k] * (
                        covariant_velocity_derivative(conn, V, k, j, h)
                        - covariant_velocity_derivative(conn, V, h, j, k))
                rep.add("covariant-curl", (i, j, h), acc)
    return rep


def reference_c_up(metric):
    """c^{pq}_k = g^{qi} g^{pj} c_{ijk} with c_{ijk} from the gradient rule."""
    n = metric.n
    g = metric.lower()
    g_up = metric.upper()
    third = Fraction(1, 3)
    c_low = [[[(g[m][nn].diff(k + 1) - g[k][nn].diff(m + 1)) * third
               for m in range(n)] for k in range(n)] for nn in range(n)]
    c_up = [[[RatFunc.zero()] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(n):
            for k in range(n):
                acc = RatFunc.zero()
                for i in range(n):
                    for j in range(n):
                        acc = acc + g_up[q][i] * g_up[p][j] * c_low[i][j][k]
                c_up[p][q][k] = acc
    return tuple(tuple(tuple(r) for r in p) for p in c_up)


def reference_c_low(d):
    """c_{ijk} = g_{iq} g_{jp} c^{pq}_k."""
    n = d.n
    g = d.metric.lower()
    out = [[[RatFunc.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = RatFunc.zero()
                for p in range(n):
                    for q in range(n):
                        acc = acc + g[i][q] * g[j][p] * d.c_up[p][q][k]
                out[i][j][k] = acc
    return tuple(tuple(tuple(r) for r in p) for p in out)


def reference_flux_hessian(d, vflux):
    """The flux-hessian family of third_order_compat as a double sum."""
    n = d.n
    g_up = d.metric.upper()
    cl = reference_c_low(d)
    V = tuple(tuple(vflux[i].diff(j + 1) for j in range(n)) for i in range(n))
    rep = ConditionReport("third-order-compat")
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                acc = vflux[k].diff(i + 1).diff(j + 1)
                for s in range(n):
                    for m in range(n):
                        acc = acc - g_up[k][s] * (cl[s][m][j] * V[m][i]
                                                  + cl[s][m][i] * V[m][j])
                rep.add("flux-hessian", (k, i, j), acc)
    return rep.residuals


# -- inverse ---------------------------------------------------------------------------


def _entry(rng, n, rational):
    """Sparse low-degree entries, so the n=4 elimination stays cheap."""
    if rng.random() < 0.3:
        return RatFunc.zero()
    num = rand_poly(rng, n, 1, terms=2)
    if not rational or rng.random() < 0.5:
        return RatFunc.from_poly(num)
    # linear denominators u_k + a: generic ones make n=3 inverses take a minute
    return RatFunc(num, Poly.var(rng.randint(1, n)) + rng.randint(1, 3))


def _random_matrix(rng, n, rational, singular):
    A = [[_entry(rng, n, rational) for _ in range(n)] for _ in range(n)]
    if singular:
        # the last row is a combination of the others (or zero when n = 1)
        coeffs = [RatFunc.const(Fraction(rng.randint(-3, 3))) for _ in range(n - 1)]
        A[-1] = [sum((coeffs[r] * A[r][c] for r in range(n - 1)), RatFunc.zero())
                 for c in range(n)]
        rng.shuffle(A)
    return tuple(tuple(row) for row in A)


def _outcome(fn, A):
    try:
        return fn(A)
    except DegenerateMetricError as exc:
        return ("raised", str(exc))


@pytest.mark.parametrize("n, rational, seed", [
    (2, False, 1), (2, True, 2), (3, False, 3), (3, True, 4), (4, False, 5),
])
def test_inverse_matches_gauss_jordan(n, rational, seed):
    rng = random.Random(seed)
    cases = 12 if n < 4 else 4
    kinds = set()
    for case in range(cases):
        A = _random_matrix(rng, n, rational, singular=case % 3 == 2)
        got = _outcome(inverse, A)
        assert got == _outcome(reference_inverse, A)
        if got[0] == "raised":
            assert got == ("raised", "matrix is singular")
            kinds.add("singular")
        else:
            assert mat_mul(A, got) == identity(n)
            kinds.add("regular")
    assert kinds == {"singular", "regular"}


def test_inverse_pivot_swaps_and_constants():
    A = as_matrix([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
    assert inverse(A) == reference_inverse(A)
    assert mat_mul(A, inverse(A)) == identity(3)
    with pytest.raises(DegenerateMetricError, match="det g = 0"):
        Metric([["u1", "u2"], ["2*u1", "2*u2"]], variance="lower").check_nondegenerate()


# -- Tsarev compatibility -------------------------------------------------------------------


@pytest.mark.parametrize("n, seed", [(2, 11), (3, 12)])
def test_tsarev_matches_double_loop(n, seed):
    rng = random.Random(seed)
    for _ in range(3):
        metric, conn, J, Jinv, ubar = flat_first_order_instance(rng, n)
        for V in (hessian_velocity(rng, n, J, Jinv, ubar, degree=2),
                  random_velocity(rng, n),
                  [[RatFunc(rand_poly(rng, n, 1, terms=2), Poly.var(1) + 2)
                    for _ in range(n)] for _ in range(n)]):
            got = tsarev_check(metric, conn, V)
            assert got.residuals == reference_tsarev_check(metric, conn, V).residuals
    assert got.residuals  # the random velocities do fail


# -- third order: raise, lower and flux-hessian -------------------------------------------

# Non-constant lowered metrics: the Monge-type instance, a sparse n=3 one and
# random symmetric ones at n=2 (a generic n=3 metric takes minutes on the n^5 loops)
_LOWER_METRICS = [
    [["-2*u2", "u1"], ["u1", "0"]],
    [["u1", "0", "0"], ["0", "1", "u3"], ["0", "u3", "2"]],
]


def _random_lower_metric(rng, n):
    """Symmetric metric linear in the fields plus a constant diagonal."""
    while True:
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = RatFunc.from_poly(
                    rand_poly(rng, n, 1, terms=2) + Fraction(3 if i == j else 0))
        try:
            Metric(entries, variance="lower").check_nondegenerate()
        except DegenerateMetricError:
            continue
        return entries


def _nonconstant_instances(seed):
    rng = random.Random(seed)
    g_lows = _LOWER_METRICS + [_random_lower_metric(rng, 2) for _ in range(2)]
    return [ThirdOrderData.from_lower_metric(g) for g in g_lows]


def test_raise_and_lower_match_double_sums():
    for d in _nonconstant_instances(21):
        assert d.c_up == reference_c_up(d.metric)
        assert d.c_low() == reference_c_low(d)


def _flux_hessian(d, vflux):
    return [r for r in third_order_compat(d, vflux).residuals if r[0] == "flux-hessian"]


def _quadratic_fluxes(rng, n):
    vflux = random_fluxes(rng, n, degree=2)
    vflux[0] = vflux[0] + RatFunc.var(1) * RatFunc.var(n)
    return vflux


@pytest.mark.parametrize("n, seed", [(2, 31), (3, 32)])
def test_flux_hessian_matches_double_sum_constant_metric(n, seed):
    rng = random.Random(seed)
    for _ in range(3):
        d = constant_third_order_instance(rng, n)
        affine = symmetric_affine_fluxes(rng, n, d)
        assert third_order_compat(d, affine).passed
        assert reference_flux_hessian(d, affine) == []
        quad = _quadratic_fluxes(rng, n)
        got = _flux_hessian(d, quad)
        assert got and got == reference_flux_hessian(d, quad)


def test_flux_hessian_matches_double_sum_nonconstant_metric():
    rng = random.Random(33)
    for d in _nonconstant_instances(34):
        quad = _quadratic_fluxes(rng, d.n)
        got = _flux_hessian(d, quad)
        assert got and got == reference_flux_hessian(d, quad)


# -- the loops replaced by one contraction helper, mat_mul and flux_jacobian ---------------


def reference_jacobian(vflux):
    n = len(vflux)
    return tuple(tuple(vflux[i].diff(j + 1) for j in range(n)) for i in range(n))


def reference_christoffel(conn):
    """Gamma^i_{jk} = -g_{js} Gamma^{si}_k."""
    g_low = conn.metric.lower()
    n = conn.n
    return tuple(tuple(tuple(
        -sum((g_low[j][s] * conn.gamma[s][i][k] for s in range(n)), RatFunc.zero())
        for k in range(n)) for j in range(n)) for i in range(n))


def reference_levi_civita(metric):
    """Upper Levi-Civita symbols through the lowered Christoffel symbols."""
    n = metric.n
    g_low = metric.lower()
    g_up = metric.upper()
    chr_low = [[[RatFunc.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = RatFunc.zero()
                for s in range(n):
                    acc = acc + g_up[i][s] * (
                        g_low[s][j].diff(k + 1)
                        + g_low[s][k].diff(j + 1)
                        - g_low[j][k].diff(s + 1))
                chr_low[i][j][k] = acc / 2
    gamma = [[[RatFunc.zero()] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for k in range(n):
                acc = RatFunc.zero()
                for j in range(n):
                    acc = acc - g_up[a][j] * chr_low[b][j][k]
                gamma[a][b][k] = acc
    return tuple(tuple(tuple(r) for r in p) for p in gamma)


def reference_c_mixed(d):
    """c^s_{ml} = g^{sq} c_{qml}."""
    n = d.n
    g_up = d.metric.upper()
    cl = reference_c_low(d)
    out = [[[RatFunc.zero()] * n for _ in range(n)] for _ in range(n)]
    for s in range(n):
        for m in range(n):
            for l in range(n):
                acc = RatFunc.zero()
                for q in range(n):
                    acc = acc + g_up[s][q] * cl[q][m][l]
                out[s][m][l] = acc
    return tuple(tuple(tuple(r) for r in p) for p in out)


def reference_first_order_hamiltonian_check(metric, conn):
    metric.check_nondegenerate()
    n = metric.n
    g = metric.upper()
    gamma = conn.gamma
    rep = ConditionReport("first-order-hamiltonian")
    for i in range(n):
        for j in range(i + 1, n):
            rep.add("metric-symmetry", (i, j), g[i][j] - g[j][i])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rep.add("metric-compat", (i, j, k),
                        g[i][j].diff(k + 1) - gamma[i][j][k] - gamma[j][i][k])
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                acc = RatFunc.zero()
                for k in range(n):
                    acc = acc + g[i][k] * gamma[j][l][k] - g[j][k] * gamma[i][l][k]
                rep.add("symbol-g-symmetry", (i, j, l), acc)
    R = curvature(metric, conn)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    rep.add("flatness", (i, j, k, l), R[i][j][k][l])
    return rep


def reference_nonlocal_first_order_check(metric, conn, W, V):
    n = metric.n
    W = as_matrix(W)
    V = as_matrix(V)
    rep = reference_tsarev_check(metric, conn, V)
    for i in range(n):
        for j in range(n):
            acc = RatFunc.zero()
            for k in range(n):
                acc = acc + W[i][k] * V[k][j] - V[i][k] * W[k][j]
            rep.add("tail-commutation", (i, j), acc)
    R = curvature(metric, conn)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for m in range(l, n):
                    acc = RatFunc.zero()
                    for k in range(n):
                        acc = acc + R[i][j][k][l] * V[k][m] + R[i][j][k][m] * V[k][l]
                        acc = acc + W[i][l] * V[j][k] * W[k][m]
                        acc = acc + W[i][m] * V[j][k] * W[k][l]
                        acc = acc - V[i][k] * W[k][l] * W[j][m]
                        acc = acc - V[i][k] * W[k][m] * W[j][l]
                    rep.add("curvature-tail-balance", (i, j, l, m), acc)
    return rep


def reference_second_order_compat(d, vflux):
    n = d.n
    g = d.g_low()
    V = reference_jacobian(vflux)
    rep = ConditionReport("second-order-compat")
    for q in range(n):
        for p in range(q, n):
            acc = RatFunc.zero()
            for j in range(n):
                acc = acc + g[q][j] * V[j][p] + g[p][j] * V[j][q]
            rep.add("gv-skew", (q, p), acc)
    for q in range(n):
        for p in range(n):
            for l in range(n):
                acc = RatFunc.zero()
                for k in range(n):
                    acc = acc + g[q][k] * vflux[k].diff(p + 1).diff(l + 1)
                    acc = acc + g[p][q].diff(k + 1) * V[k][l]
                    acc = acc + g[q][k].diff(l + 1) * V[k][p]
                rep.add("flux-gradient-compat", (q, p, l), acc)
    return rep


def _reference_closure(rep, family, cl, cm, w_low=(), weights=()):
    n = len(cl)
    for nn in range(n):
        for m in range(n):
            for l in range(n):
                for k in range(n):
                    acc = cl[nn][m][l].diff(k + 1)
                    for s in range(n):
                        acc = acc + cm[s][m][l] * cl[s][nn][k]
                    for a, wl in enumerate(w_low):
                        acc = acc + wl[m][l] * wl[nn][k] * weights[a]
                    rep.add(family, (nn, m, l, k), acc)


def reference_third_order_hamiltonian_check(d):
    d.metric.check_nondegenerate()
    n = d.n
    g = d.metric.lower()
    cl = reference_c_low(d)
    rep = ConditionReport("third-order-hamiltonian")
    third = Fraction(1, 3)
    for i in range(n):
        for j in range(i + 1, n):
            rep.add("metric-symmetry", (i, j), g[i][j] - g[j][i])
    for nn in range(n):
        for k in range(n):
            for m in range(n):
                rep.add("c-from-metric", (nn, k, m),
                        cl[nn][k][m] - (g[m][nn].diff(k + 1) - g[k][nn].diff(m + 1)) * third)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                rep.add("metric-cyclic", (i, j, k),
                        g[i][j].diff(k + 1) + g[j][k].diff(i + 1) + g[k][i].diff(j + 1))
    _reference_closure(rep, "c-closure", cl, reference_c_mixed(d))
    return rep


def reference_third_order_compat(d, vflux):
    n = d.n
    g = d.metric.lower()
    cl = reference_c_low(d)
    V = reference_jacobian(vflux)
    rep = ConditionReport("third-order-compat")
    for i in range(n):
        for j in range(i + 1, n):
            acc = RatFunc.zero()
            for m in range(n):
                acc = acc + g[i][m] * V[m][j] - g[j][m] * V[m][i]
            rep.add("gv-symmetry", (i, j), acc)
    for i in range(n):
        for k in range(n):
            for l in range(n):
                acc = RatFunc.zero()
                for m in range(n):
                    acc = acc + cl[m][k][l] * V[m][i]
                    acc = acc + cl[m][i][k] * V[m][l]
                    acc = acc + cl[m][l][i] * V[m][k]
                rep.add("c-v-cyclic", (i, k, l), acc)
    return rep.residuals + reference_flux_hessian(d, vflux)


def reference_third_order_nonlocal_checks(d, w_list, weights, vflux):
    n = d.n
    g = d.metric.lower()
    cl = reference_c_low(d)
    cm = reference_c_mixed(d)
    w_list = [as_matrix(w) for w in w_list]
    V = reference_jacobian(vflux)
    rep = ConditionReport("third-order-nonlocal")
    w_low = []
    for w in w_list:
        w_low.append(tuple(tuple(sum((g[i][s] * w[s][j] for s in range(n)), RatFunc.zero())
                                 for j in range(n)) for i in range(n)))
    for a, wl in enumerate(w_low):
        for i in range(n):
            for j in range(i, n):
                rep.add("tail-skew", (a, i, j), wl[i][j] + wl[j][i])
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    acc = wl[i][j].diff(l + 1)
                    for s in range(n):
                        acc = acc - cm[s][i][j] * wl[s][l]
                    rep.add("tail-gradient", (a, i, j, l), acc)
    _reference_closure(rep, "closure-with-tails", cl, cm, w_low, weights)
    for a, w in enumerate(w_list):
        for i in range(n):
            for h in range(n):
                acc = RatFunc.zero()
                for k in range(n):
                    acc = acc - w[i][k] * V[k][h] + V[i][k] * w[k][h]
                rep.add("tail-commutation", (a, i, h), acc)
        for i in range(n):
            for h in range(n):
                for m in range(h, n):
                    acc = RatFunc.zero()
                    for k in range(n):
                        acc = acc - w[i][h].diff(k + 1) * V[k][m]
                        acc = acc - w[i][m].diff(k + 1) * V[k][h]
                        acc = acc - w[i][k] * vflux[k].diff(m + 1).diff(h + 1) * 2
                        acc = acc + V[i][k] * (w[k][m].diff(h + 1) + w[k][h].diff(m + 1))
                    rep.add("tail-derivative-exchange", (a, i, h, m), acc)
    pot = EvolutionSystem.potential(tuple(vflux))
    for a, w in enumerate(w_list):
        for i, comp in enumerate(linearize(pot, tail_characteristic(w))):
            for _, coeff in comp.sorted_terms():
                rep.add("tail-symmetry-residual", (a, i), coeff)
    return rep


def _random_matrix_poly(rng, n, degree=1):
    return [[RatFunc.from_poly(rand_poly(rng, n, degree, terms=2)) for _ in range(n)]
            for _ in range(n)]


def _random_first_order(rng, n):
    """A nondegenerate lowered metric with its Levi-Civita symbols (not flat in
    general) and with random symbols.  Constant entries plus one linear pair in
    u1 at n > 2: a generic linear n=3 metric takes minutes to invert and derive."""
    while True:
        g = _random_matrix_poly(rng, n, degree=1 if n == 2 else 0)
        if n > 2:
            g[0][n - 1] = g[0][n - 1] + RatFunc.var(1)
        for i in range(n):
            g[i][i] = g[i][i] + 2
            for j in range(i):
                g[i][j] = g[j][i]
        metric = Metric(g, variance="lower")
        try:
            metric.check_nondegenerate()
        except DegenerateMetricError:
            continue
        gamma = [_random_matrix_poly(rng, n) for _ in range(n)]
        return metric, Connection.levi_civita(metric), Connection(metric, gamma)


def test_jacobian_matches_loop():
    rng = random.Random(41)
    for n in (1, 2, 3):
        vflux = random_fluxes(rng, n)
        vflux[0] = vflux[0] / (RatFunc.var(n) + 2)
        assert flux_jacobian(vflux) == reference_jacobian(vflux)
        assert EvolutionSystem.conservative(vflux).jacobian() == reference_jacobian(vflux)


def test_christoffel_and_levi_civita_match_loops():
    rng = random.Random(42)
    for n in (2, 3):
        metric, conn, J, Jinv, ubar = flat_first_order_instance(rng, n)
        assert conn.gamma == reference_levi_civita(metric)
        assert conn.christoffel() == reference_christoffel(conn)
        metric, lc, other = _random_first_order(rng, n)
        assert lc.gamma == reference_levi_civita(metric)
        assert lc.christoffel() == reference_christoffel(lc)
        assert other.christoffel() == reference_christoffel(other)


@pytest.mark.parametrize("n, seed", [(2, 43), (3, 44)])
def test_first_order_reports_match_loops(n, seed):
    rng = random.Random(seed)
    metric, conn, J, Jinv, ubar = flat_first_order_instance(rng, n)
    cases = [(metric, conn, hessian_velocity(rng, n, J, Jinv, ubar, degree=2))]
    rmetric, lc, other = _random_first_order(rng, n)
    cases += [(rmetric, lc, random_velocity(rng, n, degree=1)),
              (rmetric, other, random_velocity(rng, n, degree=1))]
    verdicts = set()
    for metric, conn, V in cases:
        got = first_order_hamiltonian_check(metric, conn)
        assert got.residuals == reference_first_order_hamiltonian_check(metric, conn).residuals
        verdicts.add(got.passed)
        for W in (identity(n), _random_matrix_poly(rng, n, degree=0)):
            got = nonlocal_first_order_check(metric, conn, W, V)
            assert got.residuals == reference_nonlocal_first_order_check(
                metric, conn, W, V).residuals
            verdicts.add(got.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", [45, 46])
def test_second_order_compat_matches_loops(seed):
    rng = random.Random(seed)
    n = 4  # T needs three distinct indices and an odd-sized skew g is singular
    tested = 0
    while tested < 3:
        d = SecondOrderData.from_generators(
            n, {(1, 2, 3): rand_fraction(rng), (2, 3, 4): rand_fraction(rng)},
            {(i, j): rand_fraction(rng) for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        if determinant(d.g_low()).is_zero:
            continue
        verdicts = []
        for fluxes in (random_fluxes(rng, n), [RatFunc.zero()] * n):
            got = second_order_compat(d, fluxes)
            assert got.residuals == reference_second_order_compat(d, fluxes).residuals
            verdicts.append(got.passed)
        assert verdicts == [False, True]
        tested += 1


def _third_order_cases(rng):
    """Passing and failing (d, vflux) pairs: constant metrics with affine and
    quadratic fluxes, non-constant metrics, and random c that is not the metric's."""
    cases = []
    for n in (2, 3):
        d = constant_third_order_instance(rng, n)
        cases += [(d, symmetric_affine_fluxes(rng, n, d)), (d, _quadratic_fluxes(rng, n))]
    for d in _nonconstant_instances(47):
        cases.append((d, random_fluxes(rng, d.n)))
    metric = Metric([["u1 + 2", "1"], ["1", "u2 - 1"]], variance="lower")
    c_up = [_random_matrix_poly(rng, 2, degree=0) for _ in range(2)]
    cases.append((ThirdOrderData(metric, c_up), random_fluxes(rng, 2)))
    return cases


def test_c_mixed_matches_loop():
    rng = random.Random(48)
    for d, _ in _third_order_cases(rng):
        assert d.c_mixed() == reference_c_mixed(d)


def test_third_order_reports_match_loops():
    rng = random.Random(49)
    verdicts = set()
    for d, vflux in _third_order_cases(rng):
        got = third_order_hamiltonian_check(d)
        assert got.residuals == reference_third_order_hamiltonian_check(d).residuals
        verdicts.add(got.passed)
        got = third_order_compat(d, vflux)
        assert got.residuals == reference_third_order_compat(d, vflux)
        verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_third_order_tails_match_loops():
    rng = random.Random(50)
    verdicts = set()
    for d, vflux in _third_order_cases(rng)[:5]:
        n = d.n
        zero = [[RatFunc.zero()] * n for _ in range(n)]
        for w_list, weights in [([zero], [Fraction(1)]),
                                ([_random_matrix_poly(rng, n, degree=0),
                                  _random_matrix_poly(rng, n, degree=1)],
                                 [rand_fraction(rng), Fraction(-1)])]:
            got = third_order_nonlocal_checks(d, w_list, weights, vflux)
            assert got.residuals == reference_third_order_nonlocal_checks(
                d, w_list, weights, vflux).residuals
            verdicts.add(got.passed)
    assert verdicts == {True, False}


# -- classification: Nijenhuis, Haantjes and linear degeneracy -----------------------------


def reference_nijenhuis(V):
    """The Nijenhuis sum with every derivative taken inside the loop."""
    V = as_matrix(V)
    n = len(V)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                acc = RatFunc.zero()
                for s in range(n):
                    acc = acc + V[s][j] * V[i][k].diff(s + 1)
                    acc = acc - V[s][k] * V[i][j].diff(s + 1)
                    acc = acc - V[i][s] * (V[s][k].diff(j + 1) - V[s][j].diff(k + 1))
                row.append(acc)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def reference_haantjes(V):
    """The literal n^5 triple-product sum over the lower triangle j < k."""
    V = as_matrix(V)
    n = len(V)
    N = reference_nijenhuis(V)
    H = [[[RatFunc.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                acc = RatFunc.zero()
                for p in range(n):
                    for q in range(n):
                        acc = acc + N[i][p][q] * V[p][j] * V[q][k]
                        acc = acc - N[p][j][q] * V[i][p] * V[q][k]
                        acc = acc - N[p][q][k] * V[i][p] * V[q][j]
                        acc = acc + N[p][j][k] * V[i][q] * V[q][p]
                H[i][j][k] = acc
                H[i][k][j] = -acc
    return tuple(tuple(tuple(r) for r in p) for p in H)


def reference_linear_degeneracy_check(V):
    """sum_k (grad f_k) V^{n-k} with the matrix powers of V built first."""
    V = as_matrix(V)
    n = len(V)
    coeffs = char_poly_coeffs(V)
    rep = ConditionReport("linear-degeneracy")
    powers = [identity(n)]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], V))
    total = [RatFunc.zero()] * n
    for k in range(1, n + 1):
        grad = [coeffs[k - 1].diff(v + 1) for v in range(n)]
        P = powers[n - k]
        for col in range(n):
            acc = RatFunc.zero()
            for row in range(n):
                acc = acc + grad[row] * P[row][col]
            total[col] = total[col] + acc
    for col in range(n):
        rep.add("characteristic-contraction", (col,), total[col])
    return rep


def _classify_entry(rng, n, kind):
    """A sparse entry: polynomial, over a power of one field variable, with
    formal parameters in the numerator, or over the two-term u1 + u2 + 1."""
    if rng.random() < 0.3:
        return RatFunc.zero()
    num = rand_poly(rng, n, 1 if n == 4 else 2, terms=2, allow_params=2 if kind == "params" else 0)
    if kind == "monomial" and rng.random() < 0.5:
        return RatFunc(num, Poly.var(rng.randint(1, n), rng.randint(1, 2)))
    if kind == "two-term" and rng.random() < 0.5:
        return RatFunc(num, Poly.var(1) + Poly.var(2) + 1)
    return RatFunc.from_poly(num)


_CLASSIFY_CASES = [(2, "poly"), (3, "poly"), (4, "poly"), (2, "monomial"), (3, "monomial"),
                   (2, "params"), (3, "params"), (2, "two-term")]


def _classify_matrices():
    rng = random.Random(51)
    mats = [[[_classify_entry(rng, n, kind) for _ in range(n)] for _ in range(n)]
            for n, kind in _CLASSIFY_CASES]
    # a constant matrix and one upper-triangular in u1 only, whose tensors vanish
    mats.append([[1, 2], [3, 4]])
    mats.append([["u1", "1", "0"], ["0", "u1", "0"], ["0", "0", "2*u1"]])
    for name in ("oriented-assoc", "n4-second-order"):
        mats.append(Problem(get_entry(name).problem).system.jacobian())
    return mats


@pytest.mark.parametrize("index", range(len(_CLASSIFY_CASES) + 4))
def test_classifiers_match_loops(index):
    V = as_matrix(_classify_matrices()[index])
    N = nijenhuis(V)
    assert N == reference_nijenhuis(V)
    H = haantjes(V)
    assert H == reference_haantjes(V)
    got = linear_degeneracy_check(V)
    assert got.residuals == reference_linear_degeneracy_check(V).residuals
    if index < len(_CLASSIFY_CASES):  # random matrices are not linearly degenerate,
        assert got.residuals  # and at n >= 3 their Haantjes tensor is not zero
        assert any(not h.is_zero for plane in H for row in plane for h in row) == (len(V) > 2)


def reference_determinant(A):
    """Laplace expansion along the first row in plain RatFunc arithmetic."""
    if not A:
        return RatFunc.one()
    acc = RatFunc.zero()
    for c, a in enumerate(A[0]):
        term = a * reference_determinant([row[:c] + row[c + 1:] for row in A[1:]])
        acc = acc - term if c % 2 else acc + term
    return acc


def reference_char_poly_coeffs(V):
    """f_k = (-1)^k (sum of principal k x k minors), each minor expanded on its own."""
    n = len(V)
    out = []
    for k in range(1, n + 1):
        acc = RatFunc.zero()
        for s in itertools.combinations(range(n), k):
            acc = acc + reference_determinant([[V[i][j] for j in s] for i in s])
        out.append(-acc if k % 2 else acc)
    return out


# denominators that cancel in f_1 and f_2, and squared monomials sharing a factor
_CHAR_EXTRA = [[["u1/(u1+1)", "0"], ["0", "1/(u1+1)"]],
               [["1/u1^2", "1/u1"], ["u2/u1", "1/u1^2"]],
               [["u1/(u1+u2+1)", "1/u1", "0"], ["u2/u1^2", "0", "1"], ["0", "u3/(u1+u2+1)", "u2"]]]


@pytest.mark.parametrize("index", range(len(_CLASSIFY_CASES) + 4 + len(_CHAR_EXTRA)))
def test_char_poly_coeffs_match_minor_expansion(index):
    V = as_matrix((_classify_matrices() + _CHAR_EXTRA)[index])
    got, want = char_poly_coeffs(V), reference_char_poly_coeffs(V)
    assert got == want
    assert [str(f) for f in got] == [str(f) for f in want]
    assert linear_degeneracy_check(V).residuals == reference_linear_degeneracy_check(V).residuals


@pytest.mark.parametrize("seed", [47, 48])
def test_second_order_compat_rational_fluxes_match_loops(seed):
    rng = random.Random(seed)
    n = 4
    e = RatFunc.var(1) + RatFunc.var(2) + 1
    while True:
        d = SecondOrderData.from_generators(
            n, {(1, 2, 3): rand_fraction(rng), (2, 3, 4): rand_fraction(rng)},
            {(i, j): rand_fraction(rng) for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        if not determinant(d.g_low()).is_zero:
            break
    fluxes = random_fluxes(rng, n)
    fluxes = [f / e ** (1 + (i == 2)) if i % 2 == 0 else f for i, f in enumerate(fluxes)]
    got = second_order_compat(d, fluxes)
    want = reference_second_order_compat(d, fluxes)
    assert got.residuals == want.residuals
    assert [str(v) for *_, v in got.residuals] == [str(v) for *_, v in want.residuals]
    assert any(not v.is_poly for *_, v in got.residuals)

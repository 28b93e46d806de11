"""The closed-form checkers against the loops they replaced.

``reference_inverse`` is Gauss-Jordan elimination over RatFunc, the
``reference_*`` checkers and contractions are the literal double sums (n^5
products for the two-index raise and lower).  The engine now inverts by
adjugate over determinant, tabulates nabla_k V^j_h once for Tsarev's
condition and raises or lowers one index at a time.  RatFunc values are
canonical, so both routes must give equal entries and equal residual lists;
every inverse is also certified by exact A * A^-1 = I.
"""

import random
from fractions import Fraction

import pytest

from hhokit.errors import DegenerateMetricError
from hhokit.geometry import (
    ConditionReport,
    Metric,
    ThirdOrderData,
    _covariant_velocity_derivative,
    as_matrix,
    identity,
    inverse,
    mat_mul,
    tsarev_check,
    third_order_compat,
)
from hhokit.rational import Poly, RatFunc

from genutil import (
    constant_third_order_instance,
    flat_first_order_instance,
    hessian_velocity,
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
                        _covariant_velocity_derivative(conn, V, k, j, h)
                        - _covariant_velocity_derivative(conn, V, h, j, k))
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

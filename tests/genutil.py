"""Seeded random generators shared by the unit and acceptance suites, and the
references that only the tests call: per-parameter substitution, the operator
normal form, the formal adjoint, the Nijenhuis tensor and the catalog's
operator data."""

from fractions import Fraction
from math import comb

from hhokit.catalog import get_entry
from hhokit.config import jet_cap
from hhokit.covering import LocalOperator
from hhokit.errors import OddDegreeError
from hhokit.geometry import (Connection, Metric, ThirdOrderData, _antisymmetric,
                             _nijenhuis_numerator, as_matrix, determinant)
from hhokit.jets import (DiffMonomial, DiffPoly, DiffSum, _even_mul, _raise_order, even_lowered,
                         mono, pjet, rvar, total_x, ujet)
from hhokit.problem import Problem, load_operator
from hhokit.rational import Poly, RatFunc, _q, add_terms, ratfunc_over


def dm_mul(m1: DiffMonomial, m2: DiffMonomial) -> DiffMonomial:
    """The product of two differential monomials; odd x odd raises OddDegreeError."""
    if m1.odd is not None and m2.odd is not None:
        raise OddDegreeError("odd degree overflow")
    return DiffMonomial(_even_mul(m1.even, m2.even), m1.odd or m2.odd)


def bump_even(m: DiffMonomial, pos: int, cap: int) -> DiffMonomial:
    """m with one power of its even factor at pos raised one x-order, within the jet cap."""
    raised = _raise_order(m.even[pos][0], cap)
    return DiffMonomial(_even_mul(even_lowered(m.even, pos), ((raised, 1),)), m.odd)


def rand_fraction(rng, lo=-4, hi=4, den_max=3):
    num = rng.randint(lo, hi)
    den = rng.randint(1, den_max)
    return Fraction(num, den)


def rand_poly(rng, nvars, degree, terms=3, allow_params=0):
    """Random polynomial in u1..u{nvars} (and optionally some parameters)."""
    p = Poly.zero()
    for _ in range(terms):
        m = Poly.const(rand_fraction(rng))
        for _ in range(rng.randint(0, degree)):
            vid = rng.randint(1, nvars)
            m = m * Poly.var(vid)
        if allow_params and rng.random() < 0.5:
            m = m * Poly.var(-rng.randint(1, allow_params))
        p = p + m
    return p


def rand_ratfunc(rng, nvars, degree=2):
    num = rand_poly(rng, nvars, degree)
    den = Poly.zero()
    while den.is_zero:
        den = rand_poly(rng, nvars, 1, terms=2)
    return RatFunc(num, den)


def rand_diffpoly(rng, nvars=2, max_order=3, terms=4, odd=True, slots=0):
    """Random differential polynomial with polynomial coefficients."""
    total = DiffPoly.zero()
    for _ in range(terms):
        even = {}
        for _ in range(rng.randint(0, 2)):
            jv = ujet(rng.randint(1, nvars), rng.randint(1, max_order))
            even[jv] = even.get(jv, 0) + 1
        odd_part = None
        if odd and rng.random() < 0.6:
            if slots and rng.random() < 0.4:
                odd_part = rvar(rng.randint(1, slots))
            else:
                odd_part = pjet(rng.randint(1, nvars), rng.randint(0, max_order))
        coeff = RatFunc.from_poly(rand_poly(rng, nvars, 2, terms=2))
        if coeff.is_zero:
            continue
        total = total + DiffPoly.monomial(mono(tuple(even.items()), odd_part), coeff)
    return total


def flat_first_order_instance(rng, n, constant_jacobian=False):
    """Flat operator data (g, Gamma) built by pulling the identity metric back
    through a unit-triangular polynomial change of coordinates.

    The map is ubar^i = d_i (u^i + q_i(u^n)) with q_n = 0, whose Jacobian J
    is triangular with constant determinant, so J^{-1} and the metric stay
    polynomial.  Returns (metric, connection, J, Jinv, ubar).
    """
    diag = [Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 2])) for _ in range(n)]
    qs = []
    for _ in range(n - 1):
        q = Poly.var(n) * rand_fraction(rng)
        if not constant_jacobian:
            q = q + Poly.var(n, 2) * rand_fraction(rng)
        qs.append(q)
    qs.append(Poly.zero())
    ubar = [RatFunc.from_poly((Poly.var(i + 1) + qs[i]) * diag[i]) for i in range(n)]
    J = [[ubar[i].diff(j + 1) for j in range(n)] for i in range(n)]
    # (I + N)^{-1} = I - N for the strictly-upper last-column part
    Jinv = [[RatFunc.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        Jinv[i][i] = RatFunc.const(1 / diag[i])
    for i in range(n - 1):
        Jinv[i][n - 1] = -RatFunc.from_poly(qs[i].diff(n)) / diag[n - 1]
    Jr = as_matrix(J)
    Jinvr = as_matrix(Jinv)
    g_up = [[sum((Jinvr[i][k] * Jinvr[j][k] for k in range(n)), RatFunc.zero())
             for j in range(n)] for i in range(n)]
    metric = Metric(g_up, variance="upper")
    conn = Connection.levi_civita(metric)
    return metric, conn, Jr, Jinvr, tuple(ubar)


def hessian_velocity(rng, n, J, Jinv, ubar, degree=3):
    """Velocity matrix satisfying the compatibility pair by construction:
    a Hessian in the flat coordinates, pulled back as a (1,1)-tensor.  h is drawn
    again while its Hessian is zero, so the velocity is never zero."""
    while True:
        h = rand_poly(rng, n, degree, terms=5)
        hess = [[h.diff(i + 1).diff(j + 1) for j in range(n)] for i in range(n)]
        if any(not x.is_zero for row in hess for x in row):
            break

    def compose(p):
        total = RatFunc.zero()
        for m, c in p.terms.items():
            term = RatFunc.const(c)
            for vid, e in m:
                term = term * ubar[vid - 1] ** e
            total = total + term
        return total

    Hbar = [[compose(hess[i][j]) for j in range(n)] for i in range(n)]
    V = [[sum((Jinv[i][a] * Hbar[a][b] * J[b][j] for a in range(n) for b in range(n)),
              RatFunc.zero()) for j in range(n)] for i in range(n)]
    return V


def random_velocity(rng, n, degree=2):
    return [[RatFunc.from_poly(rand_poly(rng, n, degree, terms=2)) for _ in range(n)]
            for _ in range(n)]


def constant_third_order_instance(rng, n):
    """Constant symmetric nondegenerate lowered metric (c = 0 follows)."""
    while True:
        entries = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-3, 3))
                entries[i][j] = v
                entries[j][i] = v
        g_low = as_matrix(entries)
        if not determinant(g_low).is_zero:
            return ThirdOrderData.from_lower_metric(g_low)


def symmetric_affine_fluxes(rng, n, data):
    """Affine fluxes whose Jacobian M satisfies g M symmetric: M = g^{-1} S."""
    from hhokit.geometry import inverse
    g_up = inverse(data.metric.lower())
    S = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_fraction(rng)
            S[i][j] = v
            S[j][i] = v
    M = [[sum((g_up[i][k] * S[k][j] for k in range(n)), RatFunc.zero())
          for j in range(n)] for i in range(n)]
    vflux = []
    for i in range(n):
        acc = RatFunc.const(rand_fraction(rng))
        for j in range(n):
            acc = acc + M[i][j] * RatFunc.var(j + 1)
        vflux.append(acc)
    return vflux


def random_fluxes(rng, n, degree=2):
    return [RatFunc.from_poly(rand_poly(rng, n, degree, terms=3)) for _ in range(n)]


# -- references that only the tests call ------------------------------------------------------


def subs_params(x, values: dict):
    """x, a Poly or RatFunc, with the rational values[pid] substituted for each parameter;
    field variables are kept."""
    if isinstance(x, RatFunc):
        return RatFunc(subs_params(x.num, values), x.den)
    res = {}
    for m, c in x.terms.items():
        rest = []
        for vid, e in m:
            if vid < 0:
                c = c * values[vid] ** e
            else:
                rest.append((vid, e))
        add_terms(res, {tuple(rest): 1}, _q(c))
    return Poly._new(res)


def value_of(sol, pid: int, assignment: dict) -> Fraction:
    """A parameter's value in a LinearSystemSolution under an assignment of the free
    parameters (0 when absent)."""
    if pid not in sol.pivots:
        return assignment.get(pid, Fraction(0))
    coeffs, const = sol.pivots[pid]
    return const + sum(a * assignment.get(f, Fraction(0)) for f, a in coeffs.items())


def operator_normal_form(n, entries) -> LocalOperator:
    """The operator of raw odd-free DiffPoly entries[i][j] = [(coefficient, k), ...] in normal
    form: coefficients of equal k summed, zero sums dropped, k ascending."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            by_k = {}
            for coeff, k in entries[i][j]:
                by_k[k] = by_k.get(k, DiffPoly.zero()) + coeff
            row.append(tuple((by_k[k], k) for k in sorted(by_k) if not by_k[k].is_zero))
        rows.append(tuple(row))
    return LocalOperator(n=n, entries=tuple(rows))


def neg(A: LocalOperator) -> LocalOperator:
    """-A, entrywise."""
    rows = tuple(tuple(tuple((-c, k) for c, k in entry) for entry in row) for row in A.entries)
    return LocalOperator(n=A.n, entries=rows)


def formal_adjoint(A: LocalOperator) -> LocalOperator:
    """(a d^k)* = (-1)^k d^k a, expanded to normal form entrywise: the definition that the
    covering's p_t rules, -formal_adjoint(l_F) applied to p, are held to."""
    cap = jet_cap()
    rows = []
    for i in range(A.n):
        row = []
        for j in range(A.n):
            by_m: dict = {}
            for coeff, k in A.entries[j][i]:
                # (-1)^k d^k (a .) = sum_m C(k,m) (d^{k-m} a) d^m
                ladder = [coeff]
                for _ in range(k):
                    ladder.append(total_x(ladder[-1], cap=cap))
                for m in range(k + 1):
                    by_m.setdefault(m, DiffSum()).add(ladder[k - m], (-1) ** k * comb(k, m))
            sums = ((by_m[m].value(), m) for m in sorted(by_m))
            row.append(tuple((c, m) for c, m in sums if not c.is_zero))
        rows.append(tuple(row))
    return LocalOperator(n=A.n, entries=tuple(rows))


def nijenhuis(V) -> tuple:
    """N^i_jk = V^s_j V^i_k,s - V^s_k V^i_j,s - V^i_s (V^s_k,j - V^s_j,k), each
    entry j < k reduced once from its numerator over the common denominator."""
    _, d, N = _nijenhuis_numerator(V)
    return _antisymmetric(lambda i, j, k: ratfunc_over(N[i][j][k].num, d, 3), len(N))


def catalog_data(name: str, op: str):
    """The data of operator ``op`` in the built-in example ``name``."""
    return load_operator(Problem(get_entry(name).problem), op).data

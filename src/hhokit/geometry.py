"""Tensor condition checkers for homogeneous operators and quasilinear systems.

All conditions are evaluated literally in exact arithmetic over the field
variables (and any formal parameters riding in coefficients): a check passes
iff every residual entry is the zero rational function.  Matrices are tuples
of tuples of RatFunc; indices in reports are 1-based.  Determinants, inverses
(adjugate over determinant, one division per entry) and characteristic
coefficients all come from one memoized minor expansion, ``_minors``; every
index raise or lower of a three-index tensor goes through ``_contract``, and
each metric-derived tensor is formed once, from the variance it was given.  The
Nijenhuis and Haantjes tensors are polynomial sums (n^4 products, not n^5) over
one common denominator d of V, for lower indices j < k only, each entry reduced
once against a power of d (``ratfunc_over``).  Linear degeneracy is summed by
Horner's rule, without matrix powers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .config import SIZE_CAP
from .covering import BivectorForm, CoveringContext, EvolutionSystem, LocalOperator, flux_jacobian
from .errors import DegenerateMetricError, InputError
from .jets import DiffPoly, DiffSum, dm_mul, mono, pjet, ujet
from .rational import Poly, RatFunc, RatSum, exact_div, poly_gcd, ratfunc_over

# -- exact matrix helpers ------------------------------------------------------


def _scalar(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, str):
        from .grammar import parse_scalar
        return parse_scalar(x)
    return RatFunc.const(x)


def _tensor(x, n, rank, message, leaf) -> tuple:
    """x as nested tuples of leaf(entry); InputError(message) unless every
    index runs over range(n).  Each level is converted before its length is checked."""
    if rank == 0:
        return leaf(x)
    out = tuple(_tensor(y, n, rank - 1, message, leaf) for y in x)
    if len(out) != n:
        raise InputError(message)
    return out


def as_matrix(rows) -> tuple:
    rows = tuple(rows)
    return _tensor(rows, len(rows), 2, "matrix must be square", _scalar)


def identity(n) -> tuple:
    return tuple(tuple(RatFunc.one() if i == j else RatFunc.zero() for j in range(n))
                 for i in range(n))


def _dot(xs, ys) -> RatFunc:
    """sum_s xs[s] * ys[s]."""
    acc = RatSum()
    for x, y in zip(xs, ys):
        acc.addmul(x, y)
    return acc.value()


def mat_mul(A, B) -> tuple:
    Bt = _swap(B)
    return tuple(tuple(_dot(row, col) for col in Bt) for row in A)


def _contract(M, T, slot) -> tuple:
    """M contracted into index ``slot`` of the n x n x n tensor T, the other
    positions kept: out[..x..] = sum_s M[x][s] T[..s..] (raises or lowers one index)."""
    r = range(len(T))

    def entry(idx):
        total = RatSum()
        for s, m in enumerate(M[idx[slot]]):
            if not m.is_zero:
                a = idx[:slot] + (s,) + idx[slot + 1:]
                total.addmul(m, T[a[0]][a[1]][a[2]])
        return total.value()

    return tuple(tuple(tuple(entry((i, j, k)) for k in r) for j in r) for i in r)


def _swap(T) -> tuple:
    """T with its first two indices exchanged (for a matrix, its transpose)."""
    return tuple(zip(*T))


def _minors(A):
    """minor(rows, cols): the division-free memoized expansion of det A[rows, cols]."""
    memo = {}

    def minor(rows, cols):
        if not rows:
            return RatFunc.one()
        key = (rows, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        r = rows[0]
        total = RatSum()
        for pos, c in enumerate(cols):
            a = A[r][c]
            if not a.is_zero:
                total.addmul(a, minor(rows[1:], cols[:pos] + cols[pos + 1:]), -1 if pos % 2 else 1)
        return memo.setdefault(key, total.value())

    return minor


def determinant(A) -> RatFunc:
    """Division-free determinant by minor expansion (memoized)."""
    idx = tuple(range(len(A)))
    return _minors(A)(idx, idx)


def inverse(A) -> tuple:
    """Exact inverse as adjugate over determinant: one shared minor expansion
    gives det A and every cofactor.  DegenerateMetricError when singular."""
    minor = _minors(A)
    idx = tuple(range(len(A)))
    det = minor(idx, idx)
    if det.is_zero:
        raise DegenerateMetricError("matrix is singular")

    def entry(i, j):  # (A^-1)_ij = (-1)^(i+j) det A[without row j, column i] / det A
        m = minor(idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:]) / det
        return -m if (i + j) % 2 else m

    return tuple(tuple(entry(i, j) for j in idx) for i in idx)


def char_poly_coeffs(V) -> list:
    """[f_1..f_n] with det(lam I - V) = lam^n + f_1 lam^{n-1} + ... + f_n.

    f_k = (-1)^k * (sum of principal k x k minors); division-free.
    """
    n = len(V)
    minor = _minors(V)
    coeffs = []
    for k in range(1, n + 1):
        fk = RatSum()
        for subset in itertools.combinations(range(n), k):
            fk.add(minor(subset, subset), -1 if k % 2 else 1)
        coeffs.append(fk.value())
    return coeffs


# -- reports -------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Named residual collection; passes iff no nonzero residual survived."""

    name: str
    residuals: list = field(default_factory=list)  # (family, indices, RatFunc)
    notes: tuple = ()

    def add(self, family: str, indices, value: RatFunc):
        if not value.is_zero:
            self.residuals.append((family, tuple(i + 1 for i in indices), value))

    @property
    def passed(self) -> bool:
        return not self.residuals

    def families_failing(self):
        return sorted({fam for fam, _, _ in self.residuals})

    def __str__(self):
        verdict = "pass" if self.passed else "fail"
        out = f"{self.name}: {verdict}"
        if not self.passed:
            out += " [" + ", ".join(self.families_failing()) + "]"
        return out


# -- metric and connection data -------------------------------------------------


class Metric:
    """Square matrix of RatFunc with a declared index variance."""

    def __init__(self, entries, variance="upper"):
        if variance not in ("upper", "lower"):
            raise InputError("variance must be 'upper' or 'lower'")
        self.entries = as_matrix(entries)
        self.variance = variance
        self.n = len(self.entries)
        self._inverse = None

    def _inv(self):
        if self._inverse is None:
            try:
                self._inverse = inverse(self.entries)
            except DegenerateMetricError:
                raise DegenerateMetricError("det g = 0") from None
        return self._inverse

    def upper(self) -> tuple:
        return self.entries if self.variance == "upper" else self._inv()

    def lower(self) -> tuple:
        return self.entries if self.variance == "lower" else self._inv()

    def check_nondegenerate(self):
        self._inv()


class Connection:
    """Upper-index symbols of a first-order operator with their lowered form."""

    def __init__(self, metric: Metric, gamma_upper):
        self.metric = metric
        self.n = metric.n
        self.gamma = _tensor(gamma_upper, self.n, 3, "connection symbols must be n x n x n",
                             _scalar)
        self._christoffel = None

    def christoffel(self) -> tuple:
        """Gamma^i_{jk} = -g_{js} Gamma^{si}_k."""
        if self._christoffel is None:
            minus_g = tuple(tuple(-x for x in row) for row in self.metric.lower())
            self._christoffel = _swap(_contract(minus_g, self.gamma, 0))
        return self._christoffel

    @classmethod
    def levi_civita(cls, metric: Metric) -> "Connection":
        """Gamma_{sjk} = (g_{sj,k} + g_{sk,j} - g_{jk,s}) / 2 raised to the Christoffel symbols
        Gamma^i_{jk} = g^{is} Gamma_{sjk}, kept, then Gamma^{ab}_k = -g^{aj} Gamma^b_{jk}."""
        g = metric.lower()
        g_up = metric.upper()
        r = range(metric.n)
        low = tuple(tuple(tuple(
            (g[s][j].diff(k + 1) + g[s][k].diff(j + 1) - g[j][k].diff(s + 1)) / 2
            for k in r) for j in r) for s in r)
        chrs = _contract(g_up, low, 0)
        conn = cls(metric, _swap(_contract(tuple(tuple(-x for x in row) for row in g_up),
                                           chrs, 1)))
        conn._christoffel = chrs
        return conn


# -- first-order checkers --------------------------------------------------------


def curvature(metric: Metric, conn: Connection) -> tuple:
    """R[g]^{ij}_{kl} of the first-order symbols (zero iff flat)."""
    metric.check_nondegenerate()
    n = metric.n
    gamma = conn.gamma
    chrs = conn.christoffel()
    out = []
    for i in range(n):
        plane_i = []
        for j in range(n):
            plane_j = []
            for k in range(n):
                row = []
                for l in range(n):
                    acc = RatSum(gamma[i][j][l].diff(k + 1) - gamma[i][j][k].diff(l + 1))
                    for s in range(n):
                        acc.addmul(chrs[i][k][s], gamma[s][j][l])
                        acc.addmul(chrs[j][k][s], gamma[s][i][l], -1)
                    row.append(acc.value())
                plane_j.append(tuple(row))
            plane_i.append(tuple(plane_j))
        out.append(tuple(plane_i))
    return tuple(out)


def first_order_hamiltonian_check(metric: Metric, conn: Connection) -> ConditionReport:
    """Skew-adjointness + vanishing Schouten bracket for g d_x + Gamma u_x."""
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
    gg = _contract(g, gamma, 2)  # gg[j][l][i] = g^{ik} Gamma^{jl}_k
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                rep.add("symbol-g-symmetry", (i, j, l), gg[j][l][i] - gg[i][l][j])
    R = curvature(metric, conn)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    rep.add("flatness", (i, j, k, l), R[i][j][k][l])
    return rep


def _covariant_velocity_derivative(conn: Connection, V, k, j, h):
    """nabla_k V^j_h with the lowered Christoffel symbols."""
    n = conn.n
    chrs = conn.christoffel()
    acc = RatSum(V[j][h].diff(k + 1))
    for s in range(n):
        acc.addmul(chrs[j][k][s], V[s][h])
        acc.addmul(chrs[s][k][h], V[j][s], -1)
    return acc.value()


def tsarev_check(metric: Metric, conn: Connection, V) -> ConditionReport:
    """Compatibility of a flat first-order operator with u_t = V u_x."""
    metric.check_nondegenerate()
    n = metric.n
    g = metric.upper()
    V = as_matrix(V)
    rep = ConditionReport("tsarev-compat")
    gv = mat_mul(g, _swap(V))
    for i in range(n):
        for j in range(i + 1, n):
            rep.add("velocity-g-symmetry", (i, j), gv[i][j] - gv[j][i])
    r = range(n)
    nab = [[[_covariant_velocity_derivative(conn, V, k, j, h) for h in r]
            for j in r] for k in r]
    curl = _contract(g, tuple(tuple(tuple(nab[k][j][h] - nab[h][j][k] for h in r)
                                    for j in r) for k in r), 0)
    for i, j, h in itertools.product(r, repeat=3):
        rep.add("covariant-curl", (i, j, h), curl[i][j][h])
    return rep


def expanded_first_order_conditions(metric: Metric, conn: Connection, V) -> ConditionReport:
    """The four coefficient families of the reduced first-order residual."""
    n = metric.n
    g = metric.upper()
    gm = conn.gamma
    V = as_matrix(V)
    rep = ConditionReport("first-order-expanded")

    def d(rf, k):
        return rf.diff(k + 1)

    # coefficient of p_{j,xx}
    for i in range(n):
        for j in range(i + 1, n):
            acc = RatSum()
            for k in range(n):
                acc.addmul(V[i][k], g[k][j])
                acc.addmul(V[j][k], g[k][i], -1)
            rep.add("coeff-p-xx", (i, j), acc.value())
    # coefficient of u^m_x p_{j,x}
    for i in range(n):
        for j in range(n):
            for m in range(n):
                acc = RatSum()
                for k in range(n):
                    acc.addmul(d(g[i][j], k), V[k][m])
                    acc.addmul(g[i][k], d(V[j][k], m) - d(V[j][m], k))
                    acc.addmul(g[i][k], d(V[j][k], m))
                    acc.addmul(gm[i][k][m], V[j][k])
                    acc.addmul(d(V[i][m], k), g[k][j], -1)
                    acc.addmul(V[i][k], d(g[k][j], m), -1)
                    acc.addmul(V[i][k], gm[k][j][m], -1)
                rep.add("coeff-ux-px", (i, j, m), acc.value())
    # coefficient of u^h_{xx} p_j
    for i in range(n):
        for j in range(n):
            for h in range(n):
                acc = RatSum()
                for k in range(n):
                    acc.addmul(g[i][k], d(V[j][k], h) - d(V[j][h], k))
                    acc.addmul(gm[i][j][k], V[k][h])
                    acc.addmul(gm[k][j][h], V[i][k], -1)
                rep.add("coeff-uxx-p", (i, j, h), acc.value())
    # coefficient of u^l_x u^m_x p_j (symmetric in l, m)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for m in range(l, n):
                    acc = RatSum()
                    for k in range(n):
                        acc.addmul(g[i][k], d(d(V[j][k], m), l) + d(d(V[j][k], l), m)
                                   - d(d(V[j][m], k), l) - d(d(V[j][l], k), m))
                        acc.addmul(d(gm[i][j][m], k), V[k][l])
                        acc.addmul(d(gm[i][j][l], k), V[k][m])
                        acc.addmul(gm[i][j][k], d(V[k][l], m) + d(V[k][m], l))
                        acc.addmul(gm[i][k][l], d(V[j][k], m))
                        acc.addmul(gm[i][k][m], d(V[j][k], l))
                        acc.addmul(gm[i][k][l], d(V[j][m], k), -1)
                        acc.addmul(gm[i][k][m], d(V[j][l], k), -1)
                        acc.addmul(gm[k][j][m], d(V[i][l], k), -1)
                        acc.addmul(gm[k][j][l], d(V[i][m], k), -1)
                        acc.addmul(d(gm[k][j][m], l), V[i][k], -1)
                        acc.addmul(d(gm[k][j][l], m), V[i][k], -1)
                    rep.add("coeff-uxux-p", (i, j, l, m), acc.value())
    return rep


def tail_characteristic(W) -> tuple:
    """The characteristic W u_x (component i is sum_j W[i][j] u^j_x) of the
    symmetry that generates a nonlocal tail."""
    ux = _jet_monomials(len(W), 1)
    return tuple(DiffPoly(dict(zip(ux, row))) for row in as_matrix(W))


def nonlocal_first_order_check(metric: Metric, conn: Connection, W, V) -> ConditionReport:
    """Compatibility of a tail generated by the symmetry W u_x.

    Only the conditions stated for this construction are evaluated (Tsarev
    pair, commutation of W with V, curvature/tail balance); the verdict is
    labelled accordingly.
    """
    n = metric.n
    W = as_matrix(W)
    V = as_matrix(V)
    rep = tsarev_check(metric, conn, V)
    rep.name = "nonlocal-first-order"
    rep.notes = ("necessary conditions for the symmetry-tail construction only; "
                 "not a complete Hamiltonianity certificate",)
    wv, vw = mat_mul(W, V), mat_mul(V, W)
    for i in range(n):
        for j in range(n):
            rep.add("tail-commutation", (i, j), wv[i][j] - vw[i][j])
    R = curvature(metric, conn)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for m in range(l, n):
                    acc = RatSum()
                    for k in range(n):
                        acc.addmul(R[i][j][k][l], V[k][m])
                        acc.addmul(R[i][j][k][m], V[k][l])
                        acc.addmul(W[i][l] * V[j][k], W[k][m])
                        acc.addmul(W[i][m] * V[j][k], W[k][l])
                        acc.addmul(V[i][k] * W[k][l], W[j][m], -1)
                        acc.addmul(V[i][k] * W[k][m], W[j][l], -1)
                    rep.add("curvature-tail-balance", (i, j, l, m), acc.value())
    return rep


# -- second order -----------------------------------------------------------------


class SecondOrderData:
    """Canonical-form second-order data: g_{ij}(u) = T_{ijk} u^k + g0_{ij}."""

    def __init__(self, T, g0):
        self.n = len(g0)
        self.T = _tensor(T, self.n, 3, "T must be n x n x n", Fraction)
        self.g0 = _tensor(g0, self.n, 2, "g0 must be n x n", Fraction)

    @classmethod
    def from_generators(cls, n, t_entries, g0_entries):
        """Skew-extend sparse generators {(i,j,k): value} and {(i,j): value}."""
        if n ** 3 > SIZE_CAP:
            raise InputError(f"sparse generators at n = {n} need a dense T of "
                             f"{n ** 3} entries (cap {SIZE_CAP})")
        T = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), val in t_entries.items():
            if len({i, j, k}) != 3:
                raise InputError("skew generators need three distinct indices")
            val = Fraction(val)
            for (a, b, c), sign in _signed_permutations((i, j, k)):
                T[a - 1][b - 1][c - 1] = sign * val
        g0 = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), val in g0_entries.items():
            val = Fraction(val)
            g0[i - 1][j - 1] = val
            g0[j - 1][i - 1] = -val
        return cls(T, g0)

    def g_low(self) -> tuple:
        """g_{ij} as RatFunc matrix linear in the field variables."""
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                p = Poly.const(self.g0[i][j])
                for k in range(n):
                    if self.T[i][j][k]:
                        p = p + Poly.var(k + 1) * self.T[i][j][k]
                row.append(RatFunc.from_poly(p))
            out.append(tuple(row))
        return tuple(out)


def _signed_permutations(idx):
    a, b, c = idx
    yield (a, b, c), Fraction(1)
    yield (b, c, a), Fraction(1)
    yield (c, a, b), Fraction(1)
    yield (b, a, c), Fraction(-1)
    yield (a, c, b), Fraction(-1)
    yield (c, b, a), Fraction(-1)


def second_order_canonical_check(d: SecondOrderData) -> ConditionReport:
    """Total skew-symmetry of the constant arrays T and g0."""
    rep = ConditionReport("second-order-canonical")
    n = d.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rep.add("t-skew-12", (i, j, k), RatFunc.const(d.T[i][j][k] + d.T[j][i][k]))
                rep.add("t-skew-23", (i, j, k), RatFunc.const(d.T[i][j][k] + d.T[i][k][j]))
    for i in range(n):
        for j in range(i, n):
            rep.add("g0-skew", (i, j), RatFunc.const(d.g0[i][j] + d.g0[j][i]))
    return rep


def second_order_compat(d: SecondOrderData, vflux) -> ConditionReport:
    """Compatibility of the canonical second-order operator with fluxes V^i(u)."""
    n = d.n
    g = d.g_low()
    if determinant(g).is_zero:
        raise DegenerateMetricError(
            "det g = 0 identically; the degenerate case is out of scope")
    vflux = tuple(vflux)
    V = flux_jacobian(vflux)
    rep = ConditionReport("second-order-compat")
    gv = mat_mul(g, V)
    for q in range(n):
        for p in range(q, n):
            rep.add("gv-skew", (q, p), gv[q][p] + gv[p][q])
    for q in range(n):
        for p in range(n):
            for l in range(n):
                acc = RatSum()
                for k in range(n):
                    acc.addmul(g[q][k], vflux[k].diff(p + 1).diff(l + 1))
                    acc.addmul(g[p][q].diff(k + 1), V[k][l])
                    acc.addmul(g[q][k].diff(l + 1), V[k][p])
                rep.add("flux-gradient-compat", (q, p, l), acc.value())
    return rep


# -- third order ------------------------------------------------------------------


class ThirdOrderData:
    """Canonical-form third-order data: a metric and its c symbols, kept in the variance
    given (c^{ij}_k by the constructor, c_{ijk} by ``from_lower_metric``).  Each other form
    is made once, one contraction from a form already held: c^s_{ml} = g^{sq} c_{qml} =
    g_{mp} c^{ps}_l, c_{ijk} = g_{is} c^s_{jk} and c^{pq}_k = g^{pm} c^q_{mk}."""

    def __init__(self, metric: Metric, c_upper):
        self.metric, self.n = metric, metric.n
        self._c = {"up": _tensor(c_upper, self.n, 3, "c must be n x n x n", _scalar)}

    @classmethod
    def from_lower_metric(cls, g_low_entries) -> "ThirdOrderData":
        """c_{ijk} of the lowered metric by the gradient rule; c^{ij}_k waits until asked for."""
        d = cls.__new__(cls)
        d.metric = Metric(g_low_entries, variance="lower")
        d.n, d._c = d.metric.n, {"low": _c_from_metric(d.metric.lower())}
        return d

    def _form(self, key, make) -> tuple:
        if key not in self._c:
            self._c[key] = make()
        return self._c[key]

    @property
    def c_up(self) -> tuple:
        return self._form("up", lambda: _swap(_contract(self.metric.upper(), self.c_mixed(), 1)))

    def c_low(self) -> tuple:
        return self._form("low", lambda: _contract(self.metric.lower(), self.c_mixed(), 0))

    def c_mixed(self) -> tuple:
        c = self._c
        return self._form("mixed", lambda: _contract(self.metric.upper(), c["low"], 0)
                          if "low" in c else _swap(_contract(self.metric.lower(), c["up"], 0)))


def _c_from_metric(g) -> tuple:
    """c_{nkm} = (g_{mn,k} - g_{kn,m}) / 3, the c symbols of the lowered metric g."""
    r = range(len(g))
    third = Fraction(1, 3)
    return tuple(tuple(tuple((g[m][nn].diff(k + 1) - g[k][nn].diff(m + 1)) * third
                             for m in r) for k in r) for nn in r)


def _add_closure(rep, family, cl, cm, tails):
    """c_{nml,k} + c^s_{ml} c_{snk}, plus weight * w_{ml} w_{nk} for each
    lowered tail (w, weight): one residual per (n, m, l, k)."""
    n = len(cl)
    for nn, m, l, k in itertools.product(range(n), repeat=4):
        acc = RatSum(cl[nn][m][l].diff(k + 1))
        for s in range(n):
            acc.addmul(cm[s][m][l], cl[s][nn][k])
        for wl, weight in tails:
            acc.addmul(wl[m][l], wl[nn][k] * weight)
        rep.add(family, (nn, m, l, k), acc.value())


def third_order_hamiltonian_check(d: ThirdOrderData) -> ConditionReport:
    """Conditions on (g, c) for the canonical third-order operator."""
    d.metric.check_nondegenerate()
    n = d.n
    g = d.metric.lower()
    cl = d.c_low()
    cm = d.c_mixed()
    rep = ConditionReport("third-order-hamiltonian")
    for i in range(n):
        for j in range(i + 1, n):
            rep.add("metric-symmetry", (i, j), g[i][j] - g[j][i])
    cg = _c_from_metric(g)
    for nn, k, m in itertools.product(range(n), repeat=3):
        rep.add("c-from-metric", (nn, k, m), cl[nn][k][m] - cg[nn][k][m])
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                rep.add("metric-cyclic", (i, j, k),
                        g[i][j].diff(k + 1) + g[j][k].diff(i + 1) + g[k][i].diff(j + 1))
    _add_closure(rep, "c-closure", cl, cm, ())
    return rep


def third_order_compat(d: ThirdOrderData, vflux) -> ConditionReport:
    """Compatibility of the canonical third-order operator with fluxes V^i(u)."""
    d.metric.check_nondegenerate()
    n = d.n
    g = d.metric.lower()
    g_up = d.metric.upper()
    cl = d.c_low()
    vflux = tuple(vflux)
    V = flux_jacobian(vflux)
    Vt = _swap(V)
    rep = ConditionReport("third-order-compat")
    gv = mat_mul(g, V)
    for i in range(n):
        for j in range(i + 1, n):
            rep.add("gv-symmetry", (i, j), gv[i][j] - gv[j][i])
    cv = _contract(Vt, cl, 0)  # cv[i][k][l] = V^m_i c_{mkl}
    for i, k, l in itertools.product(range(n), repeat=3):
        rep.add("c-v-cyclic", (i, k, l), cv[i][k][l] + cv[l][i][k] + cv[k][l][i])
    gcv = _contract(g_up, _contract(Vt, cl, 1), 0)  # gcv[k][i][j] = g^{ks} c_{smj} V^m_i
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                rep.add("flux-hessian", (k, i, j),
                        vflux[k].diff(i + 1).diff(j + 1) - gcv[k][i][j] - gcv[k][j][i])
    return rep


def third_order_nonlocal_checks(d: ThirdOrderData, w_list, weights, vflux) -> ConditionReport:
    """Weakly nonlocal third-order tails: algebraic conditions + symmetry gate."""
    d.metric.check_nondegenerate()
    n = d.n
    g = d.metric.lower()
    cl = d.c_low()
    cm = d.c_mixed()
    w_list = [as_matrix(w) for w in w_list]
    weights = [Fraction(x) if not isinstance(x, RatFunc) else x for x in weights]
    vflux = tuple(vflux)
    V = flux_jacobian(vflux)
    rep = ConditionReport("third-order-nonlocal")

    w_low = [mat_mul(g, w) for w in w_list]
    for a, wl in enumerate(w_low):
        for i in range(n):
            for j in range(i, n):
                rep.add("tail-skew", (a, i, j), wl[i][j] + wl[j][i])
        cw = _contract(_swap(wl), cm, 0)  # cw[l][i][j] = c^s_{ij} w_{sl}
        for i, j, l in itertools.product(range(n), repeat=3):
            rep.add("tail-gradient", (a, i, j, l), wl[i][j].diff(l + 1) - cw[l][i][j])
    _add_closure(rep, "closure-with-tails", cl, cm, tuple(zip(w_low, weights)))
    for a, w in enumerate(w_list):
        vw, wv = mat_mul(V, w), mat_mul(w, V)
        for i in range(n):
            for h in range(n):
                rep.add("tail-commutation", (a, i, h), vw[i][h] - wv[i][h])
        for i in range(n):
            for h in range(n):
                for m in range(h, n):
                    acc = RatSum()
                    for k in range(n):
                        acc.addmul(w[i][h].diff(k + 1), V[k][m], -1)
                        acc.addmul(w[i][m].diff(k + 1), V[k][h], -1)
                        acc.addmul(w[i][k], vflux[k].diff(m + 1).diff(h + 1), -2)
                        acc.addmul(V[i][k], w[k][m].diff(h + 1) + w[k][h].diff(m + 1))
                    rep.add("tail-derivative-exchange", (a, i, h, m), acc.value())

    # the algebraic tail conditions say exactly that w(b_x) b_xx is a symmetry
    ctx = CoveringContext(EvolutionSystem.potential(vflux)) if w_list else None
    for a, w in enumerate(w_list):
        res = ctx.linearize(tail_characteristic(w))
        for i, comp in enumerate(res):
            for mkey, coeff in comp.sorted_terms():
                rep.add("tail-symmetry-residual", (a, i), coeff)
    return rep


def potentialize(system: EvolutionSystem) -> EvolutionSystem:
    """Rewrite a conservative system in potential coordinates b^i_x = u^i."""
    if system.kind != "conservative":
        raise InputError("potentialization needs a conservative system")
    return EvolutionSystem.potential(system.flux_potentials)


def _jet_monomials(n, xorder) -> list:
    """The monomials u^1_{x^xorder}, ..., u^n_{x^xorder}."""
    return [mono([(ujet(k + 1, xorder), 1)]) for k in range(n)]


def first_order_operator(metric: Metric, conn: Connection) -> LocalOperator:
    """g^{ij} d_x + Gamma^{ij}_k u^k_x as a LocalOperator."""
    n = metric.n
    g = metric.upper()
    ux = _jet_monomials(n, 1)
    entries = tuple(tuple(((DiffPoly.from_scalar(g[i][j]), 1),
                           (DiffPoly(dict(zip(ux, conn.gamma[i][j]))), 0))
                          for j in range(n)) for i in range(n))
    return LocalOperator(n=n, entries=entries).normalized()


def third_order_operator(d: ThirdOrderData) -> LocalOperator:
    """d_x (g^{ij} d_x + c^{ij}_k u^k_x) d_x expanded as a LocalOperator."""
    n = d.n
    g = d.metric.upper()
    c = d.c_up
    ux, uxx = _jet_monomials(n, 1), _jet_monomials(n, 2)
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            second = DiffPoly({ux[k]: g[i][j].diff(k + 1) + c[i][j][k] for k in range(n)})
            first = DiffSum()
            for k in range(n):
                first[uxx[k]].add(c[i][j][k])
                for l in range(n):
                    first[dm_mul(ux[l], ux[k])].add(c[i][j][k].diff(l + 1))
            row.append(((DiffPoly.from_scalar(g[i][j]), 3), (second, 2), (first.value(), 1)))
        entries.append(tuple(row))
    return LocalOperator(n=n, entries=tuple(entries)).normalized()


def second_order_potential_bivector(d: SecondOrderData) -> BivectorForm:
    """The order-0 image -g^{ij}(b_x) p_j of the canonical operator."""
    p = [mono((), pjet(j + 1)) for j in range(d.n)]
    return BivectorForm(components=tuple(DiffPoly({pj: -g for pj, g in zip(p, row)})
                                         for row in inverse(d.g_low())))


# -- classification ----------------------------------------------------------------


def _antisymmetric(entry, n) -> tuple:
    """The n x n x n tensor equal to entry(i, j, k) for j < k, antisymmetric in j, k."""
    r = range(n)
    T = [[[RatFunc.zero()] * n for _ in r] for _ in r]
    for i, (j, k) in itertools.product(r, itertools.combinations(r, 2)):
        T[i][j][k] = entry(i, j, k)
        T[i][k][j] = -T[i][j][k]
    return tuple(tuple(tuple(row) for row in plane) for plane in T)


def _nijenhuis_numerator(V) -> tuple:
    """(W, d, Nt), all polynomial: V = W / d for d the monic lcm of the entry
    denominators, N = Nt / d^3.  With P[s][i][k] = W_ik,s d - W_ik d_,s = V^i_k,s d^2,
    Nt^i_jk = W_sj P[s][i][k] - W_sk P[s][i][j] - W_is (P[j][s][k] - P[k][s][j]), j < k."""
    V = as_matrix(V)
    r = range(len(V))
    d = Poly.one()
    for x in itertools.chain.from_iterable(V):
        if not x.den.is_const and exact_div(d, x.den) is None:
            d = d * exact_div(x.den, poly_gcd(d, x.den))
    W = [[RatFunc._new(x.num * exact_div(d, x.den), Poly.one()) for x in row] for row in V]
    D = RatFunc._new(d, Poly.one())
    P = [[[W[i][k].diff(s + 1) * D - W[i][k] * D.diff(s + 1) for k in r] for i in r] for s in r]

    def entry(i, j, k):
        acc = RatSum()
        for s in r:
            acc.addmul(W[s][j], P[s][i][k])
            acc.addmul(W[s][k], P[s][i][j], -1)
            acc.addmul(W[i][s], P[j][s][k] - P[k][s][j], -1)
        return acc.value()

    return W, d, _antisymmetric(entry, len(V))


def nijenhuis(V) -> tuple:
    """N^i_jk = V^s_j V^i_k,s - V^s_k V^i_j,s - V^i_s (V^s_k,j - V^s_j,k), each
    entry j < k reduced once from its numerator over the common denominator."""
    _, d, N = _nijenhuis_numerator(V)
    return _antisymmetric(lambda i, j, k: ratfunc_over(N[i][j][k].num, d, 3), len(N))


def haantjes(V) -> tuple:
    """H^i_jk = N^i_pq V^p_j V^q_k - N^p_jq V^i_p V^q_k - N^p_qk V^i_p V^q_j
    + N^p_jk V^i_q V^q_p = A^i_jq V^q_k + V^i_p D^p_jk, with A^i_jk = N^i_pk V^p_j
    and D^p_jk = V^p_q N^q_jk - A^p_jk + A^p_kj (N^i_jk = -N^i_kj).  Over the
    common denominator d of V = W / d, A = At / d^4, D = Dt / d^4 and H = Ht / d^5
    are polynomial sums, for j < k only; each entry of H is reduced once."""
    W, d, N = _nijenhuis_numerator(V)
    r = range(len(W))
    A = _contract(_swap(W), N, 1)

    def d_entry(p, j, k):
        total = RatSum(A[p][k][j] - A[p][j][k])
        for q in r:
            total.addmul(W[p][q], N[q][j][k])
        return total.value()

    D = {(p, j, k): d_entry(p, j, k) for p in r for j, k in itertools.combinations(r, 2)}
    del N  # H needs only A and D: drop N before H is built

    def entry(i, j, k):
        total = RatSum()
        for q in r:
            total.addmul(A[i][j][q], W[q][k])
        for p in r:
            total.addmul(W[i][p], D[p, j, k])
        return ratfunc_over(total.value().num, d, 5)

    return _antisymmetric(entry, len(W))


def linear_degeneracy_check(V) -> ConditionReport:
    """Characteristic-coefficient contraction certifying linear degeneracy.

    With det(lam I - V) = lam^n + f_1 lam^{n-1} + ... + f_n the condition is
    sum_k (grad f_k) V^{n-k} = 0, summed by Horner's rule as
    ((grad f_1) V + grad f_2) V + ... + grad f_n: n - 1 row covector times
    matrix products.
    """
    V = as_matrix(V)
    r = range(len(V))
    rep = ConditionReport("linear-degeneracy")
    total = [RatFunc.zero() for _ in r]
    Vt = _swap(V)
    for f in char_poly_coeffs(V):
        total = [_dot(total, Vt[col]) + f.diff(col + 1) for col in r]
    for col in r:
        rep.add("characteristic-contraction", (col,), total[col])
    return rep


def haantjes_zero_check(V) -> ConditionReport:
    rep = ConditionReport("haantjes-zero")
    H = haantjes(V)
    n = len(H)
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                rep.add("haantjes", (i, j, k), H[i][j][k])
    return rep


_ROOT_SAMPLES = 5  # rational points at which char_square_check samples q's discriminant
_ROOT_SEED = 7


def char_square_check(V) -> ConditionReport:
    """Is the characteristic polynomial a perfect square q(lam)^2?

    The square structure is exact; the reality of q's roots is certified at
    sampled rational points only, and the report says so.
    """
    V = as_matrix(V)
    n = len(V)
    rep = ConditionReport("char-poly-square")
    if n % 2:
        rep.add("even-dimension", (0,), RatFunc.one())
        return rep
    f = char_poly_coeffs(V)
    m = n // 2
    # match q = lam^m + q1 lam^{m-1} + ... + qm from the top coefficients
    q = [RatFunc.one()] + [RatFunc.zero()] * m
    for k in range(1, n + 1):
        acc = RatSum(f[k - 1])  # f_k - sum of q_i q_{k-i} over 0 < i, k - i <= m
        for i in range(max(1, k - m), min(k, m + 1)):
            acc.addmul(q[i], q[k - i], -1)
        if k <= m:
            q[k] = acc.value() / 2
        else:
            rep.add("square-match", (k,), acc.value())
    if rep.passed and n == 4:
        # sampled evidence that q has real roots (discriminant >= 0); reality
        # can depend on the region of field/parameter space, so this never
        # flips the verdict and is reported as sample-only certification
        rng = random.Random(_ROOT_SEED)
        disc = q[1] * q[1] - q[2] * 4
        vars_needed = disc.vars_used()
        nonneg = 0
        checked = 0
        tries = 0
        while checked < _ROOT_SAMPLES and tries < 200:
            tries += 1
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in vars_needed}
            try:
                value = disc.evaluate(point)
            except ZeroDivisionError:
                continue
            checked += 1
            if value >= 0:
                nonneg += 1
        rep.notes = rep.notes + (
            f"real roots certified at {nonneg}/{checked} sampled rational points only",)
    return rep

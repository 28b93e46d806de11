"""Tensor condition checkers for homogeneous operators and quasilinear systems.

All conditions are evaluated literally in exact arithmetic over the field variables (and
any formal parameters riding in coefficients): a check passes iff every residual entry is
the zero rational function.  Matrices are tuples of tuples of RatFunc; indices in reports
are 1-based.  Determinants, inverses (adjugate over determinant, one division per entry)
and characteristic coefficients all come from one memoized minor expansion, ``_minors``.
Every tensor product is one sparse contraction, ``_einsum(acc, "ab,bc->ac", A, B, k,
keep)``: it adds k * A * B, summed over the shared letters, into one ``rational.IntSum``
keyed by output index (``_Scatter``), forms products from nonzero entries only and none
for an output index that ``keep`` refuses (the families taken for j < k or l <= m only).
Index raises and lowers, matrix products, the curvature, the c symbols and their closure,
Tsarev's covariant derivatives, the expanded first-order families, the nonlocal tail
families, the Nijenhuis and Haantjes tensors and linear degeneracy's Horner steps all go
through it; a factor shared by several terms is summed entrywise once, before it is
contracted.  One routine, ``ConditionReport.add_all``, reads every residual family, in
lexicographic index order.  Each metric-derived tensor is formed once, from the variance it
was given.  The three classifiers share one ``characteristic_form`` of V: polynomial
numerators over one common denominator d of V = W / d and the characteristic numerators F,
expanded once; ``classify`` owns that form, building it once for the three reports.  Each
residual is reduced once against a power of d (``ratfunc_over``, with no gcd for a monomial
d).  A tensor is differentiated through one table, ``_grad``, each entry only by the field
variables it holds; a second derivative through ``_hessian``, which forms each unordered pair
once and mirrors it.  The third-order operator's coefficients are differentiated by
``jets.total_x``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .config import SIZE_CAP
from .covering import BivectorForm, CoveringContext, EvolutionSystem, LocalOperator, flux_jacobian
from .errors import DegenerateMetricError, InputError
from .grammar import _scalar, _tensor, as_matrix
from .jets import DiffPoly, mono, pjet, total_x, ux_sums
from .rational import _ZERO, IntSum, Poly, RatFunc, RatSum, exact_div, poly_gcd, ratfunc_over

# -- exact matrix helpers ------------------------------------------------------


def identity(n) -> tuple:
    return _table(n, 2, lambda i, j: RatFunc.one() if i == j else RatFunc.zero())


def _table(n, rank, entry, keep=None, index=()) -> tuple:
    """The dense rank-``rank`` tensor over range(n) whose entry at ``index`` is entry(*index),
    or the shared zero where ``keep(*index)`` refuses it."""
    if len(index) == rank:
        return entry(*index) if keep is None or keep(*index) else _ZERO
    return tuple(_table(n, rank, entry, keep, index + (i,)) for i in range(n))


class _Scatter(IntSum):
    """The ``rational.IntSum`` keyed by output index that ``_einsum`` adds into, read once per
    entry: ``entry(*index)`` pops it, and the entries that no term reached share one zero."""

    __slots__ = ()

    def entry(self, *index) -> RatFunc:
        return self.pop(index)

    def tensor(self, n, rank, index=()) -> tuple:
        """The dense tensor, each entry popped: sums and values are never all held."""
        if len(index) + 1 == rank:
            return tuple(self.pop(index + (i,)) for i in range(n))
        return tuple(self.tensor(n, rank, index + (i,)) for i in range(n))


def _nonzero(T, rank) -> list:
    """[(index, entry)] for the nonzero entries of the rank-``rank`` tensor T, in index order
    (a RatFunc is nonzero iff its numerator holds a term)."""
    if rank == 0:
        return [((), T)] if T.num.terms else []
    if rank == 1:
        return [((i,), x) for i, x in enumerate(T) if x.num.terms]
    return [((i,) + index, x) for i, sub in enumerate(T) for index, x in _nonzero(sub, rank - 1)]


def _getter(at):
    """index -> the tuple of index's entries at the positions ``at``."""
    if len(at) == 1:
        p, = at
        return lambda index: (index[p],)
    return operator.itemgetter(*at) if at else lambda index: ()


@functools.lru_cache(maxsize=None)
def _plan(spec) -> tuple:
    """An ``_einsum`` spec read once (the specs are this module's literals, so the cache
    stays small): the operand ranks, the getters of the shared letters from each operand's
    index, and the getter of the output index from A's index + B's."""
    ins, out = spec.split("->")
    sa, _, sb = ins.partition(",")
    shared = [c for c in sa if c in sb]
    return (len(sa), len(sb), _getter([sa.index(c) for c in shared]),
            _getter([sb.index(c) for c in shared]), _getter([(sa + sb).index(c) for c in out]))


def _einsum(acc, spec, A, B=None, k=1, keep=None):
    """Add k * A * B, summed over the letters both operands carry and the output omits, into
    the ``_Scatter`` acc keyed by output index; spec names the indices, as "ab,bc->ac".
    Without B, spec "abc->cab" adds k * A with its indices permuted.  Products are formed from
    nonzero entries only, and an output index that ``keep(*index)`` refuses is never formed.
    Returns acc."""
    ra, rb = _plan(spec)[:2]
    return _einsum_nz(acc, spec, _nonzero(A, ra), None if B is None else _nonzero(B, rb), k, keep)


def _einsum_nz(acc, spec, A, B=None, k=1, keep=None):
    """``_einsum`` on operands given as their ``_nonzero`` lists: one walk serves many terms."""
    key_a, key_b, out = _plan(spec)[2:]
    if B is None:
        for ia, a in A:
            o = out(ia)
            if keep is None or keep(*o):
                acc.add_term(o, a, k)
        return acc
    groups = {}
    for ib, b in B:
        groups.setdefault(key_b(ib), []).append((ib, b))
    for ia, a in A:
        for ib, b in groups.get(key_a(ia), ()):
            o = out(ia + ib)
            if keep is None or keep(*o):
                acc.addmul_term(o, a, b, k)
    return acc


def mat_mul(A, B) -> tuple:
    return _einsum(_Scatter(), "ab,bc->ac", A, B).tensor(len(A), 2)


def _grad(T, n) -> tuple:
    """T with one more, last, index k holding dT/du^{k+1}, k < n: each entry is differentiated
    only by the field variables it holds, and every other derivative is the shared zero."""
    if type(T) is not RatFunc:
        return tuple(_grad(x, n) for x in T)
    out = [_ZERO] * n
    for v in T.field_vars():
        if v <= n:
            out[v - 1] = T.diff(v)
    return tuple(out)


def _hessian(dT, n) -> tuple:
    """The gradient of a gradient table dT (``_grad``'s last index p), symmetric in its last
    two indices: each unordered pair p <= l is differentiated once and mirrored."""
    if type(dT[0]) is not RatFunc:
        return tuple(_hessian(x, n) for x in dT)
    out = [[_ZERO] * n for _ in range(n)]
    for p, x in enumerate(dT):
        for v in x.field_vars():
            if p < v <= n:
                out[p][v - 1] = out[v - 1][p] = x.diff(v)
    return tuple(map(tuple, out))


def _contract(M, T, slot, sign=1) -> tuple:
    """sign * M contracted into index ``slot`` of the n x n x n tensor T, the other positions
    kept: out[..x..] = sign * sum_s M[x][s] T[..s..] (raises or lowers one index)."""
    t = "ijk"[:slot] + "s" + "ijk"[slot + 1:]
    return _einsum(_Scatter(), f"xs,{t}->{t.replace('s', 'x')}", M, T, sign).tensor(len(T), 3)


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


def _char_numerators(W) -> list:
    """F, F[k-1] = (-1)^k (sum of the polynomial W's principal k x k minors)."""
    minor, r = _minors(W), range(len(W))
    F = []
    for k in range(1, len(W) + 1):
        fk = RatSum()
        for subset in itertools.combinations(r, k):
            fk.add(minor(subset, subset), -1 if k % 2 else 1)
        F.append(fk.value())
    return F


class CharacteristicForm:
    """What the three classifiers read of a square matrix V: V = W / d, d the monic lcm of
    the entry denominators and W polynomial, and F, formed on first use, f_k = F_k / d^k."""

    def __init__(self, V):
        V, d = as_matrix(V), Poly.one()
        for x in itertools.chain.from_iterable(V):
            if not x.den.is_const and exact_div(d, x.den) is None:
                d = d * exact_div(x.den, poly_gcd(d, x.den))
        self.W = tuple(tuple(RatFunc._new(x.num * exact_div(d, x.den), Poly.one()) for x in row)
                       for row in V)
        self.d = d

    @functools.cached_property
    def F(self) -> list:
        return _char_numerators(self.W)


def characteristic_form(V) -> CharacteristicForm:
    """V's characteristic form; a form is returned as it is."""
    return V if isinstance(V, CharacteristicForm) else CharacteristicForm(V)


def char_poly_coeffs(V) -> list:
    """[f_1..f_n] with det(lam I - V) = lam^n + f_1 lam^{n-1} + ... + f_n:
    f_k = (-1)^k * (sum of principal k x k minors) = F_k / d^k, reduced once."""
    form = characteristic_form(V)
    return [ratfunc_over(f.num, form.d, k) for k, f in enumerate(form.F, 1)]


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

    def add_all(self, family: str, n, rank, value, keep=None, head=()):
        """add(family, head + index, value(*index)) for each index over range(n)^rank that
        ``keep(*index)`` admits, in lexicographic order."""
        for index in itertools.product(range(n), repeat=rank):
            if keep is None or keep(*index):
                self.add(family, head + index, value(*index))

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
        self.gamma = _tensor(gamma_upper, (self.n,) * 3, _scalar,
                             "connection symbols must be n x n x n")
        self._christoffel = None

    def christoffel(self) -> tuple:
        """Gamma^i_{jk} = -g_{js} Gamma^{si}_k."""
        if self._christoffel is None:
            self._christoffel = _swap(_contract(self.metric.lower(), self.gamma, 0, -1))
        return self._christoffel

    @classmethod
    def levi_civita(cls, metric: Metric) -> "Connection":
        """Gamma_{sjk} = (g_{sj,k} + g_{sk,j} - g_{jk,s}) / 2 raised to the Christoffel symbols
        Gamma^i_{jk} = g^{is} Gamma_{sjk}, kept, then Gamma^{ab}_k = -g^{aj} Gamma^b_{jk}."""
        dg = _grad(metric.lower(), metric.n)
        g_up = metric.upper()
        low = _table(metric.n, 3, lambda s, j, k: (dg[s][j][k] + dg[s][k][j] - dg[j][k][s]) / 2)
        chrs = _contract(g_up, low, 0)
        conn = cls(metric, _swap(_contract(g_up, chrs, 1, -1)))
        conn._christoffel = chrs
        return conn


# -- first-order checkers --------------------------------------------------------


def _lt(*index) -> bool:
    """The ``keep`` of a family taken for last two indices increasing (``_le``: or equal)."""
    return index[-2] < index[-1]


def _le(*index) -> bool:
    return index[-2] <= index[-1]


def curvature(metric: Metric, conn: Connection, keep=None) -> tuple:
    """R[g]^{ij}_{kl} = Gamma^{ij}_{l,k} - Gamma^{ij}_{k,l} + Gamma^i_{ks} Gamma^{sj}_l
    - Gamma^j_{ks} Gamma^{si}_l of the first-order symbols (zero iff flat), formed only
    where ``keep(i, j, k, l)`` admits it."""
    metric.check_nondegenerate()
    dG, chrs = _nonzero(_grad(conn.gamma, metric.n), 4), _nonzero(conn.christoffel(), 3)
    gamma = _nonzero(conn.gamma, 3)
    R = _einsum_nz(_Scatter(), "ijlk->ijkl", dG, keep=keep)
    _einsum_nz(R, "ijkl->ijkl", dG, k=-1, keep=keep)
    _einsum_nz(R, "iks,sjl->ijkl", chrs, gamma, keep=keep)
    _einsum_nz(R, "jks,sil->ijkl", chrs, gamma, -1, keep=keep)
    return R.tensor(metric.n, 4)


def first_order_hamiltonian_check(metric: Metric, conn: Connection) -> ConditionReport:
    """Skew-adjointness + vanishing Schouten bracket for g d_x + Gamma u_x."""
    metric.check_nondegenerate()
    n = metric.n
    g = metric.upper()
    gamma = conn.gamma
    rep = ConditionReport("first-order-hamiltonian")
    rep.add_all("metric-symmetry", n, 2, lambda i, j: g[i][j] - g[j][i], _lt)
    dg = _grad(g, n)
    rep.add_all("metric-compat", n, 3,
                lambda i, j, k: dg[i][j][k] - gamma[i][j][k] - gamma[j][i][k])
    gg = _contract(g, gamma, 2)  # gg[j][l][i] = g^{ik} Gamma^{jl}_k
    rep.add_all("symbol-g-symmetry", n, 3, lambda i, j, l: gg[j][l][i] - gg[i][l][j],
                lambda i, j, l: i < j)
    R = curvature(metric, conn, _lt)
    rep.add_all("flatness", n, 4, lambda i, j, k, l: R[i][j][k][l], _lt)
    return rep


def tsarev_check(metric: Metric, conn: Connection, V) -> ConditionReport:
    """Compatibility of a flat first-order operator with u_t = V u_x."""
    metric.check_nondegenerate()
    n = metric.n
    g = metric.upper()
    V = as_matrix(V)
    rep = ConditionReport("tsarev-compat")
    gv = mat_mul(g, _swap(V))
    rep.add_all("velocity-g-symmetry", n, 2, lambda i, j: gv[i][j] - gv[j][i], _lt)
    chrs = conn.christoffel()  # nab[k][j][h] = V^j_h,k + Gamma^j_{ks} V^s_h - Gamma^s_{kh} V^j_s
    nab = _einsum(_Scatter(), "jhk->kjh", _grad(V, n))
    _einsum(nab, "jks,sh->kjh", chrs, V)
    nab = _einsum(nab, "skh,js->kjh", chrs, V, -1).tensor(n, 3)
    curl = _contract(g, _table(n, 3, lambda k, j, h: nab[k][j][h] - nab[h][j][k]), 0)
    rep.add_all("covariant-curl", n, 3, lambda i, j, h: curl[i][j][h])
    return rep


def expanded_first_order_conditions(metric: Metric, conn: Connection, V) -> ConditionReport:
    """The four coefficient families of the reduced first-order residual.  A factor of V's
    derivatives shared by several terms is summed entrywise, once, before it is contracted
    (X[j][k][m] = V^j_{k,m} - V^j_{m,k}; the sums of second derivatives for l <= m only)."""
    n = metric.n
    g = metric.upper()
    gm = conn.gamma
    V = as_matrix(V)
    rep = ConditionReport("first-order-expanded")
    dg, dV, dgm = _grad(g, n), _grad(V, n), _grad(gm, n)
    ddV = _hessian(dV, n)
    X = _table(n, 3, lambda j, k, m: dV[j][k][m] - dV[j][m][k])

    # coefficient of p_{j,xx}
    acc = _einsum(_Scatter(), "ik,kj->ij", V, g, keep=_lt)
    _einsum(acc, "jk,ki->ij", V, g, -1, keep=_lt)
    rep.add_all("coeff-p-xx", n, 2, acc.entry, _lt)
    # coefficient of u^m_x p_{j,x}
    acc = _einsum(_Scatter(), "ijk,km->ijm", dg, V)
    _einsum(acc, "ik,jkm->ijm", g, _table(n, 3, lambda j, k, m: X[j][k][m] + dV[j][k][m]))
    _einsum(acc, "ikm,jk->ijm", gm, V)
    _einsum(acc, "imk,kj->ijm", dV, g, -1)
    _einsum(acc, "ik,kjm->ijm", V, dg, -1)
    _einsum(acc, "ik,kjm->ijm", V, gm, -1)
    rep.add_all("coeff-ux-px", n, 3, acc.entry)
    # coefficient of u^h_{xx} p_j
    acc = _einsum(_Scatter(), "ik,jkh->ijh", g, X)
    _einsum(acc, "ijk,kh->ijh", gm, V)
    _einsum(acc, "kjh,ik->ijh", gm, V, -1)
    rep.add_all("coeff-uxx-p", n, 3, acc.entry)
    # coefficient of u^l_x u^m_x p_j (symmetric in l, m)
    Q = _table(n, 4, lambda j, k, l, m: ddV[j][k][l][m] + ddV[j][k][m][l]
               - ddV[j][m][k][l] - ddV[j][l][k][m], _le)
    acc = _einsum(_Scatter(), "ik,jklm->ijlm", g, Q, keep=_le)
    _einsum(acc, "ijmk,kl->ijlm", dgm, V, keep=_le)
    _einsum(acc, "ijlk,km->ijlm", dgm, V, keep=_le)
    _einsum(acc, "ijk,klm->ijlm", gm, _table(n, 3, lambda k, l, m: dV[k][l][m] + dV[k][m][l], _le),
            keep=_le)
    _einsum(acc, "ikl,jkm->ijlm", gm, X, keep=_le)
    _einsum(acc, "ikm,jkl->ijlm", gm, X, keep=_le)
    _einsum(acc, "kjm,ilk->ijlm", gm, dV, -1, keep=_le)
    _einsum(acc, "kjl,imk->ijlm", gm, dV, -1, keep=_le)
    _einsum(acc, "ik,kjml->ijlm", V, dgm, -1, keep=_le)
    _einsum(acc, "ik,kjlm->ijlm", V, dgm, -1, keep=_le)
    rep.add_all("coeff-uxux-p", n, 4, acc.entry, _le)
    return rep


def tail_characteristic(W) -> tuple:
    """The characteristic W u_x (component i is sum_j W[i][j] u^j_x) of the
    symmetry that generates a nonlocal tail."""
    return ux_sums(as_matrix(W))


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
    rep.add_all("tail-commutation", n, 2, lambda i, j: wv[i][j] - vw[i][j])
    R = curvature(metric, conn)  # sum_k W_il V_jk W_km = W_il (V W)_jm, and so on
    acc = _einsum(_Scatter(), "ijkl,km->ijlm", R, V, keep=_le)
    _einsum(acc, "ijkm,kl->ijlm", R, V, keep=_le)
    _einsum(acc, "il,jm->ijlm", W, vw, keep=_le)
    _einsum(acc, "im,jl->ijlm", W, vw, keep=_le)
    _einsum(acc, "il,jm->ijlm", vw, W, -1, keep=_le)
    _einsum(acc, "im,jl->ijlm", vw, W, -1, keep=_le)
    rep.add_all("curvature-tail-balance", n, 4, acc.entry, _le)
    return rep


# -- second order -----------------------------------------------------------------


class SecondOrderData:
    """Canonical-form second-order data: g_{ij}(u) = T_{ijk} u^k + g0_{ij}."""

    def __init__(self, T, g0):
        self.n = len(g0) if isinstance(g0, (list, tuple)) else None  # else _tensor refuses g0
        self.T = _tensor(T, (self.n,) * 3, Fraction, "T must be n x n x n")
        self.g0 = _tensor(g0, (self.n,) * 2, Fraction, "g0 must be n x n")

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
        return _table(self.n, 2, lambda i, j: RatFunc.from_poly(sum(
            (Poly.var(k + 1) * t for k, t in enumerate(self.T[i][j]) if t),
            Poly.const(self.g0[i][j]))))


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
    for i, j, k in itertools.product(range(n), repeat=3):  # the two families interleaved
        rep.add("t-skew-12", (i, j, k), RatFunc.const(d.T[i][j][k] + d.T[j][i][k]))
        rep.add("t-skew-23", (i, j, k), RatFunc.const(d.T[i][j][k] + d.T[i][k][j]))
    rep.add_all("g0-skew", n, 2, lambda i, j: RatFunc.const(d.g0[i][j] + d.g0[j][i]), _le)
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
    rep.add_all("gv-skew", n, 2, lambda q, p: gv[q][p] + gv[p][q], _le)
    dg, dV = _grad(g, n), _hessian(V, n)  # dg[i][j][k] = g_ij,k, dV[k][p][l] = V^k_p,l
    acc = _einsum(_Scatter(), "qk,kpl->qpl", g, dV)
    _einsum(acc, "pqk,kl->qpl", dg, V)
    _einsum(acc, "qkl,kp->qpl", dg, V)
    rep.add_all("flux-gradient-compat", n, 3, acc.entry)
    return rep


# -- third order ------------------------------------------------------------------


class ThirdOrderData:
    """Canonical-form third-order data: a metric and its c symbols, kept in the variance
    given (c^{ij}_k by the constructor, c_{ijk} by ``from_lower_metric``).  Each other form
    is made once, one contraction from a form already held: c^s_{ml} = g^{sq} c_{qml} =
    g_{mp} c^{ps}_l, c_{ijk} = g_{is} c^s_{jk} and c^{pq}_k = g^{pm} c^q_{mk}."""

    def __init__(self, metric: Metric, c_upper):
        self.metric, self.n = metric, metric.n
        self._c = {"up": _tensor(c_upper, (self.n,) * 3, _scalar, "c must be n x n x n")}

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
    dg = _grad(g, len(g))
    c = _einsum(_Scatter(), "mnk->nkm", dg, k=Fraction(1, 3))
    return _einsum(c, "mnk->nmk", dg, k=Fraction(-1, 3)).tensor(len(g), 3)


def _add_closure(rep, family, cl, cm, tails):
    """c_{nml,k} + c^s_{ml} c_{snk}, plus weight * w_{ml} w_{nk} for each
    lowered tail (w, weight): one residual per (n, m, l, k)."""
    acc = _einsum(_Scatter(), "nmlk->nmlk", _grad(cl, len(cl)))
    _einsum(acc, "sml,snk->nmlk", cm, cl)
    for wl, weight in tails:
        _einsum(acc, "ml,nk->nmlk", wl, wl, weight)
    for index in sorted(acc.terms):  # an index no term reached is a zero that add drops
        rep.add(family, index, acc.pop(index))


def third_order_hamiltonian_check(d: ThirdOrderData) -> ConditionReport:
    """Conditions on (g, c) for the canonical third-order operator."""
    d.metric.check_nondegenerate()
    n = d.n
    g = d.metric.lower()
    cl = d.c_low()
    cm = d.c_mixed()
    rep = ConditionReport("third-order-hamiltonian")
    rep.add_all("metric-symmetry", n, 2, lambda i, j: g[i][j] - g[j][i], _lt)
    cg = _c_from_metric(g)
    rep.add_all("c-from-metric", n, 3, lambda nn, k, m: cl[nn][k][m] - cg[nn][k][m])
    dg = _grad(g, n)
    rep.add_all("metric-cyclic", n, 3, lambda i, j, k: dg[i][j][k] + dg[j][k][i] + dg[k][i][j],
                lambda i, j, k: i <= j <= k)
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
    rep.add_all("gv-symmetry", n, 2, lambda i, j: gv[i][j] - gv[j][i], _lt)
    cv = _contract(Vt, cl, 0)  # cv[i][k][l] = V^m_i c_{mkl}
    rep.add_all("c-v-cyclic", n, 3, lambda i, k, l: cv[i][k][l] + cv[l][i][k] + cv[k][l][i])
    gcv = _contract(g_up, _contract(Vt, cl, 1), 0)  # gcv[k][i][j] = g^{ks} c_{smj} V^m_i
    dV = _hessian(V, n)  # the flux Hessian, dV[k][i][j] = V^k_,ij
    rep.add_all("flux-hessian", n, 3, lambda k, i, j: dV[k][i][j] - gcv[k][i][j] - gcv[k][j][i],
                _le)
    return rep


def third_order_nonlocal_checks(d: ThirdOrderData, w_list, weights, vflux) -> ConditionReport:
    """Weakly nonlocal third-order tails: algebraic conditions + symmetry gate."""
    d.metric.check_nondegenerate()
    n = d.n
    g = d.metric.lower()
    cl = d.c_low()
    cm = d.c_mixed()
    w_list = [as_matrix(w) for w in w_list]
    weights = [Fraction(x) for x in weights]
    vflux = tuple(vflux)
    V = flux_jacobian(vflux)
    dV = _hessian(V, n)  # the flux Hessian, dV[k][m][h] = V^k_,mh
    rep = ConditionReport("third-order-nonlocal")

    w_low = [mat_mul(g, w) for w in w_list]
    for a, wl in enumerate(w_low):
        rep.add_all("tail-skew", n, 2, lambda i, j: wl[i][j] + wl[j][i], _le, head=(a,))
        cw = _contract(_swap(wl), cm, 0)  # cw[l][i][j] = c^s_{ij} w_{sl}
        dwl = _grad(wl, n)
        rep.add_all("tail-gradient", n, 3, lambda i, j, l: dwl[i][j][l] - cw[l][i][j], head=(a,))
    _add_closure(rep, "closure-with-tails", cl, cm, tuple(zip(w_low, weights)))
    for a, w in enumerate(w_list):
        vw, wv = mat_mul(V, w), mat_mul(w, V)
        rep.add_all("tail-commutation", n, 2, lambda i, h: vw[i][h] - wv[i][h], head=(a,))
        dw = _grad(w, n)
        acc = _einsum(_Scatter(), "ihk,km->ihm", dw, V, -1, keep=_le)
        _einsum(acc, "imk,kh->ihm", dw, V, -1, keep=_le)
        _einsum(acc, "ik,kmh->ihm", w, dV, -2, keep=_le)
        _einsum(acc, "ik,khm->ihm", V,
                _table(n, 3, lambda k, h, m: dw[k][m][h] + dw[k][h][m], _le), keep=_le)
        rep.add_all("tail-derivative-exchange", n, 3, acc.entry, _le, head=(a,))

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


def first_order_operator(metric: Metric, conn: Connection) -> LocalOperator:
    """g^{ij} d_x + Gamma^{ij}_k u^k_x as a LocalOperator."""
    return LocalOperator.build(metric.n, [[((g, 1), (B, 0)) for g, B in zip(g_row, ux_sums(gamma))]
                                          for g_row, gamma in zip(metric.upper(), conn.gamma)])


def third_order_operator(d: ThirdOrderData) -> LocalOperator:
    """d_x (g^{ij} d_x + c^{ij}_k u^k_x) d_x expanded as a LocalOperator: with A = g^{ij}
    and B = c^{ij}_k u^k_x it is A d^3 + (D_x A + B) d^2 + (D_x B) d."""
    entries = []
    for g_row, c_row in zip(d.metric.upper(), d.c_up):
        row = []
        for A, B in zip(map(DiffPoly.from_scalar, g_row), ux_sums(c_row)):
            row.append(((A, 3), (total_x(A) + B, 2), (total_x(B), 1)))
        entries.append(row)
    return LocalOperator.build(d.n, entries)


def second_order_potential_bivector(d: SecondOrderData) -> BivectorForm:
    """The order-0 image -g^{ij}(b_x) p_j of the canonical operator."""
    p = [mono((), pjet(j + 1)) for j in range(d.n)]
    return BivectorForm(components=tuple(DiffPoly({pj: -g for pj, g in zip(p, row)})
                                         for row in inverse(d.g_low())))


# -- classification ----------------------------------------------------------------


def _antisymmetric(entry, n) -> tuple:
    """The n x n x n tensor equal to entry(i, j, k) for j < k, antisymmetric in j, k."""
    T = _table(n, 3, entry, _lt)
    return _table(n, 3, lambda i, j, k: T[i][j][k] if j < k else -T[i][k][j])


def _nijenhuis_numerator(V) -> tuple:
    """(W, d, Nt), all polynomial: V = W / d (``characteristic_form``), N = Nt / d^3.
    With P[s][i][k] = W_ik,s d - W_ik d_,s = V^i_k,s d^2,
    Nt^i_jk = W_sj P[s][i][k] - W_sk P[s][i][j] - W_is (P[j][s][k] - P[k][s][j]), j < k."""
    form = characteristic_form(V)
    W, d, n = form.W, form.d, len(form.W)
    D = RatFunc._new(d, Poly.one())
    dW, dD = _grad(W, n), _grad(D, n)
    P = _table(n, 3, lambda s, i, k: dW[i][k][s] * D - W[i][k] * dD[s])
    N = _einsum(_Scatter(), "sj,sik->ijk", W, P, keep=_lt)
    _einsum(N, "sk,sij->ijk", W, P, -1, keep=_lt)
    _einsum(N, "is,sjk->ijk", W, _table(n, 3, lambda s, j, k: P[j][s][k] - P[k][s][j], _lt), -1)
    return W, d, _antisymmetric(N.entry, n)


def _haantjes_entries(V) -> tuple:
    """(entry, n), entry(i, j, k) = H^i_jk for j < k: H^i_jk = N^i_pq V^p_j V^q_k
    - N^p_jq V^i_p V^q_k - N^p_qk V^i_p V^q_j + N^p_jk V^i_q V^q_p = A^i_jq V^q_k + V^i_p D^p_jk,
    with A^i_jk = N^i_pk V^p_j and D^p_jk = V^p_q N^q_jk - A^p_jk + A^p_kj (N^i_jk = -N^i_kj).
    Over the common denominator d of V = W / d, A = At / d^4, D = Dt / d^4 and H = Ht / d^5
    are polynomial sums, for j < k only; each entry of H is reduced once, when read."""
    W, d, N = _nijenhuis_numerator(V)
    n = len(W)
    A = _contract(_swap(W), N, 1)
    D = _einsum(_Scatter(), "pkj->pjk", A, keep=_lt)
    _einsum(D, "pjk->pjk", A, k=-1, keep=_lt)
    D = _einsum(D, "pq,qjk->pjk", W, N, keep=_lt).tensor(n, 3)
    del N  # H needs only A and D: drop N before H is built
    H = _einsum(_Scatter(), "ijq,qk->ijk", A, W, keep=_lt)
    _einsum(H, "ip,pjk->ijk", W, D)
    return lambda i, j, k: ratfunc_over(H.entry(i, j, k).num, d, 5), n


def haantjes(V) -> tuple:
    """The Haantjes tensor H^i_jk of V (``_haantjes_entries``), antisymmetric in j, k."""
    return _antisymmetric(*_haantjes_entries(V))


def linear_degeneracy_check(V) -> ConditionReport:
    """Characteristic-coefficient contraction certifying linear degeneracy.

    With det(lam I - V) = lam^n + f_1 lam^{n-1} + ... + f_n the condition is
    sum_k (grad f_k) V^{n-k} = 0, summed by Horner's rule as
    ((grad f_1) V + grad f_2) V + ... + grad f_n: n - 1 row covector times
    matrix products.  With V = W / d and f_k = F_k / d^k the k-th sum is G_k / d^{k+1},
    G_k = G_{k-1} W + d grad F_k - k F_k grad d polynomial; G_n is reduced once per column.
    """
    form = characteristic_form(V)
    W, d, F, n = form.W, form.d, form.F, len(form.W)
    D = RatFunc._new(d, Poly.one())
    grad_d = _grad(D, n)
    G = (_ZERO,) * n
    for k, f in enumerate(F, 1):
        acc = _einsum(_Scatter(), "s,sc->c", G, W)
        _einsum(acc, ",c->c", D, _grad(f, n))
        G = _einsum(acc, ",c->c", f, grad_d, -k).tensor(n, 1)
    rep = ConditionReport("linear-degeneracy")
    rep.add_all("characteristic-contraction", n, 1, lambda c: ratfunc_over(G[c].num, d, n + 1))
    return rep


def haantjes_zero_check(V) -> ConditionReport:
    rep = ConditionReport("haantjes-zero")
    entry, n = _haantjes_entries(V)
    rep.add_all("haantjes", n, 3, entry, _lt)
    return rep


_ROOT_SAMPLES = 5  # rational points at which char_square_check samples q's discriminant
_ROOT_SEED = 7


def char_square_check(V) -> ConditionReport:
    """Is the characteristic polynomial a perfect square q(lam)^2?

    The square structure is exact; the reality of q's roots is certified at
    sampled rational points only, and the report says so.  q_k = Q_k / d^k is matched on
    the numerators F_k: F_k - sum Q_i Q_{k-i} (Q_0 = 1) is 2 Q_k for k <= n/2, else a residual.
    """
    form = characteristic_form(V)
    n = len(form.W)
    rep = ConditionReport("char-poly-square")
    if n % 2:
        rep.add("even-dimension", (0,), RatFunc.one())
        return rep
    m = n // 2
    Q = [Poly.one()]
    for k, f in enumerate(form.F, 1):
        acc = f.num
        for i in range(max(1, k - m), min(k, m + 1)):
            acc = acc - Q[i] * Q[k - i]
        if k <= m:
            Q.append(acc * Fraction(1, 2))
        else:
            rep.add("square-match", (k,), ratfunc_over(acc, form.d, k))
    if rep.passed and n == 4:
        # sampled evidence that q has real roots (discriminant >= 0); reality
        # can depend on the region of field/parameter space, so this never
        # flips the verdict and is reported as sample-only certification
        rng = random.Random(_ROOT_SEED)
        disc = ratfunc_over(Q[1] * Q[1] - Q[2] * 4, form.d, 2)
        vars_needed = disc.vars_used()
        nonneg = checked = tries = 0
        while checked < _ROOT_SAMPLES and tries < 200:
            tries += 1
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in vars_needed}
            try:
                value = disc.evaluate(point)
            except ZeroDivisionError:
                continue
            checked += 1
            nonneg += value >= 0
        rep.notes = rep.notes + (
            f"real roots certified at {nonneg}/{checked} sampled rational points only",)
    return rep


def classify(V, square=True) -> list:
    """The linear-degeneracy, Haantjes-zero and, when ``square``, char-square reports of V,
    in that order, all read from one ``characteristic_form``."""
    form = characteristic_form(V)
    reports = [linear_degeneracy_check(form), haantjes_zero_check(form)]
    if square:
        reports.append(char_square_check(form))
    return reports

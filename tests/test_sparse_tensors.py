"""The contractions that scatter over nonzero entries against dense loops.

The inputs plant zeros the way real data does: a constant lowered metric (so c = 0 and
the Levi-Civita symbols vanish), a diagonal metric, a connection with one nonzero symbol,
all-zero tensors and n = 1.  Dense generic inputs ride along.  Every tensor is compared
with its literal loop by ``==`` and by ``str``, every report by its residual list and by
the (family, indices, str) rows of it.  The loops for ``_contract``, ``curvature`` and
``_einsum`` are written out here; the others are the ``reference_*`` loops of
``test_geometry_oracle``.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from hhokit import rational
from hhokit.errors import DegenerateMetricError
from hhokit.geometry import (
    Connection,
    Metric,
    SecondOrderData,
    ThirdOrderData,
    _contract,
    _einsum,
    _Scatter,
    curvature,
    expanded_first_order_conditions,
    first_order_hamiltonian_check,
    haantjes,
    linear_degeneracy_check,
    mat_mul,
    nonlocal_first_order_check,
    second_order_compat,
    third_order_compat,
    third_order_hamiltonian_check,
    third_order_nonlocal_checks,
    tsarev_check,
)
from hhokit.rational import Poly, RatFunc

from genutil import (
    constant_third_order_instance,
    nijenhuis,
    rand_fraction,
    rand_poly,
    random_fluxes,
    random_velocity,
)
from test_geometry_oracle import (
    reference_c_low,
    reference_c_up,
    reference_christoffel,
    reference_first_order_hamiltonian_check,
    reference_third_order_compat,
    reference_third_order_hamiltonian_check,
    reference_tsarev_check,
)


def reference_contract(M, T, slot):
    """out[..x..] = sum_s M[x][s] T[..s..], every product formed."""
    n = len(T)
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        x = (i, j, k)[slot]
        acc = RatFunc.zero()
        for s in range(n):
            a = [i, j, k]
            a[slot] = s
            acc = acc + M[x][s] * T[a[0]][a[1]][a[2]]
        out[i][j][k] = acc
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def reference_curvature(conn):
    """R^{ij}_{kl} = Gamma^{ij}_{l,k} - Gamma^{ij}_{k,l} + Gamma^i_{ks} Gamma^{sj}_l
    - Gamma^j_{ks} Gamma^{si}_l, every term formed."""
    n = conn.n
    gamma = conn.gamma
    chrs = reference_christoffel(conn)
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        acc = gamma[i][j][l].diff(k + 1) - gamma[i][j][k].diff(l + 1)
        for s in range(n):
            acc = acc + chrs[i][k][s] * gamma[s][j][l] - chrs[j][k][s] * gamma[s][i][l]
        out[i][j][k][l] = acc
    return tuple(tuple(tuple(tuple(row) for row in plane) for plane in cube) for cube in out)


def _same(got, want):
    assert got == want
    assert str(got) == str(want)


def _rows(residuals):
    return [(family, indices, str(value)) for family, indices, value in residuals]


def _same_report(got, want):
    """got a ConditionReport; want a report or its residual list."""
    want = getattr(want, "residuals", want)
    assert got.residuals == want
    assert _rows(got.residuals) == _rows(want)


# -- inputs with planted zeros ---------------------------------------------------------------


def _zero_tensor(n, rank):
    if rank == 0:
        return RatFunc.zero()
    return tuple(_zero_tensor(n, rank - 1) for _ in range(n))


def _poly(rng, n, degree=1, terms=3):
    return RatFunc.from_poly(rand_poly(rng, n, degree, terms=terms))


def _single_entry(rng, n):
    """An n x n x n tensor with one nonzero entry, non-constant in the fields."""
    T = [[[RatFunc.zero()] * n for _ in range(n)] for _ in range(n)]
    i, j, k = (rng.randrange(n) for _ in range(3))
    T[i][j][k] = RatFunc.var(rng.randint(1, n)) * rand_fraction(rng, 1, 4) + 1
    return T


def _dense_tensor(rng, n):
    return [[[_poly(rng, n) for _ in range(n)] for _ in range(n)] for _ in range(n)]


def _lower_metric(rng, n, kind):
    """A nondegenerate symmetric lowered metric: constant, diagonal or dense linear."""
    while True:
        g = [[RatFunc.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if kind == "constant":
                    g[i][j] = RatFunc.const(rng.randint(-3, 3) + (4 if i == j else 0))
                elif kind == "dense" or i == j:
                    g[i][j] = _poly(rng, n, terms=2) + (3 if i == j else 0)
                g[j][i] = g[i][j]
        metric = Metric(g, variance="lower")
        try:
            metric.check_nondegenerate()
        except DegenerateMetricError:
            continue
        return metric


# a generic dense metric at n = 3 takes minutes to invert: dense stays at n <= 2
_METRICS = [(1, "constant"), (1, "diagonal"), (2, "constant"), (2, "diagonal"), (2, "dense"),
            (3, "constant"), (3, "diagonal")]


def _connections(rng, metric):
    """Levi-Civita, one nonzero symbol, all zero and dense generic symbols."""
    n = metric.n
    return [Connection.levi_civita(metric), Connection(metric, _single_entry(rng, n)),
            Connection(metric, _zero_tensor(n, 3)), Connection(metric, _dense_tensor(rng, n))]


def _velocities(rng, n):
    diagonal = [[_poly(rng, n) if i == j else RatFunc.zero() for j in range(n)]
                for i in range(n)]
    return [random_velocity(rng, n, degree=1), diagonal, _zero_tensor(n, 2)]


# -- the tensors -----------------------------------------------------------------------------


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_contract_matches_loop(slot):
    rng = random.Random(60 + slot)
    for n in (1, 2, 3):
        matrices = [metric.upper() for metric in
                    (_lower_metric(rng, n, kind) for kind in ("constant", "diagonal"))]
        matrices += [_zero_tensor(n, 2), [[_poly(rng, n) for _ in range(n)] for _ in range(n)]]
        tensors = [_single_entry(rng, n), _zero_tensor(n, 3), _dense_tensor(rng, n)]
        for M, T in itertools.product(matrices, tensors):
            _same(_contract(M, T, slot), reference_contract(M, T, slot))
            _same(_contract(M, T, slot, -1), reference_contract(
                M, tuple(tuple(tuple(-x for x in row) for row in plane) for plane in T), slot))


def test_curvature_matches_loop():
    rng = random.Random(63)
    flat = curved = 0
    for n, kind in _METRICS:
        metric = _lower_metric(rng, n, kind)
        for conn in _connections(rng, metric):
            R = curvature(metric, conn)
            _same(R, reference_curvature(conn))
            if any(not x.is_zero for x in itertools.chain.from_iterable(
                    itertools.chain.from_iterable(itertools.chain.from_iterable(R)))):
                curved += 1
            else:
                flat += 1
    assert flat and curved


def test_contract_and_curvature_build_no_ratsum(monkeypatch):
    # each scatters into one IntSum keyed by output index, not one RatSum per entry
    rng = random.Random(65)
    cases = []
    for n, kind in ((2, "dense"), (3, "diagonal")):
        metric = _lower_metric(rng, n, kind)
        metric.upper()  # the inverse's minor expansion is formed before counting
        cases.append((metric, [Connection(metric, _single_entry(rng, n)),
                               Connection(metric, _dense_tensor(rng, n))]))
    built = []
    init = rational.RatSum.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(rational.RatSum, "__init__", counting)
    nonzero = 0
    for metric, conns in cases:
        for conn in conns:
            for T in (_contract(metric.upper(), conn.gamma, 1), conn.christoffel(),
                      curvature(metric, conn)):
                nonzero += any(not x.is_zero for x in _entries(T))
    assert nonzero and not built


def test_converted_families_build_no_ratsum(monkeypatch):
    # every contraction of a residual family scatters into an IntSum keyed by output index;
    # only the scalar sums of the minor expansion and the characteristic numerators are RatSums
    rng = random.Random(68)
    n = 2
    metric = _lower_metric(rng, n, "dense")
    metric.upper()  # the inverse's minor expansion is formed before counting
    conn = Connection(metric, _dense_tensor(rng, n))
    V, W = random_velocity(rng, n, degree=1), random_velocity(rng, n, degree=1)
    second = SecondOrderData.from_generators(2, {}, {(1, 2): Fraction(3)})
    third = constant_third_order_instance(rng, n)
    third.c_mixed()
    fluxes = random_fluxes(rng, n)
    built = []
    init = rational.RatSum.__init__

    def counting(self, *args):
        if sys._getframe(1).f_code.co_name not in ("minor", "_char_numerators"):
            built.append(1)
        init(self, *args)

    monkeypatch.setattr(rational.RatSum, "__init__", counting)
    reports = [expanded_first_order_conditions(metric, conn, V),
               nonlocal_first_order_check(metric, conn, W, V),
               second_order_compat(second, fluxes),
               third_order_nonlocal_checks(third, [W], [Fraction(2)], fluxes),
               linear_degeneracy_check(V)]
    assert not any(rep.passed for rep in reports)
    V3 = random_velocity(rng, 3, degree=1)  # a Haantjes tensor at n = 2 is zero
    tensors = [mat_mul(V, W), nijenhuis(V), haantjes(V3)]
    assert all(any(not x.is_zero for x in _entries(T)) for T in tensors)
    assert not built


def test_flux_hessian_forms_each_mixed_derivative_once(monkeypatch):
    # V^k_{,pl} is one RatFunc.diff for each p <= l, mirrored to (l, p); with a non-constant
    # denominator every one of them is a quotient rule and a gcd, so none may be formed twice
    rng = random.Random(69)
    calls = []
    diff = RatFunc.diff

    def counting(self, vid):
        if not self.den.is_const:
            calls.append(vid)
        return diff(self, vid)

    def over_every_variable(n):  # so that every derivative has a non-constant denominator
        return RatFunc.from_poly(sum((Poly.var(i + 1) * (i + 2) for i in range(n)), Poly.const(5)))

    def fluxes(n):
        return [_poly(rng, n, degree=2) / over_every_variable(n) for _ in range(n)]

    monkeypatch.setattr(RatFunc, "diff", counting)
    third = constant_third_order_instance(rng, 3)
    cases = [(2, lambda v: second_order_compat(
                SecondOrderData.from_generators(2, {}, {(1, 2): Fraction(1)}), v)),
             (3, lambda v: third_order_compat(third, v))]
    for n, check in cases:
        vflux = fluxes(n)
        calls.clear()
        check(vflux)
        # n^2 entries of the flux Jacobian, n * n(n+1)/2 distinct entries of its gradient
        assert len(calls) == n * n + n * n * (n + 1) // 2
    # the velocity's own Hessian in the expanded first-order families, over a constant metric
    n = 2
    metric = _lower_metric(rng, n, "constant")
    V = [[_poly(rng, n, degree=2) / over_every_variable(n) for _ in range(n)] for _ in range(n)]
    calls.clear()
    expanded_first_order_conditions(metric, Connection.levi_civita(metric), V)
    assert len(calls) == n ** 3 + n ** 3 * (n + 1) // 2


def _entries(T):
    if isinstance(T, RatFunc):
        yield T
    else:
        for x in T:
            yield from _entries(x)


def test_c_symbols_match_loops():
    rng = random.Random(64)
    for n, kind in _METRICS:
        metric = _lower_metric(rng, n, kind)
        d = ThirdOrderData.from_lower_metric(metric.lower())
        _same(d.c_up, reference_c_up(d.metric))
        _same(d.c_low(), reference_c_low(d))
        if kind == "constant":
            assert all(x.is_zero for x in itertools.chain.from_iterable(
                itertools.chain.from_iterable(d.c_low())))
        for c_up in (_single_entry(rng, n), _zero_tensor(n, 3)):
            d = ThirdOrderData(metric, c_up)
            _same(d.c_low(), reference_c_low(d))


# -- the reports -----------------------------------------------------------------------------


def test_first_order_reports_match_loops():
    rng = random.Random(65)
    verdicts = set()
    for n, kind in _METRICS:
        metric = _lower_metric(rng, n, kind)
        for conn in _connections(rng, metric):
            got = first_order_hamiltonian_check(metric, conn)
            _same_report(got, reference_first_order_hamiltonian_check(metric, conn))
            verdicts.add(got.passed)
            for V in _velocities(rng, n):
                got = tsarev_check(metric, conn, V)
                _same_report(got, reference_tsarev_check(metric, conn, V))
                verdicts.add(got.passed)
    assert verdicts == {True, False}


def _third_order_data(rng, n, kind):
    metric = _lower_metric(rng, n, kind)
    yield ThirdOrderData.from_lower_metric(metric.lower())
    yield ThirdOrderData(metric, _single_entry(rng, n))
    yield ThirdOrderData(metric, _zero_tensor(n, 3))


def test_third_order_reports_match_loops():
    rng = random.Random(66)
    verdicts = set()
    for n, kind in _METRICS:
        for d in _third_order_data(rng, n, kind):
            got = third_order_hamiltonian_check(d)
            _same_report(got, reference_third_order_hamiltonian_check(d))
            verdicts.add(got.passed)
            for vflux in (random_fluxes(rng, n), [RatFunc.zero()] * n,
                          [RatFunc.from_poly(Poly.var(i + 1)) * Fraction(i + 2)
                           for i in range(n)]):
                got = third_order_compat(d, vflux)
                _same_report(got, reference_third_order_compat(d, vflux))
                verdicts.add(got.passed)
    assert verdicts == {True, False}


# -- the one contraction -----------------------------------------------------------------------


def reference_einsum(spec, A, B, k, keep, n):
    """The dense tensor k * A * B of an _einsum spec, every product over every summed index
    formed and added in order; zero where keep refuses the output index."""
    ins, out = spec.split("->")
    sa, _, sb = ins.partition(",")
    summed = sorted(set(sa + sb) - set(out))

    def at(T, letters, where):
        for c in letters:
            T = T[where[c]]
        return T

    def entry(*index):
        if keep is not None and not keep(*index):
            return RatFunc.zero()
        acc = RatFunc.zero()
        for values in itertools.product(range(n), repeat=len(summed)):
            where = dict(zip(out, index), **dict(zip(summed, values)))
            term = at(A, sa, where) * k
            acc = acc + (term if B is None else term * at(B, sb, where))
        return acc

    def table(index):
        if len(index) == len(out):
            return entry(*index)
        return tuple(table(index + (i,)) for i in range(n))

    return table(())


def _matrices(rng, n):
    single = [[RatFunc.zero()] * n for _ in range(n)]
    single[rng.randrange(n)][rng.randrange(n)] = _poly(rng, n)
    return [_zero_tensor(n, 2), single, [[_poly(rng, n) for _ in range(n)] for _ in range(n)]]


def _vectors(rng, n):
    return [_zero_tensor(n, 1), [_poly(rng, n) if i == 0 else RatFunc.zero() for i in range(n)],
            [_poly(rng, n) for _ in range(n)]]


_EINSUM_SPECS = [
    # (spec, operand kinds, k, keep)
    ("ab,bc->ac", ("matrix", "matrix"), 1, None),
    ("ml,nk->nmlk", ("matrix", "matrix"), 1, None),  # an outer product: no shared letter
    ("s,sc->c", ("vector", "matrix"), 1, None),  # a rank-1 operand
    (",c->c", ("scalar", "vector"), -3, None),  # a rank-0 operand
    ("ik,jkm->ijm", ("matrix", "cube"), Fraction(-2, 3), None),
    ("sml,snk->nmlk", ("cube", "cube"), 1, None),
    ("ik,kjl->ijl", ("matrix", "cube"), 2, lambda i, j, l: j < l),
    ("kjm,ilk->ijlm", ("cube", "cube"), -1, lambda i, j, l, m: l <= m),
    ("ijk->kij", ("cube", None), Fraction(1, 3), None),  # one operand, indices permuted
    ("ijk->ijk", ("cube", None), -1, lambda i, j, k: j < k),
]


@pytest.mark.parametrize("index", range(len(_EINSUM_SPECS)))
def test_einsum_matches_loop(index):
    spec, kinds, k, keep = _EINSUM_SPECS[index]
    rng = random.Random(70 + index)
    rank = len(spec.split("->")[1])
    for n in (1, 2, 3):
        operands = {"scalar": [RatFunc.zero(), _poly(rng, n)], "vector": _vectors(rng, n),
                    "matrix": _matrices(rng, n),
                    "cube": [_single_entry(rng, n), _zero_tensor(n, 3), _dense_tensor(rng, n)],
                    None: [None]}
        for A, B in itertools.product(operands[kinds[0]], operands[kinds[1]]):
            got = _einsum(_Scatter(), spec, A, B, k, keep).tensor(n, rank)
            _same(got, reference_einsum(spec, A, B, k, keep, n))


def test_einsum_adds_into_one_scatter(monkeypatch):
    # two specs into one accumulator sum like the two loops; keep prunes before the product
    rng = random.Random(80)
    n = 3
    A, B = _dense_tensor(rng, n), [[_poly(rng, n) for _ in range(n)] for _ in range(n)]
    acc = _einsum(_Scatter(), "ijk,kl->ijl", A, B, keep=lambda i, j, l: i <= l)
    _einsum(acc, "ijk->ijk", A, k=-1, keep=lambda i, j, l: i <= l)
    first = reference_einsum("ijk,kl->ijl", A, B, 1, lambda i, j, l: i <= l, n)
    second = reference_einsum("ijk->ijk", A, None, -1, lambda i, j, l: i <= l, n)
    want = tuple(tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(p, q))
                 for p, q in zip(first, second))
    _same(acc.tensor(n, 3), want)
    multiplied = []
    mul = RatFunc.__mul__

    def counting(a, b):
        multiplied.append(1)
        return mul(a, b)

    rational_A = [[[x / (RatFunc.var(1) + 2) for x in row] for row in plane] for plane in A]
    monkeypatch.setattr(RatFunc, "__mul__", counting)
    _einsum(_Scatter(), "ijk,kl->ijl", rational_A, B, keep=lambda i, j, l: False)
    assert not multiplied

"""Each metric-derived tensor is formed once, from the variance it was given.

``ThirdOrderData`` keeps c as given and forms every other variance by one
contraction of a form already held; ``Connection.levi_civita`` keeps the
Christoffel symbols it forms on the way to Gamma^{ab}_k.  These tests keep the
raise/lower pair honest: c^{ij}_k lowered explicitly by g twice must give back
the c_{ijk} a constructor started from, the two constructors must agree on
every form, and the stored Christoffel symbols must equal -g_{js} Gamma^{si}_k
formed by hand.  A counter on ``geometry._contract`` pins how many
contractions each route makes.
"""

import random

import pytest

from hhokit import geometry
from hhokit.errors import DegenerateMetricError
from hhokit.geometry import (
    Connection,
    Metric,
    ThirdOrderData,
    third_order_hamiltonian_check,
    third_order_operator,
)
from hhokit.rational import RatFunc

from genutil import catalog_data, flat_first_order_instance, rand_poly


def _generic_metric(rng, n):
    """A nondegenerate symmetric lowered metric, each entry linear in u1..un."""
    while True:
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = RatFunc.from_poly(rand_poly(rng, n, 1, terms=3))
        metric = Metric(g, variance="lower")
        try:
            metric.check_nondegenerate()
        except DegenerateMetricError:
            continue
        return metric


def _sum(terms):
    return sum(terms, RatFunc.zero())


def _lowered_twice(d):
    """c_{ijk} = g_{iq} g_{jp} c^{pq}_k, the double sum written out."""
    g, c, r = d.metric.lower(), d.c_up, range(d.n)
    return tuple(tuple(tuple(
        _sum(g[i][q] * g[j][p] * c[p][q][k] for p in r for q in r)
        for k in r) for j in r) for i in r)


def _christoffel_by_hand(conn):
    """Gamma^i_{jk} = -g_{js} Gamma^{si}_k."""
    g, r = conn.metric.lower(), range(conn.n)
    return tuple(tuple(tuple(
        -_sum(g[j][s] * conn.gamma[s][i][k] for s in r)
        for k in r) for j in r) for i in r)


@pytest.mark.parametrize("seed", range(6))
def test_raised_c_lowers_back_to_the_metric_c(seed):
    d = ThirdOrderData.from_lower_metric(_generic_metric(random.Random(seed), 2).lower())
    assert _lowered_twice(d) == d.c_low()
    again = ThirdOrderData(d.metric, d.c_up)
    assert again.c_low() == d.c_low()
    assert again.c_mixed() == d.c_mixed()
    assert third_order_hamiltonian_check(again).residuals == \
        third_order_hamiltonian_check(d).residuals


@pytest.fixture
def contractions(monkeypatch):
    calls = []
    contract = geometry._contract

    def counted(*args):
        calls.append(args[2])
        return contract(*args)

    monkeypatch.setattr(geometry, "_contract", counted)
    return calls


def test_third_order_route_contracts_once_per_form(contractions):
    d = catalog_data("third-order-monge", "D")
    third_order_hamiltonian_check(d)
    assert len(contractions) == 1
    third_order_operator(d)
    assert len(contractions) == 2


def test_levi_civita_contracts_twice(contractions):
    conn = Connection.levi_civita(_generic_metric(random.Random(7), 2))
    conn.christoffel()
    assert len(contractions) == 2


def test_kept_christoffel_symbols_equal_the_lowered_upper_symbols():
    rng = random.Random(8)
    metrics = [_generic_metric(rng, 2) for _ in range(3)]
    metrics += [flat_first_order_instance(rng, n)[0] for n in (2, 3)]
    for metric in metrics:
        conn = Connection.levi_civita(metric)
        assert conn.christoffel() == _christoffel_by_hand(conn)
        assert Connection(metric, conn.gamma).christoffel() == conn.christoffel()

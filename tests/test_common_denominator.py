"""Classification over one common denominator.

``ratfunc_over(h, d, e)`` must give the canonical ``RatFunc(h, d**e)`` without
a gcd against d**e, also for reducible d with repeated factors.  ``nijenhuis``
and ``haantjes`` sum over the lcm of the entry denominators.  The Haantjes
tensor must vanish identically at n=2 for generic denominators.  At n=3 both
tensors must match, at rational points, a ``Fraction`` evaluation of the
literal sums (n^5 products for Haantjes) that uses no ``RatFunc`` reduction.
"""

import itertools
import random
import pytest
from genutil import nijenhuis, rand_fraction, rand_poly, rand_ratfunc

from hhokit.geometry import as_matrix, haantjes
from hhokit.rational import Poly, RatFunc, ratfunc_over

u1, u2, u3 = Poly.var(1), Poly.var(2), Poly.var(3)

# (d, its factors): a monomial, an irreducible two-variable one, and reducible
# ones with repeated factors
DENOMINATORS = [
    (u1 * u1 * u3, [u1, u3]),
    (u1 + u2 + 1, [u1 + u2 + 1]),
    (u1 * (u1 + 1), [u1, u1 + 1]),
    ((u1 + 1) ** 2 * (u2 - u3), [u1 + 1, u2 - u3]),
]


def _numerators(rng, d, factors, e):
    """h = 0, h a multiple of d**e, and h sharing random powers of d's factors
    (sometimes more than d**e holds), with formal parameters in h."""
    yield Poly.zero()
    yield rand_poly(rng, 3, 2, terms=3, allow_params=2) * d ** e
    for _ in range(5):
        h = rand_poly(rng, 3, 2, terms=3, allow_params=2)
        for f in factors:
            h = h * f ** rng.randint(0, e + 1)
        yield h


@pytest.mark.parametrize("index", range(len(DENOMINATORS)))
def test_ratfunc_over_is_the_canonical_fraction(index):
    d, factors = DENOMINATORS[index]
    rng = random.Random(100 + index)
    for e in (1, 3, 5):
        for h in _numerators(rng, d, factors, e):
            got, want = ratfunc_over(h, d, e), RatFunc(h, d ** e)
            assert got == want and str(got) == str(want)
    assert ratfunc_over(d ** 3 * 2, d, 3) == RatFunc.const(2)


def _linear_over_linear(rng):
    """A 2 x 2 matrix of linear-over-linear entries, four distinct denominators."""
    while True:
        V = [[rand_ratfunc(rng, 2, 1) for _ in range(2)] for _ in range(2)]
        if len({str(x.den) for row in V for x in row if not x.den.is_const}) == 4:
            return V


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_haantjes_vanishes_at_n2_for_generic_denominators(seed):
    H = haantjes(_linear_over_linear(random.Random(seed)))
    assert all(h.is_zero for plane in H for row in plane for h in row)


def _point_values(V, point):
    """V and dV[s][i][k] = d V^i_k / d u_{s+1} at a point, from the numerator
    and denominator polynomials alone."""
    n = len(V)
    vals, dvals = {}, {}
    for i, k in itertools.product(range(n), range(n)):
        num, den = V[i][k].num, V[i][k].den
        a, b = num.evaluate(point), den.evaluate(point)
        vals[i, k] = a / b
        for s in range(n):
            da, db = num.diff(s + 1).evaluate(point), den.diff(s + 1).evaluate(point)
            dvals[s, i, k] = (da * b - a * db) / (b * b)
    return vals, dvals


def _literal_tensors(n, v, dv):
    """The Nijenhuis sum and the n^5 Haantjes sum, in Fractions, from the point
    values of V and dV."""
    r = range(n)
    N = {(i, j, k): sum(v[s, j] * dv[s, i, k] - v[s, k] * dv[s, i, j]
                        - v[i, s] * (dv[j, s, k] - dv[k, s, j]) for s in r)
         for i, j, k in itertools.product(r, r, r)}
    H = {(i, j, k): sum(N[i, p, q] * v[p, j] * v[q, k] - N[p, j, q] * v[i, p] * v[q, k]
                        - N[p, q, k] * v[i, p] * v[q, j] + N[p, j, k] * v[i, q] * v[q, p]
                        for p in r for q in r)
         for i, j, k in itertools.product(r, r, r)}
    return N, H


@pytest.mark.parametrize("den", [u1 + u2 + 1, u1 * (u1 + 1)], ids=["u1+u2+1", "u1(u1+1)"])
def test_classifiers_match_the_literal_sums_pointwise(den):
    rng = random.Random(31)
    V = as_matrix([[RatFunc(rand_poly(rng, 3, 2, terms=2), den if rng.random() < 0.7 else 1)
                    for _ in range(3)] for _ in range(3)])
    N, H = nijenhuis(V), haantjes(V)
    nonzero = 0
    for _ in range(4):
        point = {v: rand_fraction(rng) for v in (1, 2, 3)}
        if den.evaluate(point) == 0:
            continue
        want_n, want_h = _literal_tensors(3, *_point_values(V, point))
        for (i, j, k), value in want_h.items():
            assert N[i][j][k].evaluate(point) == want_n[i, j, k]
            assert H[i][j][k].evaluate(point) == value
            nonzero += value != 0
    assert nonzero

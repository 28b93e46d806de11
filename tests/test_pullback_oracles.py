"""The first-order routes compared on real denominators.

``genutil.flat_first_order_instance`` pulls the flat metric back through a unit-triangular
map, so its Jacobian determinant is constant and every tensor stays polynomial.  Here the
map is ubar^1 = u^1 + a (u^2)^2, ubar^2 = u^2 + b u^1 u^2: not triangular, with Jacobian
determinant 1 + b u^1 - 2ab (u^2)^2, so the upper metric, the connection and a pulled-back
Hessian velocity all carry that determinant in their denominators.  The closed-form checks
(``tsarev_check``, ``expanded_first_order_conditions``) and the covering residual of
``first_order_operator`` must agree on every instance.
"""

import random

from hhokit.covering import EvolutionSystem, bivector_residual, build_cotangent, \
    operator_to_bivector
from hhokit.geometry import (
    Connection,
    Metric,
    as_matrix,
    expanded_first_order_conditions,
    first_order_hamiltonian_check,
    first_order_operator,
    inverse,
    tsarev_check,
)
from hhokit.rational import RatFunc

from genutil import hessian_velocity, rand_fraction, random_velocity


def pullback_instance(rng):
    """(metric, connection, J, J^-1, ubar): the identity lowered metric of the ubar
    coordinates, g_ij = J^s_i J^s_j, with its Levi-Civita connection."""
    a, b = rand_fraction(rng, 1, 3), rand_fraction(rng, 1, 3)
    u1, u2 = RatFunc.var(1), RatFunc.var(2)
    ubar = (u1 + u2 * u2 * a, u2 + u1 * u2 * b)
    J = as_matrix([[x.diff(j + 1) for j in range(2)] for x in ubar])
    g_low = [[J[0][i] * J[0][j] + J[1][i] * J[1][j] for j in range(2)] for i in range(2)]
    metric = Metric(g_low, variance="lower")
    return metric, Connection.levi_civita(metric), J, inverse(J), ubar


def test_closed_form_and_covering_agree_on_real_denominators():
    verdicts = []
    rational_velocities = 0
    for seed in (1, 2, 3, 4):
        rng = random.Random(seed)
        metric, conn, J, Jinv, ubar = pullback_instance(rng)
        assert not metric.upper()[0][0].is_poly
        assert first_order_hamiltonian_check(metric, conn).passed
        by_construction = hessian_velocity(rng, 2, J, Jinv, ubar, degree=2)
        assert any(not x.is_zero for row in by_construction for x in row), seed
        for V in (by_construction, random_velocity(rng, 2)):
            rational_velocities += any(not x.is_poly for row in V for x in row)
            tsarev = tsarev_check(metric, conn, V).passed
            expanded = expanded_first_order_conditions(metric, conn, V).passed
            ctx = build_cotangent(EvolutionSystem.hydrodynamic(V))
            A = operator_to_bivector(first_order_operator(metric, conn))
            covering = all(c.is_zero for c in bivector_residual(ctx, A))
            assert tsarev == expanded == covering, (seed, tsarev, expanded, covering)
            verdicts.append(tsarev)
    assert verdicts.count(True) >= 3 and verdicts.count(False) >= 3
    assert rational_velocities >= 2

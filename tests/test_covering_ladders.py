"""The p_t rules and every r_t rule read one ladder D_x^0..sigma(a p_i) per
band a d^sigma of l_F; these tests hold both against independent routes."""

import random

import pytest

from hhokit.catalog import examples_catalog
from hhokit.covering import (
    EvolutionSystem,
    build_cotangent,
    operator_to_bivector,
)
from hhokit.geometry import potentialize
from hhokit.grammar import parse
from hhokit.problem import Problem

from genutil import formal_adjoint, neg, rand_diffpoly

KDV5 = "u1_x5 + 5/3*u1*u1_x3 + 10/3*u1_x*u1_xx + 5/6*u1^2*u1_x"


def _systems() -> dict:
    systems = {entry.name: Problem(entry.problem).system for entry in examples_catalog()}
    systems["n4-second-order/potential"] = potentialize(systems["n4-second-order"])
    rng = random.Random(1604)
    for k in range(12):
        n = rng.randint(1, 2)
        systems[f"random-{k}"] = EvolutionSystem.general(
            [rand_diffpoly(rng, nvars=n, max_order=rng.randint(1, 5), odd=False)
             for _ in range(n)])
    return systems


SYSTEMS = _systems()


def test_random_systems_reach_order_five():
    assert max(f.max_jet_order() for name, system in SYSTEMS.items()
               if name.startswith("random") for f in system.fluxes) == 5


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_pt_rules_are_minus_the_adjoint_on_p(name):
    ctx = build_cotangent(SYSTEMS[name])
    expected = operator_to_bivector(neg(formal_adjoint(ctx.linearization)))
    assert ctx.pt_rules == expected.components


def test_kdv5_slots_share_the_band_ladders():
    """D_x r_t = D_t r_x for two symmetries registered on one KdV5 covering:
    bands up to sigma = 5, and a second registration reading the same ladders."""
    ctx = build_cotangent(EvolutionSystem.general([parse(KDV5)]))
    for phi in ("u1_x", "u1_x3 + u1*u1_x"):
        slot = ctx.slot(ctx.register_symmetry((parse(phi),)))
        assert ctx.total_x(slot.rt_rule) == ctx.total_t(slot.rx_rule), phi
    assert max(k for row in ctx.linearization.entries for entry in row for _, k in entry) == 5

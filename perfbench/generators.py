"""Seeded, parameter-free instance generators for the verify-covering workload.

Every generator takes a ``random.Random`` and returns plain data (matrices of
``RatFunc``, flux lists, expression strings).  Engine objects that carry
caches (``Metric``, ``Connection``, ``ThirdOrderData``, covering contexts)
are built inside the timed task, so every pass starts cold.

The flat and constant-metric constructions follow the same mathematics as
the repository's test helpers but are kept separate from them: the
benchmark does not import from ``tests/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from hhokit.covering import EvolutionSystem
from hhokit.geometry import Connection, Metric, determinant, inverse
from hhokit.grammar import parse
from hhokit.rational import Poly, RatFunc


def rand_fraction(rng, lo=-4, hi=4, den_max=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den_max))


NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)


def rand_poly(rng, nvars, degree, terms, shape) -> Poly:
    """Sum of ``terms`` monomials of degree <= ``degree`` in u1..u{nvars},
    with nonzero coefficients drawn from ``rng``.

    The monomials are drawn from a generator seeded with the string
    ``shape``, not from ``rng``: the seed changes the coefficients but not
    the form of the polynomial, so every seed asks for about the same work.
    """
    form = random.Random(shape)
    p = Poly.zero()
    for _ in range(terms):
        m = Poly.const(Fraction(rng.choice(NONZERO), rng.randint(1, 3)))
        for _ in range(form.randint(0, degree)):
            m = m * Poly.var(form.randint(1, nvars))
        p = p + m
    return p


def _zero_matrix(n):
    return [[RatFunc.zero() for _ in range(n)] for _ in range(n)]


def flat_pullback(rng, n):
    """Flat contravariant metric pulled back from the identity.

    The coordinate change ubar^i = d_i (u^i + q_i(u^n)), q_n = 0, has a
    triangular Jacobian J with constant determinant, so g = J^{-1} J^{-T}
    stays polynomial.  Returns (g_up, gamma_up, J, Jinv, ubar).
    """
    diag = [Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 2])) for _ in range(n)]
    qs = [Poly.var(n) * rand_fraction(rng) + Poly.var(n, 2) * rand_fraction(rng)
          for _ in range(n - 1)] + [Poly.zero()]
    ubar = [RatFunc.from_poly((Poly.var(i + 1) + qs[i]) * diag[i]) for i in range(n)]
    J = [[ubar[i].diff(j + 1) for j in range(n)] for i in range(n)]
    Jinv = _zero_matrix(n)
    for i in range(n):
        Jinv[i][i] = RatFunc.const(1 / diag[i])
    for i in range(n - 1):
        Jinv[i][n - 1] = -RatFunc.from_poly(qs[i].diff(n)) / diag[n - 1]
    g_up = [[sum((Jinv[i][k] * Jinv[j][k] for k in range(n)), RatFunc.zero())
             for j in range(n)] for i in range(n)]
    gamma = Connection.levi_civita(Metric(g_up, variance="upper")).gamma
    return g_up, gamma, J, Jinv, ubar


def hessian_velocity(rng, n, J, Jinv, ubar, degree=3):
    """A Hessian in the flat coordinates pulled back as a (1,1)-tensor:
    compatible with the flat operator by construction."""
    h = rand_poly(rng, n, degree, 5, f"hessian-n{n}")
    hess = [[h.diff(i + 1).diff(j + 1) for j in range(n)] for i in range(n)]

    def compose(p):
        total = RatFunc.zero()
        for m, c in p.terms.items():
            term = RatFunc.const(c)
            for vid, e in m:
                term = term * ubar[vid - 1] ** e
            total = total + term
        return total

    Hbar = [[compose(hess[i][j]) for j in range(n)] for i in range(n)]
    return [[sum((Jinv[i][a] * Hbar[a][b] * J[b][j] for a in range(n) for b in range(n)),
                 RatFunc.zero()) for j in range(n)] for i in range(n)]


def random_velocity(rng, n, degree=2):
    return [[RatFunc.from_poly(rand_poly(rng, n, degree, 2, f"velocity-n{n}-{i}{j}"))
             for j in range(n)] for i in range(n)]


def constant_lower_metric(rng, n):
    """Constant symmetric nondegenerate lowered metric (its c symbols vanish)."""
    while True:
        g = _zero_matrix(n)
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = RatFunc.const(rng.randint(-3, 3))
        if not determinant(g).is_zero:
            return g


def symmetric_affine_fluxes(rng, n, g_low):
    """Affine fluxes with Jacobian M = g^{-1} S, S symmetric: g M is symmetric,
    so they are compatible with the constant third-order operator."""
    g_up = inverse(g_low)
    S = _zero_matrix(n)
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = RatFunc.const(rand_fraction(rng))
    flux = []
    for i in range(n):
        acc = RatFunc.const(rand_fraction(rng))
        for j in range(n):
            m_ij = sum((g_up[i][k] * S[k][j] for k in range(n)), RatFunc.zero())
            acc = acc + m_ij * RatFunc.var(j + 1)
        flux.append(acc)
    return flux


def random_fluxes(rng, n, degree=2):
    return [RatFunc.from_poly(rand_poly(rng, n, degree, 3, f"flux-n{n}-{i}"))
            for i in range(n)]


def n1_tail(rng):
    """u_t = v u_x with the operator g d_x + g'/2 u_x + w u_x D^{-1} w u_x.

    In n = 1 the flat metric-compatibility condition is gamma = g'/2, and any
    characteristic w(u) u_x is a symmetry, so the residual vanishes for every
    draw.  Returns (v, g, w) with g nonzero.
    """
    v = RatFunc.from_poly(rand_poly(rng, 1, 2, 3, "tail-v"))
    w = RatFunc.from_poly(rand_poly(rng, 1, 2, 3, "tail-w"))
    g = RatFunc.zero()
    while g.is_zero:
        g = RatFunc.from_poly(rand_poly(rng, 1, 2, 3, "tail-g")) + RatFunc.const(rng.randint(1, 4))
    return v, g, w


# The bi-Hamiltonian KdV hierarchy: both flows admit both operators.
KDV_FLOWS = (
    ("kdv", "u1_x3 + u1*u1_x"),
    ("kdv5", "u1_x5 + 5/3*u1*u1_x3 + 10/3*u1_x*u1_xx + 5/6*u1^2*u1_x"),
)
KDV_OPERATORS = (
    ("A1", "p1_x"),
    ("A2", "p1_x3 + 2/3*u1*p1_x + 1/3*u1_x*p1"),
)


@dataclass(frozen=True)
class Instance:
    """One verify-covering input.

    ``family`` selects the routes (see ``workloads.decide``); ``expect`` is
    True for a by-construction pass and None where only agreement between
    the covering and the closed-form route is pinned.  ``size`` is the total
    term count of the system's fluxes.
    """

    ident: str
    family: str
    n: int
    expect: bool | None
    size: int
    system: EvolutionSystem
    data: tuple


def _size(system):
    return sum(len(f.terms) for f in system.fluxes)


def _instance(ident, family, expect, system, data):
    return Instance(ident, family, system.n, expect, _size(system), system, data)


# Instances per (family, n, kind) in one pass.  The mix is fixed; the seed
# changes only the coefficients, so every seed asks for the same kind of work.
FIRST_ORDER_DIMS = (2, 3, 4)
THIRD_ORDER_DIMS = (2, 3, 4)


def verify_instances(rng, per_cell=5, n1_tails=6):
    out = []
    for n in FIRST_ORDER_DIMS:
        for k in range(per_cell):
            g_up, gamma, J, Jinv, ubar = flat_pullback(rng, n)
            V = hessian_velocity(rng, n, J, Jinv, ubar)
            out.append(_instance(f"first-hessian-n{n}-{k}", "first-order", True,
                                 EvolutionSystem.hydrodynamic(V), (g_up, gamma, V)))
            g_up, gamma, _, _, _ = flat_pullback(rng, n)
            V = random_velocity(rng, n)
            out.append(_instance(f"first-random-n{n}-{k}", "first-order", None,
                                 EvolutionSystem.hydrodynamic(V), (g_up, gamma, V)))
    for n in THIRD_ORDER_DIMS:
        for k in range(per_cell):
            g_low = constant_lower_metric(rng, n)
            flux = symmetric_affine_fluxes(rng, n, g_low)
            out.append(_instance(f"third-affine-n{n}-{k}", "third-order", True,
                                 EvolutionSystem.conservative(flux), (g_low, flux)))
            g_low = constant_lower_metric(rng, n)
            flux = random_fluxes(rng, n)
            out.append(_instance(f"third-random-n{n}-{k}", "third-order", None,
                                 EvolutionSystem.conservative(flux), (g_low, flux)))
    for k in range(n1_tails):
        v, g, w = n1_tail(rng)
        out.append(_instance(f"n1-tail-{k}", "n1-tail", True,
                             EvolutionSystem.hydrodynamic([[v]]), (g, w)))
    for flow, flux in KDV_FLOWS:
        system = EvolutionSystem.general([parse(flux)])
        for name, text in KDV_OPERATORS:
            out.append(_instance(f"{flow}-{name}", "bivector", True, system,
                                 (parse(text),)))
    return out

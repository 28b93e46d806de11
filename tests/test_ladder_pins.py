"""Every rung of the benchmark's search ladder keeps its exact solution.

The benchmark pins only each rung's dimension.  Here the whole solution of
``find_bivectors`` -- its pivots with their coefficients, its free parameters
and its consistency flag -- is written as canonical text and pinned by sha256,
so a change to the order in which terms accumulate cannot move an answer
unseen.  The text prints every coefficient by ``str`` (an ``int`` and an
integral ``Fraction`` print alike), never a pickle, which differs across
Python versions.
"""

import hashlib

import pytest

from hhokit.covering import EvolutionSystem
from hhokit.grammar import parse, parse_scalar
from hhokit.solver import find_bivectors, make_operator_ansatz

KDV = "u1_x3 + u1*u1_x"
KDV5 = "u1_x5 + 5/3*u1*u1_x3 + 10/3*u1_x*u1_xx + 5/6*u1^2*u1_x"
CYCLIC_V = (("u1", "u2", "u3"), ("u2", "u3", "u1"), ("u3", "u1", "u2"))


def _cyclic(perm):
    """The cyclic n=3 system with field i renamed u{perm[i]}: its labelling class is perm[0]."""
    n = len(perm)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            text = CYCLIC_V[i][j]
            for k in range(n):
                text = text.replace(f"u{k + 1}", f"v{perm[k]}")
            rows[perm[i] - 1][perm[j] - 1] = parse_scalar(text.replace("v", "u"))
    return EvolutionSystem.hydrodynamic(rows)


# rung -> (system, n, order, degree, sha256 of the canonical solution text)
RUNGS = {
    "kdv-o5": (lambda: EvolutionSystem.general([parse(KDV)]), 1, 5, 2,
               "282457bd143f9117f55bc7335fced1e79c88d671d7051beceaa680d2781b8f94"),
    "kdv5-o7": (lambda: EvolutionSystem.general([parse(KDV5)]), 1, 7, 2,
                "20c3ae4d9be031de6313e3ea85d76714e813638f7e03d191aef7a9763961c684"),
    "cyclic-o1-L1": (lambda: _cyclic((1, 2, 3)), 3, 1, 1,
                     "a8fa352a9dc050fa62850bcd6f093225e59b49ac0736d9fc8bd4f2b657e63d29"),
    "cyclic-o1-L2": (lambda: _cyclic((2, 1, 3)), 3, 1, 1,
                     "a8fa352a9dc050fa62850bcd6f093225e59b49ac0736d9fc8bd4f2b657e63d29"),
    "cyclic-o1-L3": (lambda: _cyclic((3, 1, 2)), 3, 1, 1,
                     "a8fa352a9dc050fa62850bcd6f093225e59b49ac0736d9fc8bd4f2b657e63d29"),
    "cyclic-o2-L1": (lambda: _cyclic((1, 2, 3)), 3, 2, 1,
                     "3be681c6613cdba4ed6687109419d20303974407cbef2bb6619106f36215fcb6"),
    "cyclic-o3-L1": (lambda: _cyclic((1, 2, 3)), 3, 3, 1,
                     "66877fee3b3d777705375214706c179e945e6ed176eda478677d5113dc8e0902"),
}


def solution_text(sol) -> str:
    """(pivots, free, inconsistent) as text: pivots and their coefficients by parameter id."""
    lines = [f"inconsistent {sol.inconsistent}", "free " + " ".join(map(str, sol.free))]
    for pid in sorted(sol.pivots):
        coeffs, const = sol.pivots[pid]
        terms = " ".join(f"{f}:{coeffs[f]}" for f in sorted(coeffs))
        lines.append(f"pivot {pid} = {const} | {terms}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rung", sorted(RUNGS))
def test_ladder_rung_solution_is_pinned(rung):
    system, n, order, degree, digest = RUNGS[rung]
    family = find_bivectors(system(), make_operator_ansatz(n, order, degree))
    text = solution_text(family.substitution)
    assert hashlib.sha256(text.encode()).hexdigest() == digest

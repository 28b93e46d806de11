"""linear_solve against a reference elimination, plus exact certificates.

``reference_solve`` is the solver as it was before rows were sorted: the
same Gauss-Jordan elimination, taking the scalar rows in equation order.
Both must give the same ``pivots``, ``free`` and ``inconsistent``, because
the reduced row echelon form of a row space is unique for a fixed column
order.  Every consistent solution is also certified by substituting it
into every scalar row.
"""

import random
from fractions import Fraction

import pytest

from hhokit.covering import (
    BivectorForm,
    EvolutionSystem,
    bivector_residual,
    build_cotangent,
    extract_conditions,
)
from hhokit.grammar import parse, parse_scalar
from hhokit.linsolve import linear_solve
from hhokit.rational import Poly, RatFunc
from hhokit.solver import make_operator_ansatz

from genutil import rand_poly


def _pkey(pid):
    return -pid


def scalar_rows(eqs):
    """Each equation's numerator split per u-monomial into (coeffs, const)."""
    out = []
    for eq in eqs:
        rows = {}
        for m, c in eq.num.terms.items():
            pids = [v for v, _ in m if v < 0]
            rest = tuple((v, e) for v, e in m if v > 0)
            coeffs, const = rows.setdefault(rest, ({}, [Fraction(0)]))
            if pids:
                coeffs[pids[0]] = c
            else:
                const[0] = c
        out.extend((coeffs, const[0]) for coeffs, const in rows.values())
    return out


def reference_solve(eqs):
    """(pivots, free, inconsistent) by eager Gauss-Jordan in equation order."""
    pending = scalar_rows(eqs)
    params = {p for coeffs, _ in pending for p in coeffs}
    pivot_rows = {}
    inconsistent = False
    for coeffs, const in pending:
        coeffs = dict(coeffs)
        for pid in sorted(coeffs, key=_pkey):
            if pid not in pivot_rows or pid not in coeffs:
                continue
            factor = coeffs.pop(pid)
            prow, pconst = pivot_rows[pid]
            for q, a in prow.items():
                if q == pid:
                    continue
                s = coeffs.get(q, Fraction(0)) - factor * a
                if s:
                    coeffs[q] = s
                else:
                    coeffs.pop(q, None)
            const = const - factor * pconst
        if not coeffs:
            if const:
                inconsistent = True
            continue
        lead = min(coeffs, key=_pkey)
        inv = 1 / coeffs[lead]
        row = {q: a * inv for q, a in coeffs.items()}
        const = const * inv
        for pid, (prow, pconst) in list(pivot_rows.items()):
            if lead in prow:
                f = prow.pop(lead)
                for q, a in row.items():
                    if q == lead:
                        continue
                    s = prow.get(q, Fraction(0)) - f * a
                    if s:
                        prow[q] = s
                    else:
                        prow.pop(q, None)
                pivot_rows[pid] = (prow, pconst - f * const)
        pivot_rows[lead] = (row, const)
    if inconsistent:
        return {}, [], True
    free = sorted((p for p in params if p not in pivot_rows), key=_pkey)
    pivots = {pid: ({q: -a for q, a in row.items() if q != pid}, -const)
              for pid, (row, const) in pivot_rows.items()}
    return pivots, free, False


def certify(eqs, sol):
    """Every scalar row vanishes identically in the free parameters."""
    for coeffs, const in scalar_rows(eqs):
        total = {None: const}
        for p, a in coeffs.items():
            if p in sol.pivots:
                pcoeffs, pconst = sol.pivots[p]
                total[None] += a * pconst
                for f, b in pcoeffs.items():
                    total[f] = total.get(f, 0) + a * b
            else:
                assert p in sol.free
                total[p] = total.get(p, 0) + a
        assert not any(total.values()), (coeffs, const)


def check_against_reference(eqs):
    eqs = [eq for eq in eqs if not eq.is_zero]
    sol = linear_solve(eqs)
    pivots, free, inconsistent = reference_solve(eqs)
    assert sol.inconsistent == inconsistent
    assert sol.free == free
    assert sol.pivots == pivots
    if not inconsistent:
        certify(eqs, sol)
    return sol


def c(k):
    return RatFunc.var(-k)


def random_system(rng):
    nparams = rng.randint(2, 8)
    eqs = []
    for _ in range(rng.randint(1, 6)):
        acc = RatFunc.zero()
        if rng.random() < 0.3:  # a parameter-free part: the system may be inconsistent
            acc = RatFunc.from_poly(rand_poly(rng, 2, 1, terms=2))
        for k in range(1, nparams + 1):
            if rng.random() < 0.5:
                acc = acc + c(k) * RatFunc.from_poly(rand_poly(rng, 2, 2, terms=2))
        if rng.random() < 0.2:
            acc = acc / RatFunc.from_poly(Poly.var(1) + 1)
        eqs.append(acc)
    # dependent, duplicate and scaled rows
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(eqs), rng.choice(eqs)
        choice = rng.randrange(3)
        if choice == 0:
            eqs.append(a)
        elif choice == 1:
            eqs.append(a * Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
        else:
            eqs.append(a + b * Fraction(rng.randint(-2, 2)))
    rng.shuffle(eqs)
    return eqs


def test_random_systems_match_reference():
    rng = random.Random(3)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        sol = check_against_reference(random_system(rng))
        outcomes[sol.inconsistent] += 1
    # the generator reaches both kinds of system
    assert outcomes[True] >= 20 and outcomes[False] >= 20


def test_inconsistent_duplicate_rows_match_reference():
    eqs = [c(1) + c(2), c(1) + c(2), c(1) + c(2) - 1, c(3) * RatFunc.var(1)]
    sol = check_against_reference(eqs)
    assert sol.inconsistent


def _residual_equations(system, n, order, degree):
    ansatz = make_operator_ansatz(n, order, degree)
    ctx = build_cotangent(system)
    return extract_conditions(bivector_residual(ctx, BivectorForm(ansatz.components)))


def test_kdv_order5_equations_match_reference():
    system = EvolutionSystem.general([parse("u1_x3 + u1*u1_x")])
    check_against_reference(_residual_equations(system, 1, 5, 2))


_CYCLIC_V = (("u1", "u2", "u3"), ("u2", "u3", "u1"), ("u3", "u1", "u2"))


@pytest.mark.parametrize("perm", [(1, 2, 3), (2, 1, 3), (3, 1, 2)])
def test_cyclic_order1_equations_match_reference(perm):
    """The cyclic n=3 system with field i renamed u{perm[i]}: one labelling
    per image of u1 (the other two are a symmetry of the system)."""
    names = {f"u{i + 1}": f"u{perm[i]}" for i in range(3)}
    V = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            V[perm[i] - 1][perm[j] - 1] = parse_scalar(names[_CYCLIC_V[i][j]])
    system = EvolutionSystem.hydrodynamic(V)
    sol = check_against_reference(_residual_equations(system, 3, 1, 1))
    assert not sol.inconsistent

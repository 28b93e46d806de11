"""linear_solve against a reference elimination, plus exact certificates.

``reference_solve`` is the solver as it was before rows were sorted: the
same Gauss-Jordan elimination, taking the scalar rows in equation order.
Both must give the same ``pivots``, ``free`` and ``inconsistent``, because
the reduced row echelon form of a row space is unique for a fixed column
order.  Every consistent solution is also certified by substituting it
into every scalar row.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from hhokit.covering import (
    BivectorForm,
    EvolutionSystem,
    bivector_residual,
    build_cotangent,
    extract_conditions,
)
from hhokit.errors import NonlinearAnsatzError
from hhokit.grammar import parse, parse_scalar
from hhokit.linsolve import _eliminate, _scalar_rows, linear_solve
from hhokit.rational import Poly, RatFunc, affine_rows
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
        inv = Fraction(1) / coeffs[lead]
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


# -- independent blocks and primitive integer rows --------------------------------


def random_block(rng, first, nparams, scale=Fraction(1)):
    """Equations over c{first}..c{first + nparams - 1} only."""
    eqs = []
    for _ in range(rng.randint(2, 5)):
        acc = RatFunc.zero()
        if rng.random() < 0.03:  # rarely: a block of many may turn inconsistent
            acc = RatFunc.from_poly(rand_poly(rng, 2, 1, terms=2))
        for k in range(first, first + nparams):
            if rng.random() < 0.6:
                acc = acc + c(k) * RatFunc.from_poly(rand_poly(rng, 2, 2, terms=2) * scale)
        if not acc.is_zero:
            eqs.append(acc)
    if len(eqs) > 1:
        eqs.append(eqs[0] + eqs[1] * Fraction(rng.randint(-2, 2)))
    return eqs


def block_system(rng, nblocks, scale_of=lambda b: Fraction(1)):
    eqs, first = [], 1
    for b in range(nblocks):
        nparams = rng.randint(2, 6)
        eqs.extend(random_block(rng, first, nparams, scale_of(b)))
        first += nparams
    rng.shuffle(eqs)
    return eqs


def test_block_systems_match_reference():
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for _ in range(80):
        sol = check_against_reference(block_system(rng, rng.randint(4, 7)))
        outcomes[sol.inconsistent] += 1
    assert outcomes[True] >= 5 and outcomes[False] >= 5


def test_one_inconsistent_block_makes_the_system_inconsistent():
    rng = random.Random(12)
    # c90 + c91 = 0 at the monomial 1 and c90 + c91 = 1 at u2
    bad = [c(90) + c(91), (c(90) + c(91) - 1) * RatFunc.var(2)]
    assert check_against_reference(bad).inconsistent
    checked = 0
    while checked < 20:
        eqs = block_system(rng, 4)
        if check_against_reference(eqs).inconsistent:
            continue
        checked += 1
        mixed = eqs + bad
        rng.shuffle(mixed)
        assert check_against_reference(mixed).inconsistent


def stored_pivot_rows(eqs):
    """linear_solve's result and its pivot rows as stored when it returns (read from its frame)."""
    stored = []

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is linear_solve.__code__:
            stored.append(frame.f_locals["pivot_rows"])

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        sol = linear_solve(eqs)
    finally:
        sys.setprofile(outer)
    return sol, stored[-1]


def test_large_rational_block_matches_reference():
    rng = random.Random(13)
    big = (Fraction(1, 2 ** 40), Fraction(3 ** 25, 7), Fraction(5, 3 ** 25), Fraction(2 ** 40, 11))
    for _ in range(30):
        eqs = block_system(rng, 4, lambda b: big[b] if b < 3 else rng.choice(big))
        check_against_reference(eqs)
    # each parameter's coefficients scaled by its own 2^a 3^b: pivot entries far from +-1, so
    # a row grows while the pivots leave it; every stored pivot row is still primitive
    for _ in range(30):
        eqs = []
        for _ in range(rng.randint(4, 9)):
            eq = RatFunc.from_poly(rand_poly(rng, 2, 1, terms=2)) if rng.random() < 0.2 else 0
            for k in rng.sample(range(1, 9), rng.randint(2, 6)):
                scale = 2 ** rng.randint(0, 30) * 3 ** rng.randint(0, 20)
                eq = eq + c(k) * RatFunc.from_poly(rand_poly(rng, 2, 2, terms=2) * scale)
            eqs.append(eq)
        eqs.append(eqs[0] * 6 + eqs[1] * Fraction(rng.randint(-9, 9), 4))
        rng.shuffle(eqs)
        check_against_reference(eqs)
        sol, rows = stored_pivot_rows([eq for eq in eqs if not eq.is_zero])
        assert sol.inconsistent or set(rows) == set(sol.pivots)
        for row in rows.values():
            assert math.gcd(*row.values()) == 1


def test_zero_equations_are_ignored():
    rng = random.Random(14)
    for _ in range(20):
        eqs = [eq for eq in block_system(rng, 4) if not eq.is_zero]
        sol = linear_solve(eqs)
        padded = linear_solve([RatFunc.zero()] + eqs
                              + [RatFunc.from_poly(Poly.zero()), RatFunc.zero()])
        assert (padded.pivots, padded.free, padded.inconsistent) == \
            (sol.pivots, sol.free, sol.inconsistent)
    # 0 = 0 after elimination: a consistent parameter-free part
    sol = check_against_reference([c(1) - 1, (c(1) - 1) * RatFunc.var(1), c(2) * RatFunc.var(2)])
    assert sol.pivots == {-1: ({}, 1), -2: ({}, 0)} and sol.free == []


def _normalised(row):
    lead = row[min(row, key=lambda q: (q == 0, -q))]
    return sorted((q, Fraction(a) / lead) for q, a in row.items())


def test_scalar_rows_are_primitive_integer_rows():
    rng = random.Random(15)
    big = (Fraction(1, 2 ** 40), Fraction(3 ** 25))
    eqs = _residual_equations(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")]), 1, 3, 1)
    for _ in range(20):
        eqs.extend(block_system(rng, 4, lambda b: big[b % 2]))
    for eq in eqs:
        if eq.is_zero:
            continue
        params = set()
        rows = _scalar_rows(eq, params)
        ref = scalar_rows([eq])
        assert len(rows) == len(ref)
        assert params == {p for coeffs, _ in ref for p in coeffs}
        for row in rows:
            assert row and all(type(a) is int and a for a in row.values())
            assert math.gcd(*row.values()) == 1
        expected = [{**coeffs, **({0: const} if const else {})} for coeffs, const in ref]
        assert sorted(map(_normalised, rows)) == sorted(map(_normalised, expected))


def test_block_systems_equal_their_blocks_solved_apart():
    """Solved whole, a system of disjoint blocks gives the union of its
    blocks' solutions, and is inconsistent iff some block is."""
    rng = random.Random(16)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        blocks, first = [], 1
        for _ in range(rng.randint(3, 6)):
            nparams = rng.randint(2, 6)
            blocks.append(random_block(rng, first, nparams))
            first += nparams
        whole = [eq for block in blocks for eq in block]
        rng.shuffle(whole)
        sol = linear_solve(whole)
        parts = [linear_solve(block) for block in blocks]
        assert sol.inconsistent == any(part.inconsistent for part in parts)
        outcomes[sol.inconsistent] += 1
        if not sol.inconsistent:
            # the blocks hold c1, c2, ... in turn, so their lists concatenate in order
            assert list(sol.pivots.items()) == [
                item for part in parts for item in part.pivots.items()]
            assert sol.free == [f for part in parts for f in part.free]
    assert outcomes[True] >= 5 and outcomes[False] >= 20


def test_one_entry_pivot_chains_match_reference():
    """Rows of one entry force their parameter to zero and drop it from the
    rows that follow, which can leave further one-entry rows behind."""
    u1, u2, u3 = RatFunc.var(1), RatFunc.var(2), RatFunc.var(3)
    chain = [
        c(1) * 2,                                  # c1 = 0
        (c(1) + c(2) * 2) * u1,                    # then c2 = 0
        (c(1) * 3 - c(2) + c(3) * 4 + c(4) * 6) * u2,  # then 2 c3 + 3 c4 = 0
        (c(1) + c(4) - 5) * u3,                    # c4 = 5
        c(5) - c(6),                               # a pivot row c5 - c6 ...
        (c(5) + c(6)) * u1,                        # ... that c6 = 0 cuts to one entry
        (c(5) + c(7) - c(6) * 3) * u2,
    ]
    sol = check_against_reference(chain)
    assert sol.free == []
    assert sol.pivots[-3] == ({}, Fraction(-15, 2)) and sol.pivots[-4] == ({}, 5)
    assert all(sol.pivots[-k] == ({}, 0) for k in (1, 2, 5, 6, 7))
    assert check_against_reference(chain + [(c(1) - 3) * u3 * u3]).inconsistent
    rng = random.Random(19)
    for _ in range(60):
        eqs = [eq * RatFunc.var(rng.randint(1, 3)) for eq in rng.sample(chain, rng.randint(2, 7))]
        eqs.extend(c(rng.randint(1, 9)) * rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        eqs.extend(random_block(rng, 1, 9))
        if rng.random() < 0.3:
            eqs.append((c(rng.randint(1, 9)) - rng.randint(1, 3)) * u1 * u2)
        rng.shuffle(eqs)
        check_against_reference(eqs)


def test_pivot_coefficients_mention_only_free_parameters():
    rng = random.Random(18)
    systems = [_residual_equations(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")]), 1, 5, 2)]
    systems += [random_system(rng) for _ in range(100)]
    systems += [block_system(rng, rng.randint(2, 5)) for _ in range(40)]
    checked = 0
    for eqs in systems:
        sol = linear_solve(eqs)
        if sol.inconsistent:
            continue
        checked += 1
        free = set(sol.free)
        assert free.isdisjoint(sol.pivots)
        for coeffs, _ in sol.pivots.values():
            assert set(coeffs) <= free and all(coeffs.values())
    assert checked >= 60


def test_eliminate_gives_a_primitive_multiple_of_the_exact_row():
    rng = random.Random(17)
    for _ in range(300):
        prow = {q: rng.randint(-30, 30) * 2 ** rng.randint(0, 40) for q in (0, -1, -2, -3)}
        row = {q: rng.randint(-30, 30) * 3 ** rng.randint(0, 25) for q in (0, -1, -3, -4)}
        prow[-1], row[-1] = prow[-1] or 6, row[-1] or 10
        prow = {q: a for q, a in prow.items() if a}
        row = {q: a for q, a in row.items() if a}
        exact = {q: Fraction(a) for q, a in row.items()}
        factor = Fraction(row[-1], prow[-1])
        for q, a in prow.items():
            exact[q] = exact.get(q, 0) - factor * a
        exact = {q: a for q, a in exact.items() if a}
        _eliminate(row, -1, prow)
        assert set(row) == set(exact) and -1 not in row
        if row:
            assert math.gcd(*row.values()) == 1
            ratio = {Fraction(row[q]) / exact[q] for q in row}
            assert len(ratio) == 1


@pytest.mark.parametrize("eq", [c(1) * c(1) + c(2), c(1) * c(2) * RatFunc.var(1) + c(3)],
                         ids=["square", "product"])
def test_nonlinear_parameter_monomials_are_rejected(eq):
    with pytest.raises(NonlinearAnsatzError) as expected:
        affine_rows(eq.num.terms)
    with pytest.raises(NonlinearAnsatzError) as raised:
        _scalar_rows(eq, set())
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("nonlinear ansatz: parameter monomial ")


def test_cyclic_order4_rung_is_certified():
    """The largest cyclic rung under the size cap: 4968 parameters, solved
    in one elimination pass and certified by substitution."""
    V = [[parse_scalar(x) for x in row] for row in _CYCLIC_V]
    eqs = _residual_equations(EvolutionSystem.hydrodynamic(V), 3, 4, 1)
    sol = linear_solve(eqs)
    assert not sol.inconsistent
    assert len(sol.pivots) + len(sol.free) == 4968
    assert len(sol.pivots) == 4964 and sol.dimension == 4
    certify([eq for eq in eqs if not eq.is_zero], sol)

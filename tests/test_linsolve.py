"""Exact parameter-affine linear solving."""

import random
from fractions import Fraction

import pytest

from hhokit.errors import NonlinearAnsatzError
from hhokit.linsolve import linear_solve, substitute_solution
from hhokit.rational import RatFunc

from genutil import rand_poly, subs_params, value_of


def c(k):
    return RatFunc.var(-k)


def u(i):
    return RatFunc.var(i)


def test_forced_zero():
    sol = linear_solve([c(1) + c(2), c(1) - c(2)])
    assert not sol.inconsistent
    assert sol.free == []
    assert value_of(sol, -1, {}) == 0
    assert value_of(sol, -2, {}) == 0


def test_monomial_expansion():
    sol = linear_solve([c(1) * u(1) + c(2) * u(1)])
    assert sol.free == [-2]
    coeffs, const = sol.pivots[-1]
    assert coeffs == {-2: Fraction(-1)} and const == 0


def test_inconsistent():
    # c1*u1 = 1 has no parameter-free absolute term to match the constant
    sol = linear_solve([c(1) * u(1) - 1])
    assert sol.inconsistent
    assert sol.dimension == 0


def test_nonlinear_rejected():
    with pytest.raises(NonlinearAnsatzError):
        linear_solve([c(1) * c(1) + c(2)])


def test_denominators_cleared():
    eq = (c(1) * u(1) + c(2) * u(2)) / (u(1) + u(2))
    sol = linear_solve([eq])
    assert sol.free == [] or sol.pivots  # both parameters forced to zero
    assert value_of(sol, -1, {}) == 0 and value_of(sol, -2, {}) == 0


def test_soundness_randomized():
    rng = random.Random(21)
    cases = 0
    while cases < 100:
        nparams = rng.randint(2, 5)
        eqs = []
        for _ in range(rng.randint(1, 4)):
            acc = RatFunc.zero()
            for k in range(1, nparams + 1):
                if rng.random() < 0.7:
                    acc = acc + c(k) * RatFunc.from_poly(rand_poly(rng, 2, 1, terms=2))
            eqs.append(acc)
        sol = linear_solve(eqs)
        if sol.inconsistent:
            continue
        cases += 1
        assignment = {pid: Fraction(rng.randint(-3, 3)) for pid in sol.free}
        values = {pid: value_of(sol, pid, assignment)
                  for pid in set(sol.pivots) | set(sol.free)}
        for eq in eqs:
            if eq.is_zero:
                continue
            backed = subs_params(eq.num, values)
            assert backed.is_zero, (eq, values)


def test_substitute_solution_annihilates():
    eqs = [c(1) * u(1) + c(2) * u(1), c(3) - c(2) * 2]
    sol = linear_solve(eqs)
    for eq in eqs:
        assert substitute_solution(eq, sol).is_zero


def _substitution_cases():
    """(solution, template) pairs: pivots with nonzero constants, a template parameter that
    no equation mentions (c9), a parameter-free part, Fraction coefficients, and templates
    over a constant and over a non-constant denominator."""
    half, third = Fraction(1, 2), Fraction(-2, 3)
    fixed = linear_solve([c(1) - half, c(2) * u(1) + c(3) * u(1) - third * u(1),
                          c(4) * u(2) + half * c(2) * u(2)])
    assert any(const for _, const in fixed.pivots.values())
    assert -9 not in fixed.pivots and -9 not in fixed.free
    template = (c(1) * u(1) + third * c(2) * u(2) ** 2 + c(3) + half * c(4) * u(1) * u(2)
                + c(9) * u(2) + u(1) * u(2) - third)
    cases = [(fixed, template), (fixed, template / (u(1) + u(2))),
             (fixed, template / (u(1) * u(1) - 2)), (fixed, c(1) * u(1) - half * u(1))]
    rng = random.Random(28)
    while len(cases) < 40:
        nparams = rng.randint(2, 5)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            acc = RatFunc.const(rng.choice([0, half, third, 3]))
            for k in range(1, nparams + 1):
                if rng.random() < 0.7:
                    acc = acc + c(k) * RatFunc.from_poly(rand_poly(rng, 2, 1, terms=2)) * half
            eqs.append(acc)
        sol = linear_solve(eqs)
        if sol.inconsistent:
            continue
        acc = RatFunc.from_poly(rand_poly(rng, 2, 2, terms=2))
        for k in range(1, nparams + 2):  # c{nparams + 1} is in no equation
            acc = acc + c(k) * RatFunc.from_poly(rand_poly(rng, 2, 2, terms=2))
        den = rng.choice([RatFunc.one(), u(1) + 1, u(1) * u(2) + third])
        cases.append((sol, acc / den))
    return cases


def test_substitute_solution_matches_per_parameter_substitution():
    """substitute_solution, then any values for the parameters left, equals the template
    with every parameter given its value: a pivot its free combination plus its constant.
    Both sides are affine in the parameters left, so agreeing at 0 and at each unit
    assignment makes them equal; the result holds no pivot and no zero coefficient."""
    for sol, template in _substitution_cases():
        out = substitute_solution(template, sol)
        assert out.den == template.den
        assert not set(out.num.vars_used()) & set(sol.pivots)
        assert all(out.num.terms.values())
        left = sorted({v for v in template.num.vars_used() if v < 0} - set(sol.pivots))
        for point in [{}] + [{pid: 1} for pid in left] + [{pid: Fraction(pid, 7) for pid in left}]:
            assignment = {pid: Fraction(point.get(pid, 0)) for pid in left}
            values = {pid: value_of(sol, pid, assignment)
                      for pid in set(sol.pivots) | set(left)}
            assert subs_params(out, assignment) == subs_params(template, values), (template, point)


def test_homogeneous_dimension():
    # one equation over two monomials constrains two combinations of 3 params
    eqs = [c(1) * u(1) + c(2) * u(2) + c(3) * (u(1) + u(2))]
    sol = linear_solve(eqs)
    assert len(sol.free) == 1
    assert len(sol.pivots) == 2

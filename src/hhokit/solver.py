"""Undetermined-coefficients searches for operators and fluxes.

Templates carry fresh formal parameters linearly; the covering residual or
the closed-form compatibility conditions reduce to an exact linear system in
the parameters, whose reduced row echelon solution spans the answer.  A
search forms its last residual component only over the parameters the others
leave open.  The basis is read off the substituted template, through the one
substitution of a solution, ``linsolve.substituted_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from math import comb

from .config import SIZE_CAP
from .covering import BivectorForm, build_cotangent, flux_jacobian
from .errors import InputError
from .geometry import (
    SecondOrderData,
    ThirdOrderData,
    classify,
    second_order_canonical_check,
    second_order_compat,
    third_order_compat,
)
from .jets import DiffMonomial, DiffPoly, pjet, ujet
from .linsolve import (LinearSystemSolution, linear_solve, substitute_solution, substituted_terms,
                       sum_equations)
from .rational import Poly, RatFunc, _q, affine_rows, mono_mul, var_name


@dataclass
class OperatorAnsatz:
    """Parameter-linear odd-linear vector template of bounded weight."""

    n: int
    order: int
    degree: int
    components: tuple
    params: tuple


@dataclass
class FluxAnsatz:
    """Parameter-linear flux vector; numerators polynomial over a fixed denominator."""

    n: int
    degree: int
    components: tuple
    params: tuple


@dataclass
class SolutionFamily:
    """Solved family: substitution, spanning basis, and its dimension."""

    substitution: LinearSystemSolution
    basis: tuple
    dimension: int
    classification: dict | None = None


def _jet_patterns(n: int, order: int):
    """Odd-linear differential monomials of homogeneity weight 1..order."""
    patterns = []

    def even_parts(weight, min_order, min_index):
        if weight == 0:
            yield ()
            return
        for k in range(min_order, weight + 1):
            start = min_index if k == min_order else 1
            for i in range(start, n + 1):
                for rest in even_parts(weight - k, k, i):
                    yield ((ujet(i, k), 1),) + rest

    def merge(factors):
        counts = {}
        for jv, _ in factors:
            counts[jv] = counts.get(jv, 0) + 1
        return tuple(sorted(counts.items()))

    for w in range(1, order + 1):
        for pw in range(0, w + 1):
            for j in range(1, n + 1):
                for even in even_parts(w - pw, 1, 1):
                    patterns.append(DiffMonomial(merge(even), pjet(j, pw)))
    return sorted(set(patterns), key=lambda m: (str(m),))


def _jet_pattern_count(n: int, order: int) -> int:
    """len(_jet_patterns(n, order)) without building the patterns.

    A pattern is p_j with x-order pw times a product of jets u^i_k (k >= 1) of
    total order m = w - pw.  The number P(m) of such products has generating
    function prod_k (1 - x^k)^(-n), so m P(m) = n sum_{j=1..m} sigma(j) P(m - j)
    with sigma the divisor sum.
    """
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        for multiple in range(d, order + 1, d):
            sigma[multiple] += d
    P = [1]
    for m in range(1, order + 1):
        P.append(n * sum(sigma[j] * P[m - j] for j in range(1, m + 1)) // m)
    below = 0  # P(0) + ... + P(w): the products that fit under weight w
    total = 0
    for w in range(order + 1):
        below += P[w]
        if w >= 1:
            total += below
    return n * total


def _check_size(count: int, size_cap: int):
    if count > size_cap:
        raise InputError(f"ansatz would need {count} parameters (cap {size_cap})")


def _u_monomials(n: int, degree: int) -> list:
    """All monomials in u1..un of total degree <= degree, as monomial tuples, by degree and
    then lexicographically in their sorted variables."""
    return [tuple((v, len(list(run))) for v, run in groupby(vids)) for d in range(degree + 1)
            for vids in combinations_with_replacement(range(1, n + 1), d)]


def _templates(copies: int, degree: int, n: int):
    """``copies`` polynomials, each the sum of c*m over the monomials m in u1..un of degree
    <= ``degree`` with one fresh c per term, and the tuple c1, c2, ... the c's are drawn from."""
    monos = _u_monomials(n, degree)
    params = tuple(range(-1, -copies * len(monos) - 1, -1))
    pids = iter(params)
    polys = [Poly._new({mono_mul(m, ((next(pids), 1),)): 1 for m in monos})
             for _ in range(copies)]
    return polys, params


def make_operator_ansatz(n: int, order: int, degree_bound: int,
                         size_cap: int = SIZE_CAP) -> OperatorAnsatz:
    """Template spanning all odd-linear monomials of weight up to ``order``
    with polynomial coefficient functions of u-degree up to ``degree_bound``,
    one fresh parameter per (component, monomial, coefficient) choice."""
    if order < 1:
        raise InputError("operator order must be >= 1")
    if degree_bound < 0:
        raise InputError("degree bound must be >= 0")
    # below the exact size (weight w >= 1 adds over n*w patterns per p_j); cheap to count
    bound = n ** 3 * order ** 2 * comb(n + degree_bound, n) // 2
    if bound > size_cap:
        raise InputError(f"ansatz would need more than {bound} parameters (cap {size_cap})")
    _check_size(n * _jet_pattern_count(n, order) * comb(n + degree_bound, n), size_cap)
    patterns = _jet_patterns(n, order)
    k = len(patterns)
    polys, params = _templates(n * k, degree_bound, n)
    ratfuncs = [RatFunc._new(p, Poly.one()) for p in polys]
    comps = tuple(DiffPoly(dict(zip(patterns, ratfuncs[j * k:(j + 1) * k]))) for j in range(n))
    return OperatorAnsatz(n=n, order=order, degree=degree_bound, components=comps,
                          params=params)


def make_flux_ansatz(n: int, degree: int, denominator: Poly | None = None,
                     size_cap: int = SIZE_CAP) -> FluxAnsatz:
    """Flux template: numerators of total degree <= degree over a declared
    denominator (rational template), parameters linear in the numerators."""
    if degree < 0:
        raise InputError("degree bound must be >= 0")
    den = denominator if denominator is not None else Poly.one()
    if den.is_zero:
        raise InputError("flux denominator must be nonzero")
    if den.has_params:
        raise InputError("flux denominator must not contain parameters")
    _check_size(n * comb(n + degree, n), size_cap)
    polys, params = _templates(n, degree, n)
    return FluxAnsatz(n=n, degree=degree, components=tuple(RatFunc(p, den) for p in polys),
                      params=params)


def _refuse_parameters(name, scalars):
    """InputError naming ``name`` and its lowest formal parameter when one of the RatFuncs
    ``scalars`` holds one: a search's own parameters c1, c2, ... would collide with it."""
    pids = {v for c in scalars for m in c.num.terms for v, _ in m if v < 0}
    if pids:
        raise InputError(f"formal parameter {var_name(max(pids))} in {name}: a search names its "
                         "own parameters c1, c2, ..., so its data must be parameter-free")


def _free_params(sol: LinearSystemSolution, ansatz_params):
    """Free directions: solver-free columns plus params no equation mentions."""
    return [] if sol.inconsistent else sorted(
        set(ansatz_params).union(sol.free) - set(sol.pivots), key=lambda pid: -pid)


def _read_off(sol: LinearSystemSolution, ansatz_params, templates) -> list:
    """The family's basis read off the substituted template, one member per free direction
    f: the generic member at f = 1 and every other free parameter 0.

    ``templates`` lists each component as {key: parameter-affine RatFunc}.  Each numerator is
    substituted once (``linsolve.substituted_terms``) and read through ``affine_rows``; at
    each u-monomial, member f takes the parameter-free entry plus entry f.  A member lists
    each component as {key: coefficient}, zeros dropped, each coefficient rebuilt over its
    template denominator by ``RatFunc(num, den)``, so reduced as ``substitute_solution``
    would leave it."""
    rows = [[(key, c.den, affine_rows(substituted_terms(c.num.terms, sol)))
             for key, c in t.items()] for t in templates]
    basis = []
    for f in _free_params(sol, ansatz_params):
        member = []
        for comp in rows:
            out = {}
            for key, den, by_u in comp:
                num = {u: _q(s) for u, row in by_u.items() if (s := row.get(0, 0) + row.get(f, 0))}
                if num:
                    out[key] = RatFunc(Poly._new(num), den)
            member.append(out)
        basis.append(member)
    return basis


def _without(components, zero) -> tuple:
    """The template's components with every parameter in ``zero`` set to 0.  A coefficient
    that loses no term is kept as it is, with its cached integer form."""
    def kept(c):
        num = {m: x for m, x in c.num.terms.items() if m[-1][0] not in zero}
        return c if len(num) == len(c.num.terms) else RatFunc(Poly._new(num), c.den)
    return tuple(DiffPoly._new({key: k for key, c in comp.terms.items() if (k := kept(c))})
                 for comp in components)


def find_bivectors(system, ansatz: OperatorAnsatz) -> SolutionFamily:
    """All members of the template whose covering residual vanishes.  The linear system is
    read off the residual's unvalued sums (``CoveringContext.residual_sums``) one component
    at a time (``linsolve.sum_equations``); the basis is read off the pivot rows.  The last
    component is formed once the others are eliminated, without the parameters they force to
    zero (``linear_solve``'s ``more``), which vanish on every solution.  That pays when the
    others force most parameters to zero and their elimination alone fills in little (cyclic
    n = 3, orders 2-5); it is slower where they force few (none at cyclic order 1, about half
    in the n = 2 searches measured) or fill in more than the last saves (cyclic order 6)."""
    for i, f in enumerate(system.fluxes, 1):
        _refuse_parameters(f"flux {i}", f.terms.values())
    ctx, phi = build_cotangent(system), BivectorForm(ansatz.components).components
    n = len(phi)

    def last(zero):
        return sum_equations(next(ctx.residual_sums(_without(phi, zero), rows=range(n - 1, n))))
    sol = linear_solve([eq for total in ctx.residual_sums(phi, rows=range(n - 1))
                        for eq in sum_equations(total)], last)
    basis = tuple(tuple(DiffPoly._new(comp) for comp in member)
                  for member in _read_off(sol, ansatz.params,
                                          [comp.terms for comp in ansatz.components]))
    return SolutionFamily(substitution=sol, basis=basis, dimension=len(basis))


def _classify_family(ansatz: FluxAnsatz, sol, with_square):
    """Classification of the generic member, the solution substituted with its free
    parameters kept symbolic."""
    V = flux_jacobian(tuple(substitute_solution(comp, sol) for comp in ansatz.components))
    return {rep.name: rep for rep in classify(V, with_square)}


def _flux_family(ansatz: FluxAnsatz, rep, classify: bool,
                 with_square: bool) -> SolutionFamily:
    """Solve the residuals of ``rep`` for the ansatz parameters and read the basis off the
    pivot rows; only a classification forms the generic member."""
    sol = linear_solve([rf for _, _, rf in rep.residuals])
    basis = tuple(tuple(comp.get((), RatFunc.zero()) for comp in member)
                  for member in _read_off(sol, ansatz.params,
                                          [{(): comp} for comp in ansatz.components]))
    classification = _classify_family(ansatz, sol, with_square) if classify else None
    return SolutionFamily(substitution=sol, basis=basis, dimension=len(basis),
                          classification=classification)


def find_fluxes_second_order(d: SecondOrderData, ansatz: FluxAnsatz,
                             classify: bool = True) -> SolutionFamily:
    """Fluxes compatible with the canonical second-order operator."""
    canonical = second_order_canonical_check(d)
    if not canonical.passed:
        raise InputError("second-order data is not in canonical form: "
                         + ", ".join(canonical.families_failing()))
    return _flux_family(ansatz, second_order_compat(d, ansatz.components), classify,
                        with_square=True)


def find_fluxes_third_order(d: ThirdOrderData, ansatz: FluxAnsatz,
                            classify: bool = True) -> SolutionFamily:
    """Fluxes compatible with the canonical third-order operator."""
    for i, row in enumerate(d.metric.entries, 1):
        for j, x in enumerate(row, 1):
            _refuse_parameters(f"metric entry g[{i}][{j}]", (x,))
    _refuse_parameters("the c symbols", (x for plane in d.c_low() for row in plane for x in row))
    return _flux_family(ansatz, third_order_compat(d, ansatz.components), classify,
                        with_square=False)

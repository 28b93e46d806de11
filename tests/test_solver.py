"""Ansatz generation and undetermined-coefficients searches."""

import gc
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from hhokit.covering import BivectorForm, EvolutionSystem, bivector_residual, \
    build_cotangent
from hhokit.errors import InputError
from hhokit.geometry import SecondOrderData, ThirdOrderData, third_order_compat
from hhokit.grammar import format_diffpoly, parse, parse_scalar
from hhokit.jets import mono_weight
from hhokit.rational import Poly, RatFunc
from hhokit.solver import (
    find_bivectors,
    find_fluxes_second_order,
    find_fluxes_third_order,
    make_flux_ansatz,
    make_operator_ansatz,
)

from genutil import catalog_data, constant_third_order_instance, subs_params
from test_ladder_pins import _cyclic


def test_ansatz_counts():
    # n=2, order 1, degree 0: four metric entries and eight symbol entries
    a = make_operator_ansatz(2, 1, 0)
    assert len(a.params) == 12
    # n=1, order 1, degree 1: two weight-1 jet patterns, coefficients {1, u}
    b = make_operator_ansatz(1, 1, 1)
    assert len(b.params) == 4
    spanned = {str(parse(t)) for t in ["p1_x", "u1*p1_x", "u1_x*p1", "u1*u1_x*p1"]}
    from hhokit.jets import DiffPoly
    texts = set()
    for comp in b.components:
        for m, coeff in comp.terms.items():
            for pmono in coeff.num.terms:
                umono = tuple((v, e) for v, e in pmono if v > 0)
                texts.add(str(DiffPoly.monomial(m, RatFunc(Poly({umono: Fraction(1)})))))
    assert texts == spanned


def test_ansatz_grading_bounds():
    a = make_operator_ansatz(2, 3, 2)
    for comp in a.components:
        for m, coeff in comp.terms.items():
            assert 1 <= mono_weight(m) <= 3
            assert m.odd is not None
            for pmono in coeff.num.terms:
                udeg = sum(e for v, e in pmono if v > 0)
                assert udeg <= 2


def test_ansatz_caps():
    with pytest.raises(InputError):
        make_operator_ansatz(3, 4, 4, size_cap=10)
    with pytest.raises(InputError):
        make_operator_ansatz(1, 0, 0)


def test_kdv_search_dimension_two():
    system = EvolutionSystem.general([parse("u1_x3 + u1*u1_x")])
    fam = find_bivectors(system, make_operator_ansatz(1, 3, 1))
    assert fam.dimension == 2
    texts = {format_diffpoly(b[0]) for b in fam.basis}
    assert texts == {
        format_diffpoly(parse("p1_x")),
        format_diffpoly(parse("p1_x3 + 2/3*u1*p1_x + 1/3*u1_x*p1")),
    }


def test_scalar_hydrodynamic_family():
    # u_t = u u_x admits every g(u) p_x + h(u) u_x p within the weight-1 ansatz;
    # degree <= 2 coefficients give a six-parameter family containing the
    # canonical g, g'/2 pairs
    system = EvolutionSystem.hydrodynamic([[RatFunc.var(1)]])
    fam = find_bivectors(system, make_operator_ansatz(1, 1, 2))
    assert fam.dimension == 6
    ctx = build_cotangent(system)
    member = parse("u1^2*p1_x + u1*u1_x*p1")
    assert all(c.is_zero for c in bivector_residual(ctx, BivectorForm((member,))))


def test_transport_search_contains_px():
    system = EvolutionSystem.general([parse("u1_x")])
    fam = find_bivectors(system, make_operator_ansatz(1, 1, 0))
    assert any(format_diffpoly(b[0]) == "p1_x" for b in fam.basis)


def test_round_trip_soundness():
    # every returned basis member re-verifies through the covering engine
    system = EvolutionSystem.general([parse("u1_x3 + u1*u1_x")])
    fam = find_bivectors(system, make_operator_ansatz(1, 3, 1))
    ctx = build_cotangent(system)
    for member in fam.basis:
        res = bivector_residual(ctx, BivectorForm(member))
        assert all(c.is_zero for c in res)


def test_second_order_n2_affine_only():
    d = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 1], [-1, 0]])
    fam = find_fluxes_second_order(d, make_flux_ansatz(2, 2), classify=True)
    # every member is affine, with Jacobian a multiple of the identity:
    # constants (2) + the scaling direction (1)
    assert fam.dimension == 3
    for member in fam.basis:
        for comp in member:
            assert comp.is_poly and comp.num.degree() <= 1
    assert fam.classification["linear-degeneracy"].passed
    assert fam.classification["haantjes-zero"].passed


def test_second_order_zero_ansatz():
    d = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 1], [-1, 0]])
    fam = find_fluxes_second_order(d, make_flux_ansatz(2, 0), classify=False)
    # constant fluxes are always compatible (they do not move the system)
    assert fam.dimension == 2
    # a template with no parameters at all yields the trivial family
    from hhokit.solver import FluxAnsatz
    empty = FluxAnsatz(n=2, degree=0, components=(RatFunc.zero(), RatFunc.zero()),
                       params=())
    fam0 = find_fluxes_second_order(d, empty, classify=False)
    assert fam0.dimension == 0 and fam0.basis == ()


def test_n4_family_dimension_and_membership():
    d = SecondOrderData.from_generators(4, {(1, 2, 3): 1}, {(3, 4): 1})
    ansatz = make_flux_ansatz(4, 2, denominator=Poly.var(3))
    fam = find_fluxes_second_order(d, ansatz, classify=False)
    assert fam.dimension == 10
    from hhokit.catalog import N4_FLUXES
    from hhokit.geometry import second_order_compat
    printed = [parse_scalar(s) for s in N4_FLUXES]
    assert second_order_compat(d, printed).passed


def test_third_order_affine_only():
    rng = random.Random(61)
    d = constant_third_order_instance(rng, 2)
    fam = find_fluxes_third_order(d, make_flux_ansatz(2, 2), classify=False)
    for member in fam.basis:
        for comp in member:
            assert comp.is_poly and comp.num.degree() <= 1
    # n=1: cubic ansatz still returns only affine fluxes
    d1 = ThirdOrderData.from_lower_metric([[3]])
    fam1 = find_fluxes_third_order(d1, make_flux_ansatz(1, 3), classify=False)
    assert fam1.dimension == 2
    for member in fam1.basis:
        assert member[0].is_poly and member[0].num.degree() <= 1


def test_third_order_round_trip():
    rng = random.Random(67)
    d = constant_third_order_instance(rng, 2)
    fam = find_fluxes_third_order(d, make_flux_ansatz(2, 2), classify=False)
    for member in fam.basis:
        assert third_order_compat(d, member).passed


def test_third_order_rational_family_on_nonconstant_metric():
    # the nonconstant metric admits rational fluxes over the declared
    # denominator; every member re-verifies through the covering engine
    from hhokit.geometry import third_order_operator
    from hhokit.covering import bivector_residual, build_cotangent, \
        operator_to_bivector
    d = catalog_data("third-order-monge", "D")
    fam = find_fluxes_third_order(
        d, make_flux_ansatz(2, 2, denominator=Poly.var(1)), classify=False)
    assert fam.dimension == 5
    texts = {tuple(str(c) for c in member) for member in fam.basis}
    assert ("u2", "(u2^2)/(u1)") in texts
    A = operator_to_bivector(third_order_operator(d))
    for member in fam.basis:
        ctx = build_cotangent(EvolutionSystem.conservative(member))
        assert all(c.is_zero for c in bivector_residual(ctx, A))


def test_monotonicity_in_degree():
    d = SecondOrderData([[[0] * 2] * 2] * 2, [[0, 1], [-1, 0]])
    dims = [find_fluxes_second_order(d, make_flux_ansatz(2, k), classify=False).dimension
            for k in range(0, 3)]
    assert dims == sorted(dims)


def test_basis_determinism():
    system = EvolutionSystem.general([parse("u1_x3 + u1*u1_x")])
    fam1 = find_bivectors(system, make_operator_ansatz(1, 3, 1))
    fam2 = find_bivectors(system, make_operator_ansatz(1, 3, 1))
    b1 = [[format_diffpoly(c) for c in member] for member in fam1.basis]
    b2 = [[format_diffpoly(c) for c in member] for member in fam2.basis]
    assert b1 == b2


def test_empty_family_is_reported_not_raised():
    # an inconsistent constraint set yields a zero-dimensional family
    from hhokit.linsolve import linear_solve
    from hhokit.solver import SolutionFamily
    sol = linear_solve([RatFunc.var(-1) * RatFunc.var(1) - 1])
    assert sol.inconsistent and sol.dimension == 0


def test_ansatz_size_is_counted_before_building():
    from hhokit.solver import _jet_pattern_count, _jet_patterns
    for n, order, degree in [(1, 1, 0), (1, 4, 2), (2, 3, 1), (3, 2, 2)]:
        assert _jet_pattern_count(n, order) == len(_jet_patterns(n, order))
        size = len(make_operator_ansatz(n, order, degree).params)
        with pytest.raises(InputError,
                           match=rf"^ansatz would need {size} parameters \(cap {size - 1}\)$"):
            make_operator_ansatz(n, order, degree, size_cap=size - 1)
    for n, degree in [(1, 0), (2, 3), (4, 2)]:
        size = len(make_flux_ansatz(n, degree).params)
        with pytest.raises(InputError,
                           match=rf"^ansatz would need {size} parameters \(cap {size - 1}\)$"):
            make_flux_ansatz(n, degree, size_cap=size - 1)


def test_oversized_ansatz_fails_before_enumerating():
    start = time.perf_counter()
    with pytest.raises(InputError, match=r"^ansatz would need 2357254 parameters \(cap 10000\)$"):
        make_operator_ansatz(1, 40, 1)
    with pytest.raises(InputError, match=r"^ansatz would need 543004 parameters \(cap 10000\)$"):
        make_flux_ansatz(4, 40)
    assert time.perf_counter() - start < 2  # enumerating them took about a minute


def test_inconsistent_flux_family_is_empty():
    from hhokit.geometry import ConditionReport
    from hhokit.solver import _flux_family
    rep = ConditionReport("inconsistent")
    rep.add("c1*u1 = 1", (0,), RatFunc.var(-1) * RatFunc.var(1) - 1)
    fam = _flux_family(make_flux_ansatz(1, 1), rep, classify=False, with_square=False)
    assert fam.substitution.inconsistent
    assert (fam.dimension, fam.basis) == (0, ())


# -- the family basis against one substitution per free parameter ------------------


def _assign_free(rf, sol, assignment, free):
    """The basis substitution as it was: substitute the solution, then give
    each parameter in ``free`` its value in ``assignment`` (0 when absent)."""
    from hhokit.linsolve import substitute_solution
    out = substitute_solution(rf, sol)
    values = {pid: Fraction(assignment.get(pid, 0)) for pid in free}
    return subs_params(out, values) if values else out


def _reference_basis(sol, params, templates):
    """The basis as substitution forms it: per free direction f, each template coefficient
    {key: RatFunc} with the solution substituted and then f = 1, every other free
    parameter 0; the zero coefficients dropped."""
    from hhokit.solver import _free_params
    free_all = _free_params(sol, params)
    basis = []
    for f in free_all:
        member = []
        for template in templates:
            coeffs = {key: _assign_free(c, sol, {f: 1}, free_all) for key, c in template.items()}
            member.append({key: c for key, c in coeffs.items() if not c.is_zero})
        basis.append(member)
    return basis


def _assert_same_basis(got, expected):
    assert got == expected
    assert [[{k: str(c) for k, c in comp.items()} for comp in m] for m in got] == \
        [[{k: str(c) for k, c in comp.items()} for comp in m] for m in expected]


# ladder rung -> its pinned dimension; "cyclic-o1" is the ladder's labelling class 1
LADDER_DIMS = {"kdv-o5": 2, "kdv5-o7": 2, "cyclic-o1-L1": 4, "cyclic-o1-L2": 4, "cyclic-o1-L3": 4}


@pytest.mark.parametrize("rung", ["kdv-o5", "kdv5-o7", pytest.param("cyclic-o1-L1", id="cyclic-o1"),
                                  "cyclic-o1-L2", "cyclic-o1-L3"])
def test_operator_basis_matches_per_parameter_substitution(rung):
    from hhokit.jets import DiffPoly
    from test_ladder_pins import RUNGS
    system, n, order, degree, _ = RUNGS[rung]
    ansatz = make_operator_ansatz(n, order, degree)
    fam = find_bivectors(system(), ansatz)
    expected = tuple(tuple(DiffPoly(comp) for comp in member) for member in _reference_basis(
        fam.substitution, ansatz.params, [comp.terms for comp in ansatz.components]))
    assert fam.dimension == len(expected) == LADDER_DIMS[rung]
    assert fam.basis == expected
    assert [[format_diffpoly(c) for c in m] for m in fam.basis] == \
        [[format_diffpoly(c) for c in m] for m in expected]


def test_read_off_matches_per_parameter_substitution_on_made_solutions():
    from hhokit.linsolve import LinearSystemSolution
    from hhokit.solver import _read_off
    ansatz = make_operator_ansatz(1, 1, 1)  # c1..c4: {1, u1} times p1_x and u1_x*p1
    templates = [comp.terms for comp in ansatz.components]
    cases = [
        # a pivot with a constant: it enters every direction
        (LinearSystemSolution(pivots={-1: ({-3: Fraction(2, 3)}, Fraction(-5, 2)),
                                      -2: ({-3: Fraction(1), -4: Fraction(1, 2)}, Fraction(0))},
                              free=[-3, -4]), 2),
        # c3 and c4 are mentioned by no equation
        (LinearSystemSolution(pivots={-1: ({-2: Fraction(-1)}, Fraction(0))}, free=[-2]), 3),
        (LinearSystemSolution(inconsistent=True), 0),
    ]
    for sol, dim in cases:
        expected = _reference_basis(sol, ansatz.params, templates)
        assert len(expected) == dim
        _assert_same_basis(_read_off(sol, ansatz.params, templates), expected)
    # Fraction coefficients over non-constant denominators, pivots with constants, c5 in no
    # equation: members c3 and c5 of "b" reduce to constants over u1^2 + 1
    templates = [{"a": parse_scalar("(1/2*c1*u1 - 2/3*c2 + c3*u1^2 + c3 + 1/5*u1)/(u1^2 + 1)"),
                  "b": parse_scalar("(c1*u1^2 + c1 + 7/4*c4*u1 + 2/3*c5*u1^2 + 2/3*c5)"
                                    "/(u1^2 + 1)")},
                 {"a": parse_scalar("(c2*u1 + 2/7*c4 - 1/3)/(u1 + 2)")}]
    sol = LinearSystemSolution(pivots={-1: ({-3: Fraction(3, 4)}, Fraction(7, 2)),
                                       -2: ({-3: Fraction(-1), -4: Fraction(2, 5)},
                                            Fraction(-1, 3))}, free=[-3, -4])
    expected = _reference_basis(sol, (-1, -2, -3, -4, -5), templates)
    assert len(expected) == 3
    assert [str(member[0]["b"]) for member in expected] == [
        "17/4", "(7/2*u1^2 + 7/4*u1 + 7/2)/(u1^2 + 1)", "25/6"]
    _assert_same_basis(_read_off(sol, (-1, -2, -3, -4, -5), templates), expected)


@pytest.mark.parametrize("residual, dim", [
    ("c1*u1 - c2*u1", 2),  # c1 = c2, and c3 (the u1^2 coefficient) in no equation
    ("c1 - 3/2 + c3*u1", 1),  # c1 = 3/2, a pivot constant, and c3 = 0
    ("c1*u1 + u1^2", 0),  # the u1^2 row reads 1 = 0: inconsistent
], ids=["unmentioned", "constant", "inconsistent"])
def test_flux_basis_matches_per_parameter_substitution(residual, dim):
    from hhokit.geometry import ConditionReport
    from hhokit.solver import _flux_family
    rep = ConditionReport("made")
    rep.add(residual, (0,), parse_scalar(residual))
    ansatz = make_flux_ansatz(1, 2, denominator=Poly.var(1) + 1)
    fam = _flux_family(ansatz, rep, classify=False, with_square=False)
    expected = _reference_basis(fam.substitution, ansatz.params,
                                [{(): comp} for comp in ansatz.components])
    assert fam.dimension == len(expected) == dim
    got = [[{(): c} for c in member if not c.is_zero] for member in fam.basis]
    _assert_same_basis(got, [[comp for comp in member if comp] for member in expected])


def test_flux_basis_and_classification_match_per_parameter_substitution():
    from hhokit.covering import flux_jacobian
    from hhokit.geometry import char_square_check, haantjes_zero_check, \
        linear_degeneracy_check
    from hhokit.linsolve import substitute_solution
    # the n4-second-order example: coefficients over u3
    d = SecondOrderData.from_generators(4, {(1, 2, 3): 1}, {(3, 4): 1})
    ansatz = make_flux_ansatz(4, 2, denominator=Poly.var(3))
    fam = find_fluxes_second_order(d, ansatz, classify=True)
    sol = fam.substitution
    expected = tuple(tuple(comp.get((), RatFunc.zero()) for comp in member)
                     for member in _reference_basis(sol, ansatz.params,
                                                    [{(): comp} for comp in ansatz.components]))
    assert fam.dimension == len(expected) == 10
    assert fam.basis == expected
    assert [[str(c) for c in m] for m in fam.basis] == [[str(c) for c in m] for m in expected]
    V = flux_jacobian(tuple(substitute_solution(comp, sol) for comp in ansatz.components))
    classification = {"linear-degeneracy": linear_degeneracy_check(V),
                      "haantjes-zero": haantjes_zero_check(V),
                      "char-poly-square": char_square_check(V)}
    assert list(fam.classification) == list(classification)
    for name, report in classification.items():
        got = fam.classification[name]
        assert (got.passed, str(got)) == (report.passed, str(report))
        assert got == report


def _traced_peak(run):
    """The peak of traced allocations, in bytes, while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before CPython 3.11 the caller's "
                    "stack holds a call's arguments, so the residual's equations stay alive "
                    "while linear_solve reads them")
def test_search_peak_is_the_residual_peak():
    # the residual and its scalar rows never coexist: each equation is released once read
    ansatz = make_operator_ansatz(3, 2, 1)
    assert find_bivectors(_cyclic((1, 2, 3)), ansatz).dimension == 4  # warms every cache
    system = _cyclic((1, 2, 3))
    residual = _cold_traced_peak(lambda: bivector_residual(build_cotangent(system),
                                                           BivectorForm(ansatz.components)))
    search = _cold_traced_peak(lambda: find_bivectors(system, ansatz))
    assert search <= 1.15 * residual


def test_linear_solve_leaves_the_callers_list_unchanged():
    from hhokit.covering import extract_conditions
    from hhokit.linsolve import linear_solve
    ansatz = make_operator_ansatz(1, 3, 1)
    eqs = extract_conditions(bivector_residual(
        build_cotangent(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")])),
        BivectorForm(ansatz.components)))
    held = list(eqs)
    sol = linear_solve(eqs)
    assert len(eqs) == len(held) and all(a is b for a, b in zip(eqs, held))
    again = linear_solve(tuple(eqs))
    assert (again.pivots, again.free, again.dimension) == (sol.pivots, sol.free, sol.dimension)
    assert sol.pivots and sol.free


def _cold_traced_peak(run):
    """``_traced_peak`` after a full collection, which empties the interpreter's free lists:
    a tuple or dict reused from them was allocated before tracing began and is not counted, so
    without it the peak depends on what ran before."""
    gc.collect()
    return _traced_peak(run)


def test_search_peak_is_below_the_residual_peak():
    # the search never forms the residual: each key's rows are read off its integer sum, and
    # a component's sum is emptied before the next one is built
    ansatz = make_operator_ansatz(3, 2, 1)
    assert find_bivectors(_cyclic((1, 2, 3)), ansatz).dimension == 4  # warms every cache
    system = _cyclic((1, 2, 3))
    residual = _cold_traced_peak(lambda: bivector_residual(build_cotangent(system),
                                                           BivectorForm(ansatz.components)))
    search = _cold_traced_peak(lambda: find_bivectors(system, ansatz))
    # before CPython 3.11 the caller's stack holds a call's arguments, so every equation's
    # tuple of rows stays alive while linear_solve reads them
    assert search <= (0.9 if sys.version_info >= (3, 11) else 1.0) * residual


def _rational_flux():
    return EvolutionSystem.hydrodynamic([[parse_scalar("1/u1")]])


def _hydrodynamic(*diagonal):
    """The hydrodynamic system whose velocity matrix is diagonal with the given entries."""
    n = len(diagonal)
    return EvolutionSystem.hydrodynamic([[parse_scalar(diagonal[i] if i == j else "0")
                                          for j in range(n)] for i in range(n)])


def _constant_diagonal():
    # components 1-2 force 384 parameters to zero; the full answer has 576 pivots
    return _hydrodynamic("1", "2", "3")


@pytest.mark.parametrize("rung, system, n, order, degree", [
    ("kdv-o5", None, 1, 5, 2),
    ("kdv5-o7", None, 1, 7, 2),  # its residual sums hold a common denominator above 1
    ("cyclic-o2-L1", None, 3, 2, 1),
    ("hydrodynamic-1/u1", _rational_flux, 1, 3, 2),  # keys made by IntSum.pop
    ("cyclic-o3-L1", None, 3, 3, 1),  # the last component adds no condition
    ("hydrodynamic-n4", lambda: _hydrodynamic("u1", "u2", "u3", "u4"), 4, 2, 1),
    ("diag(1,2,3)", _constant_diagonal, 3, 2, 1),  # the last component adds conditions
    ("hydrodynamic-n2", lambda: EvolutionSystem.hydrodynamic(
        [[parse_scalar("u1"), parse_scalar("u2")], [parse_scalar("u2"), parse_scalar("u1")]]),
     2, 2, 1),
], ids=["kdv-o5", "kdv5-o7", "cyclic-o2", "rational-flux", "cyclic-o3", "hydrodynamic-n4",
        "constant-diagonal", "hydrodynamic-n2"])
def test_search_rows_agree_with_the_residual_conditions(rung, system, n, order, degree):
    from hhokit.covering import extract_conditions
    from hhokit.linsolve import linear_solve, sum_equations
    from test_ladder_pins import RUNGS
    system = system or RUNGS[rung][0]
    ansatz = make_operator_ansatz(n, order, degree)
    sol = find_bivectors(system(), ansatz).substitution
    ref = linear_solve(extract_conditions(bivector_residual(build_cotangent(system()),
                                                            BivectorForm(ansatz.components))))
    assert (sol.pivots, sol.free, sol.inconsistent) == (ref.pivots, ref.free, ref.inconsistent)
    assert sol.free or sol.pivots
    sums = list(build_cotangent(system()).residual_sums(ansatz.components))
    dens = {total.den for total in sums}
    kinds = {type(eq) for total in sums for eq in sum_equations(total)}
    assert max(dens) > 1 if rung == "kdv5-o7" else dens == {1}
    assert RatFunc in kinds if system is _rational_flux else kinds == {tuple}


def _spy_on_the_last_component(monkeypatch):
    """Record what ``find_bivectors`` hands ``linear_solve`` as ``more``: the parameters it is
    called with and copies of the rows it returns (which ``linear_solve`` then reduces in
    place)."""
    from hhokit import solver
    from hhokit.linsolve import linear_solve
    seen = {}

    def spy(eqs, more):
        def read(zero):
            batch = list(more(zero))
            seen["zero"], seen["rows"] = set(zero), [dict(row) for eq in batch for row in eq]
            return batch
        return linear_solve(eqs, read)
    monkeypatch.setattr(solver, "linear_solve", spy)
    return seen


@pytest.mark.parametrize("system, forced, pivots", [
    (_constant_diagonal, 384, 576),  # the last component adds conditions
    (lambda: _cyclic((1, 2, 3)), 468, 608),  # its whole rows hold forced columns
], ids=["constant-diagonal", "cyclic-o2"])
def test_last_component_is_read_over_the_parameters_left_open(monkeypatch, system, forced,
                                                               pivots):
    # at order 2, the last component's rows are its rows over the whole template without the
    # columns that components 1..n-1 force to zero: none dropped, and no other column pruned
    from hhokit.linsolve import linear_solve, sum_equations
    seen = _spy_on_the_last_component(monkeypatch)
    ansatz = make_operator_ansatz(3, 2, 1)
    sol = find_bivectors(system(), ansatz).substitution
    sums = list(build_cotangent(system()).residual_sums(ansatz.components))
    head = linear_solve([eq for total in sums[:2] for eq in sum_equations(total)])
    zero = {pid for pid, (coeffs, const) in head.pivots.items() if not coeffs and not const}
    assert seen["zero"] == zero
    assert (len(zero), len(sol.pivots)) == (forced, pivots)

    def rows(eqs):
        return sorted(sorted(row.items()) for row in eqs if row)
    whole = [row for eq in sum_equations(sums[2]) for row in eq]
    pruned = [{q: c for q, c in row.items() if q not in zero} for row in whole]
    assert seen["rows"] and rows(seen["rows"]) == rows(pruned)
    assert (rows(pruned) != rows(whole)) == (system is not _constant_diagonal)


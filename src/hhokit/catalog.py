"""Built-in worked examples with their expected verdicts.

Each entry holds a problem description in the same JSON-compatible shape the
CLI accepts from files, plus golden assertions that ``examples run`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covering import bivector_residual, build_cotangent
from .errors import InputError
from .geometry import (
    char_square_check,
    characteristic_form,
    expanded_first_order_conditions,
    haantjes_zero_check,
    linear_degeneracy_check,
    potentialize,
    second_order_compat,
    second_order_potential_bivector,
    third_order_compat,
)
from .grammar import parse, parse_scalar
from .problem import BivectorOperator, FirstOrderOperator, Problem, load_operator
from .solver import find_bivectors, make_operator_ansatz


@dataclass(frozen=True)
class GoldenResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    title: str
    problem: dict
    run_goldens: callable


def _all_zero(vec) -> bool:
    return all(c.is_zero for c in vec)


# -- kdv -------------------------------------------------------------------------

_KDV_PROBLEM = {
    "n": 1,
    "system": {"type": "fluxes", "f": ["u1_x3 + u1*u1_x"]},
    "operators": {
        "A1": {"bivector": ["p1_x"]},
        "A2": {"bivector": ["p1_x3 + 2/3*u1*p1_x + 1/3*u1_x*p1"]},
    },
}


def _kdv_goldens():
    out = []
    problem = Problem(_KDV_PROBLEM)
    ctx = problem.covering()
    expected = parse("p1_x3 + u1*p1_x")
    out.append(GoldenResult("adjoint-rule", ctx.pt_rules[0] == expected,
                            "p1_t reduces to p1_x3 + u1*p1_x"))
    operators = [load_operator(problem, name) for name in ("A1", "A2")]
    for op in operators:
        out.append(GoldenResult(f"{op.name}-residual-zero", _all_zero(op.residual(ctx))))
    bad = BivectorOperator("B", (parse("u1*p1_x"),))
    out.append(GoldenResult("u-px-not-bivector", not _all_zero(bad.residual(ctx))))
    family = find_bivectors(problem.system, make_operator_ansatz(1, 3, 1))
    basis_ok = family.dimension == 2 and {
        str(b[0]) for b in family.basis} == {str(op.components[0]) for op in operators}
    out.append(GoldenResult("search-dimension-2", basis_ok,
                            f"dimension {family.dimension}"))
    return out


# -- linear transport --------------------------------------------------------------

_TRANSPORT_PROBLEM = {
    "n": 1,
    "system": {"type": "fluxes", "f": ["u1_x"]},
    "operators": {"A1": {"bivector": ["p1_x"]}},
}


def _transport_goldens():
    problem = Problem(_TRANSPORT_PROBLEM)
    ctx = problem.covering()
    out = [GoldenResult("adjoint-rule", ctx.pt_rules[0] == parse("p1_x"))]
    family = find_bivectors(problem.system, make_operator_ansatz(1, 1, 0))
    found = any(str(b[0]) == str(parse("p1_x")) for b in family.basis)
    out.append(GoldenResult("search-contains-px", found))
    return out


# -- first-order pass / fail instances -----------------------------------------------

_HYDRO2_PASS = {
    "n": 2,
    "system": {"type": "hydrodynamic", "V": [["u1", "u2"], ["u2", "u1"]]},
    "operators": {
        "A": {"order": 1, "g": [["1", "0"], ["0", "1"]],
              "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    },
}

_HYDRO2_FAIL = {
    "n": 2,
    "system": {"type": "hydrodynamic", "V": [["u2", "0"], ["0", "u1"]]},
    "operators": {
        "A": {"order": 1, "g": [["1", "0"], ["0", "1"]],
              "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    },
}


def _hydro2(data, expect_pass):
    problem = Problem(data)
    op = load_operator(problem, "A")
    out = []
    (trep,) = op.compat(problem)
    erep = expanded_first_order_conditions(op.metric, op.conn, problem.system.velocity)
    cov_pass = _all_zero(op.residual(problem.covering()))
    out.append(GoldenResult("tsarev", trep.passed == expect_pass, str(trep)))
    out.append(GoldenResult("expanded", erep.passed == expect_pass, str(erep)))
    out.append(GoldenResult("covering", cov_pass == expect_pass))
    out.append(GoldenResult("oracles-agree",
                            trep.passed == erep.passed == cov_pass))
    return out


# -- nonlocal first-order --------------------------------------------------------------

_NONLOCAL_PROBLEM = {
    "n": 2,
    "system": {"type": "hydrodynamic", "V": [["u1", "u2"], ["u2", "u1"]]},
    "symmetries": [["u1_x + u2_x", "u1_x + u2_x"]],
    "operators": {
        # tail characteristic W u_x along a constant eigenvector of V
        "B": {"order": 1, "g": [["1", "0"], ["0", "1"]],
              "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
              "W": [["1", "1"], ["1", "1"]]},
    },
}


def _nonlocal_goldens():
    problem = Problem(_NONLOCAL_PROBLEM)
    op = load_operator(problem, "B")
    (rep,) = op.compat(problem)
    out = [GoldenResult("closed-form", rep.passed, str(rep))]
    out.append(GoldenResult("covering-residual-zero",
                            _all_zero(op.residual(problem.covering()))))
    # a tail not matched to the curvature fails both routes identically
    bad = FirstOrderOperator(op.metric, op.conn, [["0", "1"], ["1", "0"]])
    (bad_rep,) = bad.compat(problem)
    bad_cov = _all_zero(bad.residual(build_cotangent(problem.system)))
    out.append(GoldenResult("unmatched-tail-agreement",
                            (not bad_rep.passed) and (not bad_cov),
                            "both oracles reject the swap tail"))
    return out


# -- the four-component second-order family ----------------------------------------------

N4_FLUXES = (
    "(c4*u1^2 + (c1*u2 + c3*u3 + c8)*u1 + c10*u3 - c1*u4 - c2)/u3",
    "(c1*u2^2 + (c3*u3 + c4*u1 + c8)*u2 + c9*u3 + c4*u4 + c6)/u3",
    "c1*u2 + c3*u3 + c4*u1 + c7",
    "((c1*u2 + c3*u3 + c4*u1)*u4 + c2*u2 + c5*u3 + c6*u1)/u3",
)

_N4_PROBLEM = {
    "n": 4,
    "system": {"type": "conservative", "V": list(N4_FLUXES)},
    "operators": {
        "C": {"order": 2, "T": {"1,2,3": "1"}, "g0": {"3,4": "1"}},
    },
    "task": {"operator": "C", "degree": 2, "denominator": "u3"},
}


def _n4_goldens():
    problem = Problem(_N4_PROBLEM)
    d = load_operator(problem, "C").data
    out = []
    rep = second_order_compat(d, problem.vflux())
    out.append(GoldenResult("flux-family-compatible", rep.passed, str(rep)))
    form = characteristic_form(problem.system.jacobian())
    out.append(GoldenResult("linearly-degenerate", linear_degeneracy_check(form).passed))
    out.append(GoldenResult("haantjes-zero", haantjes_zero_check(form).passed))
    cs = char_square_check(form)
    out.append(GoldenResult("char-poly-square", cs.passed,
                            "; ".join(cs.notes)))
    # independent route: the order-0 operator image on the potential covering
    C = second_order_potential_bivector(d)
    ctx = build_cotangent(potentialize(problem.system))
    res = bivector_residual(ctx, C)
    out.append(GoldenResult("potential-covering-residual-zero", _all_zero(res)))
    return out


# -- oriented associativity ---------------------------------------------------------------

SIX_FLUXES = (
    "u2",
    "(u2*u6 + u1*u4 - u2*u3)/u5",
    "u4",
    "(u2 + u4*u6)/u5",
    "u6",
    "(u6^2 - u3*u6 + u4*u5 - u1)/u5",
)

_SIX_PROBLEM = {
    "n": 6,
    "variables": ["q1", "q2", "q3", "q4", "q5", "q6"],
    "system": {"type": "conservative", "V": list(SIX_FLUXES)},
}


def _six_goldens():
    form = characteristic_form(Problem(_SIX_PROBLEM).system.jacobian())
    out = [
        GoldenResult("linearly-degenerate", linear_degeneracy_check(form).passed),
        GoldenResult("haantjes-nonzero", not haantjes_zero_check(form).passed,
                     "non-diagonalizable"),
    ]
    return out


# -- third-order instances ----------------------------------------------------------------

_THIRD_FLAT_PROBLEM = {
    "n": 2,
    "system": {"type": "conservative", "V": ["u1 + 2*u2", "-2*u1 - 5*u2"]},
    "operators": {
        "D": {"order": 3, "g": [["1", "0"], ["0", "-1"]], "variance": "lower",
              "c": "from-metric"},
    },
}


def _third_flat_goldens():
    problem = Problem(_THIRD_FLAT_PROBLEM)
    op = load_operator(problem, "D")
    ham, rep = op.compat(problem)
    out = [GoldenResult("operator-conditions", ham.passed),
           GoldenResult("compat", rep.passed, str(rep))]
    out.append(GoldenResult("covering-residual-zero",
                            _all_zero(op.residual(problem.covering()))))
    bad = [parse_scalar("u1^2"), parse_scalar("u2")]
    out.append(GoldenResult("quadratic-flux-fails",
                            not third_order_compat(op.data, bad).passed))
    return out


_THIRD_MONGE_PROBLEM = {
    "n": 2,
    "system": {"type": "conservative", "V": ["0", "0"]},
    "operators": {
        "D": {"order": 3, "g": [["-2*u2", "u1"], ["u1", "0"]], "variance": "lower",
              "c": "from-metric"},
    },
}


def _third_monge_goldens():
    (rep,) = load_operator(Problem(_THIRD_MONGE_PROBLEM), "D").intrinsic()
    return [GoldenResult("operator-conditions", rep.passed, str(rep))]


# -- registry -------------------------------------------------------------------------------

ENTRIES = (
    CatalogEntry("kdv", "Korteweg-de Vries: covering and bivector search",
                 _KDV_PROBLEM, _kdv_goldens),
    CatalogEntry("transport", "Linear transport u_t = u_x",
                 _TRANSPORT_PROBLEM, _transport_goldens),
    CatalogEntry("hydro2-pass", "n=2 hydrodynamic system compatible with the flat operator",
                 _HYDRO2_PASS, lambda: _hydro2(_HYDRO2_PASS, True)),
    CatalogEntry("hydro2-fail", "n=2 hydrodynamic system violating the curl condition",
                 _HYDRO2_FAIL, lambda: _hydro2(_HYDRO2_FAIL, False)),
    CatalogEntry("nonlocal-hydro2", "n=2 first-order operator with a symmetry tail",
                 _NONLOCAL_PROBLEM, _nonlocal_goldens),
    CatalogEntry("n4-second-order", "n=4 skew metric and its ten-parameter flux family",
                 _N4_PROBLEM, _n4_goldens),
    CatalogEntry("oriented-assoc", "Oriented associativity system of conservation laws",
                 _SIX_PROBLEM, _six_goldens),
    CatalogEntry("third-order-flat", "n=2 constant-metric third-order operator",
                 _THIRD_FLAT_PROBLEM, _third_flat_goldens),
    CatalogEntry("third-order-monge", "n=2 third-order operator with a nonconstant metric",
                 _THIRD_MONGE_PROBLEM, _third_monge_goldens),
)


def examples_catalog():
    return ENTRIES


def get_entry(name: str) -> CatalogEntry:
    for entry in ENTRIES:
        if entry.name == name:
            return entry
    raise InputError(f"no built-in example named {name!r}; try 'examples list'")

"""The public API's own guards, called directly: each bad call raises the named exception
with its message, and each degenerate argument (a zero, an empty monomial, an exponent of
zero) gets its defined value.  ``EvolutionSystem.hydrodynamic`` reads V through the
shape-checked converter that the problem loader and the geometry constructors use."""

import random
import runpy
import sys
import warnings
from fractions import Fraction

import pytest

from hhokit import geometry
from hhokit.covering import EvolutionSystem, LocalOperator, build_cotangent, operator_to_bivector
from hhokit.errors import InputError
from hhokit.geometry import char_square_check
from hhokit.grammar import parse_scalar
from hhokit.jets import DiffPoly, DiffSum, mono, pjet, ujet
from hhokit.problem import Problem, load_operator
from hhokit.rational import Poly, RatFunc, exact_div, mono_str, poly_gcd, rf_partial

u1, u2 = Poly.var(1), Poly.var(2)


def _raises(exc, message, call, *args):
    with pytest.raises(exc) as info:
        call(*args)
    assert type(info.value) is exc and str(info.value) == message


def test_zero_denominators_and_divisions_raise():
    _raises(ZeroDivisionError, "polynomial division by zero", exact_div, u1, Poly.zero())
    _raises(ZeroDivisionError, "rational function with zero denominator", RatFunc, u1, 0)
    _raises(ZeroDivisionError, "rational function division by zero",
            RatFunc.one().__truediv__, RatFunc.zero())
    _raises(ZeroDivisionError, "denominator vanishes at the sample point",
            RatFunc(Poly.one(), u1 - 1).evaluate, {1: Fraction(1)})


def test_negative_and_zero_exponents():
    _raises(ValueError, "negative exponent", Poly.var, 1, -1)
    _raises(ValueError, "negative exponent on polynomial", u1.__pow__, -1)
    assert Poly.var(2, 0) == Poly.one()
    assert RatFunc(u1 + 1) ** -2 == RatFunc(Poly.one(), (u1 + 1) ** 2)


def test_scalar_and_index_guards():
    _raises(ValueError, "not a constant polynomial", u1.const_value)
    _raises(ValueError, "not a scalar differential polynomial", DiffPoly.jet(1, 1).scalar_value)
    _raises(ValueError, "order-0 u variables belong in coefficients", ujet, 1, 0)
    _raises(ValueError, "field-variable index must be positive", rf_partial, RatFunc.var(1), 0)


def test_zero_and_empty_arguments_have_defined_values():
    assert Poly.zero().const_value() == 0 and Poly.zero().leading() == ((), 0)
    assert mono_str(()) == "1"
    assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
    assert poly_gcd(u1 * 2 + 4, Poly.zero()) == u1 + 2
    assert RatFunc.zero().leading_sign() == 0
    assert RatFunc.one().__eq__("1") is NotImplemented and RatFunc.one() != "1"
    assert DiffPoly.monomial(mono((), pjet(1)), RatFunc.zero()) == DiffPoly.zero()
    total = DiffSum()
    total.addmul(DiffPoly.ufield(1), DiffPoly.ufield(2), 0)
    assert total.value() == DiffPoly.zero()
    assert DiffPoly.odd_p(1, 4).max_jet_order() == 4


def test_operator_guards():
    _raises(InputError, "operator coefficients must be odd-free",
            LocalOperator.build, 1, [[((DiffPoly.odd_p(1), 1),)]])
    op = LocalOperator.build(1, [[((DiffPoly.one(), 1),)]])
    _raises(InputError, "nonlocal tails need a covering context",
            operator_to_bivector, op, None, ((1, 1),))
    ctx = build_cotangent(EvolutionSystem.hydrodynamic([["u1"]]))
    _raises(InputError, "no registered nonlocal slot r1", ctx.slot, 1)


def test_hydrodynamic_reads_velocity_through_the_converter():
    system = EvolutionSystem.hydrodynamic([["u1"]])
    assert system.velocity == ((parse_scalar("u1"),),) and system.n == 1
    velocity = EvolutionSystem.hydrodynamic([[1]]).velocity
    assert velocity == ((RatFunc.const(1),),) and type(velocity[0][0]) is RatFunc
    for bad in ([[1, 2]], [[1, 2], [3]], 5):
        _raises(InputError, "velocity matrix must be square", EvolutionSystem.hydrodynamic, bad)


def test_char_square_skips_a_sample_at_a_pole():
    # the first sampled u1 is a pole of the discriminant 1/(u1 - p)^2: that sample is
    # skipped, and five others certify it
    rng = random.Random(geometry._ROOT_SEED)
    p = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    a, z = RatFunc(Poly.one(), u1 - p), RatFunc.zero()
    rep = char_square_check([[a, z, z, z], [z, z, z, z], [z, z, a, z], [z, z, z, z]])
    assert rep.passed
    assert rep.notes == ("real roots certified at 5/5 sampled rational points only",)


def test_cli_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hhokit", "examples", "list"])
    with warnings.catch_warnings():  # hhokit.cli is imported already: runpy warns so
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("hhokit.cli", run_name="__main__")
    assert info.value.code == 0 and "kdv" in capsys.readouterr().out


def test_first_order_compat_without_a_system_is_input_error():
    problem = Problem({"n": 1, "operators": {"A": {"order": 1, "g": [["1"]],
                                                   "Gamma": [[["0"]]]}}})
    _raises(InputError, "first-order compatibility needs a hydrodynamic or conservative system",
            load_operator(problem, "A").compat, problem)

"""Deeply nested input and non-integer integer fields are bad input: exit 2
with an ``input error:`` message, never a traceback and never a verdict."""

import json
import time

import pytest

from hhokit.catalog import get_entry
from hhokit.cli import main
from hhokit.errors import ExpressionError, InputError
from hhokit.grammar import parse
from hhokit.problem import Problem


def run_file(tmp_path, capsys, command, text):
    path = tmp_path / "problem.json"
    path.write_text(text)
    code = main([command, "--file", str(path)])
    return code, capsys.readouterr().err


def kdv_with_flux(flux):
    problem = json.loads(json.dumps(get_entry("kdv").problem))
    problem["system"]["f"] = [flux]
    return problem


def nested(depth):
    return "(" * depth + "u1_x3 + u1*u1_x" + ")" * depth


def test_parenthesis_depth_is_bounded():
    assert parse(nested(100)) == parse("u1_x3 + u1*u1_x")
    with pytest.raises(ExpressionError, match=r"nested deeper than 100 \(line 1, column 101\)"):
        parse(nested(101))


def test_deeply_nested_flux_exits_two(tmp_path, capsys):
    code, err = run_file(tmp_path, capsys, "check-compat", json.dumps(kdv_with_flux(nested(300))))
    assert code == 2
    assert err.startswith("input error:") and "nested deeper than 100" in err
    assert "Traceback" not in err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    code, err = run_file(tmp_path, capsys, "check-compat", "[" * 100000 + "]" * 100000)
    assert code == 2
    assert err.startswith("input error: not valid JSON")


@pytest.mark.parametrize("n", [2.9, True, 2.0])
def test_non_integer_n_exits_two(tmp_path, capsys, n):
    problem = dict(get_entry("hydro2-fail").problem, n=n)
    code, err = run_file(tmp_path, capsys, "classify", json.dumps(problem))
    assert code == 2
    assert "input error: problem needs an integer field 'n'" in err


@pytest.mark.parametrize("key, value", [("order", 1.5), ("order", True), ("degree", 2.0),
                                        ("degree", False)])
def test_non_integer_task_field_exits_two(tmp_path, capsys, key, value):
    problem = dict(get_entry("kdv").problem, task={key: value})
    code, err = run_file(tmp_path, capsys, "find-bivectors", json.dumps(problem))
    assert code == 2
    assert f"input error: task field {key!r} must be an integer" in err


def test_integer_strings_still_load():
    problem = Problem(dict(get_entry("kdv").problem, n="1", task={"order": "2", "degree": 1}))
    assert problem.n == 1
    with pytest.raises(InputError, match="integer field 'n'"):
        Problem(dict(get_entry("kdv").problem, n="1.0"))


def test_power_expansion_is_bounded():
    assert len(parse("(u1 + u2 + u3)^40").scalar_value().num.terms) == 861
    start = time.perf_counter()
    # the error points at the exponent; the last base is bounded by its denominator
    for base, e in (("(u1 + u2 + u3 + u4 + u5)", "40"), ("(u1 + u2 + u3 + u4 + u5)", "20"),
                    ("(u1_x + u2)", "9" * 40), ("(u1_x/(u1 + u2 + u3 + u4 + u5 + 1))", "40")):
        with pytest.raises(ExpressionError,
                           match=rf"more than 10000 terms \(line 1, column {len(base) + 2}\)"):
            parse(f"{base}^{e}")
    assert time.perf_counter() - start < 0.5
    assert parse("u1^100000") == parse("u1") ** 100000


def test_oversized_power_exits_two(tmp_path, capsys):
    flux = "(u1 + u1_x + u1_xx + u1_x3 + u1_x4)^40"
    code, err = run_file(tmp_path, capsys, "check-compat", json.dumps(kdv_with_flux(flux)))
    assert code == 2
    assert err.startswith("input error: power would expand to more than 10000 terms")
    assert "Traceback" not in err


def test_power_cost_is_bounded_below_the_term_cap():
    start = time.perf_counter()
    # each error points at the exponent
    for text, col, cause in (("(u1+u2)^2000", 9, "take more than 250000 term products"),
                             ("(u1+u2)^9999", 9, "take more than 250000 term products"),
                             ("(u1 + u2 + u3)^100", 16, "take more than 250000 term products"),
                             ("(2*u1)^100000", 8, "have coefficients of more than 2048 bits"),
                             ("(7*u1_x + u2/9)^800", 17, "have coefficients of more than 2048 bits")):
        with pytest.raises(ExpressionError, match=rf"power would {cause} \(line 1, column {col}\)"):
            parse(text)
    assert time.perf_counter() - start < 0.5
    assert len(parse("(u1 + u2 + u3)^40").scalar_value().num.terms) == 861
    assert sum(len(c.num.terms) for c in parse("(u1_x + u2_x + u3)^40").terms.values()) == 861
    assert parse("u1_x^100000") == parse("u1_x") ** 100000


def test_costly_power_exits_two(tmp_path, capsys):
    problem = {"n": 2, "system": {"type": "conservative", "V": ["(u1+u2)^9999", "u1"]}}
    start = time.perf_counter()
    code, err = run_file(tmp_path, capsys, "classify", json.dumps(problem))
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert err.startswith("input error: power would take more than 250000 term products")
    assert "Traceback" not in err

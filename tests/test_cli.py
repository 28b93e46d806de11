"""CLI surface: exit codes, problem files, reports, determinism."""

import json
import time

import pytest

from hhokit.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_examples_list(capsys):
    code, out, _ = run(["examples", "list"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) >= 5
    assert "kdv" in out


def test_examples_show(capsys):
    code, out, _ = run(["examples", "show", "n4-second-order"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["operators"]["C"]["T"] == {"1,2,3": "1"}
    assert data["operators"]["C"]["g0"] == {"3,4": "1"}


def test_examples_run_all(capsys):
    code, out, _ = run(["examples", "run", "--all"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_check_compat_kdv_operator(capsys):
    code, out, _ = run(["check-compat", "--example", "kdv", "--operator", "A2"], capsys)
    assert code == 0
    assert "[pass]" in out


def test_find_bivectors_kdv(capsys):
    code, out, _ = run(["find-bivectors", "--example", "kdv",
                        "--order", "3", "--degree", "1"], capsys)
    assert code == 0
    assert "dimension 2" in out
    assert "p1_x3" in out


def test_classify_oriented_assoc(capsys):
    code, out, _ = run(["classify", "--example", "oriented-assoc"], capsys)
    assert code == 1  # haantjes-zero fails: the system is not diagonalizable
    assert "[pass] linear-degeneracy" in out
    assert "[FAIL] haantjes-zero" in out


def test_math_failure_exits_one(capsys):
    code, out, _ = run(["check-compat", "--example", "hydro2-fail",
                        "--operator", "A"], capsys)
    assert code == 1
    assert "[FAIL]" in out


def test_input_errors_exit_two(tmp_path, capsys):
    code, _, err = run(["check-op", "--example", "no-such-example"], capsys)
    assert code == 2 and "input error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["check-op", "--file", str(bad)], capsys)
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _, err = run(["check-op", "--file", str(missing)], capsys)
    assert code == 2
    parse_err = tmp_path / "parse.json"
    parse_err.write_text(json.dumps({
        "n": 1, "system": {"type": "fluxes", "f": ["u1_x + $"]}}))
    code, _, err = run(["check-op", "--file", str(parse_err)], capsys)
    assert code == 2 and "column" in err


def test_degenerate_metric_exits_two(tmp_path, capsys):
    problem = {
        "n": 2,
        "system": {"type": "conservative", "V": ["u1", "u2"]},
        "operators": {"C": {"order": 2, "T": {}, "g0": {}}},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(problem))
    code, _, err = run(["check-compat", "--file", str(path), "--operator", "C"], capsys)
    assert code == 2
    assert "det g" in err or "degenerate" in err.lower()


def test_problem_file_roundtrip(tmp_path, capsys):
    problem = {
        "n": 1,
        "system": {"type": "fluxes", "f": ["u1_x3 + u1*u1_x"]},
        "operators": {"A": {"bivector": ["p1_x"]}},
    }
    path = tmp_path / "kdv.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(["check-compat", "--file", str(path), "--operator", "A"], capsys)
    assert code == 0


def test_json_report_deterministic_and_parseable(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    run(["find-bivectors", "--example", "kdv", "--order", "3", "--degree", "1",
         "--json", str(out1)], capsys)
    run(["find-bivectors", "--example", "kdv", "--order", "3", "--degree", "1",
         "--json", str(out2)], capsys)
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema"] == 1
    assert payload["input_hash"]
    # every emitted basis expression parses back to the same normal form
    from hhokit.grammar import format_diffpoly, parse
    for fam in payload["families"]:
        for member in fam["basis"]:
            for expr in member:
                assert format_diffpoly(parse(expr)) == expr


def test_task_block_supplies_defaults(capsys):
    # the n4 example carries a task block: no flags needed
    code, out, _ = run(["find-fluxes", "--example", "n4-second-order",
                        "--no-classify"], capsys)
    assert code == 0
    assert "dimension 10" in out


def test_variables_naming_length_checked(tmp_path, capsys):
    problem = {"n": 2, "variables": ["a"],
               "system": {"type": "fluxes", "f": ["u1_x", "u2_x"]}}
    path = tmp_path / "names.json"
    path.write_text(json.dumps(problem))
    code, _, err = run(["classify", "--file", str(path)], capsys)
    assert code == 2


def test_reduce_nonzero_residual(tmp_path, capsys):
    problem = {
        "n": 1,
        "system": {"type": "fluxes", "f": ["u1_x3 + u1*u1_x"]},
        "operators": {"A": {"bivector": ["u1*p1_x"]}},
    }
    path = tmp_path / "reduce.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(["reduce", "--file", str(path), "--operator", "A"], capsys)
    assert code == 1
    assert "residual A" in out


def test_symmetries_and_r_in_problem_files(tmp_path, capsys):
    problem = {
        "n": 2,
        "system": {"type": "hydrodynamic", "V": [["u1", "u2"], ["u2", "u1"]]},
        "symmetries": [["u1_x + u2_x", "u1_x + u2_x"]],
        "operators": {
            "B": {"bivector": ["p1_x + (u1_x + u2_x)*r1",
                               "p2_x + (u1_x + u2_x)*r1"]},
        },
    }
    path = tmp_path / "nonlocal.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(["check-compat", "--file", str(path), "--operator", "B"], capsys)
    assert code == 0
    assert "[pass]" in out


_KDV_SYSTEM = {"type": "fluxes", "f": ["u1_x3 + u1*u1_x"]}
_N2_SYSTEM = {"type": "conservative", "V": ["u1", "u2"]}


@pytest.mark.parametrize("command, problem", [
    ("classify", {"n": 1, "system": [1]}),
    ("check-op", {"n": 1, "system": _KDV_SYSTEM, "operators": [1]}),
    ("check-op", {"n": 2, "system": _N2_SYSTEM,
                  "operators": {"C": {"order": 2, "T": {"1,2,3": "1"}, "g0": {"1,2": "1"}}}}),
    ("check-op", {"n": 2, "system": _N2_SYSTEM,
                  "operators": {"C": {"order": 2, "T": {}, "g0": {"1,x": "1"}}}}),
    ("check-op", {"n": 1, "system": _KDV_SYSTEM, "operators": {"A": 1}}),
    ("classify", {"n": 1, "system": {"type": "fluxes", "f": [1]}}),
    ("classify", {"n": 2, "system": {"type": "hydrodynamic", "V": 5}}),
    ("classify", {"n": 1, "system": _KDV_SYSTEM, "symmetries": None}),
    ("check-op", {"n": 2, "operators": {"D": {"order": 3, "g": [["1", "0"], ["0", "1"]],
                                              "w": [[["1", "0"], ["0", "1"]]],
                                              "weights": [[1]]}}}),
    ("find-bivectors", {"n": 1, "system": _KDV_SYSTEM, "task": {"order": "x"}}),
    ("check-op", {"n": 1, "task": 5}),
    ("check-op", {"n": 1, "task": {"operator": 5}}),
    ("check-op", {"n": 3, "operators": {"C": {"order": 2, "T": {"1,2": "1"}, "g0": {}}}}),
    ("reduce", {"n": 1, "system": {"type": "fluxes", "f": ["u1_x2"]}}),
    ("reduce", {"n": 1, "system": {"type": "fluxes", "f": ["c1_x"]}}),
    ("reduce", {"n": 1, "system": {"type": "fluxes", "f": ["(1"]}}),
    ("reduce", {"n": 1, "system": {"type": "fluxes", "f": ["1/0"]}}),
    ("reduce", {"n": 1, "system": _KDV_SYSTEM, "operators": {"A": {"bivector": ["p1_x*p1"]}}}),
    ("find-fluxes", {"n": 2, "system": _N2_SYSTEM, "task": {"operator": "C", "denominator": "u9"},
                     "operators": {"C": {"order": 2, "T": {}, "g0": {"1,2": "1"}}}}),
    ("reduce", {"n": 1, "system": _KDV_SYSTEM, "symmetries": [["p1_x"]]}),
    ("reduce", {"n": 1, "system": _KDV_SYSTEM, "symmetries": [["r1"]]}),
    ("reduce", {"n": 1, "system": _KDV_SYSTEM, "symmetries": [["u1_x"], ["u1_x + r1"]]}),
    ("check-op", {"n": 3, "operators": {"C": {"order": 2, "T": {"1,2,3": "1", "2,1,3": "1"},
                                              "g0": {"2,3": "1"}}}}),
    ("check-op", {"n": 3, "operators": {"C": {"order": 2, "T": {"1,2,3": "1"},
                                              "g0": {"2,3": "1", "3,2": "5"}}}}),
    ("check-op", {"n": 3, "operators": {"C": {"order": 2, "T": {"1,2,3": "1"},
                                              "g0": {"2,2": "1"}}}}),
    ("check-op", {"n": 3, "operators": {"C": {"order": 2, "T": {"1,2,3": "1"},
                                              "g0": {"2,3": "1", "2, 3": "1"}}}}),
])
def test_malformed_problem_is_input_error(tmp_path, capsys, command, problem):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(problem))
    code, _, err = run([command, "--file", str(path)], capsys)
    assert code == 2
    assert "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("operator", [
    {"order": 1, "g": [["1", "1"], ["1", "1"]],
     "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
    {"order": 3, "g": [["u1", "u2"], ["u1", "u2"]]},
])
def test_degenerate_metric_message(tmp_path, capsys, operator):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"n": 2, "operators": {"A": operator}}))
    code, _, err = run(["check-op", "--file", str(path)], capsys)
    assert code == 2
    assert err == "input error: det g = 0\n"


_HYDRO2_TAIL = {
    "n": 2,
    "system": {"type": "hydrodynamic", "V": [["u1", "u2"], ["u2", "u1"]]},
    "operators": {"B": {"order": 1, "g": [["1", "0"], ["0", "1"]],
                        "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}},
}


@pytest.mark.parametrize("W, symmetry, expected", [
    ([["1", "1"], ["1", "1"]], ["u1_x + u2_x", "u1_x + u2_x"], 0),
    ([["0", "1"], ["1", "0"]], ["u2_x", "u1_x"], 1),
])
def test_reduce_includes_first_order_tail(tmp_path, capsys, W, symmetry, expected):
    problem = json.loads(json.dumps(_HYDRO2_TAIL))
    problem["operators"]["B"]["W"] = W
    problem["symmetries"] = [symmetry]
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(["reduce", "--file", str(path)], capsys)
    assert code == expected
    assert ("[FAIL] residual-zero[B]" in out) == (expected == 1)
    compat, _, _ = run(["check-compat", "--file", str(path)], capsys)
    assert compat == expected


def test_reduce_rejects_third_order_tails(tmp_path, capsys):
    path = tmp_path / "third.json"
    path.write_text(json.dumps({
        "n": 1, "system": {"type": "conservative", "V": ["u1^2"]},
        "operators": {"D": {"order": 3, "g": [["1"]], "w": [[["1"]]]}}}))
    code, _, err = run(["reduce", "--file", str(path)], capsys)
    assert code == 2
    assert err.startswith("input error: reduce does not cover the nonlocal tails")


def test_expression_index_outside_n_is_input_error(tmp_path, capsys):
    path = tmp_path / "index.json"
    path.write_text(json.dumps({
        "n": 2, "system": {"type": "hydrodynamic", "V": [["u1", "u2"], ["u2", "u1"]]},
        "symmetries": [["u1_x + u2_x", "u4_x"]]}))
    code, _, err = run(["reduce", "--file", str(path)], capsys)
    assert code == 2
    assert err == "input error: expression 'u4_x' uses a variable index outside 1..2\n"


def test_reduce_tail_that_is_not_a_symmetry_fails(tmp_path, capsys):
    problem = json.loads(json.dumps(_HYDRO2_TAIL))
    problem["operators"]["B"]["W"] = [["1", "0"], ["0", "0"]]
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(problem))
    code, out, err = run(["reduce", "--file", str(path)], capsys)
    assert (code, err) == (1, "")
    assert "[FAIL] tail-symmetry[B]" in out
    assert "residual tail-symmetry[B]" in out
    compat, out, _ = run(["check-compat", "--file", str(path)], capsys)
    assert compat == 1
    assert "[FAIL] nonlocal-first-order" in out


def test_declared_symmetry_that_is_not_one_is_input_error(tmp_path, capsys):
    # the entry is named; a W u_x tail that is not a symmetry stays a failed verdict (above)
    path = tmp_path / "symmetry.json"
    path.write_text(json.dumps({
        "n": 1, "system": {"type": "fluxes", "f": ["u1_x3 + u1*u1_x"]},
        "symmetries": [["u1_x"], ["u1_xx"]], "operators": {"A": {"bivector": ["p1_x"]}}}))
    for command in ("reduce", "check-compat"):
        code, out, err = run([command, "--file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "input error: symmetry 2 is not a symmetry of the system\n"


@pytest.mark.parametrize("odd", ["p1", "p1_x", "r1"])
def test_declared_symmetry_with_odd_variables_is_input_error(tmp_path, capsys, odd):
    # refused at load, whichever odd variable it is, before any covering is built
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({
        "n": 1, "system": {"type": "fluxes", "f": ["u1_x3 + u1*u1_x"]},
        "symmetries": [["u1_x"], [f"u1*{odd}"]], "operators": {"A": {"bivector": ["p1_x"]}}}))
    for command in ("reduce", "classify"):
        code, out, err = run([command, "--file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "input error: symmetry 2 contains odd variables\n"


def test_sparse_generators_are_bounded_by_the_dense_size(tmp_path, capsys):
    for n, expected in [(21, 0), (120, 2)]:
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({
            "n": n, "operators": {"C": {"order": 2, "T": {"1,2,3": "1"}, "g0": {}}}}))
        code, out, err = run(["check-op", "--file", str(path), "--operator", "C"], capsys)
        assert code == expected
    assert out == ""
    assert err == ("input error: sparse generators at n = 120 need a dense T of "
                   "1728000 entries (cap 10000)\n")


def test_huge_order_is_rejected_before_counting(capsys):
    # the exact count takes O(order^2) big-integer steps (1.2 s at this order);
    # a lower bound on it rejects the search first
    start = time.perf_counter()
    code, out, err = run(["find-bivectors", "--example", "kdv", "--order", "3000"], capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "input error: ansatz would need more than 9000000 parameters (cap 10000)\n"


@pytest.mark.parametrize("extra, message", [
    (["--degree", "1", "--denominator", "0"], "flux denominator must be nonzero"),
    (["--degree", "-1"], "degree bound must be >= 0"),
    (["--denominator", "u9"], "expression 'u9' uses a variable index outside 1..4"),
])
def test_find_fluxes_rejects_bad_degree_and_denominator(capsys, extra, message):
    code, out, err = run(["find-fluxes", "--example", "n4-second-order", *extra], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_find_fluxes_rejects_a_rational_denominator(capsys):
    code, out, err = run(["find-fluxes", "--example", "n4-second-order", "--degree", "1",
                          "--denominator", "1/u1"], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: --denominator must be polynomial\n"


@pytest.mark.parametrize("den", ["c1", "u1+c1"])
def test_find_fluxes_rejects_parameter_in_denominator(capsys, den):
    # bad input, not an engine error: exit 2 with the input-error prefix
    code, out, err = run(["find-fluxes", "--example", "n4-second-order", "--degree", "1",
                          "--denominator", den], capsys)
    assert (code, out) == (2, "")
    assert err == "input error: flux denominator must not contain parameters\n"


@pytest.mark.parametrize("expr, col", [("u1/(1+c1)", 3), ("(c1*u1)/c1", 8), ("u1/(u2*c1)", 3)])
def test_parameter_in_divisor_is_an_input_error(tmp_path, capsys, expr, col):
    # a denominator stays parameter-free: refused at the '/', not as an engine error
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps({"n": 2, "system": {"type": "conservative", "V": [expr, "u2"]}}))
    code, out, err = run(["classify", "--file", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error:")
    assert err.endswith(f"(line 1, column {col})\n")


_OWN_PARAMETERS = ("a search names its own parameters c1, c2, ..., "
                   "so its data must be parameter-free")


def test_find_bivectors_refuses_fluxes_holding_parameters(capsys):
    # the catalog's n=4 fluxes carry c1..c10, which the ansatz's own c1.. would meet
    code, out, err = run(["find-bivectors", "--example", "n4-second-order"], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: formal parameter c1 in flux 1: {_OWN_PARAMETERS}\n"


@pytest.mark.parametrize("g, c, where", [
    ([["u1", "0"], ["0", "c2*u2 + 1"]], "from-metric", "c2 in metric entry g[2][2]"),
    ([["1", "0"], ["0", "1"]], [[["c1*u1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
     "c1 in the c symbols"),
])
def test_find_fluxes_refuses_third_order_data_holding_parameters(tmp_path, capsys, g, c, where):
    # without the check the flux ansatz's c1.. multiply these and the search fails in the engine
    path = tmp_path / "third.json"
    path.write_text(json.dumps({"n": 2, "operators": {"D": {"order": 3, "g": g, "c": c}},
                                "task": {"operator": "D", "degree": 1}}))
    code, out, err = run(["find-fluxes", "--file", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: formal parameter {where}: {_OWN_PARAMETERS}\n"


_N_BELOW_ONE = "problem field 'n' must be at least 1"
_NO_ORDER = "operator 'A' needs 'order' in 1..3 or a 'bivector' field"
_NOT_A_NUMBER = "expected a rational number, got True"


@pytest.mark.parametrize("n, operator, message", [
    (0, {"order": 1, "g": [], "Gamma": []}, _N_BELOW_ONE),
    (-1, {"order": 1, "g": [], "Gamma": []}, _N_BELOW_ONE),
    (1, {"order": True, "g": [["1"]], "Gamma": [[["0"]]]}, _NO_ORDER),
    (1, {"order": 1.0, "g": [["1"]], "Gamma": [[["0"]]]}, _NO_ORDER),
    (1, {"order": 3.0, "g": [["1"]]}, _NO_ORDER),
    (1, {"order": 2, "T": [[[True]]], "g0": [[1]]}, _NOT_A_NUMBER),
    (1, {"order": 2, "T": [[[0]]], "g0": [[True]]}, _NOT_A_NUMBER),
    (2, {"order": 2, "T": {}, "g0": {"1,2": True}}, _NOT_A_NUMBER),
    (1, {"order": 3, "g": [["1"]], "w": [[["0"]]], "weights": [True]}, _NOT_A_NUMBER),
], ids=["n-0", "n-minus-1", "order-true", "order-1.0", "order-3.0", "T-true", "g0-true",
        "sparse-g0-true", "weight-true"])
def test_n_below_one_json_booleans_and_floats_are_input_errors(tmp_path, capsys, n, operator,
                                                               message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"n": n, "operators": {"A": operator}}))
    code, out, err = run(["check-op", "--file", str(path)], capsys)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("operator, spelled", [
    ({"order": 2, "T": [[[0]]], "g0": [[0.1]]}, {"order": 2, "T": [[[0]]], "g0": [["1/10"]]}),
    ({"order": 2, "T": [[[0]]], "g0": [[2.5e-3]]}, {"order": 2, "T": [[[0]]], "g0": [["0.0025"]]}),
    ({"order": 2, "T": [[[0.3]]], "g0": [[0]]}, {"order": 2, "T": [[["3/10"]]], "g0": [[0]]}),
], ids=["g0-0.1", "g0-2.5e-3", "T-0.3"])
def test_json_float_loads_as_the_decimal_it_spells(tmp_path, capsys, operator, spelled):
    results = []
    for op in (operator, spelled):
        path = tmp_path / "decimal.json"
        path.write_text(json.dumps({"n": 1, "operators": {"C": op}}))
        results.append(run(["check-op", "--file", str(path)], capsys))
    assert results[0] == results[1]
    assert results[0][0] == 1  # the check fails, with the decimal's exact residual


@pytest.mark.parametrize("value, shown", [
    (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"), (True, "True"),
])
def test_json_non_finite_and_boolean_numbers_stay_input_errors(tmp_path, capsys, value, shown):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"n": 1, "operators": {"C": {"order": 2, "T": [[[0]]],
                                                            "g0": [[value]]}}}))
    code, out, err = run(["check-op", "--file", str(path)], capsys)
    assert (code, out, err) == (2, "", f"input error: expected a rational number, got {shown}\n")


@pytest.mark.parametrize("argv, message", [
    (["show"], "examples show needs a NAME (see examples list)"),
    (["list", "kdv"], "examples list takes no NAME, got 'kdv'"),
    (["run", "kdv", "--all"], "examples run takes a NAME or --all, not both (got 'kdv')"),
    (["show", "kdv", "--all"], "examples show takes no --all (only examples run does)"),
    (["list", "--all"], "examples list takes no --all (only examples run does)"),
], ids=["show-no-name", "list-name", "run-name-and-all", "show-all", "list-all"])
def test_examples_misuse_is_an_input_error(capsys, argv, message):
    code, out, err = run(["examples", *argv], capsys)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_plain_examples_run_runs_every_example(capsys):
    code, out, _ = run(["examples", "run"], capsys)
    assert code == 0
    assert out == run(["examples", "run", "--all"], capsys)[1]


@pytest.mark.parametrize("written, spelled", [
    ("1e-400", "1/1" + "0" * 400),
    ("0.10000000000000000001", "10000000000000000001/100000000000000000000"),
    ("1E+1000", "1" + "0" * 1000),
], ids=["below-double", "past-17-digits", "at-the-exponent-bound"])
def test_json_number_loads_exactly_from_its_text(tmp_path, capsys, written, spelled):
    # a double would read 1e-400 as 0 (a wrong pass), the long decimal as 1/10, 1e1000 as inf
    results = []
    for g0 in (written, json.dumps(spelled)):
        path = tmp_path / "exact.json"
        path.write_text('{"n": 1, "operators": {"C": {"order": 2, "T": [[[0]]], "g0": [[%s]]}}}'
                        % g0)
        results.append(run(["check-op", "--file", str(path)], capsys))
    assert results[0] == results[1]
    assert results[0][0] == 1 and results[0][1].startswith("[FAIL] second-order-canonical")


@pytest.mark.parametrize("written", ["1e1001", "-2.5E-1001", "1e999999999", "1e" + "9" * 5000],
                         ids=["past-the-bound", "negative-past-the-bound", "billion", "long"])
def test_json_number_exponent_past_the_bound_is_an_input_error(tmp_path, capsys, written):
    # refused from the exponent's text: the number itself is never built
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "operators": {"C": {"order": 2, "T": [[[0]]], "g0": [[%s]]}}}'
                    % written)
    code, out, err = run(["check-op", "--file", str(path)], capsys)
    assert (code, out, err) == (2, "", f"input error: number {written} has an exponent beyond "
                                       "±1000\n")


@pytest.mark.parametrize("cap, message", [
    ("abc", "input error: HHOKIT_JET_CAP must be an integer, got 'abc'"),
    ("0", "input error: HHOKIT_JET_CAP must be positive, got 0"),
    ("3", "engine error: jet order 4 exceeds cap 3 (set HHOKIT_JET_CAP to raise it)"),
], ids=["not-an-integer", "not-positive", "below-the-search"])
def test_jet_cap_faults_in_a_search_exit_2_without_a_traceback(monkeypatch, capsys, cap,
                                                                message):
    monkeypatch.setenv("HHOKIT_JET_CAP", cap)
    code, out, err = run(["find-bivectors", "--example", "kdv", "--order", "3", "--degree", "1"],
                         capsys)
    assert (code, out, err) == (2, "", message + "\n")


_FLAT_FIRST = {"order": 1, "g": [["1", "0"], ["0", "1"]],
               "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}


@pytest.mark.parametrize("V, W, expected", [
    (["u1^2/2 + u2^2/2", "u1*u2"], None, (0, "[pass] tsarev-compat")),
    (["u1^2", "u2^2 + u1*u2"], None, (1, "[FAIL] tsarev-compat")),
    (["u1^2/2 + u2^2/2", "u1*u2"], [["1", "1"], ["1", "1"]], (0, "[pass] nonlocal-first-order")),
], ids=["passes", "fails", "with-tail"])
def test_first_order_check_compat_takes_a_conservative_system(tmp_path, capsys, V, W, expected):
    # the closed-form route reads the flux Jacobian and agrees with the covering route
    operator = dict(_FLAT_FIRST, **({"W": W} if W else {}))
    path = tmp_path / "conservative.json"
    path.write_text(json.dumps({"n": 2, "system": {"type": "conservative", "V": V},
                                "operators": {"A": operator}}))
    code, out, _ = run(["check-compat", "--file", str(path)], capsys)
    assert (code, out.splitlines()[0]) == expected
    assert run(["reduce", "--file", str(path)], capsys)[0] == expected[0]
    path.write_text(json.dumps({"n": 2, "system": {"type": "potential", "V": V},
                                "operators": {"A": operator}}))
    assert run(["check-compat", "--file", str(path)], capsys) == (
        2, "", "input error: first-order compatibility needs a hydrodynamic or conservative "
               "system\n")

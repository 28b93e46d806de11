"""Outside input is read through one converter and one expression leaf: each malformed input
is an input error (exit 2) that names what is wrong.  Malformed problem files are cases of
``tests/test_cli.py``'s ``test_malformed_problem_is_input_error``."""

import json

import pytest

from hhokit.cli import main
from hhokit.covering import BivectorForm, EvolutionSystem, bivector_residual, build_cotangent
from hhokit.errors import ExpressionError, InputError
from hhokit.geometry import Connection, Metric, SecondOrderData, ThirdOrderData, as_matrix
from hhokit.grammar import parse

_N2 = {"type": "conservative", "V": ["u1", "u2"]}


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("problem, argv, message", [
    (None, ["check-op"], "provide --file PROBLEM.json or --example NAME"),
    (None, ["check-op", "--example", "kdv", "--operator", "Z"],
     "no operator named 'Z' in the problem"),
    (None, ["find-bivectors", "--example", "kdv", "--degree", "-1"],
     "degree bound must be >= 0"),
    ({"n": 2, "system": _N2, "operators": {"C": {"order": 2, "T": [[[0, 0], [0, 0]]] * 2,
                                                  "g0": [["0", "1"], ["1", "0"]]}}},
     ["find-fluxes", "--operator", "C"], "second-order data is not in canonical form: g0-skew"),
])
def test_guard_names_the_bad_input(tmp_path, capsys, problem, argv, message):
    if problem is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        argv = [argv[0], "--file", str(path), *argv[1:]]
    assert _run(argv, capsys) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("text, col", [("p1_x*p1", 5), ("p1^2", 3), ("u1*(p1 + u1)^2", 13),
                                       ("(p1 + u1)*(u1_x + r1)", 10)])
def test_odd_product_is_an_expression_error_at_its_operator(text, col):
    with pytest.raises(ExpressionError, match="product of two odd variables") as err:
        parse(text)
    assert err.value.col == col


def test_odd_powers_and_even_products_still_parse():
    assert parse("p1^1") == parse("p1")
    assert parse("p1^0") == parse("1")
    assert parse("0*p1*p2").is_zero
    assert parse("u1_x*p1*u2") == parse("u1_x*u2*p1")


@pytest.mark.parametrize("make, message", [
    (lambda: as_matrix(["10", "01"]), "matrix must be square"),
    (lambda: as_matrix("10"), "matrix must be square"),
    (lambda: as_matrix([["u1", "$"]]), "matrix must be square"),
    (lambda: Metric([[1, 0], 5]), "matrix must be square"),
    (lambda: Connection(Metric([[1]]), [["0"]]), "connection symbols must be n x n x n"),
    (lambda: SecondOrderData([[[0]]], ["0"]), "g0 must be n x n"),
    (lambda: SecondOrderData([[[0]]], 5), "g0 must be n x n"),
    (lambda: ThirdOrderData(Metric([[1]]), [[1]]), "c must be n x n x n"),
])
def test_api_levels_must_be_lists_or_tuples_of_their_length(make, message):
    # each level is checked before its entries are read: a shape error comes before a bad entry
    with pytest.raises(InputError, match=message):
        make()


def test_api_converter_keeps_tuples_and_reads_entries():
    M = as_matrix(((1, "u1"), [0, "1/2"]))
    assert M == as_matrix([["1", "u1"], ["0", "1/2"]])
    assert isinstance(M, tuple) and all(isinstance(row, tuple) for row in M)


def test_bivector_with_the_wrong_component_count_is_input_error():
    ctx = build_cotangent(EvolutionSystem.general([parse("u1_x3 + u1*u1_x")]))
    with pytest.raises(InputError, match="^expected 1 components, one per field, got 2$"):
        bivector_residual(ctx, BivectorForm((parse("p1_x"), parse("p1"))))

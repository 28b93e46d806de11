"""Byte-identity guard for CLI paths the catalog reports do not reach.

``test_report_identity.py`` pins every catalog example through check-op,
check-compat, classify and reduce.  The cases here pin the other paths: the
``--full`` switch, ``find-fluxes`` on operators of the wrong kind and on the
n=4 second-order family (its classification runs ``haantjes`` with free
parameters in V), ``find-bivectors`` on KdV and on the cyclic n=3 system (each
basis member is read off the pivot rows), check-compat refusals and
failures, ``reduce`` over two operators whose tails share one covering, a
third-order operator with tails ``w`` (their symmetry residuals are
linearizations on the potential covering), ``find-fluxes`` on a third-order
operator, second-order data given as full ``T``/``g0`` arrays, third-order data
with explicit ``c`` symbols, and ``reduce`` on a potential system.
Each case pins the exit code, the standard error and the sha256 of the
``--json`` report.
"""

import copy
import hashlib
import json

import pytest

from hhokit.catalog import examples_catalog
from hhokit.cli import main

from genutil import catalog_data

_PROBLEMS = {entry.name: entry.problem for entry in examples_catalog()}


def _variant(example, **changes):
    doc = copy.deepcopy(_PROBLEMS[example])
    doc.update(copy.deepcopy(changes))
    return doc


_N4 = catalog_data("n4-second-order", "C")

_FLAT = {"order": 1, "g": [["1", "0"], ["0", "1"]],
         "Gamma": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}

FILES = {
    # a first-order operator on a conservative (not hydrodynamic) system
    "first-on-conservative": _variant(
        "hydro2-pass", system={"type": "conservative", "V": ["u1*u2", "u1^2/2"]}),
    # the n=4 second-order operator on a hydrodynamic system: no flux potentials
    "second-on-hydrodynamic": _variant(
        "n4-second-order", system={"type": "hydrodynamic", "V": [
            ["u1", "0", "0", "0"], ["0", "u2", "0", "0"],
            ["0", "0", "u3", "0"], ["0", "0", "0", "u4"]]}),
    # u1*p1_x is not a bivector of KdV
    "kdv-failing-bivector": _variant(
        "kdv", operators={"B": {"bivector": ["u1*p1_x"]}}),
    # two tails registered on one covering (r1 declared, r2 and r3 the tails
    # of B and S), then a bivector Z that reads both tail potentials
    "two-tails": _variant(
        "nonlocal-hydro2",
        operators={"B": dict(_FLAT, W=[["1", "1"], ["1", "1"]]),
                   "S": dict(_FLAT, W=[["0", "1"], ["1", "0"]]),
                   "Z": {"bivector": ["u1_x*r3", "u2_x*r2"]}}),
    # the cyclic n=3 hydrodynamic system: 144 ansatz parameters at order 1, degree 1
    "cyclic3": {"n": 3, "system": {"type": "hydrodynamic", "V": [
        ["u1", "u2", "u3"], ["u2", "u3", "u1"], ["u3", "u1", "u2"]]}},
    # a bivector whose residual components have more than 20 terms
    "long-residual": {
        "n": 2, "system": {"type": "hydrodynamic", "V": [["u1", "u2"], ["u2", "u1"]]},
        "operators": {"B": {"bivector": [
            "u1^2*u2*p2_x3 + u2*p1_xx + u1_x*u2*p2_x",
            "u2^2*p1_x3 + u1*u2*p2_x + u2_xx*p1"]}}},
    # two tails w on the flat third-order operator, one with a nonconstant entry
    "third-with-tails": _variant(
        "third-order-flat", operators={"D": {
            "order": 3, "g": [["1", "0"], ["0", "-1"]], "variance": "lower",
            "c": "from-metric", "w": [[["0", "1"], ["1", "u2"]], [["0", "1"], ["1", "0"]]],
            "weights": ["1", "-1/2"]}}),
    # the n=4 second-order operator with T and g0 written out as full arrays
    "n4-full": _variant(
        "n4-second-order", operators={"C": {
            "order": 2, "T": [[[str(x) for x in row] for row in plane] for plane in _N4.T],
            "g0": [[str(x) for x in row] for row in _N4.g0]}}),
    # the Monge metric's c symbols written out instead of derived
    "monge-explicit-c": _variant(
        "third-order-monge", operators={"D": {
            "order": 3, "g": [["-2*u2", "u1"], ["u1", "0"]], "variance": "lower",
            "c": [[["0", "0"], ["-1/u1^2", "0"]], [["0", "0"], ["-2*u2/u1^3", "1/u1^2"]]]}}),
    # a potential system b_t = V(b_x): its linearization is the single band dV/du
    "potential": {
        "n": 2, "system": {"type": "potential", "V": ["u1*u2", "u1^2/2 + u2^2/2"]},
        "operators": {"P": {"bivector": ["p2", "-p1"]},
                      "Q": {"bivector": ["u2*p2_x", "p1 + u1_x*p2"]},
                      "D": {"order": 3, "g": [["1", "0"], ["0", "-1"]], "variance": "lower",
                            "c": "from-metric"}}},
}

# "<command> <flags>" (a --file name is a key of FILES) -> (exit code, report
# sha256 or None, standard error)
PINNED = {
    "check-compat --file first-on-conservative": (2, None,
        "input error: first-order compatibility needs a hydrodynamic system\n"),
    "check-compat --file kdv-failing-bivector": (1, "80a02441d3b943bb9c447a2b1c3d52c63c137d897c1a3a878ec8ced26efa233c", ""),
    "check-compat --file monge-explicit-c": (0, "6ea5e236297d8eed8cdb8a468509b9075ad6e43fe10f758a4285548fcdd11a58", ""),
    "check-compat --file n4-full": (0, "6004d53bf8233a4447b889aece43efc38ce78ef61624dfc64a017f5596ed9832", ""),
    "check-compat --file second-on-hydrodynamic": (2, None,
        "input error: this task needs a conservative (or potential) system\n"),
    "check-compat --file third-with-tails": (1, "b97d7a6ef67fcd4d27a132341b35c51393333022c2b0e796d39607ad97714bd3", ""),
    "classify --example oriented-assoc": (1, "f2417f62363377ce0c9d04427a8fa07144db0f10facf0e70b0216908f4ed7ec9", ""),
    "classify --example oriented-assoc --full": (1, "6a0d15601fe36b9104f3313dfd7d95a2c29dcf068f37874457e3a9bf77454469", ""),
    "find-bivectors --example kdv --order 3 --degree 1": (0, "5e525e4fb85410dafdb5ed205615ba1d9f3754de64b9a765dcc1fcdc6f33d21c", ""),
    "find-bivectors --file cyclic3 --order 1 --degree 1": (0, "a1cd74d803ab9738173a780c52b7c4048ec3e67fc57e715b26898d4a8ee96815", ""),
    "find-fluxes --example hydro2-pass --operator A": (2, None,
        "input error: find-fluxes needs a second- or third-order operator\n"),
    "find-fluxes --example kdv --operator A1": (2, None,
        "input error: find-fluxes needs a second- or third-order operator\n"),
    "find-fluxes --example n4-second-order": (0, "f4f30336594222102e625ee57ff552a91bbc2af21a3a2940efdc736d72ea4f1a", ""),
    "find-fluxes --example third-order-flat --operator D --degree 2": (0, "d8930f55b4c04dd3d988ff0d1355b596df53ba2bacf716476cb17004bb63f11a", ""),
    "reduce --file long-residual": (1, "4c2fcb93705941985bd652d6221333cd5e251b435624ee22f98f921e85dc3264", ""),
    "reduce --file long-residual --full": (1, "a625c153b3e0ca1b97186fd3a87a17bc401c9f31e3c7fc37b00dbc14c3aa26d5", ""),
    "reduce --file monge-explicit-c": (0, "143a88d37d33f87bc742bdf70080722d87100f284f8a705e8eceba8645788ba9", ""),
    "reduce --file potential": (1, "29d25e5503428d0bbc31fc79d7194ac5f6988fc0dac2f818ea631fbbced39759", ""),
    "reduce --file two-tails": (1, "427765cb034f33e018b2ce8d7a9c881132a5eed6bb526aa1829bac1c83ae17f7", ""),
}


def _run(key, tmp_path, capsys):
    argv = key.split(" ")
    if argv[1] == "--file":
        path = tmp_path / f"{argv[2]}.json"
        path.write_text(json.dumps(FILES[argv[2]]))
        argv[2] = str(path)
    report = tmp_path / "report.json"
    code = main(argv + ["--json", str(report)])
    err = capsys.readouterr().err
    return code, report, err


@pytest.mark.parametrize("key", sorted(PINNED))
def test_cli_path_pinned(key, tmp_path, capsys):
    code, report, err = _run(key, tmp_path, capsys)
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
    assert (code, digest, err) == PINNED[key]


def _verdict(report, name):
    return next(v for v in json.loads(report.read_text())["verdicts"] if v["name"] == name)


def test_full_lists_every_classify_residual(tmp_path, capsys):
    _, report, _ = _run("classify --example oriented-assoc", tmp_path, capsys)
    short = _verdict(report, "haantjes-zero")
    assert len(short["residuals"]) == 20
    assert short["residuals_truncated"] == 48
    _, report, _ = _run("classify --example oriented-assoc --full", tmp_path, capsys)
    full = _verdict(report, "haantjes-zero")
    assert len(full["residuals"]) == 68
    assert "residuals_truncated" not in full
    assert full["residuals"][:20] == short["residuals"]


def test_full_lists_every_reduce_term(tmp_path, capsys):
    def components(key):
        _, report, _ = _run(key, tmp_path, capsys)
        (dump,) = json.loads(report.read_text())["residual_dumps"]
        return dump["components"]

    short = components("reduce --file long-residual")
    full = components("reduce --file long-residual --full")
    assert [c["terms"] for c in short] == [c["terms"] for c in full] == [22, 21]
    assert all(c.get("truncated") is True for c in short)
    assert not any("truncated" in c for c in full)
    for s, f in zip(short, full):
        assert len(f["normal_form"]) > len(s["normal_form"])

"""The three benchmark workloads: inputs from a seed, tasks and their checks.

A workload's ``setup(seed, pinned)`` returns a list of ``Task`` objects;
``smoke=True`` keeps only a few cheap tasks, for the benchmark's own tests.
One pass runs every task once, in the list's order.  Each task returns an answer and
``Task.check`` compares it with a pinned or by-construction value, returning
an error message or None.  Engine calls go through module attributes
(``solver.find_bivectors``) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

from hhokit import cli, covering, geometry, solver
from hhokit.catalog import examples_catalog
from hhokit.grammar import parse, parse_scalar
from hhokit.jets import DiffPoly

import generators

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")


@dataclass
class Task:
    ident: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    meta: dict


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def _equals(expected):
    def check(answer):
        return None if answer == expected else f"expected {expected!r}, got {answer!r}"
    return check


# -- search-ladder ------------------------------------------------------------------

KDV_RUNGS = (
    ("kdv-o5", "u1_x3 + u1*u1_x", 5, 2),
    ("kdv5-o7", "u1_x5 + 5/3*u1*u1_x3 + 10/3*u1_x*u1_xx + 5/6*u1^2*u1_x", 7, 2),
)
CYCLIC_V = (("u1", "u2", "u3"), ("u2", "u3", "u1"), ("u3", "u1", "u2"))
# (order, labelling classes run at that order).  A labelling class is the
# image of u1; the two permutations of a class give the same system, because
# swapping the other two labels is a symmetry of the cyclic velocity matrix.
# The cost of linear_solve depends strongly on the class (order 1: 0.26 s,
# 0.31 s, 0.40 s; order 2: 1.4 s, 3.8 s, 7.0 s; order 3: 11.5 s, 39 s, 61 s),
# so every pass runs the same classes whatever the seed: all three at order
# 1, and class 1 at orders 2 and 3, which keeps a pass short enough for the
# four passes a run needs.
CYCLIC_RUNGS = ((1, (1, 2, 3)), (2, (1,)), (3, (1,)))


def relabel_cyclic(perm):
    """The cyclic system with field i renamed u{perm[i]} (perm is 1-based)."""
    n = len(perm)
    swap = {f"u{i + 1}": f"u{perm[i]}" for i in range(n)}
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            text = re.sub(r"u\d+", lambda m: swap[m.group(0)], CYCLIC_V[i][j])
            rows[perm[i] - 1][perm[j] - 1] = text
    return rows


def _ladder_task(ident, system, n, order, degree, dim):
    def run():
        ansatz = solver.make_operator_ansatz(n, order, degree)
        return solver.find_bivectors(system, ansatz).dimension
    return Task(ident, run, _equals(dim),
                {"order": order, "degree": degree, "input": repr(system.fluxes)})


def setup_search_ladder(seed, pinned, smoke=False, out_dir=None):
    rng = random.Random(seed)
    dims = pinned["search-ladder"]
    tasks = []
    for ident, flux, order, degree in KDV_RUNGS:
        system = covering.EvolutionSystem.general([parse(flux)])
        tasks.append(_ladder_task(ident, system, 1, order, degree, dims[ident]))
    for order, classes in CYCLIC_RUNGS:
        for cls in classes:
            rest = [k for k in (1, 2, 3) if k != cls]
            rng.shuffle(rest)
            perm = (cls, *rest)
            V = [[parse_scalar(x) for x in row] for row in relabel_cyclic(perm)]
            system = covering.EvolutionSystem.hydrodynamic(V)
            ident = f"cyclic-o{order}-L{cls}"
            task = _ladder_task(ident, system, 3, order, 1, dims[ident])
            task.meta["perm"] = perm
            tasks.append(task)
    if smoke:
        tasks = [t for t in tasks if t.ident in ("kdv-o5", "cyclic-o1-L1")]
    rng.shuffle(tasks)
    return tasks


# -- verify-covering ------------------------------------------------------------------


def _all_zero(vec):
    return all(c.is_zero for c in vec)


def decide(inst):
    """Verdicts on the covering route and, where one exists, the closed form.

    Returns (covering, closed, hamiltonian); closed and hamiltonian are None
    for families without a closed-form checker.
    """
    system = inst.system
    if inst.family == "first-order":
        g_up, gamma, V = inst.data
        metric = geometry.Metric(g_up, variance="upper")
        conn = geometry.Connection(metric, gamma)
        ctx = covering.build_cotangent(system)
        A = covering.operator_to_bivector(geometry.first_order_operator(metric, conn))
        cov = _all_zero(covering.bivector_residual(ctx, A))
        ham = geometry.first_order_hamiltonian_check(metric, conn).passed
        closed = geometry.tsarev_check(metric, conn, V).passed
        return cov, closed, ham
    if inst.family == "third-order":
        g_low, flux = inst.data
        d = geometry.ThirdOrderData.from_lower_metric(g_low)
        ctx = covering.build_cotangent(system)
        A = covering.operator_to_bivector(geometry.third_order_operator(d))
        cov = _all_zero(covering.bivector_residual(ctx, A))
        ham = geometry.third_order_hamiltonian_check(d).passed
        closed = geometry.third_order_compat(d, flux).passed
        return cov, closed, ham
    if inst.family == "n1-tail":
        g, w = inst.data
        ctx = covering.build_cotangent(system)
        alpha = ctx.register_symmetry((DiffPoly.jet(1, 1).scalar_mul(w),))
        B = covering.BivectorForm((
            DiffPoly.odd_p(1, 1).scalar_mul(g)
            + (DiffPoly.jet(1, 1) * DiffPoly.odd_p(1, 0)).scalar_mul(g.diff(1) / 2)
            + (DiffPoly.jet(1, 1) * DiffPoly.odd_r(alpha)).scalar_mul(w),))
        return _all_zero(covering.bivector_residual(ctx, B)), None, None
    if inst.family == "bivector":
        ctx = covering.build_cotangent(system)
        A = covering.BivectorForm(inst.data)
        return _all_zero(covering.bivector_residual(ctx, A)), None, None
    raise ValueError(f"unknown instance family {inst.family!r}")


def check_verdicts(inst, answer):
    cov, closed, ham = answer
    if ham is False:
        return "operator conditions fail on a by-construction Hamiltonian operator"
    if closed is not None and closed != cov:
        return f"routes disagree: covering {cov}, closed form {closed}"
    if inst.expect is True and not cov:
        return "by-construction instance fails"
    return None


def setup_verify_covering(seed, pinned, smoke=False, out_dir=None):
    rng = random.Random(seed)
    if smoke:
        insts = generators.verify_instances(rng, per_cell=1, n1_tails=1)
        insts = [i for i in insts if i.n <= 2 and i.ident != "kdv5-A2"]
    else:
        insts = generators.verify_instances(rng)
    tasks = []
    for inst in insts:
        tasks.append(Task(inst.ident,
                          lambda inst=inst: decide(inst),
                          lambda ans, inst=inst: check_verdicts(inst, ans),
                          {"family": inst.family, "n": inst.n, "size": inst.size,
                           "expect": inst.expect,
                           "input": repr((inst.system.fluxes, inst.data))}))
    rng.shuffle(tasks)
    return tasks


# -- catalog-cli ------------------------------------------------------------------------

PER_EXAMPLE_COMMANDS = ("check-op", "check-compat", "classify", "reduce")
EXTRA_COMMANDS = (
    ("find-bivectors", "--example", "kdv", "--order", "3", "--degree", "1"),
    ("find-fluxes", "--example", "n4-second-order"),
)
# Family dimensions pinned on top of the report hashes.
FAMILY_DIMENSIONS = {
    "find-bivectors --example kdv --order 3 --degree 1": 2,
    "find-fluxes --example n4-second-order": 10,
}


def cli_commands():
    cmds = []
    for entry in examples_catalog():
        for sub in PER_EXAMPLE_COMMANDS:
            cmds.append((sub, "--example", entry.name))
    cmds.extend(EXTRA_COMMANDS)
    cmds.append(("examples", "run", "--all"))
    return cmds


def run_cli(argv, report_path):
    """Run ``hhokit.cli.main`` in process.

    Returns (exit code, report bytes, standard error).  The report is the
    ``--json`` file where the command takes one, else the captured standard
    output (``examples`` has no ``--json``).
    """
    takes_json = argv[0] != "examples"
    args = list(argv) + (["--json", report_path] if takes_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if not takes_json:
        return code, out.getvalue().encode(), err.getvalue()
    if not os.path.exists(report_path):
        return code, None, err.getvalue()
    with open(report_path, "rb") as fh:
        blob = fh.read()
    os.remove(report_path)
    return code, blob, err.getvalue()


def _cli_check(key, pin):
    """Exit code, report sha256 and standard error must all match the pin, so
    a command that fails must still fail for the pinned reason."""
    def check(answer):
        code, blob, err = answer
        digest = None if blob is None else hashlib.sha256(blob).hexdigest()
        if code != pin["exit"]:
            return f"exit code {code}, pinned {pin['exit']}"
        if digest != pin["sha256"]:
            return f"report sha256 {digest}, pinned {pin['sha256']}"
        if err != pin["stderr"]:
            return f"standard error {err!r}, pinned {pin['stderr']!r}"
        if key in FAMILY_DIMENSIONS:
            dim = json.loads(blob)["families"][0]["dimension"]
            if dim != FAMILY_DIMENSIONS[key]:
                return f"dimension {dim}, pinned {FAMILY_DIMENSIONS[key]}"
        return None
    return check


def setup_catalog_cli(seed, pinned, smoke=False, out_dir=None):
    rng = random.Random(seed)
    pins = pinned["catalog-cli"]
    report_path = os.path.join(out_dir, "cli-report.json")
    cmds = cli_commands()
    if smoke:
        cmds = [c for c in cmds if c[-1] in ("kdv", "transport")]
    tasks = []
    for argv in cmds:
        key = " ".join(argv)
        tasks.append(Task(key,
                          lambda argv=argv: run_cli(argv, report_path),
                          _cli_check(key, pins[key]),
                          {"input": key}))
    rng.shuffle(tasks)
    return tasks


SETUPS = {
    "search-ladder": setup_search_ladder,
    "verify-covering": setup_verify_covering,
    "catalog-cli": setup_catalog_cli,
}


def describe(workload, tasks, answers, medians):
    """Lines that record what this seed's inputs were and how they came out;
    ``medians`` are the tasks' median untraced times."""
    if workload == "search-ladder":
        return [f"  {t.ident}: order {t.meta['order']}, degree {t.meta['degree']}"
                + (f", labelling {t.meta['perm']}" if "perm" in t.meta else "")
                + f", dimension {a}, median {m:.4f} s"
                for t, a, m in zip(tasks, answers, medians)]
    if workload == "verify-covering":
        passed = sum(1 for a in answers if a and a[0])
        built = sum(1 for t in tasks if t.meta["expect"] is True)
        sizes = sorted(t.meta["size"] for t in tasks)
        by_n = {}
        for t in tasks:
            key = f"{t.meta['family']} n={t.meta['n']}"
            by_n[key] = by_n.get(key, 0) + 1
        return [f"  instances: {len(tasks)} ({built} pass by construction, "
                f"{len(tasks) - built} random); covering verdicts: {passed} pass, "
                f"{len(tasks) - passed} fail",
                "  instances by family: " + ", ".join(f"{k}: {v}" for k, v in sorted(by_n.items())),
                f"  flux terms per instance: min {sizes[0]}, median {sizes[len(sizes) // 2]}, "
                f"max {sizes[-1]}, total {sum(sizes)}"]
    codes = {}
    for a in answers:
        code = a[0] if a else None
        codes[code] = codes.get(code, 0) + 1
    return [f"  commands: {len(tasks)}; exit codes: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(codes.items(), key=str))]

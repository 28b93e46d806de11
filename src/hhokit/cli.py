"""Command-line frontend.

Problems are single JSON documents; expressions inside them use the engine
grammar.  Subcommands: check-op, check-compat, find-bivectors, find-fluxes,
classify, reduce, examples.  Exit codes: 0 pass/success, 1 a requested check
failed mathematically, 2 malformed input (including degenerate metrics).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .catalog import examples_catalog, get_entry
from .covering import extract_conditions
from .errors import (
    DegenerateMetricError,
    ExpressionError,
    HhoError,
    InputError,
    NotASymmetryError,
)
from .geometry import classify
from .grammar import format_diffpoly, format_ratfunc
from .jets import DiffPoly
from .problem import CoveringCheck, JsonDecimal, Problem, expression, load_operator
from .solver import find_bivectors, make_flux_ansatz, make_operator_ansatz

SCHEMA_VERSION = 1
RESIDUAL_LIMIT = 20  # residuals (and residual terms) a report lists without --full


# -- report assembly ----------------------------------------------------------------


class Report:
    """A command's structured report; ``full`` lists residuals without truncation."""

    def __init__(self, command: str, problem: Problem | None, full: bool):
        self.payload = {
            "schema": SCHEMA_VERSION,
            "engine": f"hhokit {__version__}",
            "command": command,
            "input_hash": problem.input_hash if problem else None,
            "verdicts": [],
            "families": [],
            "residual_dumps": [],
        }
        self.failed = False
        self.full = full

    def add_check(self, check):
        """A ConditionReport, or a CoveringCheck: a verdict, and a dump if it fails."""
        if not isinstance(check, CoveringCheck):
            return self.add_condition(check)
        ok = all(c.is_zero for c in check.residual)
        self.add_verdict(check.name, ok)
        if not ok:
            self.add_residual_dump(check.label, check.residual)

    def add_condition(self, rep):
        entry = self.add_verdict(rep.name, rep.passed, rep.notes)
        shown = rep.residuals if self.full else rep.residuals[:RESIDUAL_LIMIT]
        for fam, idx, rf in shown:
            entry["residuals"].append(
                {"family": fam, "at": list(idx), "expr": format_ratfunc(rf)})
        if not self.full and len(rep.residuals) > RESIDUAL_LIMIT:
            entry["residuals_truncated"] = len(rep.residuals) - RESIDUAL_LIMIT

    def add_verdict(self, name: str, passed: bool, notes=()):
        """Append a verdict entry with no residuals yet, and return it."""
        entry = {"name": name, "pass": passed, "notes": list(notes), "residuals": []}
        self.payload["verdicts"].append(entry)
        if not passed:
            self.failed = True
        return entry

    def add_residual_dump(self, label: str, components):
        dump = []
        for i, comp in enumerate(components, start=1):
            terms = comp.sorted_terms()
            shown = terms if self.full else terms[:RESIDUAL_LIMIT]
            text = format_diffpoly(DiffPoly(dict(shown)))
            item = {"component": i, "terms": len(terms), "normal_form": text}
            if not self.full and len(terms) > RESIDUAL_LIMIT:
                item["truncated"] = True
            dump.append(item)
        self.payload["residual_dumps"].append({"label": label, "components": dump})

    def add_family(self, family, fmt):
        """A solution family; ``fmt`` prints one entry of a basis member."""
        entry = {"dimension": family.dimension,
                 "basis": [[fmt(c) for c in member] for member in family.basis]}
        if family.classification:
            entry["classification"] = {
                key: {"pass": rep.passed, "notes": list(rep.notes)}
                for key, rep in sorted(family.classification.items())}
        self.payload["families"].append(entry)

    def finish(self, json_path=None):
        self.payload["status"] = "fail" if self.failed else "pass"
        for v in self.payload["verdicts"]:
            mark = "pass" if v["pass"] else "FAIL"
            print(f"[{mark}] {v['name']}")
            for note in v["notes"]:
                print(f"       note: {note}")
            for r in v["residuals"][:5]:
                print(f"       residual {r['family']} at {r['at']}: {r['expr']}")
            if len(v["residuals"]) > 5:
                print(f"       ... {len(v['residuals']) - 5} more residuals "
                      f"(see --json output)")
        for fam in self.payload["families"]:
            print(f"solution family: dimension {fam['dimension']}")
            for k, member in enumerate(fam["basis"], start=1):
                print(f"  basis {k}:")
                for i, expr in enumerate(member, start=1):
                    print(f"    [{i}] {expr}")
            if "classification" in fam:
                for key, val in fam["classification"].items():
                    mark = "pass" if val["pass"] else "FAIL"
                    print(f"  classification {key}: {mark}")
                    for note in val["notes"]:
                        print(f"       note: {note}")
        for dump in self.payload["residual_dumps"]:
            print(f"residual {dump['label']}:")
            for item in dump["components"]:
                suffix = " (truncated)" if item.get("truncated") else ""
                print(f"  component {item['component']} ({item['terms']} terms{suffix}):")
                print(f"    {item['normal_form']}")
        if json_path:
            with open(json_path, "w") as fh:
                json.dump(self.payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return 1 if self.failed else 0


# -- tasks ---------------------------------------------------------------------------


def _load_problem_arg(args, needs_system=False) -> Problem:
    if getattr(args, "example", None):
        data = get_entry(args.example).problem
        blob = json.dumps(data, sort_keys=True).encode()
    elif getattr(args, "file", None):
        with open(args.file, "rb") as fh:
            blob = fh.read()
        try:
            data = json.loads(blob, parse_float=JsonDecimal)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise InputError(f"not valid JSON: {exc}")
    else:
        raise InputError("provide --file PROBLEM.json or --example NAME")
    problem = Problem(data, blob)
    if needs_system and problem.system is None:
        raise InputError(f"{args.command} needs a system block")
    return problem


def _operator_names(problem, args):
    if args.operator:
        return [args.operator]
    names = sorted(problem.operators)
    if not names:
        raise InputError("the problem declares no operators")
    return names


def cmd_check_op(args):
    problem = _load_problem_arg(args)
    report = Report("check-op", problem, args.full)
    for name in _operator_names(problem, args):
        for rep in load_operator(problem, name).intrinsic():
            report.add_condition(rep)
    return report.finish(args.json)


def cmd_check_compat(args):
    problem = _load_problem_arg(args, needs_system=True)
    report = Report("check-compat", problem, args.full)
    for name in _operator_names(problem, args):
        for check in load_operator(problem, name).compat(problem):
            report.add_check(check)
    return report.finish(args.json)


def cmd_reduce(args):
    problem = _load_problem_arg(args, needs_system=True)
    report = Report("reduce", problem, args.full)
    ctx = problem.covering()  # one covering for every operator: r's keep their numbers
    for name in _operator_names(problem, args):
        try:
            residual = load_operator(problem, name).residual(ctx)
        except NotASymmetryError as exc:
            # no potential exists for the tail: a failed check, as in check-compat
            report.add_residual_dump(f"tail-symmetry[{name}]", exc.residual)
            report.add_verdict(f"tail-symmetry[{name}]", False,
                               notes=["W u_x is not a symmetry of the system"])
            continue
        conditions = extract_conditions(residual)
        report.add_residual_dump(name, residual)
        report.add_verdict(f"residual-zero[{name}]",
                           all(c.is_zero for c in residual),
                           notes=[f"{len(conditions)} coefficient conditions"])
    return report.finish(args.json)


def _setting(args, problem, key, fallback):
    """CLI flag wins; then the problem's task block; then the fallback."""
    value = getattr(args, key.replace("-", "_"), None)
    return problem.task.get(key, fallback) if value is None else value


def cmd_find_bivectors(args):
    problem = _load_problem_arg(args, needs_system=True)
    order = int(_setting(args, problem, "order", 1))
    degree = int(_setting(args, problem, "degree", 1))
    ansatz = make_operator_ansatz(problem.n, order, degree)
    family = find_bivectors(problem.system, ansatz)
    report = Report("find-bivectors", problem, args.full)
    report.add_family(family, format_diffpoly)
    report.add_verdict(
        f"search(order<={order}, degree<={degree})", True,
        notes=[f"{len(ansatz.params)} ansatz parameters",
               f"dimension {family.dimension}"])
    return report.finish(args.json)


def cmd_find_fluxes(args):
    problem = _load_problem_arg(args)
    report = Report("find-fluxes", problem, args.full)
    name = _setting(args, problem, "operator", None)
    if name is None:
        raise InputError("find-fluxes needs --operator NAME")
    op = load_operator(problem, name)
    degree = int(_setting(args, problem, "degree", 2))
    den = expression(problem.n, scalar=True)(_setting(args, problem, "denominator", None) or "1")
    if not den.is_poly:
        raise InputError("--denominator must be polynomial")
    ansatz = make_flux_ansatz(problem.n, degree, denominator=den.num)
    family = op.fluxes(ansatz, not args.no_classify)
    report.add_family(family, format_ratfunc)
    report.add_verdict(f"search(degree<={degree})", True,
                       notes=[f"dimension {family.dimension}"])
    return report.finish(args.json)


def cmd_classify(args):
    problem = _load_problem_arg(args, needs_system=True)
    try:
        J = problem.system.jacobian()
    except InputError:
        raise InputError("classify needs a hydrodynamic or conservative system")
    report = Report("classify", problem, args.full)
    for rep in classify(J, square=problem.n % 2 == 0):
        report.add_condition(rep)
    return report.finish(args.json)


def cmd_examples(args):
    if args.all and args.action != "run":
        raise InputError(f"examples {args.action} takes no --all (only examples run does)")
    if args.action == "list":
        if args.name is not None:
            raise InputError(f"examples list takes no NAME, got {args.name!r}")
        for entry in examples_catalog():
            print(f"{entry.name:20s} {entry.title}")
        return 0
    if args.action == "show":
        if args.name is None:
            raise InputError("examples show needs a NAME (see examples list)")
        entry = get_entry(args.name)
        print(json.dumps(entry.problem, indent=2, sort_keys=True))
        return 0
    if args.all and args.name is not None:
        raise InputError(f"examples run takes a NAME or --all, not both (got {args.name!r})")
    entries = examples_catalog() if args.name is None else [get_entry(args.name)]
    failed = False
    for entry in entries:
        results = entry.run_goldens()
        ok = all(r.ok for r in results)
        failed = failed or not ok
        print(f"[{'pass' if ok else 'FAIL'}] {entry.name}")
        for r in results:
            mark = "ok" if r.ok else "XX"
            detail = f"  {r.detail}" if r.detail else ""
            print(f"    [{mark}] {r.name}{detail}")
    return 1 if failed else 0


# -- entry point -------------------------------------------------------------------------


def _add_common(p, with_operator=True):
    p.add_argument("--file", help="problem JSON file")
    p.add_argument("--example", help="name of a built-in example")
    if with_operator:
        p.add_argument("--operator", help="operator name (default: all declared)")
    p.add_argument("--json", help="write the structured report to this path")
    p.add_argument("--full", action="store_true",
                   help="do not truncate residual listings")


@functools.cache  # parse_args leaves the parser unchanged, so one serves every main() call
def build_parser():
    ap = argparse.ArgumentParser(
        prog="hhokit",
        description="Exact compatibility checks and searches for homogeneous "
                    "operators of evolutionary PDE systems.")
    ap.add_argument("--version", action="version", version=f"hhokit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-op", help="intrinsic operator conditions")
    _add_common(p)
    p.set_defaults(func=cmd_check_op)

    p = sub.add_parser("check-compat", help="operator/system compatibility")
    _add_common(p)
    p.set_defaults(func=cmd_check_compat)

    p = sub.add_parser("find-bivectors", help="linear search over an operator ansatz")
    _add_common(p, with_operator=False)
    p.add_argument("--order", type=int)
    p.add_argument("--degree", type=int)
    p.set_defaults(func=cmd_find_bivectors)

    p = sub.add_parser("find-fluxes", help="linear search for compatible fluxes")
    _add_common(p)
    p.add_argument("--degree", type=int)
    p.add_argument("--denominator", help="declared flux denominator (polynomial)")
    p.add_argument("--no-classify", action="store_true")
    p.set_defaults(func=cmd_find_fluxes)

    p = sub.add_parser("classify", help="linear degeneracy / diagonalizability")
    _add_common(p, with_operator=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="covering residual in normal form")
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("examples", help="built-in catalog")
    p.add_argument("action", choices=["list", "show", "run"])
    p.add_argument("name", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ExpressionError, InputError, DegenerateMetricError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HhoError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in span recorder for the traced benchmark run.

``Tracer.install`` wraps public engine functions where their callers look
them up: every ``hhokit`` module attribute bound to the original function
(so ``hhokit.solver.linear_solve`` is wrapped as well as
``hhokit.linsolve.linear_solve``), and every class attribute bound to the
original method (so ``RatFunc.__rmul__`` is wrapped with ``__mul__``).
Each call records a span (name, parent, task, start, end); spans stay in
memory until ``Spans.write`` saves them.  Counters are collected by hooks at the
same boundaries.  ``layer_metrics`` derives the per-layer numbers of one
traced pass from its spans and counters.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

# span name -> (module, attribute path).  The layer is the name's prefix.
SPANS = {
    "rational.poly_gcd": ("hhokit.rational", "poly_gcd"),
    "rational.ratfunc_mul": ("hhokit.rational", "RatFunc.__mul__"),
    "rational.ratfunc_add": ("hhokit.rational", "RatFunc.__add__"),
    "jets.total_x": ("hhokit.jets", "total_x"),
    "covering.build": ("hhokit.covering", "CoveringContext.__init__"),
    "covering.total_t": ("hhokit.covering", "CoveringContext.total_t"),
    "covering.register_symmetry": ("hhokit.covering", "CoveringContext.register_symmetry"),
    "covering.operator_to_bivector": ("hhokit.covering", "operator_to_bivector"),
    "covering.bivector_residual": ("hhokit.covering", "bivector_residual"),
    "covering.extract_conditions": ("hhokit.covering", "extract_conditions"),
    "linsolve.linear_solve": ("hhokit.linsolve", "linear_solve"),
    "linsolve.substitute_solution": ("hhokit.linsolve", "substitute_solution"),
    "solver.find_bivectors": ("hhokit.solver", "find_bivectors"),
    "solver.find_fluxes_second_order": ("hhokit.solver", "find_fluxes_second_order"),
    "solver.find_fluxes_third_order": ("hhokit.solver", "find_fluxes_third_order"),
    "solver.make_operator_ansatz": ("hhokit.solver", "make_operator_ansatz"),
    "solver.make_flux_ansatz": ("hhokit.solver", "make_flux_ansatz"),
    "geometry.first_order_hamiltonian_check": ("hhokit.geometry", "first_order_hamiltonian_check"),
    "geometry.tsarev_check": ("hhokit.geometry", "tsarev_check"),
    "geometry.expanded_first_order_conditions": ("hhokit.geometry", "expanded_first_order_conditions"),
    "geometry.nonlocal_first_order_check": ("hhokit.geometry", "nonlocal_first_order_check"),
    "geometry.second_order_canonical_check": ("hhokit.geometry", "second_order_canonical_check"),
    "geometry.second_order_compat": ("hhokit.geometry", "second_order_compat"),
    "geometry.third_order_hamiltonian_check": ("hhokit.geometry", "third_order_hamiltonian_check"),
    "geometry.third_order_compat": ("hhokit.geometry", "third_order_compat"),
    "geometry.third_order_nonlocal_checks": ("hhokit.geometry", "third_order_nonlocal_checks"),
    "geometry.linear_degeneracy_check": ("hhokit.geometry", "linear_degeneracy_check"),
    "geometry.haantjes_zero_check": ("hhokit.geometry", "haantjes_zero_check"),
    "geometry.char_square_check": ("hhokit.geometry", "char_square_check"),
    "geometry.determinant": ("hhokit.geometry", "determinant"),
    "geometry.inverse": ("hhokit.geometry", "inverse"),
    "geometry.first_order_operator": ("hhokit.geometry", "first_order_operator"),
    "geometry.third_order_operator": ("hhokit.geometry", "third_order_operator"),
    "grammar.parse": ("hhokit.grammar", "parse"),
    "grammar.parse_scalar": ("hhokit.grammar", "parse_scalar"),
    "grammar.format_ratfunc": ("hhokit.grammar", "format_ratfunc"),
    "grammar.format_diffpoly": ("hhokit.grammar", "format_diffpoly"),
    "cli.main": ("hhokit.cli", "main"),
    "cli.problem": ("hhokit.cli", "Problem.__init__"),
    "cli.load_operator": ("hhokit.cli", "load_operator"),
    "cli.report_add_condition": ("hhokit.cli", "Report.add_condition"),
    "cli.report_add_verdict": ("hhokit.cli", "Report.add_verdict"),
    "cli.report_add_residual_dump": ("hhokit.cli", "Report.add_residual_dump"),
    "cli.report_add_family": ("hhokit.cli", "Report.add_family"),
    "cli.report_finish": ("hhokit.cli", "Report.finish"),
}

# Functions wrapped for a counter only: no span, so their time stays with
# the caller.  ``_scalar_rows`` is private, but it is the one place that
# sees the scalar rows of a linear system.
COUNT_ONLY = {
    "linsolve.scalar_rows": ("hhokit.linsolve", "_scalar_rows"),
}

CHECKERS = {
    "geometry.first_order_hamiltonian_check", "geometry.tsarev_check",
    "geometry.expanded_first_order_conditions", "geometry.nonlocal_first_order_check",
    "geometry.second_order_canonical_check", "geometry.second_order_compat",
    "geometry.third_order_hamiltonian_check", "geometry.third_order_compat",
    "geometry.third_order_nonlocal_checks"}
CLASSIFIERS = {"geometry.linear_degeneracy_check", "geometry.haantjes_zero_check",
               "geometry.char_square_check"}
PARSERS = {"grammar.parse", "grammar.parse_scalar"}
REPORTERS = {name for name in SPANS if name.startswith("cli.report_")}
LAYERS = ("rational", "jets", "covering", "linsolve", "solver", "geometry", "grammar", "cli")

# Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("rational.self_s", "s"), ("rational.gcd_calls", "count"), ("rational.gcd_s", "s"),
    ("rational.ratfunc_mul_calls", "count"), ("rational.den1_mul_share", "ratio"),
    ("jets.self_s", "s"), ("jets.total_x_calls", "count"), ("jets.total_x_s", "s"),
    ("jets.total_x_terms", "count"),
    ("covering.self_s", "s"), ("covering.build_s", "s"), ("covering.total_t_s", "s"),
    ("covering.residual_s", "s"), ("covering.residual_terms", "count"),
    ("covering.conditions", "count"),
    ("linsolve.self_s", "s"), ("linsolve.solve_s", "s"), ("linsolve.equations", "count"),
    ("linsolve.scalar_rows", "count"), ("linsolve.rank", "count"),
    ("linsolve.free", "count"), ("linsolve.substitute_s", "s"),
    ("solver.self_s", "s"), ("solver.ansatz_s", "s"), ("solver.ansatz_params", "count"),
    ("geometry.self_s", "s"), ("geometry.check_s", "s"), ("geometry.classify_s", "s"),
    ("geometry.determinant_calls", "count"), ("geometry.determinant_s", "s"),
    ("grammar.parse_calls", "count"), ("grammar.parse_s", "s"),
    ("cli.self_s", "s"), ("cli.load_s", "s"), ("cli.report_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead", "ratio"),
)


def _is_one(poly):
    return poly.is_const and poly.const_value() == 1


def _before_mul(counters, args):
    a, b = args
    if _is_one(a.den) and (not hasattr(b, "den") or _is_one(b.den)):
        counters["rational.den1_mul"] += 1


def _after(name, counters, args, kwargs, out):
    """Counters read from a finished call's arguments and result."""
    if name == "jets.total_x":
        counters["jets.total_x_terms"] += len(args[0].terms)
    elif name == "covering.bivector_residual":
        counters["covering.residual_terms"] += sum(len(c.terms) for c in out)
    elif name == "covering.extract_conditions":
        counters["covering.conditions"] += len(out)
    elif name == "linsolve.linear_solve":
        counters["linsolve.equations"] += len(args[0])
        if not out.inconsistent:
            counters["linsolve.rank"] += len(out.pivots)
            counters["linsolve.free"] += len(out.free)
    elif name == "linsolve.scalar_rows":
        counters["linsolve.scalar_rows"] += len(out)
    elif name in ("solver.make_operator_ansatz", "solver.make_flux_ansatz"):
        counters["solver.ansatz_params"] += len(out.params)
    elif name == "cli.report_finish":
        path = args[1] if len(args) > 1 else kwargs.get("json_path")
        if path and os.path.exists(path):
            counters["cli.report_bytes"] += os.path.getsize(path)


_COUNTED_AFTER = {"jets.total_x", "covering.bivector_residual", "covering.extract_conditions",
                  "linsolve.linear_solve", "linsolve.scalar_rows",
                  "solver.make_operator_ansatz", "solver.make_flux_ansatz",
                  "cli.report_finish"}


class Spans:
    """Spans in columns: name id, parent index (-1 at the top), task id,
    start and end (``time.perf_counter`` seconds).  Parents come before
    their children.  Columns are arrays, so a span costs 32 bytes."""

    def __init__(self):
        self.names = list(SPANS)
        self.tasks = []
        self.name = array("i")
        self.parent = array("q")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.start)

    def add(self, name, parent, task, start, end):
        self.name.append(self.names.index(name))
        self.parent.append(parent)
        self.task.append(task)
        self.start.append(start)
        self.end.append(end)

    def write(self, path):
        """One JSON header line ``{"names": [...], "tasks": [...]}``, then one
        line per span: [name id, parent, task id, start ns, end ns], times
        relative to the first span's start."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "tasks": self.tasks}) + "\n")
            for i in range(len(self)):
                fh.write(f"[{self.name[i]},{self.parent[i]},{self.task[i]},"
                         f"{round((self.start[i] - origin) * 1e9)},"
                         f"{round((self.end[i] - origin) * 1e9)}]\n")


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.counters = defaultdict(float)
        self.missing = []
        self._task = -1
        self._stack = []
        self._patches = None

    def set_task(self, label):
        """Label the spans recorded from now on."""
        self.spans.tasks.append(label)
        self._task = len(self.spans.tasks) - 1

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, name, fn, with_span=True):
        spans, stack, counters = self.spans, self._stack, self.counters
        names, parents, tasks, starts, ends = (
            spans.name, spans.parent, spans.task, spans.start, spans.end)
        clock = time.perf_counter
        before = _before_mul if name == "rational.ratfunc_mul" else None
        after = _after if name in _COUNTED_AFTER else None
        tracer = self

        if not with_span:
            def counting(*args, **kwargs):
                out = fn(*args, **kwargs)
                after(name, counters, args, kwargs, out)
                return out
            return counting

        name_id = spans.names.index(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(counters, args)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            tasks.append(tracer._task)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(name, counters, args, kwargs, out)
            return out
        return wrapper

    def install(self):
        """Wrap every target; a target the engine no longer has is listed in
        ``self.missing`` and its metrics read 0.  The wrappers are built on
        the first call; later calls put the same wrappers back in place."""
        if self._patches is None:
            self._patches = self._find_patches()
        for holder, key, _, wrapped in self._patches:
            setattr(holder, key, wrapped)

    def _find_patches(self):
        self.missing = []
        patches = []
        for table, with_span in ((SPANS, True), (COUNT_ONLY, False)):
            for name, (modname, path) in table.items():
                module = importlib.import_module(modname)
                owner_name, _, leaf = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                orig = (owner.__dict__ if owner_name else vars(owner)).get(leaf)
                if not callable(orig):
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, orig, with_span)
                holders = [owner] if owner_name else [
                    m for key, m in list(sys.modules.items())
                    if m is not None and (key == "hhokit" or key.startswith("hhokit."))]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            patches.append((holder, key, orig, wrapped))
        return patches

    def uninstall(self):
        for holder, key, orig, _ in reversed(self._patches or ()):
            setattr(holder, key, orig)

    def mark(self):
        """Clear the counters; returns the index to pass to ``layer_metrics``
        for the spans recorded after this call."""
        self.counters.clear()
        return len(self.spans)


# -- span arithmetic -------------------------------------------------------------------


def self_times(spans, first=0):
    """Self time of each span from index ``first`` on: its duration minus the
    part of its interval covered by its children, overlaps counted once.
    A parent's children are visited in index order, which is start order."""
    n = len(spans) - first
    covered = array("d", bytes(8 * n))
    reach = spans.start[first:]
    for i in range(first, len(spans)):
        p = spans.parent[i]
        if p >= first:
            c0 = max(spans.start[i], reach[p - first])
            c1 = min(spans.end[i], spans.end[p])
            if c1 > c0:
                covered[p - first] += c1 - c0
                reach[p - first] = c1
    return [spans.end[i] - spans.start[i] - covered[i - first]
            for i in range(first, len(spans))]


def covered_time(spans, names, first=0):
    """Total duration of spans named in ``names`` that have no ancestor named
    in ``names`` (so recursion and nesting are counted once)."""
    ids = {spans.names.index(name) for name in names}
    inside = bytearray(len(spans) - first)
    total = 0.0
    for i in range(first, len(spans)):
        named = spans.name[i] in ids
        p = spans.parent[i]
        outer = p >= first and inside[p - first]
        if named and not outer:
            total += spans.end[i] - spans.start[i]
        inside[i - first] = outer or named
    return total


def layer_metrics(spans, counters, first=0):
    """Per-layer metrics of the spans from index ``first`` on
    (``trace.overhead`` excluded: it compares passes, see ``run.py``)."""
    counters = defaultdict(float, counters)
    selfs = self_times(spans, first)
    parser_ids = {spans.names.index(name) for name in PARSERS}
    layer_self = defaultdict(float)
    calls = defaultdict(int)
    parse_calls = 0
    for k, i in enumerate(range(first, len(spans))):
        name = spans.names[spans.name[i]]
        parent = spans.parent[i]
        layer_self[name.partition(".")[0]] += selfs[k]
        calls[name] += 1
        if spans.name[i] in parser_ids and not (
                parent >= first and spans.name[parent] in parser_ids):
            parse_calls += 1

    def cov(names):
        return covered_time(spans, names, first)

    muls = calls["rational.ratfunc_mul"]
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "rational.gcd_calls": calls["rational.poly_gcd"],
        "rational.gcd_s": cov({"rational.poly_gcd"}),
        "rational.ratfunc_mul_calls": muls,
        "rational.den1_mul_share": counters["rational.den1_mul"] / muls if muls else 0.0,
        "jets.total_x_calls": calls["jets.total_x"],
        "jets.total_x_s": cov({"jets.total_x"}),
        "jets.total_x_terms": counters["jets.total_x_terms"],
        "covering.build_s": cov({"covering.build"}),
        "covering.total_t_s": cov({"covering.total_t"}),
        "covering.residual_s": cov({"covering.bivector_residual"}),
        "covering.residual_terms": counters["covering.residual_terms"],
        "covering.conditions": counters["covering.conditions"],
        "linsolve.solve_s": cov({"linsolve.linear_solve"}),
        "linsolve.equations": counters["linsolve.equations"],
        "linsolve.scalar_rows": counters["linsolve.scalar_rows"],
        "linsolve.rank": counters["linsolve.rank"],
        "linsolve.free": counters["linsolve.free"],
        "linsolve.substitute_s": cov({"linsolve.substitute_solution"}),
        "solver.ansatz_s": cov({"solver.make_operator_ansatz", "solver.make_flux_ansatz"}),
        "solver.ansatz_params": counters["solver.ansatz_params"],
        "geometry.check_s": cov(CHECKERS),
        "geometry.classify_s": cov(CLASSIFIERS),
        "geometry.determinant_calls": calls["geometry.determinant"],
        "geometry.determinant_s": cov({"geometry.determinant"}),
        "grammar.parse_calls": parse_calls,
        "grammar.parse_s": cov(PARSERS),
        "cli.load_s": cov({"cli.problem", "cli.load_operator"}),
        "cli.report_s": cov(REPORTERS),
        "cli.report_bytes": counters["cli.report_bytes"],
    })
    return m

"""Problem documents: JSON-shaped descriptions of a system and its operators.

The CLI loads problem files and the catalog loads its built-in examples
through the same two entry points, ``Problem`` and ``load_operator``.  Input
from outside the program is checked here: wrong types, wrong shapes and
out-of-range indices raise InputError, which the CLI reports with exit 2.

``load_operator`` returns a ``BivectorOperator``, ``FirstOrderOperator``,
``SecondOrderOperator`` or ``ThirdOrderOperator``, each with ``intrinsic()``,
``compat(problem)``, ``bivector(ctx)`` and ``fluxes(ansatz, classify)``; a
method that does not apply to the kind raises InputError.
``Problem.covering()`` is the system's cotangent covering with the declared
symmetries registered; a declared entry that is not a symmetry is an InputError naming it.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from fractions import Fraction

from .config import DECIMAL_EXPONENT_CAP
from .covering import (BivectorForm, EvolutionSystem, bivector_residual, build_cotangent,
                       operator_to_bivector)
from .errors import InputError, NotASymmetryError
from .geometry import (Connection, Metric, SecondOrderData, ThirdOrderData,
                       first_order_hamiltonian_check, first_order_operator,
                       nonlocal_first_order_check, second_order_canonical_check,
                       second_order_compat, tail_characteristic, third_order_compat,
                       third_order_hamiltonian_check, third_order_nonlocal_checks,
                       third_order_operator, tsarev_check)
from .grammar import _tensor, parse, parse_scalar
from .jets import KIND_R, DiffPoly
from .solver import find_fluxes_second_order, find_fluxes_third_order


class Problem:
    def __init__(self, data: dict, source_bytes: bytes | None = None):
        self.input_hash = (hashlib.sha256(source_bytes).hexdigest()
                           if source_bytes is not None else None)
        self.n = _int(data.get("n") if isinstance(data, dict) else None,
                      "problem needs an integer field 'n'")
        if self.n < 1:
            raise InputError("problem field 'n' must be at least 1")
        names = data.get("variables")
        if names is not None and (not isinstance(names, list) or len(names) != self.n):
            raise InputError("the 'variables' naming list must have n entries")
        self.task = data.get("task", {})
        if not isinstance(self.task, dict):
            raise InputError("'task' must be an object of default settings")
        self._check_task()
        self.system = self._load_system(data.get("system"))
        self.symmetries = _tensor(
            data.get("symmetries", []), (None,),
            lambda phi: _tensor(phi, (self.n,), expression(self.n),
                                "each symmetry needs n components"),
            "'symmetries' must be a list")
        for a, phi in enumerate(self.symmetries, 1):
            if any(c.odd_degree() for c in phi):
                raise InputError(f"symmetry {a} contains odd variables")
        self.operators = data.get("operators", {})
        if not isinstance(self.operators, dict) or not all(
                isinstance(spec, dict) for spec in self.operators.values()):
            raise InputError("'operators' must be an object mapping names to objects")

    def _check_task(self):
        for key in ("operator", "denominator"):
            if not isinstance(self.task.get(key, ""), str):
                raise InputError(f"task field {key!r} must be a string")
        for key in ("order", "degree"):
            _int(self.task.get(key, 0), f"task field {key!r} must be an integer")

    def _load_system(self, spec):
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise InputError("'system' must be an object")
        kind = spec.get("type")
        n = self.n
        if kind == "fluxes":
            return EvolutionSystem.general(
                _tensor(_require(spec, "f", kind), (n,), expression(n), f"expected {n} fluxes"))
        if kind == "hydrodynamic":
            return EvolutionSystem.hydrodynamic(
                _tensor(_require(spec, "V", kind), (n, n), expression(n, scalar=True),
                        "velocity matrix must be n x n"))
        if kind in ("conservative", "potential"):
            V = _tensor(_require(spec, "V", kind), (n,), expression(n, scalar=True),
                        f"expected {n} flux potentials")
            maker = (EvolutionSystem.conservative if kind == "conservative"
                     else EvolutionSystem.potential)
            return maker(V)
        raise InputError(f"unknown system type {kind!r}")

    def vflux(self):
        if self.system is None or self.system.flux_potentials is None:
            raise InputError("this task needs a conservative (or potential) system")
        return self.system.flux_potentials

    def covering(self):
        """The system's cotangent covering with the declared symmetries registered."""
        ctx = build_cotangent(self.system)
        for a, phi in enumerate(self.symmetries, 1):
            try:
                ctx.register_symmetry(phi)
            except NotASymmetryError:
                raise InputError(f"symmetry {a} is not a symmetry of the system") from None
        return ctx


def _require(spec, key, where):
    if key not in spec:
        raise InputError(f"missing field {key!r} in {where} block")
    return spec[key]


def expression(n, scalar=False):
    """Leaf converter for an expression string in u1..un: jet-free (a RatFunc) if ``scalar``,
    else a DiffPoly that may hold jets, p1..pn and r's."""
    def leaf(x):
        if not isinstance(x, str):
            raise InputError(f"expected an expression string, got {x!r}")
        value = parse_scalar(x) if scalar else parse(x)
        indices = set()
        for m, c in (DiffPoly.from_scalar(value) if scalar else value).terms.items():
            indices.update(c.field_vars())
            indices.update(jv.index for jv, _ in m.even)
            if m.odd is not None and m.odd.kind != KIND_R:
                indices.add(m.odd.index)
        if any(not 1 <= i <= n for i in indices):
            raise InputError(f"expression {x!r} uses a variable index outside 1..{n}")
        return value
    return leaf


class JsonDecimal(Fraction):
    """A JSON number with a fraction or an exponent (``json.loads`` ``parse_float``), read
    exactly from its text and shown as that text; an exponent past DECIMAL_EXPONENT_CAP in size
    is an input error, found before the number is built."""

    def __new__(cls, text: str):
        digits = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
        if len(digits) > 9 or int(digits or 0) > DECIMAL_EXPONENT_CAP:  # no int() of a long text
            raise InputError(f"number {text} has an exponent beyond ±{DECIMAL_EXPONENT_CAP}")
        self = super().__new__(cls, text)
        self.text = text
        return self

    def __repr__(self):
        return self.text


def _number(x):
    """Fraction(x) for a JSON number (a float read exactly, as a ``JsonDecimal``) or a rational
    string; a Python float is read as the decimal it spells (``0.1`` as 1/10, not as its binary
    double), and a bool, which Fraction() would take as 0 or 1, is rejected like any other."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return Fraction(repr(x) if isinstance(x, float) else x)
    except (TypeError, ValueError, ArithmeticError):
        raise InputError(f"expected a rational number, got {x!r}")


def _int(x, message):
    """int(x) for an int or an integer-valued string; a bool or a float (a JSON one is a
    ``JsonDecimal``), which int() would truncate, is rejected like any other non-integer."""
    if isinstance(x, (bool, float)) or type(x) is JsonDecimal:  # no ABC instance check
        raise InputError(message)
    try:
        return int(x)
    except (TypeError, ValueError):
        raise InputError(message)


def _sparse_or_full_skew(data, n, rank):
    """T/g0 fields accept either full arrays or sparse skew generators."""
    if isinstance(data, dict):
        gens = {}
        for key, val in data.items():
            try:
                idx = tuple(int(p) for p in key.split(","))
            except ValueError:
                raise InputError(f"generator key {key!r} needs {rank} integer indices")
            if len(idx) != rank:
                raise InputError(f"generator key {key!r} needs {rank} indices")
            if not all(1 <= i <= n for i in idx):
                raise InputError(f"generator key {key!r} has an index outside 1..{n}")
            gens[idx] = _number(val)
        return gens
    return None


# a bivector's residual on the covering: it passes iff every component is zero
CoveringCheck = namedtuple("CoveringCheck", "name label residual")


class _Operator:
    def bivector(self, ctx):
        raise InputError("reduce supports bivector, first- or third-order operators")

    def residual(self, ctx):
        """The covering residual of ``bivector(ctx)``: zero iff that is a bivector."""
        return bivector_residual(ctx, self.bivector(ctx))

    def fluxes(self, ansatz, classify):
        raise InputError("find-fluxes needs a second- or third-order operator")


class BivectorOperator(_Operator):
    """Raw components in p (and r), one per field."""

    def __init__(self, name, components):
        self.name, self.components = name, components

    def intrinsic(self):
        raise InputError(
            f"{self.name!r} is a raw odd-variable vector; intrinsic operator "
            "checks need structured coefficients (use check-compat)")

    def compat(self, problem):
        return [CoveringCheck(f"covering-residual[{self.name}]", self.name,
                              self.residual(problem.covering()))]

    def bivector(self, ctx):
        return BivectorForm(self.components)


class FirstOrderOperator(_Operator):
    """g^{ij} d_x + Gamma^{ij}_k u^k_x, with the tail W u_x d^{-1} W u_x if W is given."""

    def __init__(self, metric, conn, W):
        self.metric, self.conn, self.W = metric, conn, W

    def intrinsic(self):
        return [first_order_hamiltonian_check(self.metric, self.conn)]

    def compat(self, problem):
        V = problem.system.velocity
        if V is None:
            raise InputError("first-order compatibility needs a hydrodynamic system")
        if self.W is None:
            return [tsarev_check(self.metric, self.conn, V)]
        return [nonlocal_first_order_check(self.metric, self.conn, self.W, V)]

    def bivector(self, ctx):
        """Raises NotASymmetryError if W u_x is not a symmetry of the system."""
        tail = () if self.W is None else [
            (Fraction(1), ctx.register_symmetry(tail_characteristic(self.W)))]
        return operator_to_bivector(first_order_operator(self.metric, self.conn), ctx, tail=tail)


class SecondOrderOperator(_Operator):
    def __init__(self, data):
        self.data = data

    def intrinsic(self):
        return [second_order_canonical_check(self.data)]

    def compat(self, problem):
        return self.intrinsic() + [second_order_compat(self.data, problem.vflux())]

    def fluxes(self, ansatz, classify):
        return find_fluxes_second_order(self.data, ansatz, classify=classify)


class ThirdOrderOperator(_Operator):
    """The local operator with nonlocal tails ``w`` weighted by ``weights``."""

    def __init__(self, data, w_list, weights):
        self.data, self.w_list, self.weights = data, w_list, weights

    def intrinsic(self):
        return [third_order_hamiltonian_check(self.data)]

    def compat(self, problem):
        checks = self.intrinsic() + [third_order_compat(self.data, problem.vflux())]
        if self.w_list:
            checks.append(third_order_nonlocal_checks(
                self.data, self.w_list, self.weights, problem.vflux()))
        return checks

    def bivector(self, ctx):
        if self.w_list:
            raise InputError("reduce does not cover the nonlocal tails 'w' of a "
                             "third-order operator; check-compat checks them")
        return operator_to_bivector(third_order_operator(self.data))

    def fluxes(self, ansatz, classify):
        return find_fluxes_third_order(self.data, ansatz, classify=classify)


def load_operator(problem: Problem, name: str):
    spec = problem.operators.get(name)
    if spec is None:
        raise InputError(f"no operator named {name!r} in the problem")
    n = problem.n
    if "bivector" in spec:
        return BivectorOperator(name, _tensor(spec["bivector"], (n,), expression(n),
                                              "bivector needs n components"))
    order = spec.get("order") if type(spec.get("order")) is int else None  # no bool or float
    scalar = expression(n, scalar=True)
    if order in (1, 3):
        g = Metric(_tensor(_require(spec, "g", "operator"), (n, n), scalar, f"g must be {n} x {n}"),
                   variance=spec.get("variance", "upper" if order == 1 else "lower"))
    if order == 1:
        gamma = _tensor(_require(spec, "Gamma", "operator"), (n, n, n), scalar,
                        f"Gamma must be {n} x {n} x {n}")
        W = None
        if "W" in spec:
            W = _tensor(spec["W"], (n, n), scalar, f"W must be {n} x {n}")
        return FirstOrderOperator(g, Connection(g, gamma), W)
    if order == 2:
        t_raw = _require(spec, "T", "operator")
        g0_raw = _require(spec, "g0", "operator")
        t_gens = _sparse_or_full_skew(t_raw, n, 3)
        g0_gens = _sparse_or_full_skew(g0_raw, n, 2)
        if t_gens is not None or g0_gens is not None:
            if t_gens is None or g0_gens is None:
                raise InputError("T and g0 must both be sparse or both full arrays")
            return SecondOrderOperator(SecondOrderData.from_generators(n, t_gens, g0_gens))
        T = _tensor(t_raw, (n, n, n), _number, "T must be n x n x n")
        g0 = _tensor(g0_raw, (n, n), _number, "g0 must be n x n")
        return SecondOrderOperator(SecondOrderData(T, g0))
    if order == 3:
        c_raw = spec.get("c", "from-metric")
        if c_raw == "from-metric":
            data = ThirdOrderData.from_lower_metric(g.lower())
        else:
            data = ThirdOrderData(g, _tensor(c_raw, (n, n, n), scalar,
                                             f"c must be {n} x {n} x {n}"))
        w_list = _tensor(spec.get("w", []), (None,),
                         lambda w: _tensor(w, (n, n), scalar, f"w must be {n} x {n}"),
                         "'w' must be a list of tails")
        weights = _tensor(spec.get("weights", ["1"] * len(w_list)), (len(w_list),),
                          _number, "weights must match the number of tails")
        return ThirdOrderOperator(data, w_list, weights)
    raise InputError(f"operator {name!r} needs 'order' in 1..3 or a 'bivector' field")

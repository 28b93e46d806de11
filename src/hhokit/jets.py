"""Differential polynomials on jet space with odd covering variables.

A differential monomial is a product of positive-order x-jets of the field
variables ``u{i}_x``, ``u{i}_xx``, ... and at most one odd factor: a cotangent
variable ``p{j}`` (any x-order) or a nonlocal potential ``r{alpha}`` (order 0
only; its x- and t-derivatives are rewritten by a covering context the moment
they appear).  Order-0 ``u{i}`` live in the RatFunc coefficients, so the
monomial part never stores them.

Odd variables commute and carry degree at most 1: products of two odd factors
raise OddDegreeError.  All values are immutable; operations return fresh
objects in canonical form, with no zero coefficient stored (sums go through
``rational.add_terms``), so equality is normal-form comparison.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .config import jet_cap
from .errors import JetCapError, OddDegreeError, UnregisteredNonlocalError
from .rational import RatFunc, RatSum, add_terms, power

KIND_U = 0
KIND_P = 1
KIND_R = 2

_KIND_LETTER = {KIND_U: "u", KIND_P: "p", KIND_R: "r"}


class JetVar(NamedTuple):
    kind: int
    index: int
    xorder: int

    def name(self) -> str:
        base = f"{_KIND_LETTER[self.kind]}{self.index}"
        if self.xorder == 0:
            return base
        if self.xorder == 1:
            return base + "_x"
        if self.xorder == 2:
            return base + "_xx"
        return f"{base}_x{self.xorder}"


def ujet(index: int, xorder: int) -> JetVar:
    if xorder < 1:
        raise ValueError("order-0 u variables belong in coefficients")
    return JetVar(KIND_U, index, xorder)


def pjet(index: int, xorder: int = 0) -> JetVar:
    return JetVar(KIND_P, index, xorder)


def rvar(alpha: int) -> JetVar:
    return JetVar(KIND_R, alpha, 0)


class DiffMonomial(NamedTuple):
    even: tuple  # ((JetVar, exp), ...) sorted by (index, xorder)
    odd: Optional[JetVar]


EMPTY_MONO = DiffMonomial((), None)


def mono(even=(), odd=None) -> DiffMonomial:
    return DiffMonomial(tuple(sorted(even)), odd)


def mono_weight(m: DiffMonomial) -> int:
    """Homogeneity weight: each x-derivative counts 1 (odd r counts 0)."""
    w = sum(jv.xorder * e for jv, e in m.even)
    if m.odd is not None:
        w += m.odd.xorder
    return w


def dm_key(m: DiffMonomial):
    """Ascending sort lists terms leading-first (graded, then factor lex)."""
    seq = []
    for jv, e in m.even:
        seq.extend([jv] * e)
    if m.odd is not None:
        seq.append(m.odd)
    return (-len(seq), -mono_weight(m), tuple(seq))


def _even_mul(e1, e2):
    out = dict(e1)
    for jv, e in e2:
        out[jv] = out.get(jv, 0) + e
    return tuple(sorted(out.items()))


def even_lowered(even: tuple, pos: int) -> tuple:
    """The even factors with one power of even[pos] taken away."""
    jv, e = even[pos]
    if e > 1:
        return even[:pos] + ((jv, e - 1),) + even[pos + 1:]
    return even[:pos] + even[pos + 1:]


def dm_mul(m1: DiffMonomial, m2: DiffMonomial) -> DiffMonomial:
    if m1.odd is not None and m2.odd is not None:
        raise OddDegreeError("odd degree overflow")
    return DiffMonomial(_even_mul(m1.even, m2.even), m1.odd or m2.odd)


class DiffSum(dict):
    """A sum of DiffPoly terms and products, formed in place with one
    ``RatSum`` per differential monomial: ``add(a, k)`` and ``addmul(a, b, k)``
    add k*a and k*a*b for a scalar k (int or Fraction)."""

    def __missing__(self, m):
        s = self[m] = RatSum()
        return s

    def add(self, a: "DiffPoly", k=1) -> None:
        for m, c in a.terms.items():
            self[m].add(c, k)

    def addmul(self, a: "DiffPoly", b: "DiffPoly", k=1) -> None:
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                self[dm_mul(m1, m2)].addmul(c1, c2, k)

    def value(self) -> "DiffPoly":
        return DiffPoly({m: s.value() for m, s in self.items()})


class DiffPoly:
    """Canonical map DiffMonomial -> RatFunc with no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {m: c for m, c in terms.items() if not c.is_zero}

    @staticmethod
    def _new(terms: dict) -> "DiffPoly":
        p = object.__new__(DiffPoly)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._new({})

    @classmethod
    def from_scalar(cls, c) -> "DiffPoly":
        if type(c) is not RatFunc:
            c = RatFunc.const(c)
        if c.is_zero:
            return cls.zero()
        return cls._new({EMPTY_MONO: c})

    @classmethod
    def one(cls):
        return cls.from_scalar(RatFunc.one())

    @classmethod
    def ufield(cls, index: int) -> "DiffPoly":
        return cls.from_scalar(RatFunc.var(index))

    @classmethod
    def jet(cls, index: int, xorder: int) -> "DiffPoly":
        if xorder == 0:
            return cls.ufield(index)
        return cls._new({mono([(ujet(index, xorder), 1)]): RatFunc.one()})

    @classmethod
    def odd_p(cls, index: int, xorder: int = 0) -> "DiffPoly":
        return cls._new({mono((), pjet(index, xorder)): RatFunc.one()})

    @classmethod
    def odd_r(cls, alpha: int) -> "DiffPoly":
        return cls._new({mono((), rvar(alpha)): RatFunc.one()})

    @classmethod
    def monomial(cls, m: DiffMonomial, coeff: RatFunc) -> "DiffPoly":
        if coeff.is_zero:
            return cls.zero()
        return cls._new({m: coeff})

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    @property
    def is_scalar(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and EMPTY_MONO in self.terms)

    def scalar_value(self) -> RatFunc:
        if not self.terms:
            return RatFunc.zero()
        if not self.is_scalar:
            raise ValueError("not a scalar differential polynomial")
        return self.terms[EMPTY_MONO]

    def odd_degree(self) -> int:
        return 1 if any(m.odd is not None for m in self.terms) else 0

    def odd_linear(self) -> bool:
        """True when every term carries exactly one odd factor."""
        return all(m.odd is not None for m in self.terms)

    def max_jet_order(self) -> int:
        best = 0
        for m in self.terms:
            for jv, _ in m.even:
                best = max(best, jv.xorder)
            if m.odd is not None:
                best = max(best, m.odd.xorder)
        return best

    def sorted_terms(self):
        return [(m, self.terms[m]) for m in sorted(self.terms, key=dm_key)]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not DiffPoly:
            other = DiffPoly.from_scalar(other)
        res = dict(self.terms)
        add_terms(res, other.terms)
        return DiffPoly._new(res)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not DiffPoly:
            other = DiffPoly.from_scalar(other)
        res = dict(self.terms)
        add_terms(res, other.terms, -1)
        return DiffPoly._new(res)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return DiffPoly._new({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not DiffPoly:
            return self.scalar_mul(other)
        res = DiffSum()
        res.addmul(self, other)
        return res.value()

    __rmul__ = __mul__

    def scalar_mul(self, c) -> "DiffPoly":
        if type(c) is not RatFunc:
            c = RatFunc.const(c)
        if c.is_zero:
            return DiffPoly.zero()
        return DiffPoly._new({m: v * c for m, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a differential polynomial")
        return power(self, n, DiffPoly.one())

    # -- calculus -------------------------------------------------------------

    def partial_jet(self, index: int, xorder: int) -> "DiffPoly":
        """Formal partial derivative wrt u{index} (xorder 0) or its jet."""
        # distinct monomials stay distinct under either derivative, so nothing adds up
        res: dict = {}
        if xorder == 0:
            for m, c in self.terms.items():
                dc = c.diff(index)
                if not dc.is_zero:
                    res[m] = dc
            return DiffPoly._new(res)
        target = ujet(index, xorder)
        for m, c in self.terms.items():
            for pos, (jv, e) in enumerate(m.even):
                if jv == target:
                    res[DiffMonomial(even_lowered(m.even, pos), m.odd)] = c * e
                    break
        return DiffPoly._new(res)

    def __str__(self):
        from .grammar import format_diffpoly
        return format_diffpoly(self)

    __repr__ = __str__


def _raise_order(jv: JetVar, cap: int) -> JetVar:
    """jv with its x-order raised by one, within the jet cap."""
    if jv.xorder + 1 > cap:
        raise JetCapError(f"jet order {jv.xorder + 1} exceeds cap {cap} "
                          "(set HHOKIT_JET_CAP to raise it)")
    return JetVar(jv.kind, jv.index, jv.xorder + 1)


def _bump_even(m: DiffMonomial, pos: int, cap: int) -> DiffMonomial:
    raised = _raise_order(m.even[pos][0], cap)
    return DiffMonomial(_even_mul(even_lowered(m.even, pos), ((raised, 1),)), m.odd)


def total_x(a: DiffPoly, rx_rules=None, cap=None) -> DiffPoly:
    """Total x-derivative.

    Coefficients differentiate through the chain rule u{i} -> u{i}_x, jets
    increment their order (subject to the jet cap), and odd r variables are
    replaced through ``rx_rules`` (a covering-owned map alpha -> DiffPoly);
    without a rule an r derivative is an error.
    """
    if cap is None:
        cap = jet_cap()
    res = DiffSum()
    for m, c in a.terms.items():
        for vid in c.field_vars():
            res[dm_mul(m, mono([(ujet(vid, 1), 1)]))].add(c.diff(vid))
        for pos, (jv, e) in enumerate(m.even):
            res[_bump_even(m, pos, cap)].add(c, e)
        if m.odd is not None:
            jv = m.odd
            if jv.kind == KIND_P:
                res[DiffMonomial(m.even, _raise_order(jv, cap))].add(c)
            else:
                if rx_rules is None or jv.index not in rx_rules:
                    raise UnregisteredNonlocalError(
                        f"no covering rule for the nonlocal variable r{jv.index}")
                res.addmul(DiffPoly._new({DiffMonomial(m.even, None): c}), rx_rules[jv.index])
    return res.value()


def collect(a: DiffPoly) -> dict:
    """Exact partition of a by differential monomial (summing back rebuilds a)."""
    return dict(a.terms)


def dp_mul(a: DiffPoly, b: DiffPoly) -> DiffPoly:
    """Named product entry point; odd x odd raises OddDegreeError."""
    return a * b

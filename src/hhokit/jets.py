"""Differential polynomials on jet space with odd covering variables.

A differential monomial is a product of positive-order x-jets of the field
variables ``u{i}_x``, ``u{i}_xx``, ... and at most one odd factor: a cotangent
variable ``p{j}`` (any x-order) or a nonlocal potential ``r{alpha}`` (order 0
only; its x- and t-derivatives are rewritten by a covering context the moment
they appear).  Order-0 ``u{i}`` live in the RatFunc coefficients, so the
monomial part never stores them.

Odd variables commute and carry degree at most 1: products of two odd factors
raise OddDegreeError.  All values are immutable; operations return fresh
objects in canonical form, with no zero coefficient stored, so equality is
normal-form comparison: ``DiffPoly`` takes its constructor, sums, negation,
powers and equality from ``rational.SparsePoly`` and adds only its products
and calculus.

Every sum of products here (a product, ``total_x``, the covering's ``total_t``
and residuals) is formed in place in one ``DiffSum``, the ``rational.IntSum``
keyed by differential monomial, whose docstring describes the layout.  The chain
rule lives in one table, ``jet_gradient``, the partials da/dv by jet variable:
``total_x``, ``DiffPoly.partial_jet``, the covering's ``total_t`` and its
linearization all read it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .config import jet_cap
from .errors import JetCapError, OddDegreeError, UnregisteredNonlocalError
from .rational import IntSum, RatFunc, SparsePoly, _ints_of

KIND_U = 0
KIND_P = 1
KIND_R = 2

_KIND_LETTER = {KIND_U: "u", KIND_P: "p", KIND_R: "r"}


class JetVar(NamedTuple):
    kind: int
    index: int
    xorder: int

    def name(self) -> str:
        base, k = f"{_KIND_LETTER[self.kind]}{self.index}", self.xorder
        return base + ("", "_x", "_xx")[k] if k < 3 else f"{base}_x{k}"


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
_new_mono = _new_jet = tuple.__new__  # a NamedTuple's own __new__ is a Python call


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
    """The product of two sorted even-factor tuples, by one sorted merge."""
    if not e1:
        return e2
    if not e2:
        return e1
    out = []
    i = j = 0
    n1, n2 = len(e1), len(e2)
    while i < n1 and j < n2:
        f1, f2 = e1[i], e2[j]
        v1, v2 = f1[0], f2[0]
        if v1 == v2:
            out.append((v1, f1[1] + f2[1]))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(f1)
            i += 1
        else:
            out.append(f2)
            j += 1
    out.extend(e1[i:])
    out.extend(e2[j:])
    return tuple(out)


def even_lowered(even: tuple, pos: int) -> tuple:
    """The even factors with one power of even[pos] taken away."""
    jv, e = even[pos]
    if e > 1:
        return even[:pos] + ((jv, e - 1),) + even[pos + 1:]
    return even[:pos] + even[pos + 1:]


class DiffSum(IntSum):
    """A sum of DiffPoly terms and products, formed in place: the ``rational.IntSum`` keyed
    by differential monomial.  ``add(a, k)`` and ``addmul(a, b, k)`` add k*a and k*a*b for
    a scalar k (int or Fraction); ``value()`` makes each monomial's coefficient once, and
    the sum goes on from that value.
    """

    __slots__ = ()

    def add(self, a: "DiffPoly", k=1) -> None:
        for m, c in a.terms.items():
            self.add_term(m, c, k)

    def addmul(self, a: "DiffPoly", b: "DiffPoly", k=1) -> None:
        if not k.numerator:
            return
        right = [(e2, o2, c2, _ints_of(c2)) for (e2, o2), c2 in b.terms.items()]
        for (e1, o1), c1 in a.terms.items():
            f1 = _ints_of(c1)
            for e2, o2, c2, f2 in right:
                if o1 is not None and o2 is not None:
                    raise OddDegreeError("odd degree overflow")
                m = _new_mono(DiffMonomial, (_even_mul(e1, e2), o1 or o2))
                if f1 is None or f2 is None:
                    self.add_term(m, c1 * c2, k)
                else:
                    self.addmul_ints(m, f1, f2, k)

    def value(self) -> "DiffPoly":
        pop, out = self.pop, {}
        for m in list(self.terms):
            c = pop(m)  # freed once made into a coefficient: no second copy of the sum
            if c:
                out[m] = c
        self.terms, self.den = dict(out), 1
        return DiffPoly._new(out)


class DiffPoly(SparsePoly):
    """Canonical map DiffMonomial -> RatFunc with no zero coefficients."""

    __slots__ = ()
    _negative_power = "negative power of a differential polynomial"

    @staticmethod
    def _new(terms: dict) -> "DiffPoly":
        p = object.__new__(DiffPoly)
        p.terms = terms
        return p

    @classmethod
    def from_scalar(cls, c) -> "DiffPoly":
        if type(c) is not RatFunc:
            c = RatFunc.const(c)
        if c.is_zero:
            return cls.zero()
        return cls._new({EMPTY_MONO: c})

    _lift = from_scalar

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

    # -- calculus -------------------------------------------------------------

    def partial_jet(self, index: int, xorder: int) -> "DiffPoly":
        """Formal partial derivative wrt u{index} (xorder 0) or its jet."""
        return gradient_entry(jet_gradient(self).get((KIND_U, index, xorder), {}))

    def __str__(self):
        from .grammar import format_diffpoly
        return format_diffpoly(self)


def _raise_order(jv: JetVar, cap: int) -> JetVar:
    """jv with its x-order raised by one, within the jet cap."""
    if jv.xorder + 1 > cap:
        raise JetCapError(f"jet order {jv.xorder + 1} exceeds cap {cap} "
                          "(set HHOKIT_JET_CAP to raise it)")
    return JetVar(jv.kind, jv.index, jv.xorder + 1)


def jet_gradient(a: DiffPoly) -> dict:
    """The chain-rule table of a: {jet variable v: {cofactor monomial: (coefficient,
    exponent)}}, one entry for each variable a holds, with da/dv the sum of exponent *
    coefficient * cofactor.  A coefficient's u^i is v = (u, i, 0), which no even factor
    has, and holds c.diff(i) at the term's own monomial; an even factor v^e holds (c, e) at
    the monomial with one power of v taken away, the odd factor (c, 1) at the even part.
    One factor taken from distinct monomials leaves distinct monomials, so nothing adds up."""
    grad: dict = {}
    for m, c in a.terms.items():
        even, odd = m
        for vid in c.field_vars():
            grad.setdefault(_new_jet(JetVar, (KIND_U, vid, 0)), {})[m] = (c.diff(vid), 1)
        for pos, (jv, e) in enumerate(even):
            rest = _new_mono(DiffMonomial, (even_lowered(even, pos), odd))
            grad.setdefault(jv, {})[rest] = (c, e)
        if odd is not None:
            grad.setdefault(odd, {})[_new_mono(DiffMonomial, (even, None))] = (c, 1)
    return grad


def gradient_entry(cofactors: dict) -> DiffPoly:
    """da/dv from jet_gradient(a)[v], each exponent folded into its coefficient."""
    return DiffPoly._new({m: c * e if e > 1 else c for m, (c, e) in cofactors.items()})


def total_x(a: DiffPoly, rx_rules=None, cap=None) -> DiffPoly:
    """Total x-derivative D_x a = sum_v (da/dv) v_x over ``jet_gradient(a)``.

    A u or p variable v is raised one x-order (subject to the jet cap), each cofactor term
    taking the raised variable as a new factor; an odd r variable is replaced through
    ``rx_rules`` (a covering-owned map alpha -> DiffPoly); without a rule an r derivative
    is an error.
    """
    if cap is None:
        cap = jet_cap()
    res = DiffSum()
    for jv, cofactors in jet_gradient(a).items():
        if jv.kind == KIND_R:
            if rx_rules is None or jv.index not in rx_rules:
                raise UnregisteredNonlocalError(
                    f"no covering rule for the nonlocal variable r{jv.index}")
            res.addmul(gradient_entry(cofactors), rx_rules[jv.index])
            continue
        raised = _raise_order(jv, cap)
        if jv.kind == KIND_P:
            for (even, _), (c, e) in cofactors.items():
                res.add_term(_new_mono(DiffMonomial, (even, raised)), c, e)
        else:
            factor = ((raised, 1),)
            for (even, odd), (c, e) in cofactors.items():
                res.add_term(_new_mono(DiffMonomial, (_even_mul(even, factor), odd)), c, e)
    return res.value()


def ux_sums(matrix) -> tuple:
    """Per row of the square ``matrix``, the sum of row[j - 1] u^j_x over j, each scalar
    coefficient made a RatFunc."""
    ux = [mono([(ujet(j, 1), 1)]) for j in range(1, len(matrix) + 1)]
    return tuple(DiffPoly({m: c if type(c) is RatFunc else RatFunc.const(c)
                           for m, c in zip(ux, row)}) for row in matrix)


def collect(a: DiffPoly) -> dict:
    """Exact partition of a by differential monomial (summing back rebuilds a)."""
    return dict(a.terms)


def dp_mul(a: DiffPoly, b: DiffPoly) -> DiffPoly:
    """Named product entry point; odd x odd raises OddDegreeError."""
    return a * b

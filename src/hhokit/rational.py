"""Exact scalar algebra: multivariate polynomials and rational functions over Q.

Everything downstream (jet polynomials, condition checkers, linear solving)
uses these scalars as coefficients.  A scalar lives in Q(u1..un)[c1..cm]:
a rational function of the field variables with formal parameters that are
only ever allowed in numerators.

Variables are identified by integer ids:

* ``vid > 0``  -- the field variable ``u{vid}``;
* ``vid < 0``  -- the formal parameter ``c{-vid}``.

A monomial is a tuple ``((vid, exp), ...)`` sorted by variable key, with all
exponents positive; the empty tuple is 1.  Polynomials are sparse dicts
monomial -> coefficient with no zero values, so equality of canonical forms is
dict equality.  ``SparsePoly`` holds that invariant and the arithmetic that
keeps it, once, for ``Poly`` here and ``jets.DiffPoly``.  A coefficient is an
exact rational, never a float: the constructors and every division here store
an integral value as ``int`` and any other as ``Fraction``; ``Poly``'s
``+ - *`` keep the type their operands give, so a ``Fraction`` of denominator
1 may remain in their results; a coefficient that ``IntSum`` makes leaves
none.  ``int`` and ``Fraction`` compare, hash and print alike, so no answer
depends on which one is stored.  The term order is graded
lexicographic with field variables before parameters.

Terms are summed in one place, ``add_terms``: it adds k*m0*terms into a term
dict in place and deletes a term that cancels, so no stored coefficient is
zero.  Every sum of RatFunc products is formed in place in one keyed
accumulator, ``IntSum``, whose docstring describes its layout: a scalar sum is
its one-key face ``RatSum``, a sum of differential polynomials the
``jets.DiffSum`` keyed by differential monomial, a tensor contraction
geometry's ``_Scatter`` keyed by output index.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import NonlinearAnsatzError, ParameterInDenominatorError

Mono = tuple  # ((vid, exp), ...)

_EMPTY: Mono = ()
_SCALARS = (int, bool, Fraction)  # matched by exact type: isinstance on an ABC is slow


def vkey(vid: int):
    """Sort key placing u1 < u2 < ... < c1 < c2 < ..."""
    return (0, vid) if vid > 0 else (1, -vid)


def _q(a, b=1):
    """The exact rational a / b: an int when integral, else a Fraction."""
    if type(a) is int and b == 1:
        return a
    c = Fraction(a, b)
    return c.numerator if c.denominator == 1 else c


def var_name(vid: int) -> str:
    return f"u{vid}" if vid > 0 else f"c{-vid}"


_PARAM_BASE = 1 << 62  # c{k} sorts as _PARAM_BASE + k, past every field variable u{i}


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif (v1 if v1 > 0 else _PARAM_BASE - v1) < (v2 if v2 > 0 else _PARAM_BASE - v2):
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def add_terms(res: dict, terms: dict, k=1, m0: Mono = _EMPTY) -> None:
    """res += k*m0*terms in place (k a scalar); a term that cancels is deleted, k == 0 returns
    at once.  Neither dict holds a zero; only ``*``, ``+`` and truth touch a coefficient."""
    if not k:
        return
    scale = k != 1  # once per call: a Fraction k compares in Python
    get = res.get
    for m, c in terms.items():
        if m0:
            m = mono_mul(m0, m)
        if scale:
            c = c * k
        s = get(m)
        if s is None:
            res[m] = c
        else:
            s = s + c
            if s:
                res[m] = s
            else:
                del res[m]


def mono_div(m1: Mono, m2: Mono):
    """m1 / m2, or None when m2 does not divide m1."""
    if not m2:
        return m1
    d2 = dict(m2)
    out = []
    for v, e in m1:
        r = e - d2.pop(v, 0)
        if r < 0:
            return None
        if r:
            out.append((v, r))
    if d2:
        return None
    return tuple(out)


def mono_gcd(m1: Mono, m2: Mono) -> Mono:
    d2 = dict(m2)
    out = []
    for v, e in m1:
        e2 = d2.get(v, 0)
        if e2:
            out.append((v, min(e, e2)))
    return tuple(out)


def mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_key(m: Mono):
    """Ascending sort by this key lists terms leading-first (graded lex)."""
    return (-mono_deg(m), tuple((vkey(v), -e) for v, e in m))


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in sorted(m, key=lambda p: vkey(p[0])):
        parts.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
    return "*".join(parts)


class SparsePoly:
    """A sparse sum {monomial: coefficient} with no zero coefficient stored, so
    equality is dict equality: the one body of ``Poly`` and ``jets.DiffPoly``.
    A subclass gives ``_new(terms)`` (adopts a dict), ``_lift(scalar)`` (the
    scalar as a sum, for ``+`` and ``-`` with a scalar on either side),
    ``one()``, its products and ``_negative_power``, the message of ``p ** -k``.
    A built sum's term dict is never mutated."""

    __slots__ = ("terms",)

    def __new__(cls, terms=None):
        return cls._new({} if terms is None else {m: c for m, c in terms.items() if c})

    @classmethod
    def zero(cls):
        return cls._new({})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._lift(other)
        res = dict(self.terms)
        add_terms(res, other.terms)
        return self._new(res)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not type(self):
            other = self._lift(other)
        res = dict(self.terms)
        add_terms(res, other.terms, -1)
        return self._new(res)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __pow__(self, n: int):
        """By square-and-multiply; a first factor is taken as is, not multiplied by one."""
        if n < 0:
            raise ValueError(self._negative_power)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return self.one() if out is None else out
            base = base * base

    def __repr__(self):
        return str(self)


def join_signed(chunks) -> str:
    """Signed terms (sign, body), sign "+" or "-", as "a - b + c"; "0" for none."""
    text = " ".join(f"{sign} {body}" for sign, body in chunks)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


class Poly(SparsePoly):
    """Sparse multivariate polynomial with exact rational (int or Fraction)
    coefficients.  ``ints`` caches the integer form (d, {m: n}), every
    coefficient n/d, once ``RatSum`` has needed it (None until then); it may
    share ``terms``."""

    __slots__ = ("ints",)
    _negative_power = "negative exponent on polynomial"

    @staticmethod
    def _new(terms: dict) -> "Poly":
        p = object.__new__(Poly)
        p.terms = terms
        p.ints = None
        return p

    @classmethod
    def const(cls, c) -> "Poly":
        c = _q(c)
        return cls._new({_EMPTY: c} if c else {})

    _lift = const

    @classmethod
    def one(cls) -> "Poly":
        return cls._new({_EMPTY: 1})

    @classmethod
    def var(cls, vid: int, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return cls.one()
        return cls._new({((vid, exp),): 1})

    # -- predicates ---------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_const:
            raise ValueError("not a constant polynomial")
        return self.terms[_EMPTY]

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if type(other) is not Poly:
            c = _q(other)
            if not c:
                return Poly.zero()
            return Poly._new({m: v * c for m, v in self.terms.items()})
        if not self.terms or not other.terms:
            return Poly.zero()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        res = {}
        for m1, c1 in a.items():
            add_terms(res, b, c1, m1)
        return Poly._new(res)

    __rmul__ = __mul__

    # -- calculus and structure ---------------------------------------------

    def diff(self, vid: int) -> "Poly":
        # distinct monomials stay distinct under d/du{vid}, so nothing adds up
        res = {}
        for m, c in self.terms.items():
            for pos, (v, e) in enumerate(m):
                if v == vid:
                    if e == 1:
                        res[m[:pos] + m[pos + 1:]] = c
                    else:
                        res[m[:pos] + ((v, e - 1),) + m[pos + 1:]] = c * e
                    break
        d = Poly._new(res)
        if self.ints is not None and self.ints[1] is self.terms:  # all int: so is d
            d.ints = (1, res)
        return d

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(mono_deg, self.terms), default=-1)

    def degree_in(self, vid: int) -> int:
        best = 0
        for m in self.terms:
            for v, e in m:
                if v == vid and e > best:
                    best = e
        return best

    def vars_used(self):
        return sorted({v for m in self.terms for v, _ in m}, key=vkey)

    @property
    def has_params(self) -> bool:
        return any(v < 0 for m in self.terms for v, _ in m)

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            return _EMPTY, Fraction(0)
        m = min(self.terms, key=mono_key)
        return m, self.terms[m]

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at a rational point {vid: Fraction}; all vars must be set."""
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for vid, e in m:
                v = v * point[vid] ** e
            total += v
        return total

    def __str__(self):
        chunks = []
        for m in sorted(self.terms, key=mono_key):
            c = self.terms[m]
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if not m:
                body = str(c)
            elif c == 1:
                body = mono_str(m)
            else:
                body = f"{c}*{mono_str(m)}"
            chunks.append((sign, body))
        return join_signed(chunks)


def affine_rows(terms: dict) -> dict:
    """A parameter-affine term dict grouped by u-monomial: {u-monomial: {pid: c}},
    pid the parameter's vid, 0 for the parameter-free part.

    Raises NonlinearAnsatzError when a parameter occurs with degree >= 2
    or two parameters share a monomial.
    """
    # distinct monomials give distinct (u-monomial, pid) pairs, so no coefficients need adding
    rows: dict = {}
    for m, c in terms.items():
        pid, e = m[-1] if m else (0, 0)  # parameters sort last (vkey)
        if pid > 0:
            pid = 0
        elif pid:
            if e > 1 or (len(m) > 1 and m[-2][0] < 0):
                raise NonlinearAnsatzError(f"nonlinear ansatz: parameter monomial {mono_str(m)}")
            m = m[:-1]
        row = rows.get(m)
        if row is None:
            rows[m] = {pid: c}
        else:
            row[pid] = c
    return rows


# -- exact division and gcd --------------------------------------------------


def exact_div(a: Poly, b: Poly):
    """a / b when the division is exact, else None.  A one-term divisor (a
    constant included) maps each term of a by ``mono_div``, in one pass; any
    other divisor takes the leading-term loop."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return Poly.zero()
    if b.is_monomial:
        ((bm, bc),) = b.terms.items()
        quot = {mono_div(m, bm): _q(c, bc) for m, c in a.terms.items()}
        return None if None in quot else Poly._new(quot)
    bm, bc = b.leading()
    rem = dict(a.terms)
    quot = {}
    while rem:
        m = min(rem, key=mono_key)
        c = rem[m]
        qm = mono_div(m, bm)
        if qm is None:
            return None
        qc = _q(c, bc)
        quot[qm] = qc
        add_terms(rem, b.terms, -qc, qm)
    return Poly._new(quot)


def _mono_common(monos) -> Mono:
    """Largest monomial dividing every monomial of a nonempty iterable."""
    it = iter(monos)
    acc = next(it)
    for m in it:
        if not acc:
            break
        acc = mono_gcd(acc, m)
    return acc


def _normalize_unit(p: Poly) -> Poly:
    """Scale so the leading coefficient is 1 (canonical gcd representative)."""
    if p.is_zero:
        return p
    _, lc = p.leading()
    if lc == 1:
        return p
    inv = _q(1, lc)
    return Poly._new({m: c * inv for m, c in p.terms.items()})


def _univar(p: Poly, x: int) -> dict:
    """View p as a univariate polynomial in x with Poly coefficients."""
    out: dict[int, dict] = {}
    for m, c in p.terms.items():
        d = 0
        rest = []
        for v, e in m:
            if v == x:
                d = e
            else:
                rest.append((v, e))
        out.setdefault(d, {})[tuple(rest)] = c
    return {d: Poly._new(t) for d, t in out.items()}


def _from_univar(coeffs: dict, x: int) -> Poly:
    total = {}
    for d, p in coeffs.items():
        add_terms(total, p.terms, 1, ((x, d),) if d else _EMPTY)
    return Poly._new(total)


def _content_x(coeffs: dict) -> Poly:
    acc = Poly.zero()
    for p in coeffs.values():
        acc = poly_gcd(acc, p)
        if acc.is_const and not acc.is_zero:
            return Poly.one()
    return acc


def _uv_pseudo_rem(a: dict, b: dict) -> dict:
    """Pseudo-remainder prem(a, b): lc(b)^(deg a - deg b + 1) * a mod b."""
    da, db = max(a), max(b)
    lb = b[db]
    rem = dict(a)
    e = da - db + 1
    while rem and max(rem) >= db:
        dr = max(rem)
        lr = rem[dr]
        rem = {d: p * lb for d, p in rem.items() if d != dr}
        add_terms(rem, {d + dr - db: p * lr for d, p in b.items() if d != db}, -1)
        e -= 1
    if e > 0 and rem:
        scale = lb ** e
        rem = {d: p * scale for d, p in rem.items()}
    return rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD up to a unit, normalized to leading coefficient 1.  The monomial
    shared by every term of a and b comes off first, in one pass; it is the gcd
    when either operand is one term (a constant included).  Otherwise trial
    division both ways, then a subresultant PRS with recursive contents."""
    if a.is_zero:
        return _normalize_unit(b)
    if b.is_zero:
        return _normalize_unit(a)
    shared = _mono_common(itertools.chain(a.terms, b.terms))
    shared_poly = Poly._new({shared: 1})
    if a.is_monomial or b.is_monomial:
        return shared_poly
    if shared:
        a = exact_div(a, shared_poly)
        b = exact_div(b, shared_poly)

    def _with_shared(g: Poly) -> Poly:
        return _normalize_unit(g * shared_poly if shared else g)

    if a == b:
        return _with_shared(a)
    # trial division both ways
    if a.degree() >= b.degree() and exact_div(a, b) is not None:
        return _with_shared(b)
    if b.degree() >= a.degree() and exact_div(b, a) is not None:
        return _with_shared(a)

    common = set(a.vars_used()) & set(b.vars_used())
    if not common:
        return _with_shared(Poly.one())
    # shortest pseudo-remainder chain: smallest main-variable degree wins
    x = min(common, key=lambda v: (min(a.degree_in(v), b.degree_in(v)), vkey(v)))

    a, b = (Poly._new(_int_form(p)[1]) for p in (a, b))
    ua, ub = _univar(a, x), _univar(b, x)
    ca, cb = _content_x(ua), _content_x(ub)
    pa = {d: exact_div(p, ca) for d, p in ua.items()}
    pb = {d: exact_div(p, cb) for d, p in ub.items()}
    cont = poly_gcd(ca, cb)

    if max(pa) < max(pb):
        pa, pb = pb, pa
    g = Poly.one()
    h = Poly.one()
    while True:
        delta = max(pa) - max(pb)
        rem = _uv_pseudo_rem(pa, pb)
        if not rem:
            cb2 = _content_x(pb)
            prim = {d: exact_div(p, cb2) for d, p in pb.items()}
            return _with_shared(_from_univar(prim, x) * cont)
        if max(rem) == 0:
            return _with_shared(cont)
        divisor = g * h ** delta
        pa = pb
        pb = {d: exact_div(p, divisor) for d, p in rem.items()}
        g = pa[max(pa)]
        if delta >= 1:
            h = exact_div(g ** delta, h ** (delta - 1))
        # delta == 0 keeps h unchanged


# -- rational functions -------------------------------------------------------


class RatFunc:
    """Reduced fraction of Polys; denominator monic and parameter-free."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if type(num) is not Poly:
            num = Poly.const(num)
        if den is None:
            den = Poly.one()
        elif type(den) is not Poly:
            den = Poly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _reduce(num, den)

    @staticmethod
    def _new(num: Poly, den: Poly) -> "RatFunc":
        r = object.__new__(RatFunc)
        r.num = num
        r.den = den
        return r

    @classmethod
    def zero(cls):
        return cls._new(Poly.zero(), Poly.one())

    @classmethod
    def one(cls):
        return cls._new(Poly.one(), Poly.one())

    @classmethod
    def const(cls, c):
        return cls._new(Poly.const(c), Poly.one())

    @classmethod
    def var(cls, vid: int):
        return cls._new(Poly.var(vid), Poly.one())

    @classmethod
    def from_poly(cls, p: Poly):
        return cls._new(Poly._new(dict(p.terms)), Poly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def const_value(self) -> Fraction:
        return _q(self.num.const_value(), self.den.const_value())

    @property
    def is_poly(self) -> bool:
        return self.den.is_const

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if type(other) is not RatFunc:
            if type(other) not in _SCALARS:
                return NotImplemented
            other = RatFunc.const(other)
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __add__(self, other):
        if type(other) is not RatFunc:
            if type(other) not in _SCALARS:
                return NotImplemented
            other = RatFunc.const(other)
        if self.num.is_zero:
            return other
        if other.num.is_zero:
            return self
        # a canonical constant denominator is 1, so nothing is left to reduce
        if self.den.is_const and other.den.is_const:
            return RatFunc._new(self.num + other.num, self.den)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        da, db = exact_div(self.den, g), exact_div(other.den, g)
        # Henrici: the new numerator is prime to da and db, so only g can share a factor with it
        num, g = _reduce(self.num * db + other.num * da, g)
        return RatFunc._new(num, g * da * db) if num else RatFunc.zero()

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not RatFunc:
            if type(other) not in _SCALARS:
                return NotImplemented
            other = RatFunc.const(other)
        if self.den.is_const and other.den.is_const:
            return RatFunc._new(self.num - other.num, self.den)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc._new(-self.num, self.den)

    def __mul__(self, other):
        if type(other) is not RatFunc:
            if type(other) not in _SCALARS:
                return NotImplemented
            c = _q(other)
            if not c:
                return RatFunc.zero()
            # a reduced fraction times a nonzero constant stays reduced, den monic
            return RatFunc._new(self.num * c, self.den)
        if self.num.is_zero or other.num.is_zero:
            return RatFunc.zero()
        if self.den.is_const and other.den.is_const:
            return RatFunc._new(self.num * other.num, self.den)
        # cross-cancel before multiplying to keep intermediates small
        n1, d2 = _reduce(self.num, other.den)
        n2, d1 = _reduce(other.num, self.den)
        return RatFunc._new(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc.const(other)
        if other.num.is_zero:
            raise ZeroDivisionError("rational function division by zero")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.const(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFunc.one() / self ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def diff(self, vid: int) -> "RatFunc":
        dn = self.num.diff(vid)
        if self.den.is_const:  # a polynomial's derivative needs no reduction
            return RatFunc._new(dn, self.den)
        dd = self.den.diff(vid)
        if dd.is_zero:
            return RatFunc(dn, self.den)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    def vars_used(self):
        return sorted(set(self.num.vars_used()) | set(self.den.vars_used()), key=vkey)

    def field_vars(self):
        """The field variables' vids, ascending."""
        return sorted({v for p in (self.num, self.den) for m in p.terms for v, _ in m if v > 0})

    def evaluate(self, point: dict) -> Fraction:
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.num.evaluate(point) / d

    def leading_sign(self) -> int:
        if self.num.is_zero:
            return 0
        _, c = self.num.leading()
        return 1 if c > 0 else -1

    def __str__(self):
        if self.den.is_const and self.den.const_value() == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _reduce(num: Poly, den: Poly):
    """Canonical (num, den): gcd-reduced, den monic and parameter-free."""
    if num.is_zero:
        return Poly.zero(), Poly.one()
    if not den.is_const:
        g = poly_gcd(num, den)
        if not g.is_const:
            num = exact_div(num, g)
            den = exact_div(den, g)
        if den.has_params:
            raise ParameterInDenominatorError(
                "formal parameters must stay linear: denominator contains a parameter")
    if den.is_const:
        inv = _q(1, den.const_value())
        return (num * inv if inv != 1 else num), Poly.one()
    _, lc = den.leading()
    if lc != 1:
        inv = _q(1, lc)
        num = num * inv
        den = den * inv
    return num, den


def ratfunc_over(num: Poly, d: Poly, e: int) -> RatFunc:
    """The canonical RatFunc(num, d**e), d monic and parameter-free: for a monomial d, no
    ``poly_gcd``; else none against d**e: num and den lose g = gcd(num, gcd(den, d)) until
    g is constant, exact for reducible d (a factor of num and den divides gcd(den, d))."""
    if not num:
        return RatFunc.zero()
    if d.is_monomial:  # the gcd is the monomial that d**e and every term of num share
        de = tuple((v, x * e) for v, x in next(iter(d.terms)))
        g = _mono_common(itertools.chain((de,), num.terms))
        return RatFunc._new(exact_div(num, Poly._new({g: 1})) if g else num,
                            Poly._new({mono_div(de, g): 1}))
    den, r = d ** e, d  # gcd(d**e, d) = d
    while not den.is_const:
        g = poly_gcd(num, r)
        if g.is_const:
            break
        num, den = exact_div(num, g), exact_div(den, g)
        r = poly_gcd(den, d)
    return RatFunc._new(num, den)  # a monic g keeps den monic: 1 if constant


def _int_form(p: Poly) -> tuple:
    """p's integer form (d, {m: n}), every coefficient n/d with d the lcm of
    their denominators: ``p.ints`` once set, else computed and kept there; an
    all-``int`` p shares its term dict."""
    if p.ints is not None:
        return p.ints
    terms = p.terms
    dens = [c.denominator for c in terms.values() if type(c) is not int]
    if not dens:
        form = (1, terms)
    else:
        d = lcm(*dens)
        form = (d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()})
    p.ints = form
    return form


def poly_from_ints(den: int, nums: dict) -> Poly:
    """The Poly of the integer numerators nums over den > 0, nums not all zero:
    gcd(den, numerators) is divided out once, each coefficient is made once (an
    ``int`` when integral, else its one ``Fraction``) and ``ints`` is set."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: n // g for m, n in nums.items()}
    poly = Poly._new(nums if den == 1 else {
        m: n // den if n % den == 0 else Fraction(n, den) for m, n in nums.items()})
    poly.ints = (den, nums)
    return poly


def _ints_of(c: RatFunc):
    """The integer form (d, {u-monomial: n}) of a polynomial RatFunc; None for one with a
    non-constant denominator."""
    den = c.den.terms
    if len(den) == 1 and _EMPTY in den:  # den.is_const, without the property call
        return _int_form(c.num)
    return None


_ZERO = RatFunc.zero()  # never mutated: the one zero of every key and entry that nothing reached
_DEN1 = Poly.one()  # never mutated: the denominator of every polynomial coefficient pop makes


class IntSum:
    """A sum of RatFunc terms and products keyed by any hashable key, formed in place: the
    one accumulator of ``RatSum`` (one key), ``jets.DiffSum`` (keyed by differential
    monomial) and geometry's ``_Scatter`` (keyed by tensor index).

    ``add_term(key, c, k)`` and ``addmul_term(key, a, b, k)`` add k*c and k*a*b to key's
    coefficient for RatFuncs c, a, b and a scalar k (int or Fraction); a zero operand or k
    returns at once.  ``terms`` maps a key to its lone first RatFunc or to the integer
    numerators {u-monomial: n} of its polynomial part, all keys over one positive common
    denominator ``den``.  A key's first ``add_term`` with k == 1 is kept as given, in O(1),
    and moved into the numerators only when a second contribution arrives.  A polynomial
    term adds its integer form (``Poly.ints``) to the numerators, and a product of polynomials
    (``addmul_ints``) multiplies the two forms, both through ``add_terms`` with no ``Fraction``
    arithmetic: ``_factor`` reduces k/d (k/(d_a*d_b) for a product) once to p/r, with no gcd
    when r == 1, and ``den`` grows to lcm(den, r), scaling every numerator held, only when r
    does not divide it.  A term with a non-constant denominator joins, in ``rats``, the
    numerator sum [den, num, reduced] of its key's terms over the same denominator, so terms
    over one denominator add as polynomials, with no gcd; a rational product is formed by
    RatFunc ``*`` and added by ``add_term``, so one whose denominator cancels joins the
    numerators.
    ``pop(key)`` takes key out and makes its coefficient once: ``poly_from_ints(den,
    numerators)`` over one shared denominator 1, plus each denominator's sum, reduced once if
    it holds more than one term; zero where nothing landed or everything cancelled.
    """

    __slots__ = ("terms", "den", "rats")

    def __init__(self):
        self.terms = {}
        self.den = 1
        self.rats = {}

    def _rescale(self, f: int) -> None:
        for acc in self.terms.values():
            if type(acc) is dict:
                for u in acc:
                    acc[u] *= f

    def _factor(self, p: int, r: int) -> int:
        """The integer numerator over ``den`` of p/r, r > 0: p/r is reduced once, and ``den``
        grows to lcm(den, r), scaling every numerator held, only when r does not divide it."""
        if r == 1:
            return p * self.den
        g = gcd(p, r)
        p, r, den = p // g, r // g, self.den
        if den % r:
            grown = lcm(den, r)
            self._rescale(grown // den)
            self.den = den = grown
        return p * (den // r)

    def _numerators(self, key, lone) -> dict:
        """The numerators of key, made empty, with key's lone first coefficient moved in
        when there is one; the move may grow ``den``."""
        acc = self.terms[key] = {}
        if lone is not None:
            self.add_term(key, lone)
        return acc

    def add_term(self, key, c: RatFunc, k=1) -> None:
        kn = k.numerator
        if not kn or not c.num.terms:
            return
        acc = self.terms.get(key)
        if acc is None and kn == 1 and k.denominator == 1:
            self.terms[key] = c
            return
        if type(acc) is not dict:
            acc = self._numerators(key, acc)
        form = _ints_of(c)
        if form is not None:
            return add_terms(acc, form[1], self._factor(kn, k.denominator * form[0]))
        num = c.num * k if k != 1 else c.num
        groups = self.rats.setdefault(key, [])
        for group in groups:
            if group[0] == c.den:
                group[1] = group[1] + num
                group[2] = False
                return
        groups.append([c.den, num, True])

    def addmul_term(self, key, a: RatFunc, b: RatFunc, k=1) -> None:
        if not (k and a.num.terms and b.num.terms):
            return
        fa, fb = _ints_of(a), _ints_of(b)
        if fa is None or fb is None:
            return self.add_term(key, a * b, k)
        self.addmul_ints(key, fa, fb, k)

    def addmul_ints(self, key, fa: tuple, fb: tuple, k=1) -> None:
        """k*a*b into key's numerators for the integer forms fa = (d_a, {m: n}) and fb."""
        acc = self.terms.get(key)
        if type(acc) is not dict:
            acc = self._numerators(key, acc)
        (da, ta), (db, tb) = fa, fb
        p = self._factor(k.numerator, k.denominator * da * db)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for m1, c1 in ta.items():
            add_terms(acc, tb, c1 * p, m1)

    def pop(self, key) -> RatFunc:
        acc = self.terms.pop(key, None)
        if type(acc) is not dict:
            return _ZERO if acc is None else acc
        c = RatFunc._new(poly_from_ints(self.den, acc), _DEN1) if acc else _ZERO
        for den, num, reduced in self.rats.pop(key, ()):
            c = c + (RatFunc._new(num, den) if reduced else RatFunc(num, den))
        return c


class RatSum(IntSum):
    """A scalar sum of RatFunc terms and products, formed in place from ``first``: the
    one-key ``IntSum``.  ``add(a, k)`` and ``addmul(a, b, k)`` add k*a and k*a*b;
    ``value()`` is the canonical RatFunc, equal to the chain of ``+`` and ``*`` it
    replaces, and the sum goes on from it."""

    __slots__ = ()

    def __init__(self, first: RatFunc | None = None):
        IntSum.__init__(self)
        if first is not None:
            self.add_term(_EMPTY, first)

    def add(self, a: RatFunc, k=1):
        self.add_term(_EMPTY, a, k)

    def addmul(self, a: RatFunc, b: RatFunc, k=1):
        self.addmul_term(_EMPTY, a, b, k)

    def value(self) -> RatFunc:
        c = self.pop(_EMPTY)
        self.den = 1
        if c:
            self.terms[_EMPTY] = c
        return c


def rf_arith(a: RatFunc, b: RatFunc, op: str) -> RatFunc:
    """Named entry point for the four field operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def rf_partial(a: RatFunc, i: int) -> RatFunc:
    """Partial derivative with respect to the field variable u{i}."""
    if i <= 0:
        raise ValueError("field-variable index must be positive")
    return a.diff(i)

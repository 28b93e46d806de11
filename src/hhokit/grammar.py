"""Text form of engine expressions.

Grammar shared by the CLI and the report writer::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+')* atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

Names: field variables ``u1..`` (order-0), jets ``u1_x``, ``u1_xx``,
``u1_x3`` (k >= 3 written ``_x{k}``), odd cotangent variables ``p1``,
``p1_x``, ..., nonlocal potentials ``r1`` (never differentiated in the
text form), parameters ``c1..``.  Exponents are non-negative integers.
Division is only by jet-, odd- and parameter-free subexpressions, and a product
of two odd variables is an ExpressionError at its ``*`` or ``^``.  Parentheses
nest at most 100 deep; deeper input is an ExpressionError.  So is a power
whose expansion could exceed ``config.SIZE_CAP`` terms: a base of T terms
(numerator terms summed over its jet terms; non-constant denominators' terms
counted apart) raised to e gives at most C(T+e-1, e) of them.  Its cost is
bounded too, below that cap: its last squaring may take at most
``config.POWER_PRODUCTS_CAP`` term products, and its coefficients, bounded by
(T*H)**e for H the base's largest numerator or denominator, at most
``config.POWER_BITS_CAP`` bits.

``parse`` returns a DiffPoly; printing is the exact inverse, so
``parse(format_diffpoly(e)) == e``.  Arrays from outside are read by ``_tensor``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import isqrt, log2

from .config import POWER_BITS_CAP, POWER_PRODUCTS_CAP, SIZE_CAP
from .errors import ExpressionError, InputError, OddDegreeError
from .jets import DiffPoly
from .rational import Poly, RatFunc, join_signed

_TOKEN_RE = re.compile(r"(\d+)|([a-z][a-zA-Z0-9_]*)|(\*|/|\+|-|\^|\(|\))")
_NAME_RE = re.compile(r"^([uprc])([1-9]\d*)(?:_(xx?|x\d+))?$")
_MAX_DEPTH = 100  # parenthesis nesting; each level costs four stack frames
_ODD_PRODUCT = "product of two odd variables"
_Token = namedtuple("_Token", "kind value line col")


def _tokenize(text: str):
    line = 1  # expressions are single-line; errors still name the line
    tokens = []
    pos = 0
    n = len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", line, pos + 1)
        col = pos + 1
        if m.group(1):
            tokens.append(_Token("int", int(m.group(1)), line, col))
        elif m.group(2):
            tokens.append(_Token("name", m.group(2), line, col))
        else:
            tokens.append(_Token("op", m.group(3), line, col))
        pos = m.end()
    tokens.append(_Token("end", None, line, n + 1))
    return tokens


def _name_to_value(tok: _Token) -> DiffPoly:
    m = _NAME_RE.match(tok.value)
    if m is None:
        raise ExpressionError(f"unknown name {tok.value!r}", tok.line, tok.col)
    letter, index, suffix = m.group(1), int(m.group(2)), m.group(3)
    xorder = {None: 0, "x": 1, "xx": 2}.get(suffix)
    if xorder is None:
        xorder = int(suffix[1:])
        if xorder < 3:
            hint = {0: "no suffix", 1: "_x", 2: "_xx"}[xorder]
            raise ExpressionError(
                f"order-{xorder} uses {hint}, the _x{{k}} form starts at k = 3",
                tok.line, tok.col)
    if letter == "u":
        return DiffPoly.jet(index, xorder)
    if letter == "p":
        return DiffPoly.odd_p(index, xorder)
    if letter == "r":
        if xorder:
            raise ExpressionError("nonlocal variables r{a} carry no explicit jets",
                                  tok.line, tok.col)
        return DiffPoly.odd_r(index)
    if xorder:
        raise ExpressionError("parameters carry no jets", tok.line, tok.col)
    return DiffPoly.from_scalar(RatFunc.var(-index))


def _capped_binomial(t: int, e: int, cap: int) -> int:
    """C(t+e-1, e), the most monomials a power e of t terms holds, or cap + 1
    once it passes cap: the product stops growing there, so a huge e costs O(1)."""
    lo, hi = sorted((e, t - 1))
    size = 1
    for i in range(1, lo + 1):  # size = C(hi + i, i)
        size = size * (hi + i) // i
        if size > cap:
            return cap + 1
    return size


def _check_power_size(base: DiffPoly, etok: _Token) -> None:
    """Reject ``base ^ e`` when its expansion may hold more than SIZE_CAP terms,
    when its last squaring may take more than POWER_PRODUCTS_CAP term products
    (C(T+h-1, h)**2 for h = e // 2), or when its coefficients may pass
    POWER_BITS_CAP bits (e * log2(T * H), H the largest numerator or denominator
    of the base's coefficients).  T is the numerator terms summed over the jet
    terms and, apart, the terms of the non-constant denominators."""
    e = etok.value
    coeffs = base.terms.values()
    nums = [c.num for c in coeffs]
    dens = [c.den for c in coeffs if not c.den.is_const]
    half_cap = isqrt(POWER_PRODUCTS_CAP)
    for polys in (nums, dens):
        t = sum(len(p.terms) for p in polys)
        if _capped_binomial(t, e, SIZE_CAP) > SIZE_CAP:
            message = f"power would expand to more than {SIZE_CAP} terms"
        elif _capped_binomial(t, e // 2, half_cap) ** 2 > POWER_PRODUCTS_CAP:
            message = f"power would take more than {POWER_PRODUCTS_CAP} term products"
        elif t and e * log2(t * max(max(abs(x.numerator), x.denominator)
                                    for p in polys for x in p.terms.values())) > POWER_BITS_CAP:
            message = f"power would have coefficients of more than {POWER_BITS_CAP} bits"
        else:
            continue
        raise ExpressionError(message, etok.line, etok.col)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise ExpressionError(f"expected {op!r}", tok.line, tok.col)

    def parse_expr(self) -> DiffPoly:
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.next()
                rhs = self.parse_term()
                value = value + rhs if tok.value == "+" else value - rhs
            else:
                return value

    def parse_term(self) -> DiffPoly:
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "*/":
                self.next()
                rhs = self.parse_factor()
                if tok.value == "*":
                    try:
                        value = value * rhs
                    except OddDegreeError:
                        raise ExpressionError(_ODD_PRODUCT, tok.line, tok.col) from None
                else:
                    if not rhs.is_scalar:
                        raise ExpressionError(
                            "division only by jet- and odd-free expressions",
                            tok.line, tok.col)
                    divisor = rhs.scalar_value()
                    if divisor.is_zero:
                        raise ExpressionError("division by zero", tok.line, tok.col)
                    if divisor.num.has_params:
                        raise ExpressionError("division by an expression with formal "
                                              "parameters", tok.line, tok.col)
                    value = value.scalar_mul(RatFunc.one() / divisor)
            else:
                return value

    def parse_factor(self) -> DiffPoly:
        sign = 1
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.next()
                if tok.value == "-":
                    sign = -sign
            else:
                break
        value = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.next()
            etok = self.next()
            if etok.kind != "int":
                raise ExpressionError("exponent must be a non-negative integer",
                                      etok.line, etok.col)
            _check_power_size(value, etok)
            try:
                value = value ** etok.value
            except OddDegreeError:
                raise ExpressionError(_ODD_PRODUCT, tok.line, tok.col) from None
        return -value if sign < 0 else value

    def parse_atom(self) -> DiffPoly:
        tok = self.next()
        if tok.kind == "int":
            return DiffPoly.from_scalar(Fraction(tok.value))
        if tok.kind == "name":
            return _name_to_value(tok)
        if tok.kind == "op" and tok.value == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ExpressionError(f"parentheses nested deeper than {_MAX_DEPTH}",
                                      tok.line, tok.col)
            value = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ExpressionError("expected a number, name or parenthesis",
                              tok.line, tok.col)


def parse(text: str) -> DiffPoly:
    """Parse an expression into a DiffPoly."""
    parser = _Parser(_tokenize(text))
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExpressionError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return value


def parse_scalar(text: str) -> RatFunc:
    """Parse an expression that must be jet- and odd-free."""
    value = parse(text)
    if not value.is_scalar:
        raise ExpressionError("expected a scalar (no jets or odd variables)", 1, 1)
    return value.scalar_value()


def _scalar(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    return RatFunc.const(x)


def _tensor(x, shape, leaf, message) -> tuple:
    """x as nested tuples of leaf(entry), shape[k] entries at depth k (None: any length);
    InputError(message) unless each level is a list or tuple of its length, checked before
    that level's entries are converted.  The problem loader, the geometry constructors and
    ``covering.EvolutionSystem.hydrodynamic`` read their arrays through it."""
    if not shape:
        return leaf(x)
    if not isinstance(x, (list, tuple)) or shape[0] not in (None, len(x)):
        raise InputError(message)
    return tuple(_tensor(y, shape[1:], leaf, message) for y in x)


def as_matrix(rows, message="matrix must be square") -> tuple:
    n = len(rows) if isinstance(rows, (list, tuple)) else None
    return _tensor(rows, (n, n), _scalar, message)


# -- printing ------------------------------------------------------------------


def _poly_body(p: Poly) -> str:
    """Polynomial rendered so it can be glued with '*': parenthesize sums."""
    if len(p.terms) > 1:
        return f"({p})"
    ((m, c),) = p.terms.items()
    if c < 0:
        return f"({p})"
    return str(p)


def format_ratfunc(r: RatFunc) -> str:
    if r.is_poly:
        return str(r.num)
    return f"{_poly_body(r.num)}/{_poly_body(r.den)}"


def _coeff_factor(r: RatFunc) -> str:
    """Coefficient rendered as a single '*'-joinable factor."""
    if r.is_poly:
        p = r.num
        if len(p.terms) > 1:
            return f"({p})"
        ((m, c),) = p.terms.items()
        # keep e.g. (2/3*u1) unambiguous as one factor
        return f"({p})" if m and (c < 0 or c.denominator != 1) else str(p)
    return f"({_poly_body(r.num)}/{_poly_body(r.den)})"


def format_diffpoly(a: DiffPoly) -> str:
    chunks = []
    for m, coeff in a.sorted_terms():
        factors = []
        for jv, e in m.even:
            factors.append(jv.name() if e == 1 else f"{jv.name()}^{e}")
        if m.odd is not None:
            factors.append(m.odd.name())
        sign = "-" if coeff.leading_sign() < 0 else "+"
        if sign == "-":
            coeff = -coeff
        if not factors:
            body = _coeff_factor(coeff)
        elif coeff == RatFunc.one():
            body = "*".join(factors)
        else:
            body = "*".join([_coeff_factor(coeff)] + factors)
        chunks.append((sign, body))
    return join_signed(chunks)

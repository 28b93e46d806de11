"""The expression parser against the parser object it replaced.

``reference_parse`` keeps the former tokenizer, whose tokens were records with
a constant line field, and the former ``_Parser`` object, which threaded an
index and a depth through ``peek``/``next``/``expect_op``.  The engine now
parses with four module-level functions over plain ``(kind, value, column)``
tuples.  Both share the leaves that did not change (name lookup and the power
size check), so the two must agree on every input: the same value, or an
``ExpressionError`` with the same message, line and column.  The inputs are
seeded random token strings over names (valid and not), jets, odd variables,
potentials, parameters, integers, operators, parentheses, ``$`` and blanks,
half of them drawn from the grammar and then mutated.
"""

import random
import re
from fractions import Fraction

from hhokit import grammar
from hhokit.errors import ExpressionError, OddDegreeError
from hhokit.jets import DiffPoly
from hhokit.rational import RatFunc

_TOKEN_RE = re.compile(r"(\d+)|([a-z][a-zA-Z0-9_]*)|(\*|/|\+|-|\^|\(|\))")
_MAX_DEPTH = 100


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind, self.value, self.line, self.col = kind, value, line, col


def reference_tokenize(text):
    line = 1
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

    def parse_expr(self):
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.next()
                rhs = self.parse_term()
                value = value + rhs if tok.value == "+" else value - rhs
            else:
                return value

    def parse_term(self):
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
                        raise ExpressionError("product of two odd variables",
                                              tok.line, tok.col) from None
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

    def parse_factor(self):
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
            grammar._check_power_size(value, etok.value, etok.col)
            try:
                value = value ** etok.value
            except OddDegreeError:
                raise ExpressionError("product of two odd variables",
                                      tok.line, tok.col) from None
        return -value if sign < 0 else value

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "int":
            return DiffPoly.from_scalar(Fraction(tok.value))
        if tok.kind == "name":
            return grammar._name_to_value(tok.value, tok.col)
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


def reference_parse(text):
    parser = _Parser(reference_tokenize(text))
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExpressionError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return value


NAMES = ["u1", "u2", "u3", "u1_x", "u2_xx", "u1_x3", "u1_x2", "u1_x0", "u0", "p1", "p2",
         "p1_x", "p2_x4", "r1", "r2", "r1_x", "c1", "c2", "c1_x", "x", "foo", "uu1", "u1_y"]
INTS = ["0", "1", "2", "3", "5", "12", "007"]
OPS = ["+", "-", "*", "/", "^", "(", ")"]
ODD = ["$", "?", ".", "U1", "_"]
BLANKS = ["", " ", " ", "  ", "\t"]


def _grammar_tokens(rng, depth=0):
    """A token list drawn from the grammar (so it mostly parses)."""
    roll = rng.random()
    if depth > 3 or roll < 0.4:
        tokens = [rng.choice(NAMES[:12] + INTS[:5])]
    elif roll < 0.55:
        tokens = ["(", *_grammar_tokens(rng, depth + 1), ")"]
    else:
        tokens = [*_grammar_tokens(rng, depth + 1), rng.choice("+-*/"),
                  *_grammar_tokens(rng, depth + 1)]
    if rng.random() < 0.15:
        tokens = [rng.choice("+-"), *tokens]
    if rng.random() < 0.1:
        tokens = ["(", *tokens, ")", "^", rng.choice(INTS[:5])]
    return tokens


def _random_text(rng):
    if rng.random() < 0.5:
        tokens = _grammar_tokens(rng)
        for _ in range(rng.randrange(3)):  # drop, insert or swap a token
            i = rng.randrange(len(tokens) + 1)
            pick = rng.choice([NAMES, INTS, OPS, ODD])
            move = rng.randrange(3)
            if move == 0 and i < len(tokens):
                del tokens[i]
            elif move == 1:
                tokens.insert(i, rng.choice(pick))
            elif i < len(tokens):
                tokens[i] = rng.choice(pick)
    else:
        pools = [NAMES, INTS, OPS, OPS, ODD]
        weights = [4, 3, 6, 6, 1]
        tokens = [rng.choice(rng.choices(pools, weights)[0])
                  for _ in range(rng.randrange(1, 10))]
    return rng.choice(BLANKS).join(tokens) + rng.choice(BLANKS)


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except ExpressionError as err:
        return "error", str(err), err.line, err.col


def test_parser_matches_the_former_parser_object_on_random_token_strings():
    rng = random.Random(37)
    parsed = 0
    for _ in range(8000):
        text = _random_text(rng)
        got = _outcome(grammar.parse, text)
        assert got == _outcome(reference_parse, text), text
        parsed += got[0] == "value"
    assert parsed > 800  # enough of them reach a value, not only an error


def test_parser_matches_the_former_parser_object_at_the_edges():
    cases = ["", " ", "$", "u1 $", "(" * 100 + "u1" + ")" * 100,
             "(" * 101 + "u1" + ")" * 101, "(" * 101, "(u1", "u1)", "u1^", "u1^u2",
             "u1^-1", "p1*p1", "p1^2", "(p1+u1)^2", "(u1+u2+u3)^99999", "2^5000",
             "1/0", "u1/(u1-u1)", "1/c1", "1/p1", "u1/u1_x", "u1_x2", "r1_x", "c1_x",
             "u1\n+\nu2", "--+-u1", "u1 u2", "7 8"]
    for text in cases:
        assert _outcome(grammar.parse, text) == _outcome(reference_parse, text), text

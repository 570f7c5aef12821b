"""Tiny arithmetic expression grammar for coefficient fields.

Grammar (over the coordinates ``x1``, ``x2``)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' factor)?
    atom   := number | 'pi' | 'x1' | 'x2'
            | ('exp' | 'sin' | 'cos') '(' expr ')' | '(' expr ')'

Parsed expressions evaluate vectorized over numpy coordinate arrays.  The
parser and the evaluator nest at most a few calls per token, so expressions
of more than `MAX_TOKENS` tokens are rejected before they reach Python's
recursion limit.
"""

import math
import re

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(\S))")
_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
MAX_TOKENS = 200


class ExpressionError(ValueError):
    """Syntax or name error in a coefficient expression."""


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            break
        number, name, symbol = match.groups()
        if number is not None:
            tokens.append(("num", float(match.group(0))))
        elif name is not None:
            tokens.append(("name", name))
        elif symbol in "+-*/^()":
            tokens.append(("op", symbol))
        else:
            raise ExpressionError("unexpected character {!r} in expression {!r}".format(
                symbol, text))
        pos = match.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        if len(self.tokens) - 1 > MAX_TOKENS:          # the end marker is no token
            raise ExpressionError("expression has {} tokens, more than the {} allowed".format(
                len(self.tokens) - 1, MAX_TOKENS))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, symbol):
        kind, value = self.take()
        if kind != "op" or value != symbol:
            raise ExpressionError("expected {!r} in expression {!r}".format(symbol, self.text))

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError("trailing input in expression {!r}".format(self.text))
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = (lambda f, g: lambda x, y: f(x, y) + g(x, y))(node, rhs) if op == "+" \
                else (lambda f, g: lambda x, y: f(x, y) - g(x, y))(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.factor()
            node = (lambda f, g: lambda x, y: f(x, y) * g(x, y))(node, rhs) if op == "*" \
                else (lambda f, g: lambda x, y: f(x, y) / g(x, y))(node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.factor()
            return lambda x, y: -inner(x, y)
        if self.peek() == ("op", "+"):
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.factor()   # right-associative
            return lambda x, y: base(x, y) ** exponent(x, y)
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return lambda x, y, v=value: np.full_like(np.asarray(x, dtype=float), v)
        if kind == "name":
            if value == "x1":
                return lambda x, y: np.asarray(x, dtype=float)
            if value == "x2":
                return lambda x, y: np.asarray(y, dtype=float)
            if value == "pi":
                return lambda x, y: np.full_like(np.asarray(x, dtype=float), math.pi)
            if value in _FUNCTIONS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                fn = _FUNCTIONS[value]
                return lambda x, y: fn(inner(x, y))
            raise ExpressionError("unknown name {!r} in expression {!r} (allowed: x1, x2, "
                                  "pi, exp, sin, cos)".format(value, self.text))
        if (kind, value) == ("op", "("):
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExpressionError("unexpected token in expression {!r}".format(self.text))


def parse_expression(text):
    """Compile an expression string into a vectorized callable ``f(x, y)``."""
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()

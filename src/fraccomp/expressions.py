"""Tiny arithmetic expression language for config-driven coefficients.

Grammar (right-associative power, usual precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?
    unary  := '-' unary | atom
    atom   := number | 'pi' | 'e' | 'x' | 't' | name '(' expr ')' | '(' expr ')'

with functions sin, cos, exp, abs.  Expressions evaluate on numpy arrays in
the variables x (space) and t (time), so every coefficient of a run is a
reproducible line of text in the config file.
"""

from __future__ import annotations

import math
import re

import numpy as np

__all__ = ["ExpressionError", "Expression", "parse_expression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_CONSTS = {"pi": math.pi, "e": math.e}


class ExpressionError(ValueError):
    pass


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExpressionError(f"bad character at position {pos}: {text[pos:]!r}")
            break
        if m.group("num") is not None:
            out.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            op = m.group("op")
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, source):
        self.toks = tokens
        self.i = 0
        self.source = source

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tk, tv = self.toks[self.i]
        if kind is not None and tk != kind or value is not None and tv != value:
            raise ExpressionError(f"unexpected token {tv!r} in {self.source!r}")
        self.i += 1
        return tv

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input in {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take("op")
            rhs = self.term()
            node = (np.add if op == "+" else np.subtract, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take("op")
            rhs = self.factor()
            node = (np.multiply if op == "*" else np.divide, node, rhs)
        return node

    def factor(self):
        # unary minus binds looser than the power: -2^2 = -(2^2)
        if self.peek() == ("op", "-"):
            self.take("op")
            return (np.negative, self.factor())
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op")
            expo = self.factor()  # right associative
            return (np.power, base, expo)
        return base

    def atom(self):
        kind, val = self.peek()
        if kind == "num":
            self.take()
            return ("const", val)
        if kind == "name":
            self.take()
            if val in _CONSTS:
                return ("const", _CONSTS[val])
            if val in ("x", "t"):
                return ("var", val)
            if val in _FUNCS:
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                return (_FUNCS[val], inner)
            raise ExpressionError(f"unknown name {val!r} in {self.source!r}")
        if (kind, val) == ("op", "("):
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        raise ExpressionError(f"unexpected token {val!r} in {self.source!r}")


def _eval(node, x, t):
    head = node[0]
    if head == "const":
        return node[1]
    if head == "var":
        return x if node[1] == "x" else t
    if len(node) == 2:
        return head(_eval(node[1], x, t))
    return head(_eval(node[1], x, t), _eval(node[2], x, t))


class Expression:
    """Parsed coefficient expression in the variables x and t."""

    def __init__(self, source):
        self.source = source.strip()
        self._ast = _Parser(_tokenize(self.source), self.source).parse()

    def __call__(self, x, t=0.0):
        out = _eval(self._ast, np.asarray(x, dtype=float), t)
        return np.asarray(out, dtype=float) * np.ones_like(np.asarray(x, dtype=float))

    def is_time_dependent(self):
        def walk(node):
            if node[0] == "var":
                return node[1] == "t"
            return any(walk(c) for c in node[1:] if isinstance(c, tuple))

        return walk(self._ast)

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(text) -> Expression:
    """Parse text; ExpressionError names a syntax error or an unknown name."""
    return Expression(text)

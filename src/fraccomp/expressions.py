"""Coefficient expressions in x (space) and t (time): Python's arithmetic
subset.  + - * / ** (also written ^), unary minus, real literals, pi, e, and
sin, cos, exp, abs of one argument; -2^2 = -(2^2).  The ast module parses the
text, a whitelist walk makes numpy ufunc calls; nesting is capped at MAX_DEPTH."""

from __future__ import annotations

import ast
import math
import warnings

import numpy as np

__all__ = ["ExpressionError", "Expression", "parse_expression"]

MAX_DEPTH = 500  # keeps evaluation far below the interpreter's recursion limit

_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_NAMES = {"pi": ("const", math.pi), "e": ("const", math.e), "x": ("var", "x"), "t": ("var", "t")}


class ExpressionError(ValueError):
    pass


def _convert(node, depth=0):  # the (ufunc, operands...) tuple of an ast node
    if depth > MAX_DEPTH:
        raise ExpressionError(f"nesting deeper than {MAX_DEPTH} levels")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _convert(node.left, depth + 1),
                _convert(node.right, depth + 1))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return (np.negative, _convert(node.operand, depth + 1))
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return ("const", float(node.value))
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.Call):
        if getattr(node.func, "id", None) not in _FUNCS or len(node.args) != 1 or node.keywords:
            raise ExpressionError("a call must be sin, cos, exp or abs of one argument")
        return (_FUNCS[node.func.id], _convert(node.args[0], depth + 1))
    raise ExpressionError(f"{getattr(node, 'id', type(node).__name__)!r} is not allowed")


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
        text = " ".join(self.source.split()).replace("^", "**")  # a newline is a space
        try:  # ExpressionError is a ValueError; a non-ASCII character fails the encode
            with warnings.catch_warnings():
                warnings.simplefilter("error", SyntaxWarning)  # e.g. "1and x"
                tree = ast.parse(text.encode("ascii"), mode="eval")
            self._ast = _convert(tree.body)
        except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
            why = getattr(exc, "msg", exc)  # a SyntaxError without its position
            raise ExpressionError(f"cannot parse {self.source[:60]!r}: {why}") from None

    def __call__(self, x, t=0.0):  # on the broadcast of x and t
        out = _eval(self._ast, np.asarray(x, dtype=float), t)
        return np.asarray(out, dtype=float) * np.ones(np.broadcast_shapes(np.shape(x), np.shape(t)))


def parse_expression(text) -> Expression:
    """Parse text; ExpressionError names a syntax error or a node outside the language."""
    return Expression(text)

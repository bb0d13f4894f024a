import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraccomp.expressions import MAX_DEPTH, ExpressionError, parse_expression


class TestParsing:
    def test_constants(self):
        assert parse_expression("pi")(np.array([0.0]))[0] == pytest.approx(math.pi)
        assert parse_expression("e")(np.array([0.0]))[0] == pytest.approx(math.e)
        assert parse_expression("2.5e-1")(np.array([0.0]))[0] == 0.25

    def test_variables(self):
        x = np.linspace(0, 1, 7)
        assert np.allclose(parse_expression("x")(x, 3.0), x)
        assert np.allclose(parse_expression("t")(x, 3.0), 3.0)

    def test_precedence(self):
        x = np.array([2.0])
        assert parse_expression("1+2*3")(x)[0] == 7.0
        assert parse_expression("(1+2)*3")(x)[0] == 9.0
        assert parse_expression("2^3^2")(x)[0] == 512.0  # right associative
        assert parse_expression("-2^2")(x)[0] == -4.0
        assert parse_expression("6/3/2")(x)[0] == 1.0

    def test_functions(self):
        x = np.linspace(0.1, 0.9, 5)
        assert np.allclose(parse_expression("sin(pi*x)")(x), np.sin(math.pi * x))
        assert np.allclose(parse_expression("cos(x)^2")(x), np.cos(x) ** 2)
        assert np.allclose(parse_expression("exp(-x*t)")(x, 2.0), np.exp(-2.0 * x))
        assert np.allclose(parse_expression("abs(-x)")(x), x)

    def test_mixed_coefficient(self):
        expr = parse_expression("1 + 0.5*cos(pi*x)*exp(-t)")
        x = np.linspace(0, 1, 9)
        assert np.allclose(expr(x, 0.7), 1 + 0.5 * np.cos(math.pi * x) * math.exp(-0.7))

    def test_power_token_alias(self):
        x = np.array([3.0])
        assert parse_expression("x**2")(x)[0] == 9.0

    def test_errors(self):
        python_only = ("x < 1", "x.real", "x[0]", "lambda: x", "1j", "True", "+x", "x if t else 1",
                       "sin(x, t)", "sin(x=1)", "sin(*x)", "np.sin(x)", "'x'", "1and x", "\uff58")
        too_large = ("1" + "0" * 309, "9" * 5000)  # above the largest float; too many digits
        too_deep = ("+".join(["x"] * 502), "+".join(["x"] * 3000), "(" * 400 + "x" + ")" * 400,
                     "-" * 600 + "x")
        for bad in ("1 +", "sin(", "foo(x)", "x $ y", "(1+2", "y") + python_only + too_large + too_deep:
            with pytest.raises(ExpressionError):
                parse_expression(bad)
        # a sum of MAX_DEPTH + 1 terms is nested exactly MAX_DEPTH deep
        assert parse_expression("+".join(["x"] * (MAX_DEPTH + 1)))(np.array([1.0]))[0] == MAX_DEPTH + 1

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2),
        f=st.sampled_from(["sin", "cos", "exp"]),
    )
    def test_roundtrip_shapes(self, a, b, f):
        expr = parse_expression(f"{a} + {b}*{f}(x) - t")
        x = np.linspace(0, 1, 13)
        out = expr(x, 0.25)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))


# random expression trees: leaves are non-negative literals, x, t, pi and e;
# nodes are the binary operators, unary minus and the four functions
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_UNARY = {"-": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_leaves = st.one_of(
    st.sampled_from(["x", "t", "pi", "e"]),
    st.integers(0, 10 ** 6),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(sorted(_BINARY)), sub, sub),
        st.tuples(st.sampled_from(sorted(_UNARY)), sub),
    ),
    max_leaves=24,
)


def _prec(tree):
    if not isinstance(tree, tuple):
        return 5
    return _PREC["neg"] if tree[0] == "-" and len(tree) == 2 else _PREC.get(tree[0], 5)


def _render(tree, draw_choice):
    """Text with only the parentheses the precedence rules need, random
    spacing and ^ or ** for the power."""
    if not isinstance(tree, tuple):
        return repr(tree) if isinstance(tree, float) else str(tree)
    sp = draw_choice(["", " "])
    if len(tree) == 2:
        inner = _render(tree[1], draw_choice)
        if tree[0] != "-":
            return f"{tree[0]}({sp}{inner}{sp})"
        return f"-{sp}{inner if _prec(tree[1]) >= 3 else '(' + inner + ')'}"
    op, left, right = tree
    p = _PREC[op]
    # power is right associative and binds tighter than unary minus on its left
    left_ok = _prec(left) > p if op == "^" else _prec(left) >= p
    right_ok = _prec(right) >= 3 if op == "^" else _prec(right) > p
    lt = _render(left, draw_choice)
    rt = _render(right, draw_choice)
    lt = lt if left_ok else f"({lt})"
    rt = rt if right_ok else f"({rt})"
    sym = draw_choice(["^", "**"]) if op == "^" else op
    return f"{lt}{sp}{sym}{sp}{rt}"


def _direct(tree, x, t):
    if isinstance(tree, str):
        return {"x": x, "t": t, "pi": math.pi, "e": math.e}[tree]
    if not isinstance(tree, tuple):
        return float(tree)
    if len(tree) == 2:
        return _UNARY[tree[0]](_direct(tree[1], x, t))
    return _BINARY[tree[0]](_direct(tree[1], x, t), _direct(tree[2], x, t))


@settings(max_examples=300, deadline=None)
@given(tree=_trees, data=st.data())
def test_random_trees_match_numpy(tree, data):
    text = _render(tree, lambda opts: data.draw(st.sampled_from(opts)))
    x = np.linspace(-1.5, 2.5, 9)
    expr = parse_expression(text)
    with np.errstate(all="ignore"):
        got = expr(x, 0.3)
        want = np.broadcast_to(np.asarray(_direct(tree, x, 0.3), dtype=float), x.shape)
        # a column of times gives one row per time, each that time's values
        rows = expr(x, np.array([[0.3], [1.7]]))
        late = expr(x, 1.7)
    assert got.shape == x.shape and np.array_equal(got, want, equal_nan=True), text
    assert rows.shape == (2, x.size), text
    assert np.array_equal(rows[0], got, equal_nan=True) and np.array_equal(rows[1], late, equal_nan=True), text

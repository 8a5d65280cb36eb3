"""Tiny arithmetic expression grammar for declarative metric and surface files.

Grammar (in rough precedence order, lowest first)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('-' | '+') factor | power
    power   := atom ('^' factor)?          # right-associative
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Recognised functions: cosh, sinh, tanh, exp, ln, sin, cos.
Variable names are declared by the caller (u, v, w for ambient metrics;
u, v for surfaces; s for scalar ODE profiles).

An expression evaluates numbers or numpy arrays of any matching shapes,
elementwise, with numpy's float arithmetic and ufuncs.  Overflow, an
invalid operation (``ln`` of a negative number, ``(-1)^0.5``) and division
by zero raise ExpressionEvaluationError naming the first point at which
the expression is undefined; they never return inf or NaN.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ExpressionError, ExpressionEvaluationError

_FUNCTIONS = {
    "cosh": np.cosh,
    "sinh": np.sinh,
    "tanh": np.tanh,
    "exp": np.exp,
    "ln": np.log,
    "sin": np.sin,
    "cos": np.cos,
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} in {text!r}")
        if m.group("num") is not None:
            tokens.append(("num", np.float64(m.group(0))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class Expression:
    """A parsed expression; call it with keyword variable values."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = tuple(variables)
        self._ast = _Parser(_tokenize(text), set(self.variables)).parse()

    def __call__(self, **values):
        # [()] makes a number a numpy scalar, which the ufuncs take faster
        arrays = {name: np.asarray(v, dtype=float)[()] for name, v in values.items()}
        try:
            return _checked_eval(self._ast, arrays)
        except FloatingPointError as exc:
            point = self._failing_point(arrays)
            raise ExpressionEvaluationError(
                f"failed to evaluate {self.text!r} at {point}: {exc}", point=point
            ) from exc

    def _failing_point(self, arrays):
        """The first point, in C order over the broadcast values, at which
        the expression alone fails to evaluate, as {name: float}."""
        names = list(arrays)
        columns = [a.ravel() for a in np.broadcast_arrays(*arrays.values())]
        for row in zip(*columns):
            point = {name: float(x) for name, x in zip(names, row)}
            try:
                _checked_eval(self._ast, {name: np.float64(x) for name, x in point.items()})
            except FloatingPointError:
                return point
        return {name: a.tolist() for name, a in arrays.items()}

    def __repr__(self):
        return f"Expression({self.text!r})"


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.variables = variables
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}, got {value!r}")

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionError(f"trailing tokens after expression: {self.tokens[self.pos:]}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        if self.peek() == ("op", "+"):
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            node = ("^", node, self.factor())
        return node

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return ("num", value)
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", value, arg)
            if value in self.variables:
                return ("var", value)
            raise ExpressionError(f"unknown name {value!r}")
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}")


@np.errstate(over="raise", invalid="raise", divide="raise")
def _checked_eval(node, values):
    """``_eval`` with overflow, invalid operations and division by zero
    raised as FloatingPointError."""
    return _eval(node, values)


def _eval(node, values):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return values[node[1]]
    if tag == "neg":
        return -_eval(node[1], values)
    if tag == "call":
        return _FUNCTIONS[node[1]](_eval(node[2], values))
    a = _eval(node[1], values)
    b = _eval(node[2], values)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    if tag == "/":
        return a / b
    if tag == "^":
        return a ** b
    raise ExpressionError(f"corrupt AST node {node!r}")


def parse_assignments(text, variables):
    """Parse ``name = expr`` lines into a dict of Expressions.

    Blank lines and lines starting with ``#`` are ignored.  A special
    ``box = lo hi lo hi ...`` line is returned separately as a float list.
    """
    fields = {}
    box = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ExpressionError(f"line {lineno}: expected 'name = expression'")
        name, rhs = line.split("=", 1)
        name = name.strip()
        if name == "box":
            box = [float(tok) for tok in rhs.split()]
            continue
        fields[name] = Expression(rhs.strip(), variables)
    return fields, box

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
``Expression.derivative`` differentiates the parsed expression by the rules
of calculus, and :func:`tree_leaf` makes such trees, one per entry of an
array, the batch-contract leaf of a metric or a surface file.
"""

from __future__ import annotations

import copy
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

    def derivative(self, name):
        """The partial derivative in the variable ``name``, an Expression in
        the same variables.  It is undefined where a rule it applies is, as
        ``u^0.5`` at ``u = 0``: evaluating it there raises
        ExpressionEvaluationError naming the point."""
        if name not in self.variables:
            raise ExpressionError(f"unknown variable {name!r}")
        out = copy.copy(self)
        out.text, out._ast = f"d({self.text})/d{name}", _derivative(self._ast, name)
        return out

    @property
    def is_zero(self):
        """Whether the expression is the number 0, as a derivative in a
        variable that the expression does not read is."""
        return _is(self._ast, 0)

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


_ZERO = ("num", np.float64(0.0))
_ONE = ("num", np.float64(1.0))


def _is(node, value):
    return node[0] == "num" and node[1] == value


def _sum(a, b):
    return b if _is(a, 0) else a if _is(b, 0) else ("+", a, b)


def _negative(a):
    return _ZERO if _is(a, 0) else ("neg", a)


def _product(a, b):
    if _is(a, 0) or _is(b, 0):
        return _ZERO
    return b if _is(a, 1) else a if _is(b, 1) else ("*", a, b)


def _quotient(a, b):
    return _ZERO if _is(a, 0) else ("/", a, b)


# d f(a) / da for each function, as a tree in its argument a
_CHAIN = {
    "cosh": lambda a: ("call", "sinh", a),
    "sinh": lambda a: ("call", "cosh", a),
    "tanh": lambda a: ("-", _ONE, ("*", ("call", "tanh", a), ("call", "tanh", a))),
    "exp": lambda a: ("call", "exp", a),
    "ln": lambda a: ("/", _ONE, a),
    "sin": lambda a: ("call", "cos", a),
    "cos": lambda a: ("neg", ("call", "sin", a)),
}


def _derivative(node, name):
    """The tree of d node / d name: the sum, product and quotient rules, the
    chain rule, the power rule for an exponent that does not read ``name``
    and ``a^b = exp(b ln a)`` otherwise.  Zero and unit factors are folded
    away, so the derivative of a subtree that does not read ``name`` is the
    number 0, and a polynomial's is the polynomial a hand would write."""
    tag = node[0]
    if tag == "num":
        return _ZERO
    if tag == "var":
        return _ONE if node[1] == name else _ZERO
    if tag == "neg":
        return _negative(_derivative(node[1], name))
    if tag == "call":
        return _product(_CHAIN[node[1]](node[2]), _derivative(node[2], name))
    a, b = node[1], node[2]
    da, db = _derivative(a, name), _derivative(b, name)
    if tag == "+":
        return _sum(da, db)
    if tag == "-":
        return _sum(da, _negative(db))
    if tag == "*":
        return _sum(_product(da, b), _product(a, db))
    if tag == "/":
        return _sum(_quotient(da, b), _negative(_quotient(_product(a, db), ("*", b, b))))
    if tag == "^" and _is(db, 0):
        return _product(_product(b, ("^", a, ("-", b, _ONE))), da)
    if tag == "^":
        return _product(node, _sum(_product(db, ("call", "ln", a)), _quotient(_product(b, da), a)))
    raise ExpressionError(f"corrupt AST node {node!r}")


def trees_by_index(fields, names, kind):
    """The Expressions of ``fields`` keyed by entry index, in index order;
    ``names`` maps each name a ``kind`` file may use to its index.  A name
    not in ``names``, or two names of one index (``g12`` and ``g21``), raise
    ExpressionError naming them."""
    trees = {}
    for key, e in fields.items():
        if key not in names:
            raise ExpressionError(f"{kind} has no entry {key!r}; its names are {', '.join(names)}")
        if names[key] in trees:
            twin = next(k for k in fields if names.get(k) == names[key])
            raise ExpressionError(f"{kind} names one entry twice, as {twin!r} and {key!r}")
        trees[names[key]] = e
    return dict(sorted(trees.items()))


def tree_leaf(trees, variables, shape, symmetric=()):
    """The leaf that maps (..., n) points, one coordinate per name in
    ``variables``, to ``(...,) + shape`` arrays of the trees ``{entry index:
    Expression}``.  A tree is written to its index and to each index that
    swapping the axes of pairs ``(a, b)``, a < b, in ``symmetric`` gives it;
    other entries are 0, and a tree that folds to 0 is never evaluated.  One
    point is read on a one-row array: numpy raises a scalar and an array to a
    power by different routines, so a batch row equals its one-point call."""
    targets = []
    for index, e in trees.items():
        copies = {index}
        for a, b in symmetric:
            copies |= {c[:a] + (c[b],) + c[a + 1:b] + (c[a],) + c[b + 1:] for c in copies}
        if not e.is_zero:
            targets.append((e, [(...,) + c for c in copies]))

    def evaluate(p):
        rows = p if p.ndim > 1 else p[None]
        values = {v: rows[..., k] for k, v in enumerate(variables)}
        out = np.zeros(rows.shape[:-1] + shape)
        for e, indices in targets:
            value = e(**values)
            for index in indices:
                out[index] = value
        return out if p.ndim > 1 else out[0]
    return evaluate


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

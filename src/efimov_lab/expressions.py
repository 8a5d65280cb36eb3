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

Both run generated code (``_Code``), compiled on the first call: an
Expression is one function, and a leaf one function for all of its fields
(a surface's map, Jacobian and Hessian together).  It has one line per
distinct subtree, which applies the tree's operator or ufunc to its
children's values as a walk of the tree would, and a leaf stores each tree
once per entry, all under one ``np.errstate``.  The source holds only
generated names, bound to the parsed np.float64 constants, the ufuncs of
``_FUNCTIONS`` and the declared variables, so no file text reaches ``exec``.
One point is read on numpy scalars and a batch on arrays; every operator
and ufunc rounds alike on both, ``^`` because it is ``np.power`` (numpy's
``**`` raises a scalar by another routine than an array), so a batch row
equals its one-point call.
"""

from __future__ import annotations

import copy
import functools
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
        self._function = None

    def derivative(self, name):
        """The partial derivative in the variable ``name``, an Expression in
        the same variables.  It is undefined where a rule it applies is, as
        ``u^0.5`` at ``u = 0``: evaluating it there raises
        ExpressionEvaluationError naming the point."""
        if name not in self.variables:
            raise ExpressionError(f"unknown variable {name!r}")
        out = copy.copy(self)
        out.text, out._ast = f"d({self.text})/d{name}", _derivative(self._ast, name)
        out._function = None
        return out

    def __call__(self, **values):
        # [()] makes a number a numpy scalar, which the ufuncs take faster
        arrays = {name: np.asarray(v, dtype=float)[()] for name, v in values.items()}
        if self._function is None:  # compiled on first call, so unread derivatives never are
            code = _Code(self.variables)
            result = code.name(self._ast)
            self._function = code.function([f"_x{k}" for k in range(len(self.variables))], [],
                                           [f"return {result}"])
        try:
            return self._function(*[arrays[name] for name in self.variables])
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
                self._function(*[np.float64(point[name]) for name in self.variables])
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


def tree_leaf(variables, *fields):
    """The leaf that maps (..., n) points, one coordinate per name in
    ``variables``, to one ``(...,) + shape`` array per field ``(trees,
    shape, symmetric)`` of trees ``{entry index: Expression}``: one field
    gives its array, several a tuple in their order.  A tree is written to
    its index and to each index that swapping the axes of pairs ``(a, b)``,
    a < b, in ``symmetric`` gives it; other entries are 0, and a tree that
    folds to 0 is never evaluated.  The leaf is one generated function,
    compiled on its first call, that reads one point on numpy scalars and a
    batch on its columns.  Where it meets an undefined value, the trees run
    again one at a time, field by field in index order, so the error names
    the first failing tree."""
    nonzero = [e for trees, _, _ in fields for e in trees.values() if not _is(e._ast, 0)]
    function = None

    def build():
        code, head, stores, outputs = _Code(variables), ["_lead = _rows.shape[:-1]"], [], []
        for trees, shape, symmetric in fields:
            out = f"_out{len(outputs)}"
            outputs.append(out)
            head.append(f"{out} = _zeros(_lead + {code.bind(shape)})")
            for index, e in trees.items():
                copies = {index}
                for a, b in symmetric:
                    copies |= {c[:a] + (c[b],) + c[a + 1:b] + (c[a],) + c[b + 1:] for c in copies}
                if not _is(e._ast, 0):  # folded to 0, as a derivative in an unread variable
                    targets = [f"{out}[{code.bind((..., *c))}]" for c in sorted(copies)]
                    stores.append(" = ".join([*targets, code.name(e._ast)]))
        # [()] makes the column of one point a numpy scalar
        head += [f"_x{k} = _rows[{code.bind((..., k))}][()]" for k in range(len(variables))]
        return code.function(["_rows"], head, [*stores, f"return {', '.join(outputs)}"])

    def evaluate(p):
        nonlocal function
        if function is None:  # compiled on first call, so an unread leaf never is
            function = build()
        try:
            return function(p)
        except FloatingPointError:
            values = {v: p[..., k] for k, v in enumerate(variables)}
            for e in nonzero:
                e(**values)
            raise
    return evaluate


# each operator as the source of its value; ``**`` rounds a numpy scalar by
# another routine than an array, np.power rounds both alike
_OPERATORS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}",
              "^": "_power({}, {})"}
_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}


class _Code:
    """Straight-line numpy source for parsed trees in ``variables``
    (module docstring)."""

    def __init__(self, variables):
        self.variables, self.lines, self.names = variables, [], {}
        self.namespace = {"_errstate": np.errstate, "_RAISE": _RAISE, "_zeros": np.zeros,
                          "_power": np.power,
                          **{f"_{f}": ufunc for f, ufunc in _FUNCTIONS.items()}}

    def name(self, node):
        """The name that holds the value of ``node``, after the lines of its subtrees."""
        tag = node[0]
        if tag == "num":  # unsigned and not NaN, so equal constants are interchangeable
            return self.bind(node[1])
        if tag == "var":
            return f"_x{self.variables.index(node[1])}"
        if tag == "neg":
            line = f"-{self.name(node[1])}"
        elif tag == "call" and node[1] in _FUNCTIONS:
            line = f"_{node[1]}({self.name(node[2])})"
        elif tag in _OPERATORS:
            line = _OPERATORS[tag].format(self.name(node[1]), self.name(node[2]))
        else:
            raise ExpressionError(f"corrupt AST node {node!r}")
        if line not in self.names:
            self.names[line] = f"_t{len(self.lines)}"
            self.lines.append(f"{self.names[line]} = {line}")
        return self.names[line]

    def bind(self, value):
        """The name bound to ``value`` (a constant or an index), one per value."""
        if value not in self.names:
            self.names[value] = f"_c{len(self.names)}"
            self.namespace[self.names[value]] = value
        return self.names[value]

    def function(self, parameters, head, tail):
        """``exec`` of ``def _f(parameters)``: the lines ``head``, the subtree
        lines under one errstate that raises overflow, invalid operations and
        division by zero as FloatingPointError (none if there are no such
        lines), then the lines ``tail``."""
        errstate = ["with _errstate(**_RAISE):"] if self.lines else []
        body = [*head, *errstate, *(f"    {x}" for x in self.lines), *tail]
        exec(_compiled(f"def _f({', '.join(parameters)}):\n" + "".join(f"    {x}\n" for x in body)),
             self.namespace)
        return self.namespace["_f"]


@functools.lru_cache(maxsize=256)
def _compiled(source):
    """The code of ``source``: it holds only generated names, so files of one
    shape share it, as a metric file rewritten with new constants does."""
    return compile(source, "<expressions>", "exec")


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

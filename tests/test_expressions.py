import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efimov_lab import _fd
from efimov_lab.errors import ExpressionError, ExpressionEvaluationError
from efimov_lab.expressions import Expression, parse_assignments, tree_leaf


def test_arithmetic_and_precedence():
    e = Expression("1 + 2*3 - 4/2", ())
    assert e() == 5.0
    assert Expression("2^3^2", ())() == 512.0  # right-associative
    assert Expression("-2^2", ())() == -4.0


def test_functions_and_variables():
    e = Expression("cosh(u)^2 - sinh(u)^2", ("u",))
    assert abs(e(u=0.7) - 1.0) < 1e-14
    e = Expression("ln(exp(v)) + sin(0)*cos(v)", ("v",))
    assert abs(e(v=-1.2) + 1.2) < 1e-14
    assert abs(Expression("tanh(u)", ("u",))(u=1.0) - math.tanh(1.0)) < 1e-15


def test_parse_errors():
    with pytest.raises(ExpressionError):
        Expression("2 +", ())
    with pytest.raises(ExpressionError):
        Expression("unknown_name(3)", ())
    with pytest.raises(ExpressionError):
        Expression("u", ())  # undeclared variable


def test_division_by_zero_reports_point():
    e = Expression("1/u", ("u",))
    with pytest.raises(ExpressionEvaluationError) as err:
        e(u=0.0)
    assert err.value.point == {"u": 0.0}


def test_parse_assignments():
    text = """
    # comment
    g11 = cosh(v)^2
    g22 = 1
    box = -1 1 -2 2
    """
    fields, box = parse_assignments(text, ("u", "v"))
    assert set(fields) == {"g11", "g22"}
    assert box == [-1.0, 1.0, -2.0, 2.0]
    assert abs(fields["g11"](u=0.0, v=0.5) - math.cosh(0.5) ** 2) < 1e-14


# (expression, a point where it is defined, one where it is not)
UNDEFINED = [
    ("(u-2)^0.5", 3.0, 1.0),     # invalid: a negative number to a fractional power
    ("ln(u)", 0.5, -0.5),        # invalid
    ("ln(u)", 0.5, 0.0),         # divide by zero
    ("1/u", 0.5, 0.0),           # divide by zero
    ("exp(1000*u)", 0.5, 1.0),   # overflow
]


@pytest.mark.parametrize("text,good,bad", UNDEFINED)
def test_undefined_value_raises_typed_error_at_one_point(text, good, bad):
    """Evaluation never returns inf or NaN and never warns: the suite turns
    a RuntimeWarning into an error, so a warning fails this test."""
    e = Expression(text, ("u",))
    assert np.isfinite(e(u=good))
    with pytest.raises(ExpressionEvaluationError) as err:
        e(u=bad)
    assert err.value.point == {"u": bad}
    assert repr(bad) in str(err.value)


@pytest.mark.parametrize("text,good,bad", UNDEFINED)
def test_undefined_value_in_an_array_names_the_first_failing_point(text, good, bad):
    e = Expression(text + " + 0*v", ("u", "v"))
    u = np.array([[good, good], [good, bad]])
    v = np.array([0.1, 0.2])
    assert np.all(np.isfinite(e(u=np.full((2, 2), good), v=v)))
    with pytest.raises(ExpressionEvaluationError) as err:
        e(u=u, v=v)
    assert err.value.point == {"u": bad, "v": 0.2}


def test_arrays_evaluate_elementwise():
    e = Expression("cosh(u)^2 - v*sinh(u)^2 + ln(exp(w))", ("u", "v", "w"))
    u = np.linspace(-1.0, 1.0, 7)
    got = e(u=u[:, None], v=1.0, w=np.array([0.5, -0.25]))
    assert got.shape == (7, 2)
    assert np.max(np.abs(got - np.array([0.5, -0.25]) - 1.0)) < 1e-14
    for i, x in enumerate(u):
        assert got[i, 0] == e(u=x, v=1.0, w=0.5)


# every operator and each of the seven functions, with ``^`` at the exponents
# whose array ``**`` numpy computes by its own routines (2, 0.5, -1) and at
# others, on u in [0.1, 2] and v in [-1, 1]
_SCALAR_CASES = [
    "u + v", "u - v", "u*v", "u/(1.5 + v)", "-u*v",
    "sin(u*v)", "cos(u + v)", "tanh(u - v)", "exp(u*v)", "ln(u + v + 1.5)", "cosh(u*v)",
    "sinh(u - v)", "(1.5 + v)^2", "(1.5 + v)^0.5", "(1.5 + v)^-1", "(1.5 + v)^1.5",
    "(1.5 + v)^2.5", "(1.5 + v)^3", "u^v", "u^2.5*cos(v)^2",
]


def test_one_point_read_equals_its_batch_row_bit_for_bit():
    """A leaf reads one point on numpy scalars and a batch on the columns
    of its rows; every operator and function, and ``^`` at each exponent,
    rounds alike on both, so each row equals its one-point read."""
    trees = {(k,): Expression(text, ("u", "v")) for k, text in enumerate(_SCALAR_CASES)}
    leaf = tree_leaf(("u", "v"), (trees, (len(trees),), ()))
    rows = np.random.default_rng(17).uniform([0.1, -1.0], [2.0, 1.0], (2000, 2))
    batch = leaf(rows)
    for k, q in enumerate(rows):
        assert np.array_equal(leaf(q), batch[k]), q


def test_expression_of_numbers_equals_its_array_row_for_a_power():
    """``^`` is np.power on numbers and on arrays alike; numpy's ``**``
    rounds a scalar by another routine than an array."""
    e = Expression("(1.5 + s)^2.5", ("s",))
    s = np.random.default_rng(4).uniform(-1.0, 1.0, 2000)
    values = e(s=s)
    assert all(e(s=float(x)) == values[k] for k, x in enumerate(s))


@pytest.mark.parametrize("text, good, bad",
                         [("exp(1000*u)", 0.5, 1.0), ("1/u", 0.5, 0.0), ("(u - 1)^0.5", 2.0, 0.5)])
def test_one_point_leaf_error_names_the_tree_and_the_point(text, good, bad):
    """Overflow, division by zero and an invalid power at one point, and at
    that point as a row of a batch, name the failing tree and the point."""
    leaf = tree_leaf(("u",), ({(0,): Expression("u", ("u",)), (1,): Expression(text, ("u",))},
                              (2,), ()))
    for q in (np.array([bad]), np.array([[good], [bad], [good]])):
        with pytest.raises(ExpressionEvaluationError) as err:
            leaf(q)
        assert str(err.value).startswith(f"failed to evaluate {text!r} at ")
        assert err.value.point == {"u": bad}


def _derivatives(e):
    """The exact gradient and Hessian expressions of e in (u, v)."""
    grad = [e.derivative(a) for a in "uv"]
    return grad, [[d.derivative(b) for b in "uv"] for d in grad]


# (text, then d/du, d/dv, d2/du2, d2/dudv, d2/dv2 written by hand)
POLYNOMIALS = [
    ("3*u^2*v - u*v^3 + 2", lambda u, v: 6 * u * v - v ** 3,
     lambda u, v: 3 * u ** 2 - 3 * u * v ** 2, lambda u, v: 6 * v,
     lambda u, v: 6 * u - 3 * v ** 2, lambda u, v: -6 * u * v),
    ("(u - 2*v)^3", lambda u, v: 3 * (u - 2 * v) ** 2, lambda u, v: -6 * (u - 2 * v) ** 2,
     lambda u, v: 6 * (u - 2 * v), lambda u, v: -12 * (u - 2 * v), lambda u, v: 24 * (u - 2 * v)),
    ("u^4/4 - (u*v)^2 + v", lambda u, v: u ** 3 - 2 * u * v * v, lambda u, v: -2 * u * u * v + 1,
     lambda u, v: 3 * u ** 2 - 2 * v * v, lambda u, v: -4 * u * v, lambda u, v: -2 * u * u),
]


@pytest.mark.parametrize("text,du,dv,duu,duv,dvv", POLYNOMIALS)
def test_polynomial_derivatives_are_exact(text, du, dv, duu, duv, dvv):
    """On dyadic points every product is exact, so the derivative trees
    equal the hand-written derivatives to the last bit."""
    grad, hess = _derivatives(Expression(text, ("u", "v")))
    for u, v in ((0.25, -0.75), (-1.5, 0.5), (2.0, 1.25)):
        assert [d(u=u, v=v) for d in grad] == [du(u, v), dv(u, v)]
        assert [[h(u=u, v=v) for h in row] for row in hess] == [[duu(u, v), duv(u, v)],
                                                                [duv(u, v), dvv(u, v)]]


def test_negative_constant_exponent_takes_the_power_rule():
    """``u^-1`` parses its exponent as ``neg``, not as a number."""
    d = Expression("u^-1", ("u",)).derivative("u")
    assert d(u=0.5) == -4.0
    assert d.derivative("u")(u=0.5) == 16.0


def test_derivative_undefined_where_the_function_is_defined_raises():
    e = Expression("u^0.5", ("u", "v"))
    assert e(u=0.0, v=0.0) == 0.0
    with pytest.raises(ExpressionEvaluationError) as err:
        e.derivative("u")(u=0.0, v=0.0)
    assert err.value.point == {"u": 0.0, "v": 0.0}
    with pytest.raises(ExpressionError):
        e.derivative("w")


def _unary(template):
    return lambda inner: inner.map(template.format)


def _binary(template):
    return lambda inner: st.tuples(inner, inner).map(lambda ab: template.format(*ab))


# every rule of the derivative, on arguments kept inside each function's domain
_RULES = [
    _binary("({} + {})"), _binary("({} - {})"), _binary("({} * {})"),
    _binary("{} / (1.5 + cos({}))"), _unary("sin({})"), _unary("cos({})"), _unary("tanh({})"),
    _unary("exp(sin({}))"), _unary("cosh(tanh({}))"), _unary("sinh(tanh({}))"),
    _unary("ln(1.5 + sin({}))"), _unary("-{}"), _unary("({})^2"), _unary("({})^3"),
    _unary("(1.5 + sin({}))^0.5"), _unary("(1.5 + sin({}))^-1"),
    _binary("(1.5 + sin({}))^(cos({}))"),
]
EXPRESSIONS = st.recursive(st.sampled_from(["u", "v", "0.7", "2"]),
                           lambda inner: st.one_of(*(rule(inner) for rule in _RULES)),
                           max_leaves=6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(text=EXPRESSIONS, u=st.floats(-1.0, 1.0), v=st.floats(-1.0, 1.0))
def test_derivatives_match_finite_differences(text, u, v):
    """The derivative trees against the one-stencil jet of ``_fd``, within
    its truncation and rounding error at step 1e-3."""
    e = Expression(text, ("u", "v"))
    grad, hess = _derivatives(e)

    def f(x):  # a constant expression evaluates to one number
        return np.broadcast_to(e(u=x[..., 0], v=x[..., 1]), x.shape[:-1])

    f0, fd_grad, fd_hess = _fd.jet(f, np.array([u, v]), 1e-3)
    exact_grad = np.array([d(u=u, v=v) for d in grad])
    exact_hess = np.array([[h(u=u, v=v) for h in row] for row in hess])
    scale = 1.0 + max(abs(f0), np.max(np.abs(exact_grad)), np.max(np.abs(exact_hess)))
    assert np.max(np.abs(exact_grad - fd_grad)) <= 1e-8 * scale
    assert np.max(np.abs(exact_hess - fd_hess)) <= 1e-6 * scale

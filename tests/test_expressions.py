import math

import numpy as np
import pytest

from efimov_lab.errors import ExpressionError, ExpressionEvaluationError
from efimov_lab.expressions import Expression, parse_assignments


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

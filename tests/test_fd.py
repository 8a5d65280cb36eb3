"""Observed convergence order of the finite-difference helpers against
closed-form derivatives: one Richardson step on central stencils is O(h^4).
The shared-stencil jet must equal the separate stencils bit for bit."""

import numpy as np
import pytest

from efimov_lab import _fd

X = np.array([0.7, -0.3])
E = np.exp(0.5 * X[1])


def f(x):
    return np.sin(x[0]) * np.exp(0.5 * x[1])


CASES = {
    "central_0": (lambda h: _fd.central(f, X, 0, h), np.cos(X[0]) * E),
    "central_1": (lambda h: _fd.central(f, X, 1, h), 0.5 * np.sin(X[0]) * E),
    "second_00": (lambda h: _fd.second(f, X, 0, 0, h), -np.sin(X[0]) * E),
    "second_01": (lambda h: _fd.second(f, X, 0, 1, h), 0.5 * np.cos(X[0]) * E),
    "second_11": (lambda h: _fd.second(f, X, 1, 1, h), 0.25 * np.sin(X[0]) * E),
    "jet_gradient_0": (lambda h: _fd.jet(f, X, h)[1][0], np.cos(X[0]) * E),
    "jet_gradient_1": (lambda h: _fd.jet(f, X, h)[1][1], 0.5 * np.sin(X[0]) * E),
    "jet_hessian_00": (lambda h: _fd.jet(f, X, h)[2][0, 0], -np.sin(X[0]) * E),
    "jet_hessian_01": (lambda h: _fd.jet(f, X, h)[2][0, 1], 0.5 * np.cos(X[0]) * E),
    "jet_hessian_10": (lambda h: _fd.jet(f, X, h)[2][1, 0], 0.5 * np.cos(X[0]) * E),
    "jet_hessian_11": (lambda h: _fd.jet(f, X, h)[2][1, 1], 0.25 * np.sin(X[0]) * E),
    "derivative_along": (
        lambda h: _fd.derivative_along(lambda s: np.array([np.sin(s), np.exp(s)]), 0.7, h),
        np.array([np.cos(0.7), np.exp(0.7)])),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fourth_order(name):
    approx, exact = CASES[name]
    # steps large enough that truncation, not rounding, sets the error
    errs = [np.max(np.abs(approx(h) - exact)) for h in (0.2, 0.1)]
    order = np.log2(errs[0] / errs[1])
    assert 3.8 <= order <= 4.2, (name, errs, order)


A = np.array([[0.3, -1.1, 0.4], [0.7, 0.2, -0.5], [-0.6, 0.9, 1.3]])


def matrix_3x3(x):
    """A symmetric 3x3 matrix-valued function of three coordinates."""
    m = np.cos(A @ x)[:, None] * np.exp(0.2 * x) + np.outer(x, x) ** 2
    return m + m.T


def bitwise_equal(a, b):
    """np.array_equal, and equal bytes too, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("fun,x", [
    (f, X),
    (f, np.array([-0.0, 0.0])),
    (matrix_3x3, np.array([0.4, -1.2, 0.25])),
    (matrix_3x3, np.array([0.0, -0.0, 3.0])),
])
@pytest.mark.parametrize("h", [1e-3, 0.1])
def test_jet_matches_separate_stencils_bitwise(fun, x, h):
    value, grad, hess = _fd.jet(fun, x, h)
    assert bitwise_equal(value, fun(x))
    assert bitwise_equal(grad, _fd.gradient(fun, x, h))
    for i in range(x.size):
        assert bitwise_equal(grad[i], _fd.central(fun, x, i, h))
        for j in range(i, x.size):
            d2 = _fd.second(fun, x, i, j, h)
            assert bitwise_equal(hess[i, j], d2) and bitwise_equal(hess[j, i], d2), (i, j)


@pytest.mark.parametrize("n,points", [(1, 5), (2, 17), (3, 37)])
def test_jet_evaluates_each_stencil_point_once(n, points):
    seen = []

    def fun(x):
        seen.append(tuple(x))
        return float(np.sum(np.sin(x)))

    _fd.jet(fun, np.linspace(0.1, 0.3, n), 1e-3)
    assert len(seen) == len(set(seen)) == points

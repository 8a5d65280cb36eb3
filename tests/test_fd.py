"""Observed convergence order of the finite-difference helpers against
closed-form derivatives: one Richardson step on central stencils is O(h^4).
The shared-stencil jet must equal the separate stencils bit for bit, at one
point and at each row of a batch."""

import numpy as np
import pytest

from efimov_lab import _fd

X = np.array([0.7, -0.3])
E = np.exp(0.5 * X[1])


def f(x):
    return np.sin(x[..., 0]) * np.exp(0.5 * x[..., 1])


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
    """A symmetric 3x3 matrix-valued function of (..., 3) points.  A x is
    summed by hand: a matmul rounds differently on a stack than on one
    point."""
    ax = x[..., 0, None] * A[:, 0] + x[..., 1, None] * A[:, 1] + x[..., 2, None] * A[:, 2]
    m = np.cos(ax)[..., :, None] * np.exp(0.2 * x)[..., None, :] \
        + (x[..., :, None] * x[..., None, :]) ** 2
    return m + np.swapaxes(m, -1, -2)


def one_point_3x3(x):
    """The same kind of function written for one (3,) point only."""
    m = np.cos(A @ x)[:, None] * np.exp(0.2 * x) + np.outer(x, x) ** 2
    return m + m.T


def bitwise_equal(a, b):
    """np.array_equal, and equal bytes too, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_jet_matches_separate_stencils(jet, fun, x, h):
    value, grad, hess = jet
    assert bitwise_equal(value, fun(x))
    assert bitwise_equal(grad, _fd.gradient(fun, x, h))
    for i in range(x.size):
        assert bitwise_equal(grad[i], _fd.central(fun, x, i, h))
        for j in range(i, x.size):
            d2 = _fd.second(fun, x, i, j, h)
            assert bitwise_equal(hess[i, j], d2) and bitwise_equal(hess[j, i], d2), (i, j)


CASES_BITWISE = [
    (f, X),
    (f, np.array([-0.0, 0.0])),
    (matrix_3x3, np.array([0.4, -1.2, 0.25])),
    (matrix_3x3, np.array([0.0, -0.0, 3.0])),
    pytest.param(_fd.pointwise(one_point_3x3), np.array([0.4, -1.2, 0.25]), id="pointwise-x4"),
    pytest.param(_fd.pointwise(one_point_3x3), np.array([0.0, -0.0, 3.0]), id="pointwise-x5"),
]


@pytest.mark.parametrize("fun,x", CASES_BITWISE)
@pytest.mark.parametrize("h", [1e-3, 0.1])
def test_jet_matches_separate_stencils_bitwise(fun, x, h):
    assert_jet_matches_separate_stencils(_fd.jet(fun, x, h), fun, x, h)


@pytest.mark.parametrize("fun,x", CASES_BITWISE[::2])
@pytest.mark.parametrize("h", [1e-3, 0.1])
def test_batch_jet_rows_match_separate_stencils_bitwise(fun, x, h):
    """Row k of the jet of an (N, n) batch is the jet at point k, equal to
    the separate single-point stencils bit for bit."""
    rng = np.random.default_rng(4)
    batch = np.vstack([x, x + rng.uniform(-1.0, 1.0, (4, x.size)), x])
    value, grad, hess = _fd.jet(fun, batch, h)
    assert value.shape[0] == grad.shape[0] == hess.shape[0] == len(batch)
    for k, row in enumerate(batch):
        assert_jet_matches_separate_stencils((value[k], grad[k], hess[k]), fun, row, h)


def stencil_points(n, x):
    """(number of calls, distinct points, points) of one ``_fd.jet`` at x."""
    calls = []

    def fun(pts):
        calls.append(pts.reshape(-1, n))
        return np.sum(np.sin(pts), axis=-1)

    _fd.jet(fun, x, 1e-3)
    seen = [tuple(p) for c in calls for p in c]
    return len(calls), len(set(seen)), len(seen)


@pytest.mark.parametrize("n,points", [(1, 5), (2, 17), (3, 37)])
def test_jet_evaluates_each_stencil_point_once(n, points):
    """One call of ``f`` on the stacked stencil: distinct points, each once."""
    assert stencil_points(n, np.linspace(0.1, 0.3, n)) == (1, points, points)


@pytest.mark.parametrize("n,points", [(1, 5), (2, 17), (3, 37)])
def test_batch_jet_evaluates_each_stencil_point_once(n, points):
    """A batch of 4 points: still one call, on 4 stencils."""
    x = np.linspace(0.1, 0.3, n) + np.arange(4.0)[:, None]
    assert stencil_points(n, x) == (1, 4 * points, 4 * points)


def test_pointwise_maps_rows_in_order():
    seen = []

    def one_point(x):
        assert x.shape == (2,)
        seen.append(tuple(x))
        return np.array([x[0], x[1], x[0] * x[1]])

    batched = _fd.pointwise(one_point)
    pts = np.arange(12.0).reshape(2, 3, 2)
    out = batched(pts)
    assert out.shape == (2, 3, 3)
    assert seen == [tuple(p) for p in pts.reshape(-1, 2)]
    assert np.array_equal(out[1, 2], [10.0, 11.0, 110.0])
    assert np.array_equal(batched(pts[0, 0]), [0.0, 1.0, 0.0]) and len(seen) == 7


def matrix_2x2(x):
    """A 2x2 matrix-valued function of (..., 2) points.  Powers are
    products: ``** 3`` rounds differently on a scalar than on an array."""
    s, c = np.sin(x[..., 0] * x[..., 1]), np.cos(x[..., 0] - 2.0 * x[..., 1])
    return np.stack([np.stack([s, c * s], -1), np.stack([np.exp(c), s * s * s], -1)], -2)


def scalar_3d(x):
    return np.sin(x[..., 0]) * np.exp(0.5 * x[..., 1]) + x[..., 2] * x[..., 2] * x[..., 2]


GRADIENT_CASES = [
    pytest.param(f, X, id="2d-scalar"),
    pytest.param(matrix_2x2, X, id="2d-matrix"),
    pytest.param(scalar_3d, np.array([0.4, -1.2, 0.25]), id="3d-scalar"),
    pytest.param(matrix_3x3, np.array([0.4, -1.2, 0.25]), id="3d-matrix"),
]


def counted(fun):
    """``fun`` and the list of the point shapes it is called on."""
    calls = []

    def wrapped(pts):
        calls.append(pts.shape)
        return fun(pts)

    return wrapped, calls


@pytest.mark.parametrize("fun,x", GRADIENT_CASES)
@pytest.mark.parametrize("h", [1e-3, 0.1])
def test_batch_gradient_is_one_stacked_call(fun, x, h):
    """On an (N, n) batch, ``gradient`` calls ``f`` once, on the 4n N
    shifted rows, and each row equals the one-point gradient bit for bit;
    one point still makes 4n calls, one per offset."""
    rng = np.random.default_rng(7)
    n = x.size
    batch = np.vstack([x, x + rng.uniform(-1.0, 1.0, (4, n)), -0.0 * x])
    wrapped, calls = counted(fun)
    grad = _fd.gradient(wrapped, batch, h)
    assert calls == [(4 * n * len(batch), n)]
    assert grad.shape == (len(batch), n) + np.shape(fun(x))
    for k, row in enumerate(batch):
        wrapped, calls = counted(fun)
        one = _fd.gradient(wrapped, row, h)
        assert calls == [(n,)] * (4 * n)
        assert np.array_equal(grad[k], one) and bitwise_equal(grad[k], one), k
        assert bitwise_equal(one, np.stack([_fd.central(fun, row, i, h) for i in range(n)]))

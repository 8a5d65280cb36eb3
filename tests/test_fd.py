"""Observed convergence order of the finite-difference helpers against
closed-form derivatives: one Richardson step on central stencils is O(h^4)."""

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

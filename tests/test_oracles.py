"""scipy as the independent oracle for the package's numpy-only numerics: the
composite Simpson rule on one array and on concatenated pieces, the
symmetric-definite pencil eigenvalues and the Hermite crossing root.  scipy
is a test dependency only."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import simpson as scipy_simpson
from scipy.linalg import eigh
from scipy.optimize import brentq

from efimov_lab.ambient import _pencil_eigvals
from efimov_lab.curves import hermite, simpson
from efimov_lab.odelab import _hermite_root

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def uneven_samples(draw):
    """(x, y) on 2-39 strictly increasing, unevenly spaced nodes."""
    n = draw(st.integers(2, 39))
    gaps = draw(arrays(float, n - 1, elements=st.floats(0.01, 1.0)))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    y = draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    return x, y


@PROPERTY
@given(uneven_samples())
@example((np.array([0.0, 0.3]), np.array([1.0, -2.0])))  # 2 samples: the trapezoid
def test_simpson_matches_scipy_on_uneven_grids(samples):
    x, y = samples
    scale = (x[-1] - x[0]) * max(1.0, float(np.max(np.abs(y))))
    assert abs(simpson(y, x) - scipy_simpson(y, x=x)) <= 1e-13 * scale


@PROPERTY
@given(st.lists(uneven_samples(), min_size=1, max_size=6))
@example([(np.array([0.0, 0.3]), np.array([1.0, -2.0])),              # 2 samples
          (np.array([-1.0, -0.5, 0.2]), np.array([3.0, 1.0, -4.0])),  # odd count
          (np.array([4.0, 4.1, 4.5, 5.0]), np.array([0.5, 2.0, -1.0, 7.0]))])  # even count
def test_simpson_pieces_match_scipy_piece_by_piece(pieces):
    """Concatenated pieces, in any order along x, integrate piece by piece."""
    x = np.concatenate([p[0] for p in pieces])
    y = np.concatenate([p[1] for p in pieces])
    got = simpson(y, x, [len(p[0]) for p in pieces])
    assert got.shape == (len(pieces),)
    for value, (xp, yp) in zip(got, pieces):
        scale = (xp[-1] - xp[0]) * max(1.0, float(np.max(np.abs(yp))))
        assert abs(value - scipy_simpson(yp, x=xp)) <= 1e-13 * scale


@pytest.mark.parametrize("x", [[0.0, 0.1, 0.35, 0.4, 1.0], [0.0, 0.1, 0.35, 0.4, 0.7, 1.0]])
def test_simpson_is_exact_on_quadratics(x):
    """Parabolic panels, and the end correction for even counts, integrate a
    quadratic exactly on any grid."""
    x = np.array(x)
    assert abs(simpson(3 * x ** 2 - 2 * x + 1, x) - 1.0) < 1e-15


@PROPERTY
@given(a=arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)),
       b=arrays(float, (3, 3), elements=st.floats(-5.0, 5.0)))
def test_pencil_eigvals_match_scipy_eigh(a, b):
    gram = a @ a.T + 0.5 * np.eye(3)
    s = 0.5 * (b + b.T)
    ref = eigh(s, gram, eigvals_only=True)
    assert np.max(np.abs(_pencil_eigvals(s, gram) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@st.composite
def monotone_hermite_crossings(draw):
    """A cubic Hermite step that is monotone (Fritsch-Carlson: end slopes
    alpha, beta in [0, 3] times the secant with alpha^2 + beta^2 <= 9) and so
    crosses the target exactly once."""
    sa = draw(st.floats(-5.0, 5.0))
    h = draw(st.floats(1e-3, 1.0))
    ya = draw(st.floats(-10.0, 10.0))
    yb = ya + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 10.0))
    secant = (yb - ya) / h
    alpha, beta = draw(st.floats(0.0, 2.1)), draw(st.floats(0.0, 2.1))
    target = ya + draw(st.floats(0.01, 0.99)) * (yb - ya)
    return sa, sa + h, ya, yb, alpha * secant, beta * secant, target


@PROPERTY
@given(monotone_hermite_crossings())
def test_hermite_root_matches_brentq(step):
    sa, sb, ya, yb, da, db, target = step

    def f(s):
        return hermite((s - sa) / (sb - sa), sb - sa, ya, da, yb, db)[0] - target

    root = _hermite_root(sa, sb, ya, yb, da, db, target)
    assert sa <= root <= sb
    assert abs(root - brentq(f, sa, sb, xtol=1e-12)) <= 1e-11

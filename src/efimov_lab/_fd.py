"""Central finite differences with one Richardson extrapolation step.

All derivative fallbacks in the package funnel through these helpers so the
error model is uniform: plain central differences are O(h^2), and the single
Richardson step promotes them to O(h^4) on smooth data.

The point ``x`` may be one point of shape (n,) or a batch of shape (N, n).
For a batch, ``f`` is called on the shifted batch and must map (..., n)
points to (...,) + value shape; the derivative axes follow the batch axis.
Each row equals the single-point result bit for bit whenever ``f`` computes
each point of a batch as it computes that point alone.
"""

from __future__ import annotations

import numpy as np


def pointwise(f):
    """``f``, which takes one (n,) point, as a callable of the batch
    contract: it maps (..., n) points to the stacked values, calling ``f``
    once per point, in row order."""

    def batched(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return f(x)
        rows = x.reshape(-1, x.shape[-1])
        vals = np.stack([np.asarray(f(row), dtype=float) for row in rows])
        return vals.reshape(x.shape[:-1] + vals.shape[1:])

    return batched


def _basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def central(f, x, i, h):
    """d f / d x_i at x by central differences.

    ``f`` maps an (n,) array to a scalar or ndarray.
    """
    x = np.asarray(x, dtype=float)
    e = _basis(x.shape[-1], i)

    def d(hh):
        return (np.asarray(f(x + hh * e)) - np.asarray(f(x - hh * e))) / (2.0 * hh)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def second(f, x, i, j, h):
    """d^2 f / dx_i dx_j at x by central stencils."""
    x = np.asarray(x, dtype=float)
    ei = _basis(x.shape[-1], i)
    ej = _basis(x.shape[-1], j)
    f0 = np.asarray(f(x))

    if i == j:
        def d(hh):
            return (np.asarray(f(x + hh * ei)) - 2.0 * f0 + np.asarray(f(x - hh * ei))) / (hh * hh)
    else:
        def d(hh):
            return (
                np.asarray(f(x + hh * ei + hh * ej))
                - np.asarray(f(x + hh * ei - hh * ej))
                - np.asarray(f(x - hh * ei + hh * ej))
                + np.asarray(f(x - hh * ei - hh * ej))
            ) / (4.0 * hh * hh)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def gradient(f, x, h):
    """Stack of central(f, x, i) over all coordinates; the axis after the
    batch axes indexes i (the leading axis for one point)."""
    x = np.asarray(x, dtype=float)
    return np.stack([central(f, x, i, h) for i in range(x.shape[-1])], axis=x.ndim - 1)


def jet(f, x, h):
    """(f(x), gradient, Hessian) of f at x from one shared stencil.

    ``central`` and ``second`` at steps h and h/2 visit the centre,
    ``+-hh e_i`` and ``+-hh e_i +-hh e_j`` (i < j): 1 + 4n + 4n(n-1) distinct
    points, 37 in 3D and 17 in 2D.  ``f`` is called once, on the stencils
    of all points stacked, shape (S, n) for one point and (S, N, n) for a
    batch.  The values are combined with the same operations as in
    ``central`` and ``second``, so the gradient equals ``gradient(f, x, h)``
    and the Hessian entries ``[i, j]`` and ``[j, i]`` equal
    ``second(f, x, i, j, h)`` for i <= j, bit for bit.  The coordinate axes
    follow the batch axis.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    eye = np.eye(n)
    ii, jj = np.triu_indices(n, 1)
    steps = np.array([h, h / 2.0])
    signs = np.array([1.0, -1.0])
    # axis offsets [step, sign, i] = (sign hh) e_i
    sh = (steps[:, None] * signs)[:, :, None, None]
    axis = sh * eye
    # pair offsets [step, (++, +-, -+, --), pair] = (s_i hh) e_i + (s_j hh) e_j
    si = sh[:, [0, 0, 1, 1]]
    sj = sh[:, [0, 1, 0, 1]]
    mixed = si * eye[ii] + sj * eye[jj]
    offsets = np.concatenate([axis.reshape(-1, n), mixed.reshape(-1, n)])
    # the stencil axis leads: pts[s] is stencil point s of x, or of every row
    pts = np.concatenate([x[None], x + offsets.reshape((-1,) + (1,) * (x.ndim - 1) + (n,))])
    vals = np.asarray(f(pts))

    f0 = vals[0]
    tail = (1,) * f0.ndim
    hh = steps.reshape((2, 1) + tail)
    fp, fm = np.moveaxis(vals[1:1 + 4 * n].reshape((2, 2, n) + f0.shape), 1, 0)
    d1 = (fp - fm) / (2.0 * hh)
    grad = (4.0 * d1[1] - d1[0]) / 3.0

    hess = np.empty((n, n) + f0.shape, dtype=grad.dtype)
    dd = (fp - 2.0 * f0 + fm) / (hh * hh)
    hess[range(n), range(n)] = (4.0 * dd[1] - dd[0]) / 3.0
    fpp, fpm, fmp, fmm = np.moveaxis(vals[1 + 4 * n:].reshape((2, 4, ii.size) + f0.shape), 1, 0)
    dm = (fpp - fpm - fmp + fmm) / (4.0 * hh * hh)
    hess[ii, jj] = hess[jj, ii] = (4.0 * dm[1] - dm[0]) / 3.0
    if x.ndim == 1:
        return f0, grad, hess
    return (np.ascontiguousarray(f0), np.ascontiguousarray(np.moveaxis(grad, 0, 1)),
            np.ascontiguousarray(np.moveaxis(hess, (0, 1), (1, 2))))


def derivative_along(f, s, h):
    """d f / d s for a scalar-argument function."""

    def d(hh):
        return (np.asarray(f(s + hh)) - np.asarray(f(s - hh))) / (2.0 * hh)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0

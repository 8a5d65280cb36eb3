"""Central finite differences with one Richardson extrapolation step.

All derivative fallbacks in the package funnel through these helpers so the
error model is uniform: plain central differences are O(h^2), and the single
Richardson step promotes them to O(h^4) on smooth data.
"""

from __future__ import annotations

import numpy as np


def _basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def central(f, x, i, h):
    """d f / d x_i at x by central differences.

    ``f`` maps an (n,) array to a scalar or ndarray.
    """
    x = np.asarray(x, dtype=float)
    e = _basis(x.size, i)

    def d(hh):
        return (np.asarray(f(x + hh * e)) - np.asarray(f(x - hh * e))) / (2.0 * hh)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def second(f, x, i, j, h):
    """d^2 f / dx_i dx_j at x by central stencils."""
    x = np.asarray(x, dtype=float)
    ei = _basis(x.size, i)
    ej = _basis(x.size, j)
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
    """Stack of central(f, x, i) over all coordinates; leading axis indexes i."""
    x = np.asarray(x, dtype=float)
    return np.stack([central(f, x, i, h) for i in range(x.size)])


def derivative_along(f, s, h):
    """d f / d s for a scalar-argument function."""

    def d(hh):
        return (np.asarray(f(s + hh)) - np.asarray(f(s - hh))) / (2.0 * hh)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0

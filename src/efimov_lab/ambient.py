"""Metrics on coordinate charts: Christoffel symbols, Riemann tensor, sectional
curvature and sectional extremes.

The machinery serves dimensions 3 and 2, each with a closed-form metric
inverse.  Ambient spaces use dimension 3; the same code path in dimension 2
computes intrinsic curvatures of induced surface metrics, so there is a single
finite-difference error model for the whole pipeline.

All evaluators are pure and deterministic; concurrent read-only use from
multiple threads is safe (no shared mutable state).

Conventions
-----------
* The curvature evaluators take one point ``p`` of shape (dim,) or a batch
  of shape (N, dim); for a batch every result gains a leading axis over the
  rows.
* The batch contract has two rules, written once here and used by every
  layer.  A leaf (a metric leaf, a patch map or hook, a B or torsion field)
  returns values with the leading axes of its points, or one value for
  every point (a constant, broadcast); any other shape raises ValueError
  naming the leaf (``_values``).  A check on a batch costs one reduction
  over its mask when every row passes, and names the first failing row
  through ``_first``.
* ``g(p)`` is the metric matrix ``g_ij`` at chart point ``p``.
* ``partials(p)[k, i, j]`` is the coordinate derivative ``d g_ij / d x^k``.
* The curvature tensor is ``R(X,Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z`` and
  its covariant form is ``Rm[i,j,k,l] = g(R(e_i,e_j)e_k, e_l)``, so the
  sectional curvature of a plane spanned by x, y is

      K(x, y) = Rm(x, y, y, x) / (|x|^2 |y|^2 - <x,y>^2),

  which makes the round unit sphere come out at K = +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _fd
from .errors import DegeneratePlane, NonFiniteMetric, NonInvertibleMetric, PointOutsideChart
from .expressions import tree_leaf, trees_by_index

DET_FLOOR = 1e-12
# rows per stacked metric-leaf call of the batched curvature: bounds the
# stencil values and the matmul temporaries of a grid, whatever its size
CHUNK = 64


def as_point(p, dim):
    """Coerce an array-like to a float ndarray of length ``dim``."""
    a = np.asarray(p, dtype=float)
    if a.shape != (dim,):
        raise ValueError(f"expected a point with {dim} coordinates, got shape {a.shape}")
    return a


def as_points(p, dim):
    """Coerce an array-like to one point, shape (dim,), or a batch of
    points, shape (N, dim), as a float ndarray."""
    a = np.asarray(p, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != dim or a.size == 0:
        raise ValueError(f"expected a point or rows of points with {dim} coordinates, "
                         f"got shape {a.shape}")
    return a


def _scalar(a):
    """A float for one point, the array for a batch."""
    return float(a) if np.ndim(a) == 0 else a


def _values(value, lead, shape, what):
    """A leaf's ``value`` at points with leading axes ``lead``, as floats of
    shape ``lead + shape``; one value of ``shape`` (a constant) is
    broadcast, and any other shape raises ValueError naming ``what``."""
    value = np.asarray(value, dtype=float)
    if value.shape == lead + shape:
        return value
    if value.shape != shape:
        constant = f", or {shape} for every point" if lead else ""
        raise ValueError(f"{what} gave shape {value.shape} at points with leading axes "
                         f"{lead}; expected {lead + shape}{constant}")
    return np.broadcast_to(value, lead + shape)


def _first(bad):
    """Where ``bad`` first holds, as an index of the point's values: ``()``
    for one point (a bool), the first such row of a batch (in row-major
    order), else None."""
    if isinstance(bad, np.ndarray):
        return int(np.argmax(bad)) if bad.any() else None
    return () if bad else None


def _entries(a, rank):
    """The entries of one rank-``rank`` array as nested Python floats, where
    scalar arithmetic is fastest, or of a stack of such arrays, shape
    (...,) + entry shape, as nested arrays over its leading axes:
    ``e[i][j]`` is a float or an array of shape (...,), and one 2x2 formula
    serves both."""
    a = np.asarray(a, dtype=float)
    lead = a.ndim - rank
    return a.tolist() if lead == 0 else a.transpose(tuple(range(lead, a.ndim)) + tuple(range(lead)))


def _assemble(entries, rank):
    """The array of nested entries, the inverse of ``_entries``: rank
    ``rank``, or with the leading axes of the entries when they are arrays."""
    a = np.array(entries)
    return a if a.ndim == rank else a.transpose(tuple(range(rank, a.ndim)) + tuple(range(rank)))


@dataclass(frozen=True)
class ChartBox:
    """Per-axis closed bounds of a coordinate chart."""

    lo: tuple
    hi: tuple
    # the bounds as float arrays, built once for ``inside``
    _lo: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "_hi", np.asarray(self.hi, dtype=float))

    @staticmethod
    def cube(dim, half_width):
        return ChartBox((-half_width,) * dim, (half_width,) * dim)

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, p, margin=0.0):
        # plain float comparisons: this runs at every RK4 stage of every trace
        for x, lo, hi in zip(p.tolist() if isinstance(p, np.ndarray) else p,
                             self.lo, self.hi, strict=True):
            x = float(x)
            if not (x >= lo + margin - 1e-15 and x <= hi - margin + 1e-15):
                return False
        return True

    def _mask(self, pts, margin):
        # the bounds round as in ``contains``: lo + margin - 1e-15, in that order
        return (pts >= self._lo + margin - 1e-15) & (pts <= self._hi - margin + 1e-15)

    def inside(self, pts, margin=0.0):
        """``contains`` for each row of an (N, dim) array: a boolean (N,) array."""
        return self._mask(pts, margin).all(axis=-1)

    def all_inside(self, pts, margin=0.0):
        """Whether every row of ``inside`` holds, from one reduction."""
        return self._mask(pts, margin).all()

    def require_inside(self, p, margin=0.0, name="chart"):
        """Raise PointOutsideChart unless p, or every row of an (N, dim)
        batch p, lies in the box shrunk by ``margin``; the error names the
        first point outside and ``name``, the owner of the box."""
        if getattr(p, "ndim", 1) < 2:
            if self.contains(p, margin=margin):
                return
            p = np.asarray(p)
        elif self.all_inside(p, margin):
            return
        else:
            p = p[_first(~self.inside(p, margin))]
        raise PointOutsideChart(f"point {p} outside the box of {name}"
                                + (f" (margin {margin})" if margin else ""))


class MetricField:
    """A Riemannian metric on one coordinate chart.

    Parameters
    ----------
    dim : chart dimension, 3 for ambient spaces or 2 for surface metrics;
        any other raises ValueError.
    matrix : callable, points (..., dim) -> (..., dim, dim) symmetric
        positive matrices.
    box : ChartBox with per-axis bounds.
    partials : optional callable, points (..., dim) -> (..., dim, dim, dim)
        first coordinate derivatives ``dg[..., k, i, j] = d g_ij / d x^k``.
    second_partials : optional callable, points (..., dim) ->
        (..., dim, dim, dim, dim) ``d2g[..., k, l, i, j] = d^2 g_ij / d x^k d x^l``.
    fd_step : finite-difference step used for any missing derivative.

    The three leaves broadcast over the leading axes of their argument; a
    leaf that returns one value for every point (a constant) is broadcast
    to the batch, and any other shape raises ValueError naming the leaf.
    A leaf that can only take one (dim,) point is wrapped in
    ``_fd.pointwise``, which calls it once per point.  The curvature
    evaluators take one point or an (N, dim) batch and call each leaf once
    per ``CHUNK`` rows of the batch.
    """

    def __init__(self, dim, matrix, box, partials=None, second_partials=None,
                 fd_step=1e-3, name=""):
        if dim not in (2, 3):
            raise ValueError(f"a MetricField has dim 2 or 3, got {dim}")
        self.dim = dim
        self._matrix = matrix
        self.box = box
        self._partials = partials
        self._second_partials = second_partials
        self.fd_step = float(fd_step)
        self.name = name

    @property
    def has_analytic_partials(self):
        return self._partials is not None

    def require_inside(self, p, margin=0.0):
        self.box.require_inside(p, margin, self.name or "metric")

    def fd_margin(self):
        """Stencil reach of the widest finite-difference formula in use."""
        if self._partials is not None and self._second_partials is not None:
            return 0.0
        return 2.0 * self.fd_step

    def _leaf(self, fn, p, rank, what):
        """``fn(p)`` as floats of shape p.shape[:-1] + (dim,) * rank, by
        the leaf rule (``_values``)."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise ValueError(f"expected points with {self.dim} coordinates, got shape {p.shape}")
        return _values(fn(p), p.shape[:-1], (self.dim,) * rank, what)

    def matrix(self, p):
        return self._leaf(self._matrix, p, 2, "the metric's matrix leaf")

    def inverse(self, p):
        return _checked_inverse(self.matrix(p), p)

    def partials(self, p):
        if self._partials is not None:
            return self._leaf(self._partials, p, 3, "the metric's partials leaf")
        return _fd.gradient(self.matrix, p, self.fd_step)

    def jet(self, p):
        """``(g, dg, d2g)`` at p, one point or an (N, dim) batch.  A metric
        without analytic derivatives takes all three from one shared stencil
        of ``_fd.jet``: one call of the matrix leaf on 37 points per row in
        3D, 17 in 2D.  One with analytic first partials only differences
        them for ``d2g``."""
        if self._partials is None and self._second_partials is None:
            return _fd.jet(self.matrix, p, self.fd_step)
        g, dg = self.matrix(p), self.partials(p)
        if self._second_partials is not None:
            return g, dg, self._leaf(self._second_partials, p, 4,
                                     "the metric's second_partials leaf")
        # d2g[..., k, l] = d_k (dg[..., l])
        d2 = _fd.gradient(self.partials, p, self.fd_step)
        return g, dg, 0.5 * (d2 + np.swapaxes(d2, -4, -3))


def _checked_inverse(g, p):
    """g^{-1} for one 2x2 or 3x3 metric matrix or a stack of them, as the
    adjugate over the determinant: one formula, on plain floats for one
    matrix (alone or in a stack of one) and on arrays over a stack, so each
    row is its one-point inverse bit for bit.  Its rounding is a few ulp on
    a diagonal metric and grows as eps cond(g)^2 on a full 3x3 one.  A
    determinant below DET_FLOOR in size, or not finite, raises
    NonInvertibleMetric naming the first such point, in place of warnings."""
    n = g.shape[-1]
    if g.size == n * n:  # plain floats: christoffel runs at every RK4 stage
        det, adj = _det_adjugate((g if g.ndim == 2 else g.reshape(n, n)).tolist())
        if DET_FLOOR <= abs(det) < math.inf:
            return np.array(adj, ndmin=g.ndim) / det
    else:
        # entries that overflow or are not finite surface in det, caught below
        with np.errstate(over="ignore", invalid="ignore"):
            det, adj = _det_adjugate(_entries(g, 2))
        ok = (abs(det) >= DET_FLOOR) & (abs(det) < math.inf)
        if ok.all():
            return _assemble(adj, 2) / det[..., None, None]
        k = _first(~ok)
        det, p = det.ravel()[k], np.reshape(p, (-1, n))[k]
    raise NonInvertibleMetric(f"|det g| = {abs(det):.3e} is below the floor or not finite "
                              f"at {np.reshape(np.asarray(p, dtype=float), -1)}")


def _det_adjugate(e):
    """det and adjugate (nested entries) of a 2x2 or 3x3 matrix's ``_entries``."""
    if len(e) == 2:
        (a, b), (c, d) = e
        return a * d - b * c, [[d, -b], [-c, a]]
    (a, b, c), (d, e, f), (g, h, i) = e
    adj = [[e * i - f * h, c * h - b * i, b * f - c * e],
           [f * g - d * i, a * i - c * g, c * d - a * f],
           [d * h - e * g, b * g - a * h, a * e - b * d]]
    return a * adj[0][0] + b * adj[1][0] + c * adj[2][0], adj


def christoffel(metric, p):
    """Levi-Civita symbols ``Gamma[k, i, j]``, symmetric in (i, j), at one
    point p or, with the leading axes of p, at each row of (..., dim) points.

    Uses analytic partials when the metric carries them, otherwise central
    differences with one Richardson step.  A metric or partial that is not
    finite raises NonFiniteMetric naming the first such point, in place of
    numpy warnings.
    """
    return _christoffel(metric, p)[2]


def _christoffel(metric, p):
    """``(g, g^{-1}, Gamma)`` at p, as ``christoffel`` computes them: one read
    of each of the matrix and partials leaves and one closed-form inverse,
    after the chart margin, finiteness and determinant checks."""
    dim = metric.dim
    p = np.asarray(p, dtype=float)
    if p.shape == (dim,):
        rows = p[None]
        metric.require_inside(p, margin=metric.fd_margin())
    elif p.ndim > 1 and p.shape[-1] == dim and p.size:
        rows = p.reshape(-1, dim)
        metric.require_inside(rows, margin=metric.fd_margin())
    else:
        raise ValueError(f"expected a point or rows of points with {dim} coordinates, "
                         f"got shape {p.shape}")
    if metric.has_analytic_partials:
        g, dg = metric.matrix(p), metric.partials(p)
    else:
        # a stencil point where the metric is not finite is caught below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g, dg = metric.matrix(p), metric.partials(p)
    _require_finite(rows, g, dg)
    ginv = _checked_inverse(g, p)
    # Gamma^k_ij = 1/2 g^{km} (d_i g_mj + d_j g_im - d_m g_ij)
    # the bracket indexed [..., m, i, j], so that g^{km} contracts it by one matmul
    n = p.ndim - 1  # leading axes
    lead = tuple(range(n))
    term = dg.transpose(lead + (n + 1, n, n + 2)) + dg.transpose(lead + (n + 2, n + 1, n)) - dg
    shape = p.shape[:-1]
    gam = 0.5 * (ginv @ term.reshape(shape + (dim, dim * dim))).reshape(shape + (dim, dim, dim))
    return g, ginv, gam


def _curvature(metric, p, finish=None):
    """``(g, Gamma, R)`` from one jet of the metric: ``g_ij``, the
    Levi-Civita symbols ``Gamma[k, i, j]`` and the curvature operator
    coefficients ``R[m, i, j, k]``, at one point p or, with a leading axis,
    at each row of an (N, dim) batch, evaluated ``CHUNK`` rows at a time.
    The chart margin, the finiteness of the jet and the determinant floor
    are checked on every row.

    ``finish(g, gam, r, rows)``, when given, maps the three arrays of each
    chunk to the per-row arrays returned instead, so that a grid keeps only
    what its caller asks for."""
    pts = as_points(p, metric.dim)
    metric.require_inside(pts, margin=metric.fd_margin())
    finish = finish or (lambda g, gam, r, rows: (g, gam, r))
    if pts.ndim == 1:
        # the leaves take the point itself, where numpy scalars are fastest
        jet = [a[None] for a in _finite_jet(metric, pts)]
        return tuple(a[0] for a in finish(*_curvature_rows(*jet, pts[None]), pts[None]))
    out = None
    for i in range(0, len(pts), CHUNK):
        rows = pts[i:i + CHUNK]
        part = finish(*_curvature_rows(*_finite_jet(metric, rows), rows), rows)
        if out is None:
            out = tuple(np.empty((len(pts),) + a.shape[1:], a.dtype) for a in part)
        for o, a in zip(out, part):
            o[i:i + CHUNK] = a
    return out


def _finite_jet(metric, p):
    """``metric.jet(p)``; a point where it is not finite (an overflow in the
    stencil differences, say) raises NonFiniteMetric naming the first such
    point, in place of numpy warnings."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        jet = metric.jet(p)
    _require_finite(p.reshape(-1, metric.dim), *jet)
    return jet


def _require_finite(rows, *arrays, what="the metric or its derivatives"):
    """NonFiniteMetric unless the arrays, each with one leading row per
    point of ``rows``, are finite; the error names ``what`` and the first
    failing point."""
    # one point: a sum of plain floats is finite unless an entry is not, or
    # the sum overflows, which the exact check below sorts out
    if len(rows) == 1:
        if math.isfinite(sum(sum(a.ravel().tolist()) for a in arrays)):
            return
    elif all(np.isfinite(a).all() for a in arrays):
        return
    k = _first(~np.logical_and.reduce(
        [np.isfinite(a).reshape(len(rows), -1).all(axis=1) for a in arrays]))
    if k is not None:
        raise NonFiniteMetric(f"{what} are not finite at {rows[k]}")


def _curvature_rows(g, dg, d2g, pts):
    """``(g, Gamma, R)`` at the rows of pts from the metric's jet there.

    Every contraction is a stacked matmul over a transposed or reshaped
    view, which rounds each row as the one-point product: a row equals its
    one-point result bit for bit on any metric, full or diagonal."""
    ginv = _checked_inverse(g, pts)
    n, d = g.shape[:2]

    # dGamma[i, k, j, l] = d_i Gamma^k_jl, assembled from g, dg, d2g directly
    # so no finite differences of Gamma are ever nested; d_i g^{lm} is
    # dginv[i, l, m]
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    # the first-kind symbols, 2 Gamma_{m,jl} = d_j g_ml + d_l g_jm - d_m g_jl,
    # indexed [m, j, l] so that g^{km} contracts them by one matmul, and
    # their derivative d_i indexed [i, m, j, l]
    sym = (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 3, 2, 1) - dg).reshape(n, d, d * d)
    dsym = (d2g.transpose(0, 1, 3, 2, 4) + d2g.transpose(0, 1, 4, 3, 2)
            - d2g).reshape(n, d, d, d * d)
    dgamma = (0.5 * (dginv @ sym[:, None] + ginv[:, None] @ dsym)).reshape((n,) + (d,) * 4)
    gam = (0.5 * (ginv @ sym)).reshape(n, d, d, d)
    # R^m_{ijk} = d_i Gamma^m_jk - d_j Gamma^m_ik + Gamma^m_ia Gamma^a_jk
    #             - Gamma^m_ja Gamma^a_ik, with pp[m, i, j, k] = Gamma^m_ia Gamma^a_jk
    pp = (gam.reshape(n, d * d, d) @ gam.reshape(n, d, d * d)).reshape((n,) + (d,) * 4)
    r = (dgamma.transpose(0, 2, 1, 3, 4) - dgamma.transpose(0, 2, 3, 1, 4)
         + pp - pp.transpose(0, 1, 3, 2, 4))
    return g, gam, r


def riemann_operator(metric, p):
    """Curvature operator coefficients ``R[m, i, j, k]`` with
    ``R(e_i, e_j) e_k = R[m, i, j, k] e_m`` (with a leading axis for a batch)."""
    return _curvature(metric, p)[2]


def dnabla(a, da, gam, x, y):
    """Exterior covariant derivative of an endomorphism field A,

        (d^nabla A)(x, y) = d_x(A y) - d_y(A x) + Gamma(x, A y) - Gamma(y, A x),

    for constant-coefficient tangent vectors x, y at one point, or with
    leading axes at each row of a batch.  ``a`` is A there,
    ``da[..., k, :, :] = d A / d x^k`` and ``gam[..., k, i, j]`` are the
    connection coefficients, ``nabla_{e_i} e_j = gam[..., k, i, j] e_k``.
    """
    return (np.einsum("...i,...ikj,...j->...k", x, da, y)
            - np.einsum("...i,...ikj,...j->...k", y, da, x)
            + np.einsum("...kij,...i,...j->...k", gam, x, a @ y)
            - np.einsum("...kij,...i,...j->...k", gam, y, a @ x))


def riemann_covariant(metric, p):
    """Fully covariant curvature ``Rm[i, j, k, l] = g(R(e_i,e_j)e_k, e_l)``
    at one point, or with a leading axis at each row of an (N, dim) batch."""
    return _curvature(metric, p, lambda g, gam, r, rows: (_lower(g, r),))[0]


def _lower(g, r):
    """Rm[n, i, j, k, l] = g[n, l, m] R[n, m, i, j, k] on a chunk."""
    n, d = g.shape[:2]
    return (g @ r.reshape(n, d, d ** 3)).reshape((n,) + (d,) * 4).transpose(0, 2, 3, 4, 1)


def gauss_curvature(metric2d, p):
    """Gaussian curvature ``Rm[0, 1, 1, 0] / det g`` of a 2D metric at p
    (an array over the rows of a batch p), with g from the same jet."""
    return _scalar(_curvature(metric2d, p, _gauss_rows)[0])


def _gauss_rows(g, gam, r, rows):
    return (_lower(g, r)[:, 0, 1, 1, 0] / np.linalg.det(g),)


_RESIDUALS = ("antisym_first_pair", "antisym_second_pair", "pair_swap", "first_bianchi")


def riemann_symmetry_residuals(g, rm):
    """Max violations of the four classical symmetries of ``rm`` (arrays
    over the rows of a batch)."""

    def worst(a):
        return np.max(np.abs(a), axis=(-4, -3, -2, -1))

    a1 = worst(rm + np.einsum("...jikl->...ijkl", rm))
    a2 = worst(rm + np.einsum("...ijlk->...ijkl", rm))
    pair = worst(rm - np.einsum("...klij->...ijkl", rm))
    bianchi = worst(rm + np.einsum("...jkil->...ijkl", rm) + np.einsum("...kijl->...ijkl", rm))
    scale = np.maximum(1.0, worst(rm))
    return {k: _scalar(v / scale) for k, v in zip(_RESIDUALS, (a1, a2, pair, bianchi))}


def riemann_sectional(metric, p, x, y):
    """Sectional curvature of the plane spanned by tangent vectors x, y at
    p, or of the plane at each row of an (N, dim) batch p, with x and y
    stacked the same way; the error names the first degenerate plane."""
    p = as_points(p, metric.dim)
    g = metric.matrix(p)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx, yy, xy = _quadratic(x, g, x), _quadratic(y, g, y), _quadratic(x, g, y)
    gram = xx * yy - xy * xy  # a product: a float and an array square alike
    ok = gram >= 1e-12 * np.maximum(1.0, xx) * np.maximum(1.0, yy)
    if not ok.all():
        k = _first(~ok)
        raise DegeneratePlane(f"plane spanned by {x[k]} and {y[k]} is degenerate "
                              f"(gram={gram[k]:.3e})")
    # in C order: the einsum sums in the order of the tensor's layout
    rm = np.ascontiguousarray(riemann_covariant(metric, p))
    num = np.einsum("...ijkl,...i,...j,...k,...l->...", rm, x, y, y, x)
    return _scalar(num / gram)


def _quadratic(x, g, y):
    """``x . g . y`` for one point, or for each row of stacked vectors and
    matrices; a stacked matmul rounds each row as the one-point product."""
    return (x[..., None, :] @ g @ y[..., None])[..., 0, 0]


# the ordered basis of Lambda^2 by chart dimension: e1^e2 in 2D, and
# (e1^e2, e1^e3, e2^e3) in 3D, as the index vectors of its pairs i < j
_PAIRS = {d: np.triu_indices(d, 1) for d in (2, 3)}


def _operator_matrices(g, rm):
    """Quadratic form S and Gram matrix G of the curvature operator on
    Lambda^2 in the ordered basis of ``_PAIRS``, for each row."""
    # s[a, b] = rm[i_a, j_a, j_b, i_b], gram[a, b] = g[i_a, i_b] g[j_a, j_b]
    # - g[i_a, j_b] g[j_a, i_b]
    pair_i, pair_j = _PAIRS[g.shape[-1]]
    i, j = pair_i[:, None], pair_j[:, None]
    k, l = pair_i[None, :], pair_j[None, :]
    s = rm[..., i, j, l, k]
    gram = g[..., i, k] * g[..., j, l] - g[..., i, l] * g[..., j, k]
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    gram = 0.5 * (gram + np.swapaxes(gram, -1, -2))
    return s, gram


def sectional_range(metric, p):
    """(K_min, K_max) over all tangent 2-planes at p; for a batch p of
    shape (N, dim), two (N,) arrays.

    Computed as the eigenvalue extremes of the curvature operator on
    Lambda^2 with its metric-induced inner product: the Rayleigh quotient
    of the pencil (S, G) of ``_operator_matrices`` on a decomposable
    2-vector x^y equals the sectional curvature K(x, y), and in dimensions
    2 and 3 every 2-vector is decomposable.  In 2D the pencil is 1x1, so
    K_min = K_max = Rm_0110 / det g, the Gauss curvature.  g comes from the
    same jet as the curvature.
    """
    k_min, k_max = _curvature(metric, p, _range_rows)
    return _scalar(k_min), _scalar(k_max)


def _range_rows(g, gam, r, rows):
    vals = _pencil_eigvals(*_operator_matrices(g, _lower(g, r)), rows)
    return vals[:, 0], vals[:, -1]


def _pencil_eigvals(s, gram, points=None):
    """Ascending eigenvalues of the symmetric-definite pencil (S, G), or of
    each pencil of a stack.

    With G = L L^T, they are the eigenvalues of L^{-1} S L^{-T} (Golub-Van
    Loan, *Matrix Computations*, 8.7).  A G that is not positive definite
    (an indefinite or degenerate metric) raises NonInvertibleMetric, naming
    the first such point of ``points`` when they are given.
    """
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        where = ""
        if points is not None:
            stack = gram.reshape((-1,) + gram.shape[-2:])
            rows = np.asarray(points, dtype=float).reshape(len(stack), -1)
            where = f" at {rows[_first_indefinite(stack)]}"
        raise NonInvertibleMetric(
            f"the metric's Gram matrix on 2-planes is not positive definite{where}") from None
    half = np.linalg.solve(lower, s)  # L^{-1} S
    c = np.linalg.solve(lower, np.swapaxes(half, -1, -2))  # L^{-1} (L^{-1} S)^T = L^{-1} S L^{-T}
    return np.linalg.eigvalsh(0.5 * (c + np.swapaxes(c, -1, -2)))


def _first_indefinite(stack):
    """Index of the first matrix of the stack without a Cholesky factor."""
    for k, m in enumerate(stack):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return k


@dataclass
class CurvatureSample:
    """All curvature data computed at a chart point, or at each row of a
    batch: then every field has a leading axis over the rows."""

    point: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    k_min: float
    k_max: float
    symmetry_residuals: dict = field(default_factory=dict)


def curvature_sample(metric, p):
    """Christoffel symbols, curvature, sectional extremes and symmetry
    residuals at p, or at each row of an (N, dim) batch, all from one jet of
    the metric."""
    p = as_points(p, metric.dim)
    gam, rm, k_min, k_max, *residuals = _curvature(metric, p, _sample_rows)
    return CurvatureSample(
        point=p,
        gamma=gam,
        riemann=rm,
        k_min=_scalar(k_min),
        k_max=_scalar(k_max),
        symmetry_residuals={k: _scalar(v) for k, v in zip(_RESIDUALS, residuals)},
    )


def _sample_rows(g, gam, r, rows):
    rm = _lower(g, r)
    vals = _pencil_eigvals(*_operator_matrices(g, rm), rows)
    return (gam, rm, vals[:, 0], vals[:, -1], *riemann_symmetry_residuals(g, rm).values())


def metric_from_expressions(fields, box, name="custom"):
    """Build a MetricField on ``box`` from a dict of coefficient Expressions
    in ``u, v, w`` cut to ``box.dim``: ``g11``, ``g12`` or ``g21``, ...; a
    missing entry is 0, and a stray name or both names of one entry raise
    ExpressionError.  The matrix, its partials and its second partials are
    three ``expressions.tree_leaf`` leaves of the entries and of their
    derivative expressions, so ``fd_margin()`` is 0; a derivative undefined
    where its entry is defined (``u^0.5`` at u = 0) raises
    ExpressionEvaluationError naming ``d(expr)/du`` and the point."""
    dim = box.dim
    variables = ("u", "v", "w")[:dim]
    entries = trees_by_index(fields, {f"g{i + 1}{j + 1}": (min(i, j), max(i, j))
                                      for i in range(dim) for j in range(dim)}, "metric file")
    # [k, i, j] = d g_ij / d x^k, then [k, l, i, j] = d^2 g_ij / d x^k d x^l, k <= l
    first = {(k,) + ij: e.derivative(variables[k]) for ij, e in entries.items()
             for k in range(dim)}
    second = {(k, l, i, j): d.derivative(variables[l]) for (k, i, j), d in first.items()
              for l in range(k, dim)}
    return MetricField(dim, tree_leaf(variables, (entries, (dim,) * 2, ((0, 1),))), box,
                       partials=tree_leaf(variables, (first, (dim,) * 3, ((1, 2),))),
                       second_partials=tree_leaf(variables, (second, (dim,) * 4, ((0, 1), (2, 3)))),
                       name=name)

"""Immersed surface patches: fundamental forms, shape operator, Gauss and
Codazzi residuals.

The shape operator is ``B: x -> D^M_x N`` for the unit normal N, which is
``g^{-1}(d1 phi x d2 phi)`` normalised (so on the unit sphere with outward
normal B is the identity); the order of the parameters fixes its sign, and
``(u, v) -> phi(v, u)`` flips it.  That flips B and ``II(x, y) = I(Bx, y)`` but leaves
``III(x, y) = I(Bx, By)``, ``K_e = det B``, the connection ``B^{-1} D B``
and its curvature unchanged, and swaps only the labels of the asymptotic
directions U and V, so nothing the lab measures depends on the choice.

A patch's map and ``derivatives`` hook broadcast over (..., 2) parameter
points, as the leaves of a MetricField do; the hook gives the whole jet,
and for surface text (the gallery's patches and surface files, built by
:func:`surface_from_expressions`) it is one generated function.  The
shape layer of :class:`FundamentalData` is built for one (2,) point or
for every row of an (N, 2) batch by one kernel: one patch jet, one batched
read of the ambient metric and its symbols, and one chain of stacked
products.  Its 2x2 formulas run on the Python floats of one point or on
the (N,) arrays of a batch, and a stacked matmul rounds each row as the
one-point product, so a row of a batch equals the one-point result bit
for bit.  :func:`fundamental_forms` is the one-point entry.

Evaluators are pure; patches are safe for concurrent reads.  Fundamental
data fill their lazy fields (III, the symbols of I and the curvature layer)
on first read; the fill is idempotent, so concurrent reads of one object are
safe too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _fd
from .ambient import (
    MetricField,
    _assemble,
    _christoffel,
    _det_adjugate,
    _entries,
    _first,
    _quadratic,
    _require_finite,
    _scalar,
    _values,
    as_point,
    dnabla,
    riemann_covariant,
    riemann_operator,
    riemann_sectional,
)
from .errors import DegenerateImmersion
from .expressions import tree_leaf, trees_by_index

RANK_FLOOR = 1e-10
_HOOK = "the patch's derivatives hook"


class SurfacePatch:
    """A parametrized surface patch ``phi: (u, v) -> chart point``.

    Parameters
    ----------
    chart_map : callable, points (..., 2) -> (..., 3) chart coordinates of
        the image points.
    box : ChartBox of the (u, v) parameter domain.
    derivatives : optional callable, points (..., 2) -> the jet ``(point,
        jacobian, hessian)``: the map's (..., 3) values, the (..., 3, 2)
        arrays ``d phi^i / d q^a`` and the (..., 3, 2, 2) arrays ``d^2 phi^i
        / d q^a d q^b``.  A constant, of one point's shape, is broadcast.

    The normal is oriented by ``d1 phi x d2 phi`` (module docstring).  The
    map and the hook broadcast over the leading axes of their argument.
    A map that takes one (2,) point only is wrapped in ``_fd.pointwise``,
    which calls it once per point.  Without ``derivatives`` the partials
    are central differences at step ``fd_step``.
    """

    fd_step = 1e-4

    def __init__(self, chart_map, box, derivatives=None, name=""):
        self._map = chart_map
        self.box = box
        self._derivatives = derivatives
        self.name = name

    @property
    def has_analytic_partials(self):
        return self._derivatives is not None

    def fd_margin(self):
        return 0.0 if self._derivatives is not None else 2.0 * self.fd_step

    def require_inside(self, q, margin=0.0):
        self.box.require_inside(q, margin, self.name or "patch")

    def point(self, q):
        q = _parameters(q)
        return _values(self._map(q), q.shape[:-1], (3,), "the patch map")

    def jacobian(self, q):
        q = _parameters(q)
        if self._derivatives is not None:
            return _values(self._derivatives(q)[1], q.shape[:-1], (3, 2), _HOOK)
        # in C order: the rounding of the matmuls downstream depends on the layout
        return np.ascontiguousarray(np.swapaxes(_fd.gradient(self._map, q, self.fd_step), -1, -2))

    def jet(self, q):
        """``(point, jacobian, hessian)`` at q, with the leading axes of q.
        Without analytic derivatives all three come from one 17-point
        stencil of ``_fd.jet`` per point, whose centre value is the point;
        its Jacobian equals ``jacobian(q)`` bit for bit."""
        return self._jet(_parameters(q))

    def _jet(self, q):
        if self._derivatives is not None:
            p, jac, hess = self._derivatives(q)
            lead = q.shape[:-1]
            return (_values(p, lead, (3,), _HOOK), _values(jac, lead, (3, 2), _HOOK),
                    _values(hess, lead, (3, 2, 2), _HOOK))
        p, grad, hess = _fd.jet(self._map, q, self.fd_step)
        return (_values(p, q.shape[:-1], (3,), "the patch map"),
                np.ascontiguousarray(np.swapaxes(grad, -1, -2)),
                np.ascontiguousarray(np.moveaxis(hess, -1, -3)))


def _parameters(q):
    """Parameter points of shape (..., 2) as floats."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (2,):
        raise ValueError(f"expected parameter points with 2 coordinates, got shape {q.shape}")
    return q


@dataclass
class FundamentalData:
    """First/second/third fundamental forms and friends at one parameter
    point q, shape (2,), or at each row of an (N, 2) batch q: then every
    field, lazy or not, has a leading axis over the rows.

    The shape layer (point, Jacobian, I, II, B and the normal) is built on
    construction from the patch's jet and one read of the ambient metric
    and its symbols, with one inverse of g per row.  The rest is computed
    on first read and then kept, so a caller that reads only B (the
    finite-difference stencil of dB, say) pays for none of it:

    * ``third``, III = B^T I B, and ``christoffel_first``, the Levi-Civita
      symbols of I by the Gauss formula, cost a few 2x2 products;
    * ``k_intrinsic``, the curvature of I, costs one Riemann tensor of the
      induced metric (finite-difference second partials of I);
    * ``k_ambient_tangent``, the ambient sectional curvature on the tangent
      plane, costs one ambient Riemann tensor;
    * ``k_extrinsic = K_I - K_M(T Sigma)`` costs both.

    Each curvature field is one batched call for all rows.  Connection
    coefficients need only B, III and the symbols of I, so they never pay
    for the curvature layer.
    """

    q: np.ndarray            # (2,) or (N, 2); the fields below lead with the same axes
    point: np.ndarray        # phi(q), 3
    jacobian: np.ndarray     # d phi, 3x2
    first: np.ndarray        # I, 2x2
    second: np.ndarray       # II, 2x2
    shape_operator: np.ndarray  # B, 2x2
    normal: np.ndarray       # N, 3 components, g-unit
    metric: np.ndarray = field(repr=False)  # ambient g at the point, 3x3
    covariant_hessian: np.ndarray = field(repr=False)  # S, 3x2x2
    patch: SurfacePatch = field(repr=False, compare=False)
    ambient: MetricField = field(repr=False, compare=False)

    @cached_property
    def third(self):
        """III = B^T I B."""
        return np.swapaxes(self.shape_operator, -1, -2) @ self.first @ self.shape_operator

    @cached_property
    def christoffel_first(self):
        """Levi-Civita symbols ``Gamma[c, a, b]`` of I, by the Gauss
        formula: the tangential part of ``S_ab`` is ``Gamma^c_ab d_c phi``,
        so ``Gamma^c_ab = I^{cd} g(S_ab, d_d phi)``.  No difference is
        taken beyond the patch's jet; symbols that are not finite raise
        NonFiniteMetric naming the first such point."""
        lead = self.q.shape[:-1]
        tangential = ((np.swapaxes(self.jacobian, -1, -2) @ self.metric)
                      @ self.covariant_hessian.reshape(lead + (3, 4)))
        gram, adj = _det_adjugate(_entries(self.first, 2))
        gam = (_assemble(adj, 2) @ tangential / (gram[:, None, None] if lead else gram)).reshape(
            lead + (2, 2, 2))
        _require_finite(self.q.reshape(-1, 2), gam)
        return gam

    @cached_property
    def k_intrinsic(self):
        """Curvature of I."""
        rm2 = riemann_covariant(induced_metric_field(self.patch, self.ambient), self.q)
        return _scalar(rm2[..., 0, 1, 1, 0] / np.linalg.det(self.first))

    @cached_property
    def k_ambient_tangent(self):
        """Ambient sectional curvature on the tangent plane."""
        return riemann_sectional(self.ambient, self.point,
                                 self.jacobian[..., 0], self.jacobian[..., 1])

    @cached_property
    def k_extrinsic(self):
        """K_e = K_I - K_M(T Sigma)."""
        return self.k_intrinsic - self.k_ambient_tangent


def _frame(q, g, ginv, jac, jac_t):
    """I, its adjugate, its Gram determinant and the oriented g-unit normal
    from the ambient metric, its inverse and the Jacobian (and its
    transpose) at q, or at each row of a batch; checks the rank on every
    row."""
    first = jac_t @ g @ jac
    gram, adj = _det_adjugate(_entries(first, 2))
    # d1 phi x d2 phi annihilates the tangent plane; written out because
    # np.cross costs more than the rest of the frame on 3-vectors
    (a0, b0), (a1, b1), (a2, b2) = _entries(jac, 2)
    cov = _assemble([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], 1)
    if q.ndim == 1:
        n = ginv @ cov
        norm2 = n @ g @ n
        if norm2 <= 0 or gram < RANK_FLOOR:
            raise DegenerateImmersion(f"rank of d phi < 2 at q={q} (gram={gram:.3e})")
        n = n / np.sqrt(norm2)
    else:
        n = (ginv @ cov[..., None])[..., 0]
        norm2 = _quadratic(n, g, n)
        bad = (norm2 <= 0) | (gram < RANK_FLOOR)
        if bad.any():
            k = _first(bad)
            raise DegenerateImmersion(f"rank of d phi < 2 at q={q[k]} (gram={gram[k]:.3e})")
        n = n / np.sqrt(norm2)[:, None]
    return first, _assemble(adj, 2), gram, n


def induced_metric_field(patch, ambient):
    """The first fundamental form as a 2D MetricField on the parameter box.

    Carries analytic first partials whenever both the patch and the ambient
    metric do, so intrinsic curvature goes through the same pipeline as
    ambient curvature with one less coordinate.  Both leaves broadcast over
    (..., 2) points, as the patch does, so a batch of K_I makes one leaf
    call per stencil point of the whole batch.

    It serves ``k_intrinsic``; the immersion-mode connection keeps it as
    sigma only for the chart margin of ``gamma``.  The symbols of I come
    from ``FundamentalData.christoffel_first``.
    """
    def first(q):
        jac = patch.jacobian(q)
        g = ambient.matrix(patch.point(q))
        return np.swapaxes(jac, -1, -2) @ g @ jac

    partials = None
    if patch.has_analytic_partials and ambient.has_analytic_partials:
        def partials(q):
            p, jac, hess = patch.jet(q)
            g = ambient.matrix(p)
            dg = ambient.partials(p)
            dg_along = np.einsum("...kij,...ka->...aij", dg, jac)  # d(g o phi)/dq^a
            term = np.einsum("...ica,...ij,...jb->...cab", hess, g, jac)
            return (term + np.swapaxes(term, -2, -1)
                    + np.einsum("...ia,...cij,...jb->...cab", jac, dg_along, jac))

    return MetricField(2, first, patch.box, partials=partials, fd_step=patch.fd_step,
                       name=f"I[{patch.name}]")


def _fundamental_rows(patch, ambient, q):
    """The shape layer of the immersion at one parameter point q, shape
    (2,), or at each row of an (N, 2) batch: one patch jet, one batched
    read of the ambient symbols and one chain of stacked products.  The
    chart margin, the finiteness of the jet (in place of numpy warnings),
    the ambient checks and the rank are checked on every row, and the error
    names the first failing point."""
    patch.require_inside(q, margin=patch.fd_margin())
    if patch.has_analytic_partials:
        p, jac, hess = patch._jet(q)
    else:  # a map that is infinite at a stencil point is caught below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p, jac, hess = patch._jet(q)
    one = q.ndim == 1
    # one point: a sum of plain floats is finite unless an entry is not, or
    # the sum overflows, which the exact check sorts out
    if not one or not math.isfinite(sum(p.tolist()) + sum(jac.ravel().tolist())
                                    + sum(hess.ravel().tolist())):
        _require_finite(q.reshape(-1, 2), p, jac, hess,
                        what="the patch's point, Jacobian or Hessian")
    g, ginv, gam = _christoffel(ambient, p)
    jac_t = jac.T if one else np.swapaxes(jac, -1, -2)
    first, adj, gram, n = _frame(q, g, ginv, jac, jac_t)

    # covariant second derivative of phi: S^i_ab = phi^i_{,ab} + Gamma^i_jk phi^j_a phi^k_b;
    # one point's Jacobian broadcasts over the index i of Gamma, a batch's is stacked beside it
    lead = q.shape[:-1]
    s = hess + (jac_t @ gam @ jac if one else jac_t[:, None] @ gam @ jac[:, None])
    # II(x, y) = I(Bx, y) with B = grad N, so II = -g(S, N); a stacked
    # matmul rounds each row as the one-point product
    if one:
        second = -((g @ n) @ s.reshape(3, 4)).reshape(2, 2)
    else:
        second = -((g @ n[:, :, None])[:, None, :, 0] @ s.reshape(lead + (3, 4))).reshape(
            lead + (2, 2))
    shape = adj @ second / (gram if one else gram[:, None, None])  # I^{-1} II
    return FundamentalData(
        q=q, point=p, jacobian=jac, first=first, second=second, shape_operator=shape,
        normal=n, metric=g, covariant_hessian=s, patch=patch, ambient=ambient,
    )


def fundamental_forms(patch, ambient, q):
    """Fundamental data of the immersion at one parameter point q: the
    shape layer now, the curvature layer on first read (see
    FundamentalData).  A batch of points goes to the kernel in one call,
    through the immersion-mode connection's ``fundamental``."""
    return _fundamental_rows(patch, ambient, as_point(q, 2))


def gauss_residual(patch, ambient, q):
    """|det B - (K_I - K_M(T Sigma))| at q."""
    data = fundamental_forms(patch, ambient, q)
    return abs(float(np.linalg.det(data.shape_operator)) - data.k_extrinsic)


def surface_from_expressions(fields, box, name="custom-surface"):
    """Build a SurfacePatch from Expressions in (u, v) for ``phi1``,
    ``phi2`` and ``phi3``; a missing or stray name raises.  The map is one
    ``expressions.tree_leaf`` leaf of the components, and the jet one leaf
    of the Jacobian ``[i, a] = d phi^i / d q^a``, the Hessian ``[i, a, b] =
    [i, b, a]`` and the map, in that order, so an undefined value names the
    first failing tree of the Jacobian, then of the Hessian, then of the
    map."""
    phi = trees_by_index(fields, {f"phi{i + 1}": (i,) for i in range(3)}, "surface file")
    if len(phi) < 3:
        raise ValueError("surface file must define phi1, phi2 and phi3")
    uv = ("u", "v")
    first = {(i, a): e.derivative(uv[a]) for (i,), e in phi.items() for a in range(2)}
    second = {(i, a, b): d.derivative(uv[b]) for (i, a), d in first.items() for b in range(a, 2)}
    jet = tree_leaf(uv, (first, (3, 2), ()), (second, (3, 2, 2), ((1, 2),)), (phi, (3,), ()))

    def derivatives(q):
        jac, hess, p = jet(q)
        return p, jac, hess
    return SurfacePatch(tree_leaf(uv, (phi, (3,), ())), box, derivatives=derivatives, name=name)


def dnabla_b(patch, ambient, q, x, y):
    """``(d^nabla B)(x, y)`` for constant-coefficient tangent vectors x, y,
    where ``nabla`` is the Levi-Civita connection of I.  Returns surface
    components."""
    q = as_point(q, 2)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    data = fundamental_forms(patch, ambient, q)
    db = _fd.gradient(lambda qq: fundamental_forms(patch, ambient, qq).shape_operator,
                      q, patch.fd_step)  # db[a] = d_a B
    # the torsion-free connection of I makes this (nabla_x B) y - (nabla_y B) x
    return dnabla(data.shape_operator, db, data.christoffel_first, x, y)


def codazzi_residual(patch, ambient, q, x, y):
    """Norm of ``(d^nabla B)(x, y) + R_{x,y} n`` for tangent vectors x, y.

    ``d^nabla`` uses the Levi-Civita connection of I; the ambient curvature
    term is evaluated through the same tensor pipeline, so the residual is a
    genuine two-sided check of the Codazzi-Mainardi identity.
    """
    q = as_point(q, 2)
    data = fundamental_forms(patch, ambient, q)
    dnb = dnabla_b(patch, ambient, q, x, y)
    lhs = data.jacobian @ dnb

    r_op = riemann_operator(ambient, data.point)
    xa = data.jacobian @ np.asarray(x, dtype=float)
    ya = data.jacobian @ np.asarray(y, dtype=float)
    rn = np.einsum("mijk,i,j,k->m", r_op, xa, ya, data.normal)
    diff = lhs - rn
    return float(np.sqrt(max(diff @ data.metric @ diff, 0.0)))

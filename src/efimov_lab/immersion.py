"""Immersed surface patches: fundamental forms, shape operator, Gauss and
Codazzi residuals.

The shape operator is ``B: x -> D^M_x N`` for the chosen unit normal N (no
sign flip), so on the unit sphere with outward normal B is the identity.  The
second fundamental form is ``II(x, y) = I(Bx, y)`` and the third is
``III(x, y) = I(Bx, By)``.

Evaluators are pure; patches are safe for concurrent reads.  Fundamental
data fill their lazy fields (III, the symbols of I and the curvature layer)
on first read; the fill is idempotent, so concurrent reads of one object are
safe too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _fd
from .ambient import (
    MetricField,
    _christoffel,
    _require_finite,
    as_point,
    dnabla,
    riemann_covariant,
    riemann_operator,
    riemann_sectional,
)
from .errors import DegenerateImmersion, PointOutsideChart

RANK_FLOOR = 1e-10


class SurfacePatch:
    """A parametrized surface patch ``phi: (u, v) -> chart point``.

    Parameters
    ----------
    chart_map : callable, (2,) -> (3,) chart coordinates of the image point.
    box : ChartBox of the (u, v) parameter domain.
    derivatives : optional callable, (2,) -> ``(jacobian, hessian)``: the
        (3, 2) array ``d phi^i / d q^a`` and the (3, 2, 2) array
        ``d^2 phi^i / d q^a d q^b``.
    orientation : +1 or -1; flips the unit normal.

    Without ``derivatives`` the partials are central differences at step
    ``fd_step``.
    """

    fd_step = 1e-4

    def __init__(self, chart_map, box, derivatives=None, orientation=1, name=""):
        self._map = chart_map
        self.box = box
        self._derivatives = derivatives
        self.orientation = int(orientation)
        self.name = name

    @property
    def has_analytic_partials(self):
        return self._derivatives is not None

    def fd_margin(self):
        return 0.0 if self._derivatives is not None else 2.0 * self.fd_step

    def require_inside(self, q, margin=0.0):
        if not self.box.contains(q, margin=margin):
            raise PointOutsideChart(
                f"parameter point {np.asarray(q)} outside patch box of {self.name or 'patch'}"
            )

    def point(self, q):
        q = as_point(q, 2)
        return np.asarray(self._map(q), dtype=float)

    def jacobian(self, q):
        q = as_point(q, 2)
        if self._derivatives is not None:
            return np.asarray(self._derivatives(q)[0], dtype=float)
        # in C order: the rounding of the matmuls downstream depends on the layout
        return np.ascontiguousarray(_fd.gradient(self._map, q, self.fd_step).T)

    def jet(self, q):
        """``(point, jacobian, hessian)`` at q.  Without analytic derivatives
        all three come from one 17-point stencil of ``_fd.jet``, whose centre
        value is the point; its Jacobian equals ``jacobian(q)`` bit for bit."""
        q = as_point(q, 2)
        if self._derivatives is not None:
            jac, hess = self._derivatives(q)
            return (np.asarray(self._map(q), dtype=float), np.asarray(jac, dtype=float),
                    np.asarray(hess, dtype=float))
        p, grad, hess = _fd.jet(_fd.pointwise(self._map), q, self.fd_step)
        return (np.asarray(p, dtype=float), np.ascontiguousarray(grad.T),
                np.ascontiguousarray(np.moveaxis(hess, 2, 0)))

    def flipped(self):
        return SurfacePatch(self._map, self.box, self._derivatives,
                            orientation=-self.orientation, name=self.name)


@dataclass
class FundamentalData:
    """First/second/third fundamental forms and friends at one parameter point.

    The shape layer (point, Jacobian, I, II, B and the normal) is built on
    construction from the patch's jet and one read of the ambient metric
    and its partials, with one inverse of g.  The rest is computed on first
    read and then kept, so a caller that reads only B (the finite-difference
    stencil of dB, say) pays for none of it:

    * ``third``, III = B^T I B, and ``christoffel_first``, the Levi-Civita
      symbols of I by the Gauss formula, cost a few 2x2 products;
    * ``k_intrinsic``, the curvature of I, costs one Riemann tensor of the
      induced metric (finite-difference second partials of I);
    * ``k_ambient_tangent``, the ambient sectional curvature on the tangent
      plane, costs one ambient Riemann tensor;
    * ``k_extrinsic = K_I - K_M(T Sigma)`` costs both.

    Connection coefficients need only B, III and the symbols of I, so they
    never pay for the curvature layer.
    """

    q: np.ndarray
    point: np.ndarray
    jacobian: np.ndarray
    first: np.ndarray        # I, 2x2
    second: np.ndarray       # II, 2x2
    shape_operator: np.ndarray  # B, 2x2
    normal: np.ndarray       # N, 3 components, g-unit
    metric: np.ndarray = field(repr=False)  # ambient g at the point, 3x3
    covariant_hessian: np.ndarray = field(repr=False)  # S, 3x2x2 (fundamental_forms)
    patch: SurfacePatch = field(repr=False, compare=False)
    ambient: MetricField = field(repr=False, compare=False)

    @cached_property
    def third(self):
        """III = B^T I B."""
        return self.shape_operator.T @ self.first @ self.shape_operator

    @cached_property
    def christoffel_first(self):
        """Levi-Civita symbols ``Gamma[c, a, b]`` of I, by the Gauss
        formula: the tangential part of ``S_ab`` is ``Gamma^c_ab d_c phi``,
        so ``Gamma^c_ab = I^{cd} g(S_ab, d_d phi)``.  No difference is
        taken beyond the patch's jet; symbols that are not finite raise
        NonFiniteMetric."""
        tangential = (self.jacobian.T @ self.metric) @ self.covariant_hessian.reshape(3, 4)
        (f11, f12), (f21, f22) = self.first.tolist()
        gram = f11 * f22 - f12 * f21
        gam = (np.array([[f22, -f12], [-f21, f11]]) @ tangential / gram).reshape(2, 2, 2)
        _require_finite(self.q[None], gam)
        return gam

    @cached_property
    def k_intrinsic(self):
        """Curvature of I."""
        rm2 = riemann_covariant(induced_metric_field(self.patch, self.ambient), self.q)
        return float(rm2[0, 1, 1, 0] / np.linalg.det(self.first))

    @cached_property
    def k_ambient_tangent(self):
        """Ambient sectional curvature on the tangent plane."""
        return riemann_sectional(self.ambient, self.point,
                                 self.jacobian[:, 0], self.jacobian[:, 1])

    @cached_property
    def k_extrinsic(self):
        """K_e = K_I - K_M(T Sigma)."""
        return self.k_intrinsic - self.k_ambient_tangent


def _frame(patch, q, g, ginv, jac):
    """I, its Gram determinant and the oriented g-unit normal from the
    ambient metric, its inverse and the Jacobian at q; checks the rank
    once."""
    first = jac.T @ g @ jac
    (f11, f12), (f21, f22) = first.tolist()
    gram = f11 * f22 - f12 * f21
    # d1 phi x d2 phi annihilates the tangent plane; written out because
    # np.cross costs more than the rest of the frame on 3-vectors
    (a0, b0), (a1, b1), (a2, b2) = jac.tolist()
    cov = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    n = ginv @ cov
    norm2 = n @ g @ n
    if norm2 <= 0 or gram < RANK_FLOOR:
        raise DegenerateImmersion(f"rank of d phi < 2 at q={q} (gram={gram:.3e})")
    return first, gram, patch.orientation * n / np.sqrt(norm2)


def induced_metric_field(patch, ambient):
    """The first fundamental form as a 2D MetricField on the parameter box.

    Carries analytic first partials whenever both the patch and the ambient
    metric do, so intrinsic curvature goes through the same pipeline as
    ambient curvature with one less coordinate.  The patch takes one
    point at a time, so both leaves are pointwise.

    It serves ``k_intrinsic``; the immersion-mode connection keeps it as
    sigma only for the III partials and the chart margin of ``gamma``.  The
    symbols of I come from ``FundamentalData.christoffel_first``.
    """
    @_fd.pointwise
    def first(q):
        jac = patch.jacobian(q)
        g = ambient.matrix(patch.point(q))
        return jac.T @ g @ jac

    partials = None
    if patch.has_analytic_partials and ambient.has_analytic_partials:
        @_fd.pointwise
        def partials(q):
            p, jac, hess = patch.jet(q)
            g = ambient.matrix(p)
            dg = ambient.partials(p)
            dg_along = np.einsum("kij,ka->aij", dg, jac)  # d(g o phi)/dq^a
            term = np.einsum("ica,ij,jb->cab", hess, g, jac)
            out = term + np.swapaxes(term, 1, 2) + np.einsum("ia,cij,jb->cab", jac, dg_along, jac)
            return out

    return MetricField(2, first, patch.box, partials=partials, fd_step=patch.fd_step,
                       name=f"I[{patch.name}]")


def fundamental_forms(patch, ambient, q):
    """Fundamental data of the immersion at parameter point q: the shape
    layer now, the curvature layer on first read (see FundamentalData)."""
    q = as_point(q, 2)
    patch.require_inside(q, margin=patch.fd_margin())
    p, jac, hess = patch.jet(q)
    g, ginv, gam = _christoffel(ambient, p)
    first, gram, n = _frame(patch, q, g, ginv, jac)

    # covariant second derivative of phi: S^i_ab = phi^i_{,ab} + Gamma^i_jk phi^j_a phi^k_b
    s = hess + jac.T @ gam @ jac
    # II(x, y) = I(Bx, y) with B = grad N, so II = -g(S, N)
    second = -((g @ n) @ s.reshape(3, 4)).reshape(2, 2)
    (f11, f12), (f21, f22) = first.tolist()
    shape = np.array([[f22, -f12], [-f21, f11]]) @ second / gram  # I^{-1} II
    return FundamentalData(
        q=q, point=p, jacobian=jac, first=first, second=second, shape_operator=shape,
        normal=n, metric=g, covariant_hessian=s, patch=patch, ambient=ambient,
    )


def gauss_residual(patch, ambient, q):
    """|det B - (K_I - K_M(T Sigma))| at q."""
    data = fundamental_forms(patch, ambient, q)
    return abs(float(np.linalg.det(data.shape_operator)) - data.k_extrinsic)


def surface_from_expressions(fields, box, name="custom-surface"):
    """Build a SurfacePatch from expressions for the map components.

    ``fields`` maps ``phi1``, ``phi2``, ``phi3`` to Expression objects in the
    variables (u, v); derivatives fall back to central differences.
    """
    for key in ("phi1", "phi2", "phi3"):
        if key not in fields:
            raise ValueError(f"surface file must define {key}")

    def chart_map(q):
        values = {"u": q[0], "v": q[1]}
        return np.array([fields["phi1"](**values), fields["phi2"](**values),
                         fields["phi3"](**values)])

    return SurfacePatch(chart_map, box, name=name)


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

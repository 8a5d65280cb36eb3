"""Metrics on coordinate charts: Christoffel symbols, Riemann tensor, sectional
curvature and sectional extremes.

The machinery is dimension-generic.  Ambient spaces use dimension 3; the same
code path, restricted to dimension 2, computes intrinsic curvatures of induced
surface metrics, so there is a single finite-difference error model for the
whole pipeline.

All evaluators are pure and deterministic; concurrent read-only use from
multiple threads is safe (no shared mutable state).

Conventions
-----------
* ``g(p)`` is the metric matrix ``g_ij`` at chart point ``p``.
* ``partials(p)[k, i, j]`` is the coordinate derivative ``d g_ij / d x^k``.
* The curvature tensor is ``R(X,Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z`` and
  its covariant form is ``Rm[i,j,k,l] = g(R(e_i,e_j)e_k, e_l)``, so the
  sectional curvature of a plane spanned by x, y is

      K(x, y) = Rm(x, y, y, x) / (|x|^2 |y|^2 - <x,y>^2),

  which makes the round unit sphere come out at K = +1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _fd
from .errors import DegeneratePlane, NonInvertibleMetric, PointOutsideChart

DET_FLOOR = 1e-12


def as_point(p, dim):
    """Coerce an array-like to a float ndarray of length ``dim``."""
    a = np.asarray(p, dtype=float)
    if a.shape != (dim,):
        raise ValueError(f"expected a point with {dim} coordinates, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ChartBox:
    """Per-axis closed bounds of a coordinate chart."""

    lo: tuple
    hi: tuple

    @staticmethod
    def cube(dim, half_width):
        return ChartBox((-half_width,) * dim, (half_width,) * dim)

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, p, margin=0.0):
        # plain float comparisons: this runs at every RK4 stage of every trace
        for x, lo, hi in zip(p, self.lo, self.hi, strict=True):
            x = float(x)
            if not (x >= lo + margin - 1e-15 and x <= hi - margin + 1e-15):
                return False
        return True


class MetricField:
    """A Riemannian metric on one coordinate chart.

    Parameters
    ----------
    dim : chart dimension (3 for ambient spaces, 2 for surface metrics).
    matrix : callable, point -> (dim, dim) symmetric positive matrix.
    box : ChartBox with per-axis bounds.
    partials : optional callable, point -> (dim, dim, dim) array of first
        coordinate derivatives ``dg[k, i, j] = d g_ij / d x^k``.
    second_partials : optional callable, point -> (dim, dim, dim, dim) array
        ``d2g[k, l, i, j] = d^2 g_ij / d x^k d x^l``.
    fd_step : finite-difference step used for any missing derivative.
    """

    def __init__(self, dim, matrix, box, partials=None, second_partials=None,
                 fd_step=1e-3, name=""):
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
        if not self.box.contains(p, margin=margin):
            raise PointOutsideChart(
                f"point {np.asarray(p)} outside chart box of {self.name or 'metric'}"
                + (f" (margin {margin})" if margin else "")
            )

    def fd_margin(self):
        """Stencil reach of the widest finite-difference formula in use."""
        if self._partials is not None and self._second_partials is not None:
            return 0.0
        return 2.0 * self.fd_step

    def matrix(self, p):
        p = as_point(p, self.dim)
        g = np.asarray(self._matrix(p), dtype=float)
        return g

    def inverse(self, p):
        return _checked_inverse(self.matrix(p), p)

    def partials(self, p):
        p = as_point(p, self.dim)
        if self._partials is not None:
            return np.asarray(self._partials(p), dtype=float)
        return _fd.gradient(self._matrix, p, self.fd_step)

    def jet(self, p):
        """``(g, dg, d2g)`` at p.  A metric without analytic derivatives
        takes all three from one shared stencil of ``_fd.jet``: 37 metric
        evaluations in 3D, 17 in 2D.  One with analytic first partials only
        differences them for ``d2g``."""
        p = as_point(p, self.dim)
        if self._partials is None and self._second_partials is None:
            g, dg, d2g = _fd.jet(self._matrix, p, self.fd_step)
            return np.asarray(g, dtype=float), dg, d2g
        g, dg = self.matrix(p), self.partials(p)
        if self._second_partials is not None:
            return g, dg, np.asarray(self._second_partials(p), dtype=float)
        # d2g[k, l] = d_k (dg[l])
        d2 = _fd.gradient(self._partials, p, self.fd_step)
        return g, dg, 0.5 * (d2 + np.swapaxes(d2, 0, 1))


def _checked_inverse(g, p):
    det = np.linalg.det(g)
    if abs(det) < DET_FLOOR:
        raise NonInvertibleMetric(f"|det g| = {abs(det):.3e} below floor at {p}")
    return np.linalg.inv(g)


def christoffel(metric, p):
    """Levi-Civita symbols ``Gamma[k, i, j]``, symmetric in (i, j).

    Uses analytic partials when the metric carries them, otherwise central
    differences with one Richardson step.
    """
    p = as_point(p, metric.dim)
    metric.require_inside(p, margin=metric.fd_margin())
    ginv = metric.inverse(p)
    dg = metric.partials(p)
    # Gamma^k_ij = 1/2 g^{km} (d_i g_mj + d_j g_im - d_m g_ij)
    term = np.einsum("imj->ijm", dg) + np.einsum("jim->ijm", dg) - np.einsum("mij->ijm", dg)
    return 0.5 * np.einsum("km,ijm->kij", ginv, term)


def _curvature(metric, p):
    """``(g, Gamma, R)`` at p from one jet of the metric: ``g_ij``, the
    Levi-Civita symbols ``Gamma[k, i, j]`` and the curvature operator
    coefficients ``R[m, i, j, k]``."""
    p = as_point(p, metric.dim)
    metric.require_inside(p, margin=metric.fd_margin())
    g, dg, d2g = metric.jet(p)
    ginv = _checked_inverse(g, p)

    # dGamma[i, k, j, l] = d_i Gamma^k_jl, assembled from g, dg, d2g directly
    # so no finite differences of Gamma are ever nested.
    dginv = -np.einsum("la,iab,bm->ilm", ginv, dg, ginv)
    sym = np.einsum("jml->jlm", dg) + np.einsum("ljm->jlm", dg) - np.einsum("mjl->jlm", dg)
    dsym = (np.einsum("ijml->ijlm", d2g) + np.einsum("iljm->ijlm", d2g)
            - np.einsum("imjl->ijlm", d2g))
    dgamma = 0.5 * (np.einsum("ikm,jlm->ikjl", dginv, sym)
                    + np.einsum("km,ijlm->ikjl", ginv, dsym))

    gam = 0.5 * np.einsum("km,jlm->kjl", ginv, sym)
    # R^m_{ijk} = d_i Gamma^m_jk - d_j Gamma^m_ik + Gamma^m_ia Gamma^a_jk
    #             - Gamma^m_ja Gamma^a_ik
    r = (np.einsum("imjk->mijk", dgamma) - np.einsum("jmik->mijk", dgamma)
         + np.einsum("mia,ajk->mijk", gam, gam) - np.einsum("mja,aik->mijk", gam, gam))
    return g, gam, r


def riemann_operator(metric, p):
    """Curvature operator coefficients ``R[m, i, j, k]`` with
    ``R(e_i, e_j) e_k = R[m, i, j, k] e_m``."""
    return _curvature(metric, p)[2]


def dnabla(a, da, gam, x, y):
    """Exterior covariant derivative of an endomorphism field A,

        (d^nabla A)(x, y) = d_x(A y) - d_y(A x) + Gamma(x, A y) - Gamma(y, A x),

    for constant-coefficient tangent vectors x, y at one point.  ``a`` is A
    there, ``da[k] = d A / d x^k`` and ``gam[k, i, j]`` are the connection
    coefficients, ``nabla_{e_i} e_j = gam[k, i, j] e_k``.
    """
    return (np.einsum("i,ikj,j->k", x, da, y) - np.einsum("i,ikj,j->k", y, da, x)
            + np.einsum("kij,i,j->k", gam, x, a @ y) - np.einsum("kij,i,j->k", gam, y, a @ x))


def riemann_covariant(metric, p):
    """Fully covariant curvature ``Rm[i, j, k, l] = g(R(e_i,e_j)e_k, e_l)``."""
    g, _, r = _curvature(metric, p)
    return np.einsum("lm,mijk->ijkl", g, r)


def gauss_curvature(metric2d, p):
    """Gaussian curvature ``Rm[0, 1, 1, 0] / det g`` of a 2D metric at p."""
    rm = riemann_covariant(metric2d, p)
    return float(rm[0, 1, 1, 0] / np.linalg.det(metric2d.matrix(p)))


def riemann_symmetry_residuals(g, rm):
    """Max violations of the four classical symmetries of ``rm``."""
    a1 = np.max(np.abs(rm + np.einsum("jikl->ijkl", rm)))
    a2 = np.max(np.abs(rm + np.einsum("ijlk->ijkl", rm)))
    pair = np.max(np.abs(rm - np.einsum("klij->ijkl", rm)))
    bianchi = np.max(np.abs(rm + np.einsum("jkil->ijkl", rm) + np.einsum("kijl->ijkl", rm)))
    scale = max(1.0, float(np.max(np.abs(rm))))
    return {
        "antisym_first_pair": float(a1) / scale,
        "antisym_second_pair": float(a2) / scale,
        "pair_swap": float(pair) / scale,
        "first_bianchi": float(bianchi) / scale,
    }


def riemann_sectional(metric, p, x, y):
    """Sectional curvature of the plane spanned by tangent vectors x, y."""
    p = as_point(p, metric.dim)
    g = metric.matrix(p)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = (x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2
    if not gram >= 1e-12 * max(1.0, float(x @ g @ x)) * max(1.0, float(y @ g @ y)):
        raise DegeneratePlane(f"plane spanned by {x} and {y} is degenerate (gram={gram:.3e})")
    num = np.einsum("ijkl,i,j,k,l->", riemann_covariant(metric, p), x, y, y, x)
    return float(num / gram)


_PAIRS = ((0, 1), (0, 2), (1, 2))


def curvature_operator_matrices(metric, p):
    """Quadratic form S and Gram matrix G of the curvature operator on
    Lambda^2 in the ordered basis (e1^e2, e1^e3, e2^e3).

    The Rayleigh quotient of (S, G) on a decomposable 2-vector x^y equals the
    sectional curvature K(x, y); in dimension 3 every 2-vector is
    decomposable, so the generalized eigenvalues of (S, G) are the sectional
    extremes.
    """
    p = as_point(p, metric.dim)
    return _operator_matrices(metric.matrix(p), riemann_covariant(metric, p))


def _operator_matrices(g, rm):
    m = len(_PAIRS)
    s = np.empty((m, m))
    gram = np.empty((m, m))
    for a, (i, j) in enumerate(_PAIRS):
        for b, (k, l) in enumerate(_PAIRS):
            s[a, b] = rm[i, j, l, k]
            gram[a, b] = g[i, k] * g[j, l] - g[i, l] * g[j, k]
    s = 0.5 * (s + s.T)
    gram = 0.5 * (gram + gram.T)
    return s, gram


def sectional_range(metric, p):
    """(K_min, K_max) over all tangent 2-planes at p.

    Computed as the eigenvalue extremes of the curvature operator on
    Lambda^2 with its metric-induced inner product.
    """
    s, gram = curvature_operator_matrices(metric, p)
    vals = _pencil_eigvals(s, gram)
    return float(vals[0]), float(vals[-1])


def _pencil_eigvals(s, gram):
    """Ascending eigenvalues of the symmetric-definite pencil (S, G).

    With G = L L^T, they are the eigenvalues of L^{-1} S L^{-T} (Golub-Van
    Loan, *Matrix Computations*, 8.7).  A G that is not positive definite
    (an indefinite or degenerate metric) raises NonInvertibleMetric.
    """
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NonInvertibleMetric(
            "the metric's Gram matrix on 2-planes is not positive definite") from None
    half = np.linalg.solve(lower, s)  # L^{-1} S
    c = np.linalg.solve(lower, half.T)  # L^{-1} (L^{-1} S)^T = L^{-1} S L^{-T}
    return np.linalg.eigvalsh(0.5 * (c + c.T))


@dataclass
class CurvatureSample:
    """All curvature data computed at a single chart point."""

    point: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    k_min: float
    k_max: float
    symmetry_residuals: dict = field(default_factory=dict)


def curvature_sample(metric, p):
    """Christoffel symbols, curvature, sectional extremes and symmetry
    residuals at p, all from one jet of the metric."""
    p = as_point(p, metric.dim)
    g, gam, r = _curvature(metric, p)
    rm = np.einsum("lm,mijk->ijkl", g, r)
    s, gram = _operator_matrices(g, rm)
    vals = _pencil_eigvals(s, gram)
    return CurvatureSample(
        point=p,
        gamma=gam,
        riemann=rm,
        k_min=float(vals[0]),
        k_max=float(vals[-1]),
        symmetry_residuals=riemann_symmetry_residuals(g, rm),
    )


def metric_from_expressions(fields, box, dim=3, variables=("u", "v", "w"), name="custom"):
    """Build a MetricField from a dict of coefficient Expressions.

    ``fields`` maps names like ``g11``, ``g12`` ... to Expression objects in
    the given variables; missing off-diagonal entries default to zero.
    """
    vnames = variables[:dim]

    def matrix(p):
        values = dict(zip(vnames, p))
        g = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(i, dim):
                key = f"g{i + 1}{j + 1}"
                alt = f"g{j + 1}{i + 1}"
                if key in fields:
                    g[i, j] = fields[key](**values)
                elif alt in fields:
                    g[i, j] = fields[alt](**values)
                g[j, i] = g[i, j]
        return g

    return MetricField(dim, matrix, box, name=name)

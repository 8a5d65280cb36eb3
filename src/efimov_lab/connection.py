"""The compatible connection with torsion on a surface, its bound constants,
and the non-existence-hypothesis verdicts.

:class:`SurfaceConnectionData` is the connection.  It has one subclass per
way of owning one, and its ``from_*`` constructors return that subclass:

* immersion mode (:meth:`~SurfaceConnectionData.from_immersion`): a surface
  patch in an ambient 3-metric.  The connection is
  ``D~_x y = B^{-1} D_x(B y)`` for the shape operator B and the Levi-Civita
  connection D of the induced metric; it is compatible with the third
  fundamental form and its torsion is controlled by the ambient pinching.
* operator mode (:meth:`~SurfaceConnectionData.from_operator`): an abstract
  pair (2D metric sigma, symmetric endomorphism field B) with the same
  formula; this is the hyperbolic Monge-Ampere setup.
* torsion mode (:meth:`~SurfaceConnectionData.from_metric_and_torsion`): an
  abstract pair (2D metric, torsion vector field).  The connection is the
  unique metric-compatible one with that torsion (Levi-Civita plus the
  canonical contorsion correction).

Torsion 2-forms are identified with vector fields through the metric the
connection preserves: ``tau := T(f1, f2)`` for a positively oriented
orthonormal frame (f1, f2).  A torsion field maps (..., 2) points to
(..., 2) vectors, and one that returns a single vector for every point (a
constant) is broadcast; any other shape raises ValueError naming the field
(the leaf rule of the ``ambient`` conventions).  A callable of one (2,)
point is wrapped in ``_fd.pointwise``.  The B field of operator mode follows
the same contract with (..., 2, 2) matrices.

Batch contract: ``gamma``, ``third_form``, ``torsion_vector``, ``curvature``,
``area_density`` and the III-norms ``norm``, ``unit`` and ``torsion_norm``
take one point of shape (2,) or a batch of shape (N, 2) (``norm`` and
``unit`` with one vector per row), and for a batch every result gains a
leading axis over the rows.
Every mode evaluates a batch in one vectorised pass of the formulas it
applies to one point, so each row equals the one-point result bit for bit.
Torsion mode runs its 2x2 formulas on Python floats at one point; on a
batch, ``gamma`` runs them over a stacked entry axis (the 8 lowered symbols
as one (8, N) array, the 8 coefficients as two broadcast products, all
elementwise in the float formula's order) and the determinant, J and the
frame on (N,) arrays.  The other modes use stacked matrices whose matmuls
round each row as the one-point product; the checks (chart margin,
positive definite III, finite coefficients, |det B|, the rank of the
immersion, a finite non-zero vector) hold on every row, and the error names
the first failing point.
Torsion mode reads III and the torsion once per batch.  Operator mode reads
B once for ``b_matrix``, ``b_tilde``, ``third_form`` and K~; its ``gamma``
reads B and sigma's symbols once and B once more for ``dB``
(``b_matrix_partials``, central differences in one stacked call per batch:
the 8 stencil points of every row at once).
Immersion mode inherits that ``gamma``, with B and sigma's symbols from one
read of the fundamental data (``FundamentalData.christoffel_first``, exact
by the Gauss formula, where operator mode differentiates sigma through
``christoffel``), and reads III and K~ from the same kernel: a batch is
one call of ``immersion._fundamental_rows`` per read.

Everything here is a pure evaluator over read-only inputs, and verdicts are
plain value objects.  The only mutable state is the immersion mode's memo
of fundamental data, a ``functools.lru_cache`` of ``MEMO_SIZE`` entries
keyed on the parameter point.  It serves one-point reads only, through
``immersion.fundamental_forms``, at points that callers re-request close
together: a one-point ``gamma`` reads B and the symbols of I at a point
from one entry, and ``torsion_vector`` then reads III there; the 8 points
of the dB stencil read only B, so they never build III or the symbols.
Batches go to the kernel and never touch it.  Its fixed size keeps long
traces in constant memory, and it is safe for concurrent reads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _fd
from .ambient import (
    DET_FLOOR,
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
    as_points,
    dnabla,
    gauss_curvature,
    sectional_range,
)
from .errors import (
    DegenerateShapeOperator,
    DegenerateVector,
    InvalidPinching,
    ModeUnsupported,
    NonInvertibleMetric,
)
from .immersion import _fundamental_rows, fundamental_forms, induced_metric_field

DET_B_FLOOR = 1e-10
# finite-difference step of B, III and vector fields over the surface chart
FD_STEP = 1e-4
MEMO_SIZE = 64  # fundamental data kept per immersion-mode connection
# finite-difference step of the torsion curl in torsion-mode K~; its stencil
# reaches this far (plus the metric's own stencil) around each point
CURVATURE_FD_STEP = 1e-3
_IJM = tuple(itertools.product((0, 1), repeat=3))  # (i, j, m) in row-major order
# flat indices of d_i g_mj, d_j g_im and d_m g_ij in the (8,) partials, one
# per lowered symbol Gamma_ijm of _IJM, and of g22, g12, g21, g11 in the (4,)
# metric: the stacked entry axes of torsion-mode gamma on a batch
_DG_IMJ, _DG_JIM, _DG_MIJ = np.array(
    [(4 * i + 2 * m + j, 4 * j + 2 * i + m, 4 * m + 2 * i + j) for i, j, m in _IJM]).T
_ADJUGATE = np.array([3, 1, 2, 0])


# ---------------------------------------------------------------------------
# small 2D helpers


def _sqrt(x):
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def complex_structure(g):
    """Matrix of the rotation J by +pi/2 for a 2x2 metric g, or for each
    metric of an (N, 2, 2) stack:
    (Jx)^c = sqrt(det g) eps_{ab} g^{bc} x^a, which is
    ((-g21, -g22), (g11, g12)) / sqrt(det g)."""
    return _assemble(_rotation(_entries(g, 2)), 2)


def _rotation(g, points=None):
    """The nested entries of J for those of g, floats or (N,) arrays; an
    error names the first failing row, or its point when ``points`` are given."""
    (g11, g12), (g21, g22) = g
    s = _sqrt(_metric_det(g11, g12, g21, g22, points))
    return [[-g21 / s, -g22 / s], [g11 / s, g12 / s]]


def _metric_det(g11, g12, g21, g22, points=None):
    """det g of a 2x2 surface metric, which must be positive definite; for
    entries given as arrays, the determinant of each row, and the error
    names the first failing row (in row-major order), or its point when
    ``points`` are given."""
    det = g11 * g22 - g12 * g21
    if isinstance(det, float):
        if g11 > 0.0 and det > DET_FLOOR:
            return det
        where = "" if points is None else f" at {points}"
    else:
        ok = (g11 > 0.0) & (det > DET_FLOOR)
        if ok.all():
            return det
        k = _first(~ok)
        g11, det = np.ravel(g11)[k], det.ravel()[k]
        where = f" at row {k}" if points is None else f" at {np.reshape(points, (-1, 2))[k]}"
    raise NonInvertibleMetric(
        f"2x2 metric is not positive definite{where}: g11 = {g11:.3e}, det g = {det:.3e}")


def _positive_det(g, q):
    """``_metric_det`` of the 2x2 metric g at q, or of each metric of a
    stack at the rows of a batch q."""
    (g11, g12), (g21, g22) = _entries(g, 2)
    return _metric_det(g11, g12, g21, g22, q)


def _torsion_from_gamma(gam, iii, q):
    """Torsion vector ``(Gamma_12 - Gamma_21) / sqrt(det III)`` of the
    connection coefficients ``gam[..., k, i, j]``, at one point q or at each
    row of a batch; NonInvertibleMetric names the first point where III is
    not positive definite (III_11 <= 0, or det III not finite or not above
    the floor)."""
    det = np.linalg.det(iii)
    ok = (iii[..., 0, 0] > 0.0) & np.isfinite(det) & (det > DET_FLOOR)
    if not ok.all():
        k = _first(~ok)
        raise NonInvertibleMetric(
            f"III is not positive definite at {q[k]}: det III = {np.asarray(det)[k]:.3e}")
    return (gam[..., 0, 1] - gam[..., 1, 0]) / np.sqrt(det)[..., None]


def _inverse_shape_operator(b, q):
    """B^{-1} of a 2x2 B in closed form, or of each B of a stack at the
    points q; DegenerateShapeOperator when |det B| is below the floor, naming
    the first such point."""
    det, adj = _det_adjugate(_entries(b, 2))
    bad = abs(det) < DET_B_FLOOR  # a bool at one point
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        k = _first(bad)
        raise DegenerateShapeOperator(
            f"|det B| = {abs(np.asarray(det)[k]):.3e} below floor at q={q[k]}")
    (a11, a12), (a21, a22) = adj
    return _assemble([[a11 / det, a12 / det], [a21 / det, a22 / det]], 2)


def orthonormal_frame(g):
    """Gram-Schmidt frame (f1, f2) of a 2x2 metric, positively oriented:
    ``f[a]`` is the a-th frame vector; for a stack of metrics, shape
    (..., 2, 2), the frame of each."""
    (g11, g12), (g21, g22) = _entries(g, 2)
    s = _sqrt(_metric_det(g11, g12, g21, g22) / g11)
    return _assemble([[1.0 / _sqrt(g11), 0.0 * g11], [-g12 / g11 / s, 1.0 / s]], 2)


# ---------------------------------------------------------------------------
# the connection: one class per mode


class SurfaceConnectionData:
    """A surface with a metric-compatible connection with torsion.

    Construct with one of :meth:`from_immersion`, :meth:`from_operator`,
    :meth:`from_metric_and_torsion`; each returns the class of its mode.
    Every mode class sets ``mode``, ``name`` and ``box`` and defines
    ``third_form``, ``gamma``, ``torsion_vector`` and ``_curvature``.  The
    shape accessors here raise ModeUnsupported; the modes that have a shape
    operator override them.
    """

    @staticmethod
    def from_immersion(patch, ambient):
        return _ImmersionProvider(patch, ambient)

    @staticmethod
    def from_operator(sigma_field, b_field, name=""):
        return _OperatorProvider(sigma_field, b_field, name=name)

    @staticmethod
    def from_metric_and_torsion(iii_field, tau, name=""):
        return _TorsionProvider(iii_field, tau, name=name)

    # -- mode-generic ---------------------------------------------------------

    def contains(self, q, margin=0.0):
        return self.box.contains(as_point(q, 2), margin=margin)

    def torsion_from_coefficients(self, q):
        """Torsion vector recovered from the connection coefficients."""
        q = as_points(q, 2)
        return _torsion_from_gamma(self.gamma(q), self.third_form(q), q)

    def torsion_norm(self, q):
        return self.norm(q, self.torsion_vector(q))

    def complex_structure(self, q):
        return complex_structure(self.third_form(q))

    def area_density(self, q):
        """sqrt(det III) at q, or at each row of an (N, 2) batch."""
        return _sqrt(_positive_det(self.third_form(q), as_points(q, 2)))

    def norm(self, q, x):
        """III-length of the vector x at q, or of each row of (N, 2) vectors
        at the rows of an (N, 2) batch q; DegenerateVector names the first
        row that is not finite or has no finite length."""
        q = as_points(q, 2)
        g = self.third_form(q)
        _positive_det(g, q)
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            xgx = _quadratic(x, g, x)
        finite = np.isfinite(xgx)
        if not finite.all():
            k = _first(~finite)
            x, q = np.broadcast_arrays(x, q)
            raise DegenerateVector(f"tangent vector {x[k]} has no finite length at q={q[k]}")
        # III is positive definite here, so only rounding can make x.g.x < 0
        return _scalar(np.sqrt(np.maximum(xgx, 0.0)))

    def unit(self, q, x):
        """x over its III-length, at one point or at each row of a batch."""
        x = np.asarray(x, dtype=float)
        n = self.norm(q, x)
        zero = np.equal(n, 0.0)
        if zero.any():
            k = _first(zero)
            raise DegenerateVector(f"cannot normalise the zero vector at q={as_points(q, 2)[k]}")
        return x / np.asarray(n)[..., None]

    def curvature(self, q):
        """K~ at q, or at each row of an (N, 2) batch, in closed form per
        mode: ``K_I / K_e`` (immersion), ``K_sigma / det B`` (operator), and
        Cartan's structure equation on III and the torsion (torsion mode)."""
        return self._curvature(q)

    # -- shape data, where the mode has it ------------------------------------

    def b_matrix(self, q):
        raise ModeUnsupported("shape operator requires immersion or operator mode")

    def b_tilde(self, q):
        raise ModeUnsupported("inverse shape operator requires immersion or operator mode")

    def fundamental(self, q):
        raise ModeUnsupported("fundamental data requires immersion mode")


class _TorsionProvider(SurfaceConnectionData):
    """III + torsion vector field tau: the metric connection with that torsion."""

    mode = "torsion"

    def __init__(self, iii_field, tau, name=""):
        self.iii_field = iii_field
        self.tau = tau
        self.name = name or iii_field.name
        self.box = iii_field.box

    def third_form(self, q):
        return self.iii_field.matrix(q)

    def gamma(self, q):
        """``Gamma~^k_ij = g^{km} (Gamma_ijm + C_ijm)`` in 2x2 arithmetic:
        ``Gamma_ijm`` are the lowered Levi-Civita symbols of III and
        ``C_ijm = (omega_ij t_m - omega_jm t_i + omega_mi t_j) / 2`` the
        lowered contorsion of the torsion ``T(x, y) = omega(x, y) tau``, with
        ``t = III(tau, .)`` and the area form ``omega``.

        One point runs the formulas on Python floats.  A batch runs the same
        operations over a stacked entry axis: the 8 lowered symbols are one
        (8, N) array gathered from the partials by three fixed index
        vectors, and the 8 coefficients are two broadcast products of the
        (2, 2, N) closed-form inverse with the symbols' pairs.  Every step
        is elementwise and in the float formula's order (no matmul or
        einsum), so each row equals its one-point call bit for bit; each of
        its three checks is one reduction, and a check's helper runs only
        to name a failing row.  The float path stays because arrays lose at
        one point: on a 2-core VM (``hyperbolic_deformed(1.5)``, best of 9 x
        2,000 calls) one point takes about 14 us on floats and 42 us as a
        one-row batch, and 32 rows take about 47 us (54 us when every check
        called its helper, 88 us with the entries one (N,) array at a time)."""
        q = as_points(q, 2)
        if q.ndim == 2:
            return self._gamma_rows(q)
        field = self.iii_field
        field.require_inside(q, margin=field.fd_margin())
        (g11, g12), (g21, g22) = field.matrix(q).tolist()
        det = _metric_det(g11, g12, g21, g22, q)
        dg = field.partials(q).tolist()
        t1, t2 = self._torsion(q).tolist()
        s = math.sqrt(det)
        st1 = s * (g11 * t1 + g12 * t2)
        st2 = s * (g21 * t1 + g22 * t2)
        # low[4i + 2j + m] = Gamma_ijm + C_ijm (0-based); the only non-zero
        # entries of C are C_121 = -C_112 = s t_1 and C_221 = -C_212 = s t_2,
        # with s = sqrt(det g) = omega_12
        low = [0.5 * (dg[i][m][j] + dg[j][i][m] - dg[m][i][j]) for i, j, m in _IJM]
        low[1] -= st1
        low[2] += st1
        low[5] -= st2
        low[6] += st2
        inv = ((g22 / det, -g12 / det), (-g21 / det, g11 / det))
        entries = [a * low[n] + b * low[n + 1] for a, b in inv for n in (0, 2, 4, 6)]
        gam = np.array(entries)
        # plain floats: this runs at every RK4 stage of a torsion-mode trace
        if not all(map(math.isfinite, entries)):
            _require_finite(q.reshape(1, 2), gam, what="the connection coefficients")
        return gam.reshape(2, 2, 2)

    def _gamma_rows(self, q):
        """``gamma`` on the rows of an (N, 2) batch, over a stacked entry
        axis: the one-point formulas with each float an (N,) row.  It runs
        as one straight line: each check (the chart margin, then a positive
        definite III before ``sqrt(det)``, then finite coefficients) is one
        reduction over its mask, and its helper is called only on a failing
        row, to raise naming that row's point."""
        field = self.iii_field
        margin = field.fd_margin()
        if not field.box.all_inside(q, margin):
            field.require_inside(q, margin=margin)
        g = field.matrix(q).reshape(-1, 4).T  # g11, g12, g21, g22
        det = g[0] * g[3] - g[1] * g[2]
        if not ((g[0] > 0.0) & (det > DET_FLOOR)).all():
            _metric_det(*g, q)
        dg = field.partials(q).reshape(-1, 8).T  # dg[4k + 2i + j] = d_k g_ij
        t = self._torsion(q).T
        st = np.sqrt(det) * (g[0::2] * t[0] + g[1::2] * t[1])  # s t_1, s t_2
        low = 0.5 * (dg[_DG_IMJ] + dg[_DG_JIM] - dg[_DG_MIJ])
        low[1::4] -= st  # the contorsion of rows 1, 5 and 2, 6, as for one point
        low[2::4] += st
        inv = g[_ADJUGATE] / det
        inv[1:3] *= -1.0
        inv, low = inv.reshape(2, 2, -1), low.reshape(4, 2, -1)
        # entries[k, 2i + j] = g^{k1} low[4i + 2j] + g^{k2} low[4i + 2j + 1]
        entries = inv[:, None, 0] * low[None, :, 0] + inv[:, None, 1] * low[None, :, 1]
        gam = entries.reshape(8, -1).T
        if not np.isfinite(gam).all():
            _require_finite(q, gam, what="the connection coefficients")
        return gam.reshape(-1, 2, 2, 2)

    def torsion_vector(self, q):
        """The torsion field at q, or at each row of an (N, 2) batch."""
        return self._torsion(as_points(q, 2))

    def _torsion(self, q):
        """The field ``tau`` at the point array q, a constant broadcast.
        ``gamma`` and K~ read it here, not through ``torsion_vector``, so
        that a caller counting ``torsion_vector`` reads sees only its own."""
        return _values(self.tau(q), q.shape[:-1], (2,), "a torsion field")

    def _lowered_torsion(self, q):
        """``t = III(tau, .)`` at q, or at each row of a batch."""
        return (self.iii_field.matrix(q) @ self._torsion(q)[..., None])[..., 0]

    def _curvature(self, q):
        """Cartan's structure equation for a metric connection with torsion
        ``T = omega (x) tau``: ``K~ = K(III) + (d_1 t_2 - d_2 t_1) /
        sqrt(det III)`` with ``t = III(tau, .)`` (Kobayashi-Nomizu I,
        Ch. III).  The curl of t is a finite difference at
        ``CURVATURE_FD_STEP``, taken on the whole batch at once."""
        q = as_points(q, 2)
        field = self.iii_field
        field.require_inside(q, margin=CURVATURE_FD_STEP + field.fd_margin())
        area = self.area_density(q)
        k_iii = gauss_curvature(field, q)
        dt = _fd.gradient(self._lowered_torsion, q, CURVATURE_FD_STEP)
        return _scalar(k_iii + (dt[..., 0, 1] - dt[..., 1, 0]) / area)


class _OperatorProvider(SurfaceConnectionData):
    """sigma + endomorphism field B; D~_x y = B^{-1} D^sigma_x (B y).

    ``b_field`` maps (..., 2) points to (..., 2, 2) matrices, and one that
    returns a single matrix for every point (a constant) is broadcast; a
    callable of one (2,) point is wrapped in ``_fd.pointwise``.  ``b_matrix``
    and ``third_form`` take points with any leading axes, so that III can be
    the matrix leaf of a MetricField."""

    mode = "operator"

    def __init__(self, sigma_field, b_field, name=""):
        self.sigma_field = sigma_field
        self.b_field = b_field
        self.name = name
        self.box = sigma_field.box

    def b_matrix(self, q):
        """B at one point or at each point of a (..., 2) array."""
        q = np.asarray(q, dtype=float)
        return _values(self.b_field(q), q.shape[:-1], (2, 2), "a B field")

    def b_matrix_partials(self, q):
        """``dB[..., a, i, j] = d_a B_ij`` at one point or at each row of an
        (N, 2) batch: central differences at ``FD_STEP``, 8 reads of B for
        one point and one stacked call per batch, on the 8 N stencil rows."""
        return _fd.gradient(self.b_matrix, as_points(q, 2), FD_STEP)

    def b_tilde(self, q):
        q = as_points(q, 2)
        return _inverse_shape_operator(self.b_matrix(q), q)

    def _shape_forms(self, q):
        """``(B, III)`` from one read of B, with ``III = B^T sigma B``."""
        b = self.b_matrix(q)
        return b, np.swapaxes(b, -1, -2) @ self.sigma_field.matrix(q) @ b

    def third_form(self, q):
        """III at one point or at each point of a (..., 2) array."""
        return self._shape_forms(q)[1]

    def gamma(self, q):
        """``Gamma~^k_ij = (B^{-1})^k_l (d_i B^l_j + Gamma^l_im B^m_j)`` at
        one point or at each row of an (N, 2) batch, in one vectorised
        pass: one read of B and of sigma's symbols, and the dB stencil (8
        one-point reads of B, or one stacked read per batch)."""
        q = as_points(q, 2)
        b, lc = self._shape_and_symbols(q)
        binv = _inverse_shape_operator(b, q)
        db = self.b_matrix_partials(q)
        inner = np.swapaxes(db, -3, -2) + np.einsum("...lim,...mj->...lij", lc, b)
        return np.einsum("...kl,...lij->...kij", binv, inner)

    def _shape_and_symbols(self, q):
        """B and the Levi-Civita symbols of sigma, which must be positive
        definite, at q."""
        sigma, _, lc = _christoffel(self.sigma_field, q)
        _positive_det(sigma, q)
        return self.b_matrix(q), lc

    torsion_vector = SurfaceConnectionData.torsion_from_coefficients

    def _curvature(self, q):
        """``K~ = K_sigma / det B``, because ``R~ = B^{-1} R B``."""
        q = as_points(q, 2)
        _positive_det(self.sigma_field.matrix(q), q)  # sigma must be positive definite
        binv = _inverse_shape_operator(self.b_matrix(q), q)
        return _scalar(gauss_curvature(self.sigma_field, q) * np.linalg.det(binv))


class _ImmersionProvider(_OperatorProvider):
    """A surface patch in an ambient 3-metric: sigma = I and B the shape
    operator, both from the patch's fundamental data."""

    mode = "immersion"

    def __init__(self, patch, ambient):
        self.patch = patch
        self.ambient = ambient
        # called through the module binding, so wrappers of fundamental_forms see it
        self._memo = functools.lru_cache(maxsize=MEMO_SIZE)(
            lambda u, v: fundamental_forms(patch, ambient, np.array([u, v])))
        sigma = induced_metric_field(patch, ambient)
        super().__init__(sigma, None, name=f"dual[{patch.name}]")

    def fundamental(self, q):
        """Fundamental data at one point, from the memo, or at each row of
        an (N, 2) batch, from one call of the batch kernel."""
        q = as_points(q, 2)
        if q.ndim == 1:
            return self._memo(*q.tolist())
        return _fundamental_rows(self.patch, self.ambient, q)

    def b_matrix(self, q):
        """B, the shape operator, at one point or at each row of an (N, 2)
        batch (no B field: it is read from the fundamental data)."""
        return self.fundamental(q).shape_operator

    def _shape_and_symbols(self, q):
        """B and the symbols of I from one read of the fundamental data
        (Gauss formula), inside the chart margin that sigma's own symbols
        would need."""
        self.sigma_field.require_inside(q, margin=self.sigma_field.fd_margin())
        data = self.fundamental(q)
        return data.shape_operator, data.christoffel_first

    def _shape_forms(self, q):
        """``(B, III)`` from one read of the fundamental data."""
        data = self.fundamental(q)
        return data.shape_operator, data.third

    def third_form(self, q):
        """III at one point or at each row of an (N, 2) batch."""
        return self.fundamental(q).third

    def _curvature(self, q):
        """``K~ = K_I / K_e``."""
        q = as_points(q, 2)
        data = self.fundamental(q)
        k_e = data.k_extrinsic
        small = np.abs(k_e) < DET_B_FLOOR
        if small.any():
            k = _first(small)
            raise DegenerateShapeOperator(
                f"|K_e| = {abs(np.asarray(k_e)[k]):.3e} below floor at q={q[k]}")
        return data.k_intrinsic / k_e


# ---------------------------------------------------------------------------
# pointwise operations


def dual_connection_at(data, q, x, y):
    """D~_x y at q for constant-coefficient tangent vectors x, y."""
    gam = data.gamma(q)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateVector(f"non-finite tangent vector {x} or {y} at q={q}")
    return np.einsum("kij,i,j->k", gam, x, y)


def metric_compatibility_residual(data, q, x, y, z):
    """|d_x III(y,z) - III(D~_x y, z) - III(y, D~_x z)| for constant y, z."""
    q = as_point(q, 2)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)

    def f(qq):
        return float(y @ data.third_form(qq) @ z)

    dg = _fd.gradient(f, q, FD_STEP)
    lhs = float(x @ dg)
    g = data.third_form(q)
    rhs = float(dual_connection_at(data, q, x, y) @ g @ z
                + y @ g @ dual_connection_at(data, q, x, z))
    return abs(lhs - rhs)


def dual_codazzi_residual(data, q):
    """Norm of ``D~_x(B~ y) - D~_y(B~ x) - B~ [x, y]`` for the coordinate
    fields ``x = d_1``, ``y = d_2``.

    Zero in exact arithmetic: the inverse shape operator satisfies the dual
    Codazzi identity with respect to the compatible connection.  Torsion
    mode has no shape operator, so ``b_tilde`` raises ModeUnsupported there.
    """
    q = as_point(q, 2)
    x, y = np.eye(2)
    dbt = _fd.gradient(data.b_tilde, q, FD_STEP)
    # coordinate fields commute, so B~ [x, y] = 0
    return data.norm(q, dnabla(data.b_tilde(q), dbt, data.gamma(q), x, y))


# ---------------------------------------------------------------------------
# bound constants and hypothesis verdicts


def torsion_bound_tau0(k_m, k_max, k1):
    """Closed-form torsion bound (K_M - K_m) / (2 sqrt((K_m-K1)(K_M-K1))).

    ``k_m``/``k_max`` are the sectional extremes of the ambient space at the
    point, ``k1`` the upper bound of the surface curvature.
    """
    if not (k1 < k_m <= k_max):
        raise InvalidPinching(f"need K1 < K_m <= K_M, got K1={k1}, K_m={k_m}, K_M={k_max}")
    if k_max == k_m:
        return 0.0
    return (k_max - k_m) / (2.0 * np.sqrt((k_m - k1) * (k_max - k1)))


def torsion_bound_bruteforce(q1, q2, k1, grid_size=10000):
    """Maximize the interior expression over the mixing weight alpha in [0,1]
    on a uniform grid plus the analytic optimum, and return the square root.

    Independent oracle for :func:`torsion_bound_tau0`.
    """
    if not (k1 < min(q1, q2)):
        raise InvalidPinching(f"need K1 < min(q1, q2), got K1={k1}, q1={q1}, q2={q2}")
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    if q1 == q2:
        return 0.0
    alphas = np.linspace(0.0, 1.0, grid_size)
    interior = (k1 - q2) / (2.0 * k1 - q1 - q2)
    if 0.0 <= interior <= 1.0:
        alphas = np.append(alphas, interior)
    num = (q1 - q2) ** 2 * alphas * (1.0 - alphas)
    den = ((q1 - q2) * alphas + q2 - k1) ** 2
    return float(np.sqrt(np.max(num / den)))


def curvature_bounds_k4k5(k1, k2, k3):
    """(K4, K5) bracketing the connection curvature, by pinching regime."""
    if not (k1 < 0 and k1 < k2 <= k3):
        raise InvalidPinching(f"need K1 < 0 and K1 < K2 <= K3, got ({k1}, {k2}, {k3})")
    k5 = 1.0 if k2 >= 0 else k1 / (k1 - k2)
    k4 = 1.0 if k3 <= 0 else k1 / (k1 - k3)
    return float(k4), float(k5)


@dataclass
class HypothesisVerdict:
    """Evaluation of the non-existence hypotheses for one (K1, K2, K3)."""

    regime: str
    lhs: float
    rhs: float
    margin: float
    excluded: bool
    sit_check: bool
    th1_cond0: bool
    th1_tau0: bool
    tau0: float = float("nan")
    k4: float = float("nan")
    k5: float = float("nan")
    pinching_ok: bool = True

    def to_json_dict(self):
        return {
            "regime": self.regime,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "excluded": self.excluded,
            "sit_check": self.sit_check,
            "th1_cond0": self.th1_cond0,
            "th1_tau0": self.th1_tau0,
        }


def check_hypothesis(k1, k2, k3):
    """Evaluate the exclusion inequalities for the triple (K1, K2, K3).

    ``excluded`` means the strict inequality of the applicable regime holds,
    so no complete immersed surface with curvature below K1 can exist in an
    ambient space pinched between K2 and K3.  At K3 = 0 both regime formulas
    are evaluated and must agree.

    The triple must satisfy K1 < 0 and K2 <= K3.  A degenerate pinching
    K2 <= K1 is reported (not raised): the inequalities are still evaluated,
    ``excluded`` is forced False and the bound constants are NaN.
    """
    for v in (k1, k2, k3):
        if not np.isfinite(v):
            raise InvalidPinching(f"non-finite constant in ({k1}, {k2}, {k3})")
    if k1 >= 0:
        raise InvalidPinching(f"need K1 < 0, got K1={k1}")
    if k2 > k3:
        raise InvalidPinching(f"need K2 <= K3, got K2={k2} > K3={k3}")
    pinching_ok = k1 < k2

    lhs = (k3 - k2) ** 2
    rhs_pos = 16.0 * abs(k1) * (k2 - k1)
    rhs_neg = 16.0 * (k3 - k1) * (k2 - k1)
    if k3 > 0:
        regime, rhs = "K3>=0", rhs_pos
    elif k3 < 0:
        regime, rhs = "K3<=0", rhs_neg
    else:
        # both regimes apply and coincide: K3 - K1 = |K1| when K3 = 0
        assert abs(rhs_pos - rhs_neg) <= 1e-12 * max(1.0, abs(rhs_pos))
        regime, rhs = "both(K3=0)", rhs_pos

    margin = rhs - lhs
    excluded = bool(pinching_ok and margin > 0)

    tau0 = k4 = k5 = float("nan")
    sit = th1_tau0 = False
    if pinching_ok:
        tau0 = torsion_bound_tau0(k2, k3, k1)
        k4, k5 = curvature_bounds_k4k5(k1, k2, k3)
        sit = bool(4.0 * k4 > tau0 ** 2)
        if k3 > 0:
            th1_tau0 = bool(tau0 ** 2 < 4.0)
        elif k3 < 0:
            th1_tau0 = bool(tau0 ** 2 < 4.0 * k1 / (k1 - k3))
        else:
            th1_tau0 = bool(tau0 ** 2 < 4.0)  # both branches equal 4 at K3 = 0

    return HypothesisVerdict(
        regime=regime, lhs=float(lhs), rhs=float(rhs), margin=float(margin),
        excluded=excluded, sit_check=sit,
        th1_cond0=bool(pinching_ok),  # tau0 is the supremum of the left side
        th1_tau0=th1_tau0, tau0=tau0, k4=k4, k5=k5, pinching_ok=pinching_ok,
    )


def k1_threshold(k2, k3):
    """The K1 threshold of the exclusion inequality that ``check_hypothesis``
    encodes: for K2 <= K3 and K1 < 0, the triple is excluded exactly when
    K1 < K1*.  The inequality is quadratic in K1 and its right side falls
    on K1 < min(K2, 0), so K1* is the smaller root:

    * K3 > 0: ``K1* = (K2 - sqrt(K2^2 + (K3 - K2)^2 / 4)) / 2``;
    * K3 <= 0: ``K1* = ((K2 + K3) - (sqrt(5)/2)(K3 - K2)) / 2``.

    The two agree at K3 = 0, K1* <= min(K2, 0) with equality exactly when
    K2 = K3, and K1* falls as K3 grows.  No K1 is evaluated, so the
    threshold min(K2, 0) = 0 of K2 = K3 >= 0 needs no K1 >= 0.  The paper
    is here only as its abstract, so K1* is the threshold of the inequality
    the lab encodes; nothing here shows that it is the paper's optimal K1."""
    if not (np.isfinite(k2) and np.isfinite(k3)):
        raise InvalidPinching(f"non-finite constant in (K2, K3) = ({k2}, {k3})")
    if k2 > k3:
        raise InvalidPinching(f"need K2 <= K3, got K2={k2} > K3={k3}")
    if k3 > 0:
        return (k2 - math.sqrt(k2 * k2 + (k3 - k2) ** 2 / 4.0)) / 2.0
    return ((k2 + k3) - (math.sqrt(5.0) / 2.0) * (k3 - k2)) / 2.0


def measured_pinching(data, sample_points):
    """Measured (K1, K2, K3, sup tau0) over a sample of parameter points.

    K1 is the largest sampled intrinsic curvature, K2/K3 the extreme sampled
    ambient sectional curvatures; tau0 is the supremum of the pointwise
    closed-form bound.  The fundamental data, the intrinsic curvatures and
    the sectional ranges over the sample points' ambient images are each
    one batched call.  Immersion mode only.
    """
    if data.mode != "immersion":
        raise ModeUnsupported("measured pinching requires immersion mode")
    forms = data.fundamental(np.array(sample_points, dtype=float))
    k1 = float(np.max(forms.k_intrinsic))
    k_min, k_max = sectional_range(data.ambient, forms.point)
    tau0 = max(torsion_bound_tau0(lo, hi, k1) if k1 < lo else np.inf
               for lo, hi in zip(k_min.tolist(), k_max.tolist()))
    return k1, float(np.min(k_min)), float(np.max(k_max)), float(tau0)

"""The compatible connection with torsion on a surface, its bound constants,
and the non-existence-hypothesis verdicts.

Three ways of owning such a connection:

* immersion mode: a surface patch in an ambient 3-metric.  The connection is
  ``D~_x y = B^{-1} D_x(B y)`` for the shape operator B and the Levi-Civita
  connection D of the induced metric; it is compatible with the third
  fundamental form and its torsion is controlled by the ambient pinching.
* operator mode: an abstract pair (2D metric sigma, symmetric endomorphism
  field B) with the same formula; this is the hyperbolic Monge-Ampere setup.
* torsion mode: an abstract pair (2D metric, torsion vector field).  The
  connection is the unique metric-compatible one with that torsion
  (Levi-Civita plus the canonical contorsion correction).

Torsion 2-forms are identified with vector fields through the metric the
connection preserves: ``tau := T(f1, f2)`` for a positively oriented
orthonormal frame (f1, f2).

Everything here is a pure evaluator over read-only inputs, and verdicts are
plain value objects.  The only mutable state is the immersion provider's
memo of fundamental data, a ``functools.lru_cache`` of ``MEMO_SIZE`` entries
keyed on the parameter point.  It serves points that callers re-request
close together: ``connection_form``, for one, reads III and B on the same
finite-difference stencil.  Its fixed size keeps long traces in constant
memory, and it is safe for concurrent reads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _fd
from .ambient import DET_FLOOR, as_point, christoffel, dnabla
from .errors import (
    DegenerateShapeOperator,
    InvalidPinching,
    ModeUnsupported,
    NonInvertibleMetric,
)
from .immersion import fundamental_forms, induced_metric_field

DET_B_FLOOR = 1e-10
# finite-difference step of B, III and vector fields over the surface chart
FD_STEP = 1e-4
MEMO_SIZE = 64  # fundamental data kept per immersion provider
# finite-difference step of K~ from the frame connection form; its stencil
# reaches this far (plus the metric's own stencil) around each point
CURVATURE_FD_STEP = 1e-3
_IJM = tuple(itertools.product((0, 1), repeat=3))  # (i, j, m) in row-major order


# ---------------------------------------------------------------------------
# small 2D helpers


def complex_structure(g):
    """Matrix of the rotation J by +pi/2 for a 2x2 metric g:
    (Jx)^c = sqrt(det g) eps_{ab} g^{bc} x^a, which is
    ((-g21, -g22), (g11, g12)) / sqrt(det g)."""
    (g11, g12), (g21, g22) = np.asarray(g, dtype=float).tolist()
    s = math.sqrt(_metric_det(g11, g12, g21, g22))
    return np.array([[-g21 / s, -g22 / s], [g11 / s, g12 / s]])


def _metric_det(g11, g12, g21, g22):
    """det g of a 2x2 surface metric, which must be positive definite."""
    det = g11 * g22 - g12 * g21
    if not (g11 > 0.0 and det > DET_FLOOR):
        raise NonInvertibleMetric(
            f"2x2 metric is not positive definite: g11 = {g11:.3e}, det g = {det:.3e}")
    return det


def _torsion_from_gamma(gam, iii):
    """Torsion vector ``(Gamma_12 - Gamma_21) / sqrt(det III)`` of the
    connection coefficients ``gam[k, i, j]``."""
    return (gam[:, 0, 1] - gam[:, 1, 0]) / np.sqrt(np.linalg.det(iii))


def _inverse_shape_operator(b, q):
    """B^{-1}, or DegenerateShapeOperator when |det B| is below the floor."""
    det = np.linalg.det(b)
    if abs(det) < DET_B_FLOOR:
        raise DegenerateShapeOperator(f"|det B| = {abs(det):.3e} below floor at q={q}")
    return np.linalg.inv(b)


def orthonormal_frame(g, dg=None):
    """Gram-Schmidt frame (f1, f2) of a 2x2 metric, positively oriented.

    Returns (f, df) where ``f[a]`` is the a-th frame vector and, when ``dg``
    (the array ``dg[k, i, j]``) is given, ``df[k, a]`` is its coordinate
    derivative; otherwise df is None.  Closed-form derivatives keep the
    connection-form differentiation to a single finite-difference layer.
    """
    (g11, g12), (g21, g22) = g.tolist()
    det = _metric_det(g11, g12, g21, g22)
    a = 1.0 / math.sqrt(g11)
    c = g12 / g11
    s = math.sqrt(det / g11)
    f = np.array([[a, 0.0], [-c / s, 1.0 / s]])
    if dg is None:
        return f, None
    df = []
    for (d11, d12), (_, d22) in dg.tolist():
        ddet = d11 * g22 + g11 * d22 - 2.0 * g12 * d12
        da = -0.5 * g11 ** (-1.5) * d11
        dc = (d12 * g11 - g12 * d11) / g11 ** 2
        ds = 0.5 / s * (ddet * g11 - det * d11) / g11 ** 2
        df.append(((da, 0.0), (-(dc * s - c * ds) / s ** 2, -ds / s ** 2)))
    return f, np.array(df)


# ---------------------------------------------------------------------------
# providers


class _TorsionProvider:
    mode = "torsion"

    def __init__(self, iii_field, tau, name=""):
        self.iii_field = iii_field
        self.tau = tau
        self.name = name or iii_field.name

    @property
    def box(self):
        return self.iii_field.box

    def third_form(self, q):
        return self.iii_field.matrix(q)

    def third_form_partials(self, q):
        return self.iii_field.partials(q)

    def gamma(self, q):
        """``Gamma~^k_ij = g^{km} (Gamma_ijm + C_ijm)`` in scalar 2x2
        arithmetic: ``Gamma_ijm`` are the lowered Levi-Civita symbols of III
        and ``C_ijm = (omega_ij t_m - omega_jm t_i + omega_mi t_j) / 2`` the
        lowered contorsion of the torsion ``T(x, y) = omega(x, y) tau``, with
        ``t = III(tau, .)`` and the area form ``omega``."""
        q = as_point(q, 2)
        field = self.iii_field
        field.require_inside(q, margin=field.fd_margin())
        (g11, g12), (g21, g22) = field.matrix(q).tolist()
        det = _metric_det(g11, g12, g21, g22)
        dg = field.partials(q).tolist()
        t1, t2 = self.torsion_vector(q).tolist()
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
        return np.array([a * low[n] + b * low[n + 1] for a, b in inv
                         for n in (0, 2, 4, 6)]).reshape(2, 2, 2)

    def torsion_vector(self, q):
        return np.asarray(self.tau(as_point(q, 2)), dtype=float)


class _OperatorProvider:
    """sigma + endomorphism field B; D~_x y = B^{-1} D^sigma_x (B y)."""

    mode = "operator"

    def __init__(self, sigma_field, b_field, name=""):
        self.sigma_field = sigma_field
        self.b_field = b_field
        self.name = name

    @property
    def box(self):
        return self.sigma_field.box

    def b_matrix(self, q):
        return np.asarray(self.b_field(as_point(q, 2)), dtype=float)

    def b_matrix_partials(self, q):
        return _fd.gradient(self.b_field, as_point(q, 2), FD_STEP)

    def b_tilde(self, q):
        return _inverse_shape_operator(self.b_matrix(q), q)

    def third_form(self, q):
        b = self.b_matrix(q)
        sigma = self.sigma_field.matrix(q)
        return b.T @ sigma @ b

    def third_form_partials(self, q):
        b = self.b_matrix(q)
        db = self.b_matrix_partials(q)
        sigma = self.sigma_field.matrix(q)
        dsigma = self.sigma_field.partials(q)
        term = np.einsum("kca,cd,db->kab", db, sigma, b)
        return term + np.swapaxes(term, 1, 2) + np.einsum("ca,kcd,db->kab", b, dsigma, b)

    def gamma(self, q):
        q = as_point(q, 2)
        b = self.b_matrix(q)
        binv = _inverse_shape_operator(b, q)
        db = self.b_matrix_partials(q)
        lc = christoffel(self.sigma_field, q)
        inner = db.transpose(1, 0, 2) + np.einsum("lim,mj->lij", lc, b)
        return np.einsum("kl,lij->kij", binv, inner)

    def torsion_vector(self, q):
        return _torsion_from_gamma(self.gamma(q), self.third_form(q))


class _ImmersionProvider(_OperatorProvider):
    mode = "immersion"

    def __init__(self, patch, ambient):
        self.patch = patch
        self.ambient = ambient
        # called through the module binding, so wrappers of fundamental_forms see it
        self._memo = functools.lru_cache(maxsize=MEMO_SIZE)(
            lambda u, v: fundamental_forms(patch, ambient, np.array([u, v])))
        sigma = induced_metric_field(patch, ambient)
        super().__init__(sigma, self._shape_at, name=f"dual[{patch.name}]")

    def fundamental(self, q):
        q = as_point(q, 2)
        return self._memo(float(q[0]), float(q[1]))

    def _shape_at(self, q):
        return self.fundamental(q).shape_operator

    def third_form(self, q):
        return self.fundamental(q).third

    def third_form_partials(self, q):
        return _fd.gradient(lambda qq: self.fundamental(qq).third, as_point(q, 2), FD_STEP)


class SurfaceConnectionData:
    """A surface with a metric-compatible connection with torsion.

    Construct with one of :meth:`from_immersion`, :meth:`from_operator`,
    :meth:`from_metric_and_torsion`.
    """

    def __init__(self, provider):
        self._p = provider

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_immersion(cls, patch, ambient):
        return cls(_ImmersionProvider(patch, ambient))

    @classmethod
    def from_operator(cls, sigma_field, b_field, name=""):
        return cls(_OperatorProvider(sigma_field, b_field, name=name))

    @classmethod
    def from_metric_and_torsion(cls, iii_field, tau, name=""):
        return cls(_TorsionProvider(iii_field, tau, name=name))

    # -- basic accessors ----------------------------------------------------

    @property
    def mode(self):
        return self._p.mode

    @property
    def name(self):
        return self._p.name

    @property
    def box(self):
        return self._p.box

    @property
    def provider(self):
        return self._p

    def contains(self, q, margin=0.0):
        return self.box.contains(as_point(q, 2), margin=margin)

    def third_form(self, q):
        return self._p.third_form(q)

    def third_form_partials(self, q):
        return self._p.third_form_partials(q)

    def gamma(self, q):
        return self._p.gamma(q)

    def torsion_vector(self, q):
        return self._p.torsion_vector(q)

    def torsion_from_coefficients(self, q):
        """Torsion vector recovered from the connection coefficients."""
        return _torsion_from_gamma(self.gamma(q), self.third_form(q))

    def torsion_norm(self, q):
        return self.norm(q, self.torsion_vector(q))

    def complex_structure(self, q):
        return complex_structure(self.third_form(q))

    def area_density(self, q):
        return math.sqrt(_metric_det(*self.third_form(q).ravel().tolist()))

    def norm(self, q, x):
        g = self.third_form(q)
        _metric_det(*g.ravel().tolist())
        x = np.asarray(x, dtype=float)
        # III is positive definite here, so only rounding can make x.g.x < 0
        return float(np.sqrt(max(x @ g @ x, 0.0)))

    def inner(self, q, x, y):
        g = self.third_form(q)
        return float(np.asarray(x) @ g @ np.asarray(y))

    def unit(self, q, x):
        x = np.asarray(x, dtype=float)
        return x / self.norm(q, x)

    # -- immersion-mode extras ---------------------------------------------

    def fundamental(self, q):
        if self.mode != "immersion":
            raise ModeUnsupported("fundamental data requires immersion mode")
        return self._p.fundamental(q)

    def b_tilde(self, q):
        if self.mode == "torsion":
            raise ModeUnsupported("inverse shape operator requires immersion or operator mode")
        return self._p.b_tilde(q)

    def b_matrix(self, q):
        if self.mode == "torsion":
            raise ModeUnsupported("shape operator requires immersion or operator mode")
        return self._p.b_matrix(q)

    # -- curvature ----------------------------------------------------------

    def curvature(self, q):
        """K~ at q.

        In immersion mode this is the ratio K_I / K_e; in the abstract modes
        it is the curvature of the stored connection, measured from the
        connection 1-form of a moving frame as -d omega / area.
        """
        if self.mode == "immersion":
            data = self._p.fundamental(q)
            if abs(data.k_extrinsic) < DET_B_FLOOR:
                raise DegenerateShapeOperator(
                    f"|K_e| = {abs(data.k_extrinsic):.3e} below floor at q={q}")
            return data.k_intrinsic / data.k_extrinsic
        return self.curvature_from_frame(q)

    def connection_form(self, q):
        """omega_i(q) = III(D~_{d_i} f1, f2) for the Gram-Schmidt frame."""
        q = as_point(q, 2)
        g = self._p.third_form(q)
        f, df = orthonormal_frame(g, self._p.third_form_partials(q))
        (f11, f12), (f21, f22) = f.tolist()
        (g11, g12), (g21, g22) = g.tolist()
        gam = self._p.gamma(q).tolist()
        out = []
        for i, (d1, d2) in enumerate(df[:, 0].tolist()):
            # D~_{d_i} f1 = d_i f1 + Gamma(d_i, f1)
            c1 = d1 + (gam[0][i][0] * f11 + gam[0][i][1] * f12)
            c2 = d2 + (gam[1][i][0] * f11 + gam[1][i][1] * f12)
            out.append((c1 * g11 + c2 * g21) * f21 + (c1 * g12 + c2 * g22) * f22)
        return np.array(out)

    def curvature_from_frame(self, q):
        """-d omega / dv for the orthonormal-frame connection form omega."""
        q = as_point(q, 2)
        grad = _fd.gradient(self.connection_form, q, CURVATURE_FD_STEP)
        domega = grad[0, 1] - grad[1, 0]
        return float(-domega / self.area_density(q))


# ---------------------------------------------------------------------------
# pointwise operations


def dual_connection_at(data, q, x, y):
    """D~_x y at q for constant-coefficient tangent vectors x, y."""
    gam = data.gamma(q)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("kij,i,j->k", gam, x, y)


def covariant_derivative_of_field(data, q, x, field):
    """D~_x (field) at q for a vector field given as a callable q -> vector."""
    q = as_point(q, 2)
    x = np.asarray(x, dtype=float)
    dfield = _fd.gradient(field, q, FD_STEP)
    gam = data.gamma(q)
    return np.einsum("i,ik->k", x, dfield) + np.einsum("kij,i,j->k", gam, x, field(q))


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
    Codazzi identity with respect to the compatible connection.
    """
    if data.mode == "torsion":
        raise ModeUnsupported("dual Codazzi residual requires a shape operator")
    q = as_point(q, 2)
    x, y = np.eye(2)
    dbt = _fd.gradient(data.b_tilde, q, FD_STEP)
    # coordinate fields commute, so B~ [x, y] = 0
    resid = dnabla(data.b_tilde(q), dbt, data.gamma(q), x, y)
    g = data.third_form(q)
    return float(np.sqrt(max(resid @ g @ resid, 0.0)))


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
class BoundSet:
    """Pinching constants and the derived bounds for one configuration."""

    k1: float
    k2: float
    k3: float
    k4: float = float("nan")
    k5: float = float("nan")
    tau0: float = float("nan")
    tau1: float = float("nan")  # measured estimate, not a closed form

    @classmethod
    def from_pinching(cls, k1, k2, k3, tau1=float("nan")):
        k4, k5 = curvature_bounds_k4k5(k1, k2, k3)
        tau0 = torsion_bound_tau0(k2, k3, k1)
        return cls(k1, k2, k3, k4, k5, tau0, tau1)


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


def measured_gradient_constants(data, sample_points):
    """Sampled estimates (c_sigma, c_mu) of the curvature-gradient constants.

    c_sigma bounds |x.K_surface| / (|x| |K_surface|^{3/2}) and c_mu bounds
    the coordinate gradient of the ambient sectional curvature on the pushed
    tangent plane.  Informational only: no global verification is attempted.
    """
    from .ambient import riemann_sectional

    if data.mode != "immersion":
        raise ModeUnsupported("gradient constants require immersion mode")
    prov = data.provider
    c_sigma = 0.0
    c_mu = 0.0
    for q in sample_points:
        q = as_point(q, 2)

        def k_intr(qq):
            return prov.fundamental(qq).k_intrinsic

        def k_amb(qq):
            fd = prov.fundamental(qq)
            return riemann_sectional(prov.ambient, fd.point,
                                     fd.jacobian[:, 0], fd.jacobian[:, 1])

        grad_ki = _fd.gradient(k_intr, q, 1e-3)
        first = prov.fundamental(q).first
        # sup over unit x of |<grad, x>| = norm of the gradient covector
        norm_grad = float(np.sqrt(grad_ki @ np.linalg.inv(first) @ grad_ki))
        ki = abs(prov.fundamental(q).k_intrinsic)
        c_sigma = max(c_sigma, norm_grad / ki ** 1.5)
        grad_km = _fd.gradient(k_amb, q, 1e-3)
        c_mu = max(c_mu, float(np.sqrt(grad_km @ np.linalg.inv(first) @ grad_km)))
    return float(c_sigma), float(c_mu)


def measured_pinching(data, sample_points):
    """Measured (K1, K2, K3, sup tau0) over a sample of parameter points.

    K1 is the largest sampled intrinsic curvature, K2/K3 the extreme sampled
    ambient sectional curvatures; tau0 is the supremum of the pointwise
    closed-form bound.  Immersion mode only.
    """
    from .ambient import sectional_range

    if data.mode != "immersion":
        raise ModeUnsupported("measured pinching requires immersion mode")
    prov = data.provider
    k1 = -np.inf
    k2 = np.inf
    k3 = -np.inf
    per_point = []
    for q in sample_points:
        fd = prov.fundamental(q)
        k1 = max(k1, fd.k_intrinsic)
        k_min, k_max = sectional_range(prov.ambient, fd.point)
        k2 = min(k2, k_min)
        k3 = max(k3, k_max)
        per_point.append((fd.k_intrinsic, k_min, k_max))
    tau0 = 0.0
    for k_i, k_min, k_max in per_point:
        tau0 = max(tau0, torsion_bound_tau0(k_min, k_max, k1) if k1 < k_min else np.inf)
    return float(k1), float(k2), float(k3), float(tau0)

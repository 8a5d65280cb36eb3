"""Asymptotic directions of a hyperbolic immersion: the unit frame (U, V),
its angle and covariant rates, asymptotic-curve traces with their closure
diagnostics, and the coordinate-net expansion bounds.

At a point with negative extrinsic curvature the inverse shape operator B~
has two unit directions with ``B~ U = k J U`` and ``B~ V = -k J V``,
``k = |det B~|^{1/2}``.  All norms and angles here use the third fundamental
form.

:func:`asymptotic_frame` and :func:`measured_tau1` take one point or an
(N, 2) batch, as the connection's evaluators do, and a batch row equals the
one-point result bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import _fd
from .ambient import _assemble, _entries, _first, _quadratic, as_point, as_points
from .connection import FD_STEP, _inverse_shape_operator, _rotation, _sqrt
from .connection import _torsion_from_gamma, complex_structure, measured_pinching
from .curves import CurveTrace, _chart_flow, _chart_read, hermite
from .curves import parallel_transport_samples, trace_margin
from .errors import LeftPatch, ModeUnsupported, NonHyperbolicPoint

__all__ = [
    "AsymptoticFrame",
    "AsymptoticTrace",
    "asymptotic_frame",
    "covariant_rate_check",
    "trace_asymptotic",
    "net_expansion_check",
    "measured_tau1",
]


@dataclass
class AsymptoticFrame:
    """Unit asymptotic directions, their angle, and the eigenvalue k; for a
    batch, each with a leading axis over the rows."""

    u: np.ndarray
    v: np.ndarray
    theta: float
    k: float


def _require_shape_mode(data):
    if data.mode == "torsion":
        raise ModeUnsupported(
            "asymptotic directions need an inverse shape operator; "
            "metric+torsion data has none")


def _per_row(fn, nin, dtype=float):
    """``fn`` of floats for one point, and row by row for the (N,) arrays of
    a batch: one libm call on both paths, where numpy's arccos and hypot
    round a last bit differently on a share of inputs."""
    rows = np.frompyfunc(fn, nin, 1)
    return lambda *x: rows(*x).astype(dtype) if isinstance(x[0], np.ndarray) else fn(*x)


_angle = _per_row(lambda c: math.acos(min(max(c, -1.0), 1.0)), 1)  # |cos| may round past 1
# whether the row (a, b) of a 2x2 matrix is at least as long as the row (c, d)
_longer = _per_row(lambda a, b, c, d: math.hypot(a, b) >= math.hypot(c, d), 4, bool)


def _select(cond, a, b):
    """``a`` where cond holds and ``b`` elsewhere: on floats for one point,
    row by row on (N,) arrays for a batch."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _flip(cond, x):
    """The pair x negated where cond holds."""
    return _select(cond, (-x[0], -x[1]), x)


def asymptotic_frame(data, q, ref_u=None, ref_v=None):
    """The asymptotic frame at q, oriented so theta lies in (0, pi).

    U and V are the eigenvectors of ``M = -J B~`` for its eigenvalues k and
    -k.  The eigenpairs come in closed form: the eigenvalues are
    ``tr/2 +- sqrt(tr^2/4 - det)`` of M, U takes the one nearest k, and each
    eigenvector is orthogonal to the better-conditioned row of ``M - lambda``
    (the one of larger norm).  Both are then III-unit.

    Signs: U takes the eigendirection with positive first chart component.
    Where ``|u[0]| <= 1e-6 |u[1]|`` that component is rounding noise (U runs
    along the v-axis, as on the saddle) and the sign of the second decides
    instead.  V is then oriented so the frame is positively ordered.  When
    ``ref_u``/``ref_v`` are given, signs maximize the metric inner product
    with them instead (continuity along traces).

    q is one point or an (N, 2) batch, a reference one vector or one per
    row; the 2x2 arithmetic runs on floats (at every stage of every flow)
    or on (N,) arrays, each sign choice a select.  NonHyperbolicPoint names
    the first row with det B~ >= 0.
    """
    _require_shape_mode(data)
    q = as_points(q, 2)
    b, iii = data._shape_forms(q)  # one read of the shape layer
    (b11, b12), (b21, b22) = _entries(_inverse_shape_operator(b, q), 2)
    det = b11 * b22 - b12 * b21
    i = _first(det >= 0)
    if i is not None:
        raise NonHyperbolicPoint(f"det B~ = {np.asarray(det)[i]:.3e} >= 0 at q={q[i]}")
    k = _sqrt(-det)
    g = _entries(iii, 2)
    (g11, g12), (g21, g22) = g
    (j11, j12), (j21, j22) = _rotation(g, q)

    def inner(x, y):
        """III(x, y) for two pairs of floats or of arrays."""
        return (x[0] * g11 + x[1] * g21) * y[0] + (x[0] * g12 + x[1] * g22) * y[1]

    def rotated(x):
        """J x."""
        return (j11 * x[0] + j12 * x[1], j21 * x[0] + j22 * x[1])

    m11, m12 = -(j11 * b11 + j12 * b21), -(j11 * b12 + j12 * b22)
    m21, m22 = -(j21 * b11 + j22 * b21), -(j21 * b12 + j22 * b22)
    half = 0.5 * (m11 + m22)
    # tr^2/4 - det M >= -det M = -det B~ > 0: the two eigenvalues are real
    disc = half * half - (m11 * m22 - m12 * m21)
    root = _sqrt(_select(0.0 > disc, 0.0, disc))
    # U takes the eigenvalue nearest k
    root = _select(abs(half - root - k) < abs(half + root - k), -root, root)
    lam_u, lam_v = half + root, half - root

    def unit_eigenvector(lam):
        d1, d2 = lam - m11, lam - m22
        w = _select(_longer(d1, m12, m21, d2), (m12, d1), (d2, m21))
        n = _sqrt(inner(w, w))
        return (w[0] / n, w[1] / n)

    u = unit_eigenvector(lam_u)
    v = unit_eigenvector(lam_v)

    if ref_u is not None:
        u = _flip(inner(u, _entries(ref_u, 1)) < 0, u)
    elif ref_v is None:
        u = _flip(_select(abs(u[0]) > 1e-6 * abs(u[1]), u[0] < 0, u[1] < 0), u)
    if ref_v is not None:
        v = _flip(inner(v, _entries(ref_v, 1)) < 0, v)
        if ref_u is None:
            u = _flip(inner(rotated(u), v) < 0, u)  # orientation fixes the remaining sign
    else:
        v = _flip(inner(rotated(u), v) < 0, v)
    theta = _angle(inner(u, v))
    # + 0.0 turns a -0.0 entry into 0.0
    return AsymptoticFrame(u=_assemble(u, 1) + 0.0, v=_assemble(v, 1) + 0.0, theta=theta, k=k)


def _frame_rates(data, q):
    """The frame at q, the covariant derivatives ``D~_V U`` and ``D~_U V``
    of its two frame fields, sign-aligned with it, the gradient of ln k, and
    the connection coefficients at q: one FD stencil over the stacked fields
    (U, V, ln k) and one Gamma read, at one point or at each row of an
    (N, 2) batch."""
    base = asymptotic_frame(data, q)

    def frame_fields(qq, ref_u=base.u, ref_v=base.v):
        frame = asymptotic_frame(data, qq, ref_u=ref_u, ref_v=ref_v)
        return np.concatenate([frame.u, frame.v, np.log(frame.k)[..., None]], axis=-1)

    def stacked_fields(qq):  # the stacked stencil rows of a batch
        s = len(qq) // len(q)
        return frame_fields(qq, np.tile(base.u, (s, 1)), np.tile(base.v, (s, 1)))

    # d[..., i, :] = (d_i U, d_i V, d_i ln k)
    d = _fd.gradient(frame_fields if q.ndim == 1 else stacked_fields, q, FD_STEP)
    gam = data.gamma(q)

    def rate(x, dfield, y):
        """D~_x Y from the partials ``dfield`` of Y and its value y at q."""
        return (np.einsum("...i,...ik->...k", x, dfield)
                + np.einsum("...kij,...i,...j->...k", gam, x, y))

    return (base, rate(base.v, d[..., 0:2], base.u), rate(base.u, d[..., 2:4], base.v),
            d[..., 4], gam)


def covariant_rate_check(data, q):
    """Residual norms of the two closed-form covariant rates of the frame:

        D~_V U = -(sin theta / 2)(U.kappa + III(tau, J U)) J U
        D~_U V = +(sin theta / 2)(V.kappa + III(tau, J V)) J V

    with kappa = ln k.  The kappa sign is the one that closes both identities
    under this package's orientation conventions; it was pinned by
    independent finite differences on torsion-free and torsion-carrying
    examples.  Returns (residual_VU, residual_UV).
    """
    q = as_point(q, 2)
    base, nabla_v_u, nabla_u_v, kappa_grad, gam = _frame_rates(data, q)
    u_kappa = float(base.u @ kappa_grad)
    v_kappa = float(base.v @ kappa_grad)

    g = data.third_form(q)
    j = complex_structure(g)
    tau = _torsion_from_gamma(gam, g, q)
    ju = j @ base.u
    jv = j @ base.v
    sin_t = np.sin(base.theta)
    rhs_vu = -(sin_t / 2.0) * (u_kappa + float(tau @ g @ ju)) * ju
    rhs_uv = +(sin_t / 2.0) * (v_kappa + float(tau @ g @ jv)) * jv
    return (data.norm(q, nabla_v_u - rhs_vu), data.norm(q, nabla_u_v - rhs_uv))


@dataclass
class AsymptoticTrace:
    """Samples of an asymptotic-curve trace plus its closure diagnostics."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    thetas: np.ndarray
    delta: float
    sigma: float
    quasi_defect: float
    defect_running: np.ndarray = None
    left_patch: bool = False

    def running_columns(self):
        """(delta_running, sigma_running, defect_running) arrays."""
        run_min = np.minimum.accumulate(self.thetas)
        run_max = np.maximum.accumulate(self.thetas)
        delta_run = np.pi + run_min - run_max
        sigma_run = np.concatenate([[0.0], np.cumsum(
            0.5 * (np.sin(self.thetas[1:]) + np.sin(self.thetas[:-1])) * np.diff(self.s))])
        return delta_run, sigma_run, self.defect_running


def _asymptotic_flow(data, q, which, ref, length, step):
    """RK4 samples ``(s, point, direction, frame)`` of the unit flow of U (or
    V) from q, starting with s = 0.  Each direction is sign-aligned with the
    one before, the first with ``ref`` (by :func:`asymptotic_frame`'s own
    rule when ``ref`` is None).  The steps run on the chart flow of
    ``curves``, which raises LeftPatch where the flow leaves the chart; so
    does a frame read at a sample that lacks chart room."""

    def direction(qq, r):
        fr = asymptotic_frame(data, qq, ref_u=r if which == "U" else None,
                              ref_v=r if which == "V" else None)
        return (fr.u if which == "U" else fr.v), fr

    def rhs(t, qq):
        # a step's first stage reads the sample just taken, whose direction
        # is known: recomputing it with itself as reference gives vec again
        return vec if qq is cur else direction(qq, vec)[0]

    vec, fr = direction(q, ref)
    yield 0.0, q, vec, fr
    cur = q
    # the flow reads the latest vec, so each step follows the sign of the last
    for s, cur in _chart_flow(data, rhs, cur, length, step, trace_margin(data, step)):
        vec, fr = _chart_read(lambda _, qq: direction(qq, vec), s, cur)
        yield s, cur, vec, fr


def trace_asymptotic(data, q, which, length, step):
    """Integrate the unit flow of U (or V) and collect the diagnostics:
    delta = pi + inf theta - sup theta, sigma = integral of sin theta, and
    the quasi-geodesic defect (max angle between the velocity and the
    parallel transport of the initial velocity).
    """
    _require_shape_mode(data)
    q = as_point(q, 2)
    which = which.upper()
    if which not in ("U", "V"):
        raise ValueError("direction must be 'U' or 'V'")
    flow = _asymptotic_flow(data, q, which, None, length, step)
    samples = [next(flow)]
    left = False
    try:
        for sample in flow:
            samples.append(sample)
    except LeftPatch:
        left = True

    s_vals, pts, vels, frames = zip(*samples)
    s_arr, pts, vels = np.array(s_vals), np.array(pts), np.array(vels)
    thetas = np.array([fr.theta for fr in frames])
    delta = float(np.pi + thetas.min() - thetas.max())
    sigma = float(np.trapezoid(np.sin(thetas), s_arr)) if len(s_arr) > 1 else 0.0

    trace = CurveTrace.from_samples(s_arr, pts, vels)
    transported = parallel_transport_samples(data, trace, vels[0])
    # the angle from each velocity to its transported vector, from one III read
    g = data.third_form(pts)
    jv = (complex_structure(g) @ vels[..., None])[..., 0]
    defects = np.abs(np.arctan2(_quadratic(jv, g, transported),
                                _quadratic(vels, g, transported)))
    defect_run = np.maximum.accumulate(defects)
    return AsymptoticTrace(s=s_arr, points=pts, velocities=vels, thetas=thetas,
                           delta=delta, sigma=sigma,
                           quasi_defect=float(defect_run[-1]),
                           defect_running=defect_run, left_patch=left)


def measured_tau1(data, points):
    """sup of ||D~_U V|| / sin(theta) and ||D~_V U|| / sin(theta) over a
    sample of parameter points; the measured stand-in for the closed-form
    rate constant.  The points are read as one batch."""
    q = as_points(np.reshape(np.asarray(points, dtype=float), (-1, 2)), 2)
    base, nabla_v_u, nabla_u_v, _, _ = _frame_rates(data, q)
    worst = np.maximum(data.norm(q, nabla_v_u), data.norm(q, nabla_u_v)) / np.sin(base.theta)
    return float(np.max(worst))


# ---------------------------------------------------------------------------
# coordinate net


class _NetLine:
    """One asymptotic line of the net: the samples of its flow from q,
    pulled from the generator only as far as an evaluation reaches."""

    def __init__(self, data, q, which, ref, length, step):
        self._flow = _asymptotic_flow(data, q, which, ref, length, step)
        s, p, vel, _ = next(self._flow)
        self.s, self.points, self.velocities = [s], [p], [vel]

    def eval(self, sv):
        """(point, velocity) at arclength sv, by cubic Hermite interpolation
        between samples as in ``CurveTrace.eval``; sv is clipped to the
        flow's full length."""
        s = self.s
        if s[-1] < sv or len(s) < 2:
            for t, p, vel, _ in self._flow:
                s.append(t)
                self.points.append(p)
                self.velocities.append(vel)
                if t >= sv:
                    break
        sv = min(max(sv, s[0]), s[-1])
        i = min(max(bisect.bisect_left(s, sv) - 1, 0), len(s) - 2)
        h = s[i + 1] - s[i]
        return hermite((sv - s[i]) / h, h, self.points[i], self.velocities[i],
                       self.points[i + 1], self.velocities[i + 1])


def net_expansion_check(data, q, lengths, n_u=6, n_v=6):
    """Build the asymptotic coordinate net and test the expansion bounds.

    Each net line is one asymptotic flow, extended lazily: the U-line
    through ``P[0][j]`` (the base V-line at arclength v_j) and the V-line
    through ``P[i][0]`` (the base U-line at arclength u_i).  ``P[i][j]`` is
    the intersection of the U-line j with the V-line i, found by a Newton
    solve in the two arclengths that starts one cell past ``P[i-1][j]`` and
    ``P[i][j-1]``; a line is integrated only as far as that solve reads it.
    beta and alpha, the U- and V-speeds of the net parametrization, are the
    arclength differences along the two lines divided by the cell sides.
    The report compares their logarithmic derivatives along the net with
    the measured torsion-rate bound tau0 + 2 tau1.  Every line is traced at
    an eighth of the smaller cell side, ``min(L_u/n_u, L_v/n_v)/8``.
    """
    _require_shape_mode(data)
    q = as_point(q, 2)
    l_u, l_v = float(lengths[0]), float(lengths[1])

    report = {"n_u": n_u, "n_v": n_v, "L_u": l_u, "L_v": l_v}
    if l_u == 0.0 or n_u == 0:
        report["alpha"] = np.ones((1, n_v + 1))
        report["beta"] = np.ones((1, n_v + 1))
        report["trivial"] = True
        return report
    step = min(l_u / n_u, l_v / n_v) / 8.0

    du = l_u / n_u
    dv = l_v / n_v
    # a Newton solve moves at most 2.45 cells along a line per net point
    base_u = _NetLine(data, q, "U", asymptotic_frame(data, q).u, 2.5 * l_u, step)

    pts = np.empty((n_u + 1, n_v + 1, 2))
    arc_u = np.zeros((n_u + 1, n_v + 1))  # arclength of P[i][j] on the U-line j
    arc_v = np.zeros((n_u + 1, n_v + 1))  # arclength of P[i][j] on the V-line i
    alpha = np.ones((n_u + 1, n_v + 1))
    beta = np.ones((n_u + 1, n_v + 1))

    v_lines = []
    for i in range(n_u + 1):
        p, vel = base_u.eval(i * du)
        pts[i, 0] = p
        v_lines.append(_NetLine(data, p, "V", asymptotic_frame(data, p, ref_u=vel).v,
                                2.5 * l_v, step))
    u_lines = [base_u]
    for j in range(1, n_v + 1):
        p, vel = v_lines[0].eval(j * dv)
        pts[0, j] = p
        u_lines.append(_NetLine(data, p, "U", asymptotic_frame(data, p, ref_v=vel).u,
                                2.5 * l_u, step))

    for i in range(1, n_u + 1):
        for j in range(1, n_v + 1):
            # Newton solve for U-line j at s = V-line i at t near one cell on
            s0, t0 = arc_u[i - 1, j], arc_v[i, j - 1]
            s, t = s0 + du, t0 + dv
            for _ in range(30):
                pu, vu = u_lines[j].eval(s)
                pv, vv = v_lines[i].eval(t)
                f = pu - pv
                if np.linalg.norm(f) < 1e-12:
                    break
                ds, dt = np.linalg.solve(np.column_stack([vu, -vv]), -f)
                s = float(np.clip(s + ds, s0, s0 + 2.45 * du))
                t = float(np.clip(t + dt, t0, t0 + 2.45 * dv))
            pts[i, j] = pu
            arc_u[i, j], arc_v[i, j] = s, t
            beta[i, j] = (s - s0) / du
            alpha[i, j] = (t - t0) / dv

    # row 0 / column 0 speeds are exactly 1 by the base parametrization
    report["alpha"] = alpha
    report["beta"] = beta
    report["points"] = pts

    tau1 = measured_tau1(data, pts[::max(1, n_u // 3), ::max(1, n_v // 3)])
    report["tau1"] = tau1
    if data.mode == "immersion":
        k1, k2, k3, tau0 = measured_pinching(
            data, pts[::max(1, n_u // 2), ::max(1, n_v // 2)].reshape(-1, 2))
        report["pinching"] = (k1, k2, k3)
    else:
        tau0 = float(np.max(data.torsion_norm(pts.reshape(-1, 2))))
    report["tau0"] = tau0
    bound = tau0 + 2.0 * tau1
    report["bound"] = bound

    # |d_u alpha| <= bound * alpha * beta and |d_v beta| <= bound * alpha * beta
    ab = alpha * beta
    da = (alpha[2:, 1:] - alpha[:-2, 1:]) / (2 * du)
    db = (beta[1:, 2:] - beta[1:, :-2]) / (2 * dv)
    report["sup_dua_over_ab"] = float(np.max(np.abs(da) / ab[1:-1, 1:], initial=0.0))
    report["sup_dvb_over_ab"] = float(np.max(np.abs(db) / ab[1:, 1:-1], initial=0.0))

    # dL/dv of the rows against the integrated bound; each column of beta is
    # integrated as one contiguous row, as a column alone would be
    lengths_v = np.trapezoid(np.ascontiguousarray(beta.T), dx=du)
    report["row_lengths"] = lengths_v
    report["dL_dv"] = np.gradient(lengths_v, dv)
    report["dL_dv_bound"] = bound * np.max(alpha, axis=0) * lengths_v
    return report

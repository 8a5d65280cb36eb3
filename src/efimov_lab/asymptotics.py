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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _fd
from .ambient import _assemble, _entries, _first, _quadratic, as_point, as_points
from .connection import FD_STEP, _inverse_shape_operator, _rotation, _sqrt
from .connection import _torsion_from_gamma, complex_structure, measured_pinching
from .curves import CurveTrace, _chart_flow, _chart_read
from .curves import parallel_transport_samples, trace_margin
from .errors import LeftPatch, ModeUnsupported, NonHyperbolicPoint, ParameterOutOfRange

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


def _per_row(fn, nin):
    """``fn`` of floats for one point, and row by row for the (N,) arrays of
    a batch: one libm call on both paths, where numpy's arccos rounds a last
    bit differently on a share of inputs."""
    rows = np.frompyfunc(fn, nin, 1)
    return lambda *x: rows(*x).astype(float) if isinstance(x[0], np.ndarray) else fn(*x)


_angle = _per_row(lambda c: math.acos(min(max(c, -1.0), 1.0)), 1)  # |cos| may round past 1


def _longer(a, b, c, d):
    """Whether the row (a, b) of a 2x2 matrix is at least as long as the row
    (c, d): squared norms, which round alike on floats and on (N,) arrays."""
    return a * a + b * b >= c * c + d * d


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
    bad = det >= 0  # a bool at one point
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        i = _first(bad)
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


def _asymptotic_flow(data, q, which, length, step):
    """RK4 samples ``(s, point, direction, frame)`` of the unit flow of U (or
    V) from q, starting with s = 0.  The first direction takes
    :func:`asymptotic_frame`'s own sign rule and each later one is
    sign-aligned with the one before.  The steps run on the chart flow of
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

    vec, fr = direction(q, None)
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
    flow = _asymptotic_flow(data, q, which, length, step)
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


SUB_CELLS = 4  # sub-cells per net cell side: see net_expansion_check


def _cell_solve(c, u_bar, b, v_bar):
    """``(s, t, D)`` with ``D = C + s Ubar = B + t Vbar`` on each row, the
    2x2 system solved by cross products."""

    def cross(x, y):
        return x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]

    w, det = b - c, cross(u_bar, v_bar)
    s = cross(w, v_bar) / det
    return s, cross(w, u_bar) / det, c + s[:, None] * u_bar


def net_expansion_check(data, q, lengths, n_u=6, n_v=6):
    """Build the asymptotic coordinate net and test the expansion bounds.

    The net is the characteristic net of the hyperbolic Monge-Ampere
    equation, which Goursat data on its two base lines fix, and it is built
    by one explicit march over anti-diagonals.  Each net cell is cut into
    SUB_CELLS x SUB_CELLS sub-cells.  The base lines are the U- and V-flows
    from q, exactly ``L_u`` and ``L_v`` long, stepped at the sub-cell side;
    each sample gives a sub-node and both directions there.

    Sub-node ``D = P[i, j]`` lies on the U-line through ``C = P[i-1, j]``
    and on the V-line through ``B = P[i, j-1]``, so ``C + s Ubar = B + t
    Vbar``.  ``Ubar = (U_C + 4 U_M + U_D)/6`` is Simpson's rule along the
    side, ``U_M`` read at its cubic Hermite midpoint
    ``(C + D)/2 + s (U_C - U_D)/8``, and ``Vbar`` is formed the same way.
    From ``Ubar = U_C`` and ``Vbar = V_B``, three passes each read the
    frames at D and at both midpoints of a whole anti-diagonal in one batch
    (signs aligned with U_C and V_B), and a last solve places D.  Each pass
    gains an order; with three, the error against the saddle's closed form
    falls 15x per doubling of n (fourth order).  s and t are the
    III-arclengths of the sub-sides, so beta (alpha), the U- (V-) speed of
    the net parametrization at a net node, is the sum of its SUB_CELLS
    sub-side s (t) values divided by the cell side; row 0 and column 0
    speeds are 1 by the base parametrization.  Four sub-cells keep the
    saddle's net within 2.5e-8 of its closed form on cells of 0.15 and
    1.7e-7 on cells of 0.25, far below the 0.05 slack of the CLI's rate
    checks; eight would cut that 16x but double the time of a small net
    (2x2 cells: 55 against 27 ms).

    Counts must be integers >= 0 and lengths finite and >= 0 (else
    ParameterOutOfRange).  A zero count or length on either side gives a
    ``trivial`` report with unit speeds.  Otherwise the report compares the
    logarithmic derivatives of the speeds along the net with the measured
    torsion-rate bound tau0 + 2 tau1.
    """
    _require_shape_mode(data)
    q = as_point(q, 2)
    l_u, l_v = float(lengths[0]), float(lengths[1])
    for side, n, length in (("u", n_u, l_u), ("v", n_v, l_v)):
        if not isinstance(n, numbers.Integral) or n < 0:
            raise ParameterOutOfRange(f"n_{side} must be an integer >= 0, got {n!r}")
        if not 0.0 <= length < math.inf:
            raise ParameterOutOfRange(f"L_{side} must be finite and >= 0, got {length!r}")

    report = {"n_u": n_u, "n_v": n_v, "L_u": l_u, "L_v": l_v}
    alpha, beta = np.ones((2, n_u + 1, n_v + 1))
    if 0 in (n_u, n_v) or 0.0 in (l_u, l_v):
        report.update(alpha=alpha, beta=beta, trivial=True)
        return report
    du, dv = l_u / n_u, l_v / n_v
    m = SUB_CELLS
    nu, nv = m * n_u, m * n_v
    sub, vec_u, vec_v = np.empty((3, nu + 1, nv + 1, 2))  # sub-nodes, U and V there
    for i, (_, p, vel, fr) in enumerate(_asymptotic_flow(data, q, "U", l_u, l_u / nu)):
        sub[i, 0], vec_u[i, 0], vec_v[i, 0] = p, vel, fr.v
    for j, (_, p, vel, fr) in enumerate(_asymptotic_flow(data, q, "V", l_v, l_v / nv)):
        sub[0, j], vec_u[0, j], vec_v[0, j] = p, fr.u, vel
    # s and t: the U-side from P[i-1, j] and the V-side from P[i, j-1] to P[i, j]
    arc_u, arc_v = np.zeros((2, nu + 1, nv + 1))

    for d in range(2, nu + nv + 1):
        i = np.arange(max(1, d - nv), min(nu, d - 1) + 1)
        j = d - i
        k = len(i)
        c, u_c = sub[i - 1, j], vec_u[i - 1, j]
        b, v_b = sub[i, j - 1], vec_v[i, j - 1]
        u_d, v_d, u_bar, v_bar = u_c, v_b, u_c, v_b
        refs = np.tile(u_c, (3, 1)), np.tile(v_b, (3, 1))
        for _ in range(3):
            s, t, p = _cell_solve(c, u_bar, b, v_bar)
            fr = asymptotic_frame(data, np.concatenate(
                [p, (c + p) / 2 + s[:, None] * (u_c - u_d) / 8,
                 (b + p) / 2 + t[:, None] * (v_b - v_d) / 8]), *refs)
            u_d, v_d = fr.u[:k], fr.v[:k]
            u_bar = (u_c + 4 * fr.u[k:2 * k] + u_d) / 6
            v_bar = (v_b + 4 * fr.v[2 * k:] + v_d) / 6
        arc_u[i, j], arc_v[i, j], sub[i, j] = _cell_solve(c, u_bar, b, v_bar)
        vec_u[i, j], vec_v[i, j] = u_d, v_d

    beta[1:, 1:] = arc_u[1:, m::m].reshape(n_u, m, n_v).sum(axis=1) / du
    alpha[1:, 1:] = arc_v[m::m, 1:].reshape(n_u, n_v, m).sum(axis=2) / dv
    pts = sub[::m, ::m]
    report.update(alpha=alpha, beta=beta, points=pts)

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

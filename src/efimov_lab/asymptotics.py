"""Asymptotic directions of a hyperbolic immersion: the unit frame (U, V),
its angle and covariant rates, asymptotic-curve traces with their closure
diagnostics, and the coordinate-net expansion bounds.

At a point with negative extrinsic curvature the inverse shape operator B~
has two unit directions with ``B~ U = k J U`` and ``B~ V = -k J V``,
``k = |det B~|^{1/2}``.  All norms and angles here use the third fundamental
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fd
from .ambient import as_point
from .connection import FD_STEP, covariant_derivative_of_field
from .curves import CurveTrace, parallel_transport_samples, rk4_samples
from .errors import LeftPatch, ModeUnsupported, NonHyperbolicPoint, PointOutsideChart

__all__ = [
    "AsymptoticFrame",
    "AsymptoticTrace",
    "asymptotic_frame",
    "covariant_rate_check",
    "trace_asymptotic",
    "net_expansion_check",
    "measured_tau1",
    "theta_mean_curvature_residual",
]


@dataclass
class AsymptoticFrame:
    """Unit asymptotic directions, their angle, and the eigenvalue k."""

    u: np.ndarray
    v: np.ndarray
    theta: float
    k: float


def _require_shape_mode(data):
    if data.mode == "torsion":
        raise ModeUnsupported(
            "asymptotic directions need an inverse shape operator; "
            "metric+torsion data has none")


def asymptotic_frame(data, q, ref_u=None, ref_v=None):
    """The asymptotic frame at q, oriented so theta lies in (0, pi).

    Signs: U takes the eigendirection with positive first chart component
    (ties broken by the second); V is then oriented so the frame is
    positively ordered.  When ``ref_u``/``ref_v`` are given, signs maximize
    the metric inner product with them instead (continuity along traces).
    """
    _require_shape_mode(data)
    q = as_point(q, 2)
    bt = data.b_tilde(q)
    det = float(np.linalg.det(bt))
    if det >= 0:
        raise NonHyperbolicPoint(f"det B~ = {det:.3e} >= 0 at q={q}")
    k = float(np.sqrt(-det))
    j = data.complex_structure(q)
    m = -j @ bt
    vals, vecs = np.linalg.eig(m)
    vals = np.real(vals)
    vecs = np.real(vecs)
    iu = int(np.argmin(np.abs(vals - k)))
    iv = 1 - iu
    g = data.third_form(q)

    def unit(w):
        return w / np.sqrt(w @ g @ w)

    u = unit(vecs[:, iu])
    v = unit(vecs[:, iv])

    if ref_u is not None:
        if float(u @ g @ np.asarray(ref_u)) < 0:
            u = -u
    elif ref_v is None:
        if u[0] < 0 or (u[0] == 0 and u[1] < 0):
            u = -u
    if ref_v is not None:
        if float(v @ g @ np.asarray(ref_v)) < 0:
            v = -v
        if ref_u is None and float((j @ u) @ g @ v) < 0:
            u = -u  # orientation fixes the remaining sign
    elif float((j @ u) @ g @ v) < 0:
        v = -v
    cos_t = float(np.clip(u @ g @ v, -1.0, 1.0))
    theta = float(np.arccos(cos_t))
    return AsymptoticFrame(u=u, v=v, theta=theta, k=k)


def frame_residuals(data, q, frame):
    """Norms of B~U - kJU and B~V + kJV; both vanish for a correct frame."""
    bt = data.b_tilde(q)
    j = data.complex_structure(q)
    r1 = bt @ frame.u - frame.k * (j @ frame.u)
    r2 = bt @ frame.v + frame.k * (j @ frame.v)
    return data.norm(q, r1), data.norm(q, r2)


def theta_mean_curvature_residual(data, q):
    """| |cot theta| - |H| sqrt(|det B~|) | for the mean curvature H of the
    immersion; orientation conventions drop out through the absolute values."""
    frame = asymptotic_frame(data, q)
    b = data.b_matrix(q)
    h = 0.5 * float(np.trace(b))
    det_bt = abs(float(np.linalg.det(data.b_tilde(q))))
    cot = np.cos(frame.theta) / np.sin(frame.theta)
    return abs(abs(cot) - abs(h) * np.sqrt(det_bt))


def _kappa_log(data, q):
    bt = data.b_tilde(q)
    det = float(np.linalg.det(bt))
    if det >= 0:
        raise NonHyperbolicPoint(f"det B~ = {det:.3e} >= 0 at q={q}")
    return 0.5 * np.log(-det)  # ln k


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
    base = asymptotic_frame(data, q)

    def u_field(qq):
        return asymptotic_frame(data, qq, ref_u=base.u, ref_v=base.v).u

    def v_field(qq):
        return asymptotic_frame(data, qq, ref_u=base.u, ref_v=base.v).v

    nabla_v_u = covariant_derivative_of_field(data, q, base.v, u_field)
    nabla_u_v = covariant_derivative_of_field(data, q, base.u, v_field)

    kappa_grad = _fd.gradient(lambda qq: _kappa_log(data, qq), q, FD_STEP)
    u_kappa = float(base.u @ kappa_grad)
    v_kappa = float(base.v @ kappa_grad)

    g = data.third_form(q)
    j = data.complex_structure(q)
    tau = data.torsion_vector(q)
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
    frames: list
    delta: float
    sigma: float
    quasi_defect: float
    defect_running: np.ndarray = None
    left_patch: bool = False
    which: str = "U"

    def curve_trace(self):
        return CurveTrace.from_samples(self.s, self.points, self.velocities)

    def running_columns(self):
        """(delta_running, sigma_running, defect_running) arrays."""
        run_min = np.minimum.accumulate(self.thetas)
        run_max = np.maximum.accumulate(self.thetas)
        delta_run = np.pi + run_min - run_max
        sigma_run = np.concatenate([[0.0], np.cumsum(
            0.5 * (np.sin(self.thetas[1:]) + np.sin(self.thetas[:-1])) * np.diff(self.s))])
        return delta_run, sigma_run, self.defect_running

    def to_csv(self, path):
        from .cli import write_csv
        d, sg, df = self.running_columns()
        rows = np.column_stack([self.s, self.points, self.thetas, d, sg, df])
        write_csv(path, ["s", "u", "v", "theta", "delta_running", "sigma_running",
                         "defect_running"], rows)


def trace_asymptotic(data, q, which, length, step, margin=None):
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
    if margin is None:
        margin = 4.0 * step if data.mode == "immersion" else 0.0

    def direction(qq, ref):
        fr = asymptotic_frame(data, qq, ref_u=ref if which == "U" else None,
                              ref_v=ref if which == "V" else None)
        vec = fr.u if which == "U" else fr.v
        if ref is not None and float(vec @ data.third_form(qq) @ ref) < 0:
            vec = -vec
        return vec, fr

    vec0, fr0 = direction(q, None)
    s_vals = [0.0]
    pts = [q]
    vels = [vec0]
    frames = [fr0]
    left = False
    ref = vec0
    try:
        # the flow reads the latest ref, so each step follows the sign of the last
        for s, cur in rk4_samples(lambda t, qq: direction(qq, ref)[0], q, length, step):
            if not data.contains(cur, margin=margin):
                left = True
                break
            ref, fr = direction(cur, ref)
            s_vals.append(s)
            pts.append(cur)
            vels.append(ref)
            frames.append(fr)
    except PointOutsideChart:
        left = True

    s_arr = np.array(s_vals)
    pts = np.array(pts)
    vels = np.array(vels)
    thetas = np.array([fr.theta for fr in frames])
    delta = float(np.pi + thetas.min() - thetas.max())
    sigma = float(np.trapezoid(np.sin(thetas), s_arr)) if len(s_arr) > 1 else 0.0

    trace = CurveTrace.from_samples(s_arr, pts, vels)
    transported = parallel_transport_samples(data, trace, vels[0])
    defects = np.empty(len(s_arr))
    for i in range(len(s_arr)):
        g = data.third_form(pts[i])
        j = data.complex_structure(pts[i])
        a = vels[i]
        b = transported[i]
        defects[i] = abs(float(np.arctan2((j @ a) @ g @ b, a @ g @ b)))
    defect_run = np.maximum.accumulate(defects)
    return AsymptoticTrace(s=s_arr, points=pts, velocities=vels, thetas=thetas,
                           frames=frames, delta=delta, sigma=sigma,
                           quasi_defect=float(defect_run[-1]),
                           defect_running=defect_run, left_patch=left, which=which)


def measured_tau1(data, points):
    """sup of ||D~_U V|| / sin(theta) and ||D~_V U|| / sin(theta) over a
    sample of parameter points; the measured stand-in for the closed-form
    rate constant."""
    worst = 0.0
    for q in points:
        q = as_point(q, 2)
        base = asymptotic_frame(data, q)

        def u_field(qq):
            return asymptotic_frame(data, qq, ref_u=base.u, ref_v=base.v).u

        def v_field(qq):
            return asymptotic_frame(data, qq, ref_u=base.u, ref_v=base.v).v

        nvu = data.norm(q, covariant_derivative_of_field(data, q, base.v, u_field))
        nuv = data.norm(q, covariant_derivative_of_field(data, q, base.u, v_field))
        worst = max(worst, nvu / np.sin(base.theta), nuv / np.sin(base.theta))
    return float(worst)


# ---------------------------------------------------------------------------
# coordinate net


def _flow_curve(data, q, which, ref, length, step):
    """Integrate the sign-aligned asymptotic flow; plain curve, no diagnostics."""
    q = as_point(q, 2)

    def direction(qq, r):
        fr = asymptotic_frame(data, qq)
        vec = fr.u if which == "U" else fr.v
        if float(vec @ data.third_form(qq) @ r) < 0:
            vec = -vec
        return vec

    ref_d = direction(q, np.asarray(ref, dtype=float))
    s_vals = [0.0]
    pts = [q]
    vels = [ref_d]
    margin = 4.0 * step if data.mode == "immersion" else 0.0
    for s, cur in rk4_samples(lambda t, qq: direction(qq, ref_d), q, length, step):
        if not data.contains(cur, margin=margin):
            raise LeftPatch(f"net flow left the patch near {cur}")
        ref_d = direction(cur, ref_d)
        s_vals.append(s)
        pts.append(cur)
        vels.append(ref_d)
    return CurveTrace.from_samples(np.array(s_vals), np.array(pts), np.array(vels))


def _intersect(data, c, b, ref_u, ref_v, du, dv, step):
    """Newton solve for flow_U(c, s) = flow_V(b, t) near (du, dv).

    The two flows are integrated once up to 2.5 times the expected arc and
    the Newton iteration moves only the evaluation parameters.
    """
    tr_u = _flow_curve(data, c, "U", ref_u, 2.5 * du, step)
    tr_v = _flow_curve(data, b, "V", ref_v, 2.5 * dv, step)
    s, t = du, dv
    pu, vu = tr_u.eval(s)
    for _ in range(30):
        pu, vu = tr_u.eval(s)
        pv, vv = tr_v.eval(t)
        f = pu - pv
        if np.linalg.norm(f) < 1e-12:
            break
        jac = np.column_stack([vu, -vv])
        ds, dt = np.linalg.solve(jac, -f)
        s = float(np.clip(s + ds, 0.0, 2.45 * du))
        t = float(np.clip(t + dt, 0.0, 2.45 * dv))
    return s, t, pu, vu, tr_v.eval(t)[1]


def net_expansion_check(data, q, lengths, n_u=6, n_v=6, step=None):
    """Build the asymptotic coordinate net and test the expansion bounds.

    The net point P[i][j] is the intersection of the V-curve through the
    base U-curve at arclength u_i with the U-curve through the base V-curve
    at arclength v_j.  alpha and beta are the V- and U-speeds of the net
    parametrization; the report compares their logarithmic derivatives along
    the net with the measured torsion-rate bound tau0 + 2 tau1.
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
    if step is None:
        step = min(l_u / n_u, l_v / n_v) / 8.0

    du = l_u / n_u
    dv = l_v / n_v
    fr0 = asymptotic_frame(data, q)
    base_u = _flow_curve(data, q, "U", fr0.u, l_u, step)
    base_v = _flow_curve(data, q, "V", fr0.v, l_v, step)

    pts = np.empty((n_u + 1, n_v + 1, 2))
    u_dirs = np.empty((n_u + 1, n_v + 1, 2))
    v_dirs = np.empty((n_u + 1, n_v + 1, 2))
    alpha = np.ones((n_u + 1, n_v + 1))
    beta = np.ones((n_u + 1, n_v + 1))

    for i in range(n_u + 1):
        p, vel = base_u.eval(i * du)
        pts[i, 0] = p
        u_dirs[i, 0] = vel
        fr = asymptotic_frame(data, p, ref_u=vel)
        v_dirs[i, 0] = fr.v
    for j in range(n_v + 1):
        p, vel = base_v.eval(j * dv)
        pts[0, j] = p
        v_dirs[0, j] = vel
        fr = asymptotic_frame(data, p, ref_v=vel)
        u_dirs[0, j] = fr.u

    for i in range(1, n_u + 1):
        for j in range(1, n_v + 1):
            c = pts[i - 1, j]     # previous point on the same U-line
            b = pts[i, j - 1]     # previous point on the same V-line
            s_len, t_len, p_new, udir, vdir = _intersect(
                data, c, b, u_dirs[i - 1, j], v_dirs[i, j - 1], du, dv, step)
            pts[i, j] = p_new
            u_dirs[i, j] = udir
            v_dirs[i, j] = vdir
            beta[i, j] = s_len / du
            alpha[i, j] = t_len / dv

    # row 0 / column 0 speeds are exactly 1 by the base parametrization
    report["alpha"] = alpha
    report["beta"] = beta
    report["points"] = pts

    tau1 = measured_tau1(data, [pts[i, j] for i in range(0, n_u + 1, max(1, n_u // 3))
                                for j in range(0, n_v + 1, max(1, n_v // 3))])
    report["tau1"] = tau1
    if data.mode == "immersion":
        from .connection import measured_pinching
        k1, k2, k3, tau0 = measured_pinching(
            data, [pts[i, j] for i in range(0, n_u + 1, max(1, n_u // 2))
                   for j in range(0, n_v + 1, max(1, n_v // 2))])
        report["pinching"] = (k1, k2, k3)
    else:
        tau0 = max(data.torsion_norm(pts[i, j]) for i in range(n_u + 1)
                   for j in range(n_v + 1))
    report["tau0"] = tau0
    bound = tau0 + 2.0 * tau1
    report["bound"] = bound

    # |d_u alpha| <= bound * alpha * beta and |d_v beta| <= bound * alpha * beta
    sup_a = 0.0
    sup_b = 0.0
    for i in range(1, n_u):
        for j in range(1, n_v + 1):
            da = (alpha[i + 1, j] - alpha[i - 1, j]) / (2 * du)
            sup_a = max(sup_a, abs(da) / (alpha[i, j] * beta[i, j]))
    for i in range(1, n_u + 1):
        for j in range(1, n_v):
            db = (beta[i, j + 1] - beta[i, j - 1]) / (2 * dv)
            sup_b = max(sup_b, abs(db) / (alpha[i, j] * beta[i, j]))
    report["sup_dua_over_ab"] = sup_a
    report["sup_dvb_over_ab"] = sup_b

    # dL/dv of the rows against the integrated bound
    lengths_v = np.array([np.trapezoid(beta[:, j], dx=du) for j in range(n_v + 1)])
    report["row_lengths"] = lengths_v
    dl = np.gradient(lengths_v, dv)
    report["dL_dv"] = dl
    report["dL_dv_bound"] = np.array([
        bound * np.max(alpha[:, j]) * lengths_v[j] for j in range(n_v + 1)])
    return report

"""Geodesics, parallel transport, geodesic curvature, Jacobi-type fields,
Gauss-Bonnet with torsion and the normal-deformation rate formula, for
surface connections that preserve a metric but may carry torsion.

Every integration in the package, here and in ``asymptotics`` and
``odelab``, steps with the one classical fixed-step 4th-order Runge-Kutta
generator :func:`rk4_samples`; interpolated states and crossing times come
from the one cubic Hermite interpolant :func:`hermite` between stored
samples, so traces are deterministic and reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from . import _fd
from .ambient import as_point
from .connection import complex_structure, orthonormal_frame
from .errors import EndpointSample, OpenBoundary, PointOutsideChart

__all__ = [
    "CurveTrace",
    "JacobiTrace",
    "RegionSpec",
    "BoundarySegment",
    "rk4_samples",
    "hermite",
    "integrate_geodesic",
    "exponential_map",
    "parallel_transport",
    "parallel_transport_samples",
    "geodesic_curvature",
    "integrate_jacobi",
    "jacobi_field",
    "gauss_bonnet_residual",
    "boundary_holonomy_angle",
    "deformation_rate_check",
]


# ---------------------------------------------------------------------------
# traces


@dataclass
class CurveTrace:
    """A sampled curve on the surface; optionally backed by an analytic path."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    step: float
    total_length: float
    closed: bool = False
    left_patch: bool = False
    path: object = None          # optional callable s -> (2,) point
    path_velocity: object = None
    path_acceleration: object = None
    endpoint_error: float = None  # set by integrate_geodesic(error_estimate=True)

    @property
    def s0(self):
        return float(self.s[0])

    @property
    def s1(self):
        return float(self.s[-1])

    def eval(self, sv):
        """(point, velocity) at parameter sv, by the analytic path if there is
        one, else by cubic Hermite interpolation between samples."""
        if self.path is not None:
            p = np.asarray(self.path(sv), dtype=float)
            if self.path_velocity is not None:
                v = np.asarray(self.path_velocity(sv), dtype=float)
            else:
                v = _fd.derivative_along(self.path, sv, 1e-6)
            return p, v
        sv = float(np.clip(sv, self.s[0], self.s[-1]))
        i = int(np.clip(np.searchsorted(self.s, sv) - 1, 0, len(self.s) - 2))
        h = self.s[i + 1] - self.s[i]
        return hermite((sv - self.s[i]) / h, h, self.points[i], self.velocities[i],
                       self.points[i + 1], self.velocities[i + 1])

    def acceleration(self, sv):
        """Second parameter derivative of the curve at sv; without an analytic
        acceleration, central differences of the velocity at the sample step."""
        if self.path_acceleration is not None:
            return np.asarray(self.path_acceleration(sv), dtype=float)
        h = self.step
        if self.path is not None:
            return _fd.derivative_along(lambda t: self.eval(t)[1], sv, h)
        if sv - 2 * h < self.s[0] or sv + 2 * h > self.s[-1]:
            raise EndpointSample(f"s={sv} too close to the trace ends for differentiation")
        return _fd.derivative_along(lambda t: self.eval(t)[1], sv, h)

    def to_csv(self, path):
        from .cli import write_csv  # local import; formatting lives with the CLI
        rows = np.column_stack([self.s, self.points, self.velocities])
        write_csv(path, ["s", "u", "v", "du", "dv"], rows)

    @staticmethod
    def from_path(path, s_range, step, velocity=None, acceleration=None, closed=False,
                  arclength=None):
        a, b = float(s_range[0]), float(s_range[1])
        n = max(2, int(round((b - a) / step)) + 1)
        s = np.linspace(a, b, n)
        pts = np.array([np.asarray(path(t), dtype=float) for t in s])
        if velocity is not None:
            vel = np.array([np.asarray(velocity(t), dtype=float) for t in s])
        else:
            vel = np.array([_fd.derivative_along(path, t, 1e-6) for t in s])
        length = arclength if arclength is not None else b - a
        return CurveTrace(s=s, points=pts, velocities=vel, step=float(s[1] - s[0]),
                          total_length=float(length), closed=closed, path=path,
                          path_velocity=velocity, path_acceleration=acceleration)

    @staticmethod
    def from_samples(s, points, velocities, closed=False, total_length=None):
        s = np.asarray(s, dtype=float)
        step = float(s[1] - s[0]) if len(s) > 1 else 0.0
        return CurveTrace(s=s, points=np.asarray(points, dtype=float),
                          velocities=np.asarray(velocities, dtype=float), step=step,
                          total_length=float(total_length if total_length is not None
                                             else s[-1] - s[0]),
                          closed=closed)


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_samples(f, y, length, step):
    """Classical RK4 solution of ``y' = f(t, y)`` from ``y(0) = y``.

    A lazy generator of ``(t, y)`` after each step of size ``step``; the
    last step is shortened to end at ``length``.  Callers stop it by their
    own rules (leaving the chart, a sign change), and ``f`` may read state
    the caller updates between samples.
    """
    n = max(1, int(np.ceil(length / step - 1e-12)))
    t = 0.0
    for i in range(n):
        h = min(step, length - i * step)
        if h <= 0:
            return
        y = _rk4_step(f, t, y, h)
        t = t + h
        yield t, y


def hermite(t, h, y0, d0, y1, d1):
    """Cubic Hermite interpolant across one step of length h at the fraction
    t of the step, from the end values y0, y1 and end derivatives d0, d1
    (Hairer-Norsett-Wanner, *Solving ODEs I*, II.6).  Returns the value and
    the derivative in the step's parameter."""
    h00 = 2 * t ** 3 - 3 * t ** 2 + 1
    h10 = t ** 3 - 2 * t ** 2 + t
    h01 = -2 * t ** 3 + 3 * t ** 2
    h11 = t ** 3 - t ** 2
    y = h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
    d00 = 6 * t ** 2 - 6 * t
    d10 = 3 * t ** 2 - 4 * t + 1
    d01 = -d00
    d11 = 3 * t ** 2 - 2 * t
    return y, d00 * y0 / h + d10 * d0 + d01 * y1 / h + d11 * d1


def _geodesic_rhs(data):
    def rhs(t, state):
        vv = state[2:]
        return np.concatenate([vv, -np.einsum("kij,i,j->k", data.gamma(state[:2]), vv, vv)])

    return rhs


def integrate_geodesic(data, q, v, length, step, margin=None, error_estimate=False):
    """Trace the geodesic of the connection from q with unit velocity v.

    Unit speed is preserved automatically because the connection is
    compatible with the metric.  If the trace would leave the patch (keeping
    ``margin`` clear of its edge), the partial trace is returned with
    ``left_patch`` set.  With ``error_estimate=True`` the trace carries
    ``endpoint_error``, the chart-coordinate gap to a half-step
    re-integration.
    """
    q = as_point(q, 2)
    v = np.asarray(v, dtype=float)
    nv = data.norm(q, v)
    if abs(nv - 1.0) > 1e-9:
        raise ValueError(f"initial velocity must be a unit vector, |v| = {nv}")
    if margin is None:
        margin = 4.0 * step if data.mode == "immersion" else 0.0

    s_vals = [0.0]
    states = [np.concatenate([q, v])]
    left = False
    try:
        for s, state in rk4_samples(_geodesic_rhs(data), states[0], length, step):
            if not data.contains(state[:2], margin=margin):
                left = True
                break
            s_vals.append(s)
            states.append(state)
    except PointOutsideChart:
        left = True
    s_arr = np.array(s_vals)
    states = np.array(states)
    pts = states[:, :2]
    gap = np.linalg.norm(pts[-1] - pts[0])
    trace = CurveTrace(s=s_arr, points=pts, velocities=states[:, 2:], step=step,
                       total_length=float(s_arr[-1]), closed=bool(gap < 10 * step),
                       left_patch=left)
    if error_estimate and not left:
        fine = integrate_geodesic(data, q, v, trace.total_length, step / 2.0,
                                  margin=margin)
        trace.endpoint_error = float(np.linalg.norm(fine.points[-1] - pts[-1]))
    return trace


def exponential_map(data, q, w):
    """Endpoint of the geodesic with initial velocity w, run for unit time in
    8 RK4 steps."""
    state = np.concatenate([as_point(q, 2), np.asarray(w, dtype=float)])
    for _, state in rk4_samples(_geodesic_rhs(data), state, 1.0, 1.0 / 8):
        pass
    return state[:2]


def parallel_transport_samples(data, trace, w):
    """Transport w along the trace; returns the field at every trace sample.

    The trace and the connection are read once per distinct parameter: the
    RK4 stages k2 and k3 share the midpoint, and k4 lands on the next
    interval's k1.
    """

    @functools.lru_cache(maxsize=2)
    def at(sv):
        p, v = trace.eval(sv)
        return data.gamma(p), v

    def rhs(sv, wv):
        gam, v = at(sv)
        return -np.einsum("kij,i,j->k", gam, v, wv)

    out = np.empty((len(trace.s), 2))
    out[0] = w
    # one RK4 step per sample interval: the field is wanted at the trace's
    # own samples, and their spacing need not be uniform
    for i in range(len(trace.s) - 1):
        out[i + 1] = _rk4_step(rhs, trace.s[i], out[i], trace.s[i + 1] - trace.s[i])
    return out


def parallel_transport(data, trace, w):
    """The parallel transport of w at the end of the trace."""
    return parallel_transport_samples(data, trace, w)[-1]


def geodesic_curvature(data, trace, sv):
    """kappa(s) = III(D~_{c'} c', J c') / |c'|^3 at an interior parameter."""
    p, v = trace.eval(sv)
    acc = trace.acceleration(sv)
    cov = acc + np.einsum("kij,i,j->k", data.gamma(p), v, v)
    g = data.third_form(p)
    jv = data.complex_structure(p) @ v
    speed = np.sqrt(max(v @ g @ v, 1e-300))
    return float((cov @ g @ jv) / speed ** 3)


# ---------------------------------------------------------------------------
# Jacobi-type fields


@dataclass
class JacobiTrace:
    """Solution samples of the variation system along a geodesic."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xp: np.ndarray
    yp: np.ndarray
    ktilde: np.ndarray
    tau_x: np.ndarray
    tau_y: np.ndarray
    left_patch: bool = False

    def to_csv(self, path):
        from .cli import write_csv
        rows = np.column_stack([self.t, self.x, self.y, self.xp, self.yp])
        write_csv(path, ["t", "x", "y", "xp", "yp"], rows)


def integrate_jacobi(ktilde, tau_x, tau_y, init, length, step):
    """Integrate ``x' = y tau_x`` and ``y'' = -K~ y + (y tau_y)'``.

    The second equation is integrated through the exact first-order
    reformulation p := y' - y tau_y, p' = -K~ y, which avoids differentiating
    the sampled product.  ``init`` is (x0, y0, x0', y0').  If a coefficient
    cannot be evaluated for lack of chart room (``PointOutsideChart``), the
    partial field is returned with ``left_patch`` set.

    Each coefficient is evaluated once per distinct time: the RK4 stages k2
    and k3 share ``t + h/2``, k4 lands on the next step's k1, and the
    samples keep the values the steps used.
    """

    @functools.lru_cache(maxsize=2)
    def coefficients(t):
        return tau_x(t), tau_y(t), ktilde(t)

    x0, y0, xp0, yp0 = init
    samples = [coefficients(0.0)]
    state = np.array([x0, y0, yp0 - y0 * samples[0][1]])

    def rhs(t, st):
        x, y, p = st
        tx, ty, k = coefficients(t)
        return np.array([y * tx, p + y * ty, -k * y])

    ts = [0.0]
    states = [state]
    left = False
    try:
        for t, state in rk4_samples(rhs, state, length, step):
            ts.append(t)
            states.append(state)
            samples.append(coefficients(t))
    except PointOutsideChart:
        left = True
    ts = np.array(ts)
    states = np.array(states)
    x, y, p = states[:, 0], states[:, 1], states[:, 2]
    tx, ty, ktl = np.array(samples, dtype=float).T
    return JacobiTrace(t=ts, x=x, y=y, xp=y * tx, yp=p + y * ty,
                       ktilde=ktl, tau_x=tx, tau_y=ty, left_patch=left)


def sandwich_horizon(jt):
    """Largest time up to which y'(0) t / 2 <= y(t) <= 2 y'(0) t holds on the
    trace.  An empirical per-trace quantity; no universal constant is
    claimed."""
    yp0 = jt.yp[0]
    if yp0 <= 0:
        return 0.0
    ok = (jt.y >= 0.5 * yp0 * jt.t - 1e-12) & (jt.y <= 2.0 * yp0 * jt.t + 1e-12)
    ok[0] = True
    bad = np.nonzero(~ok)[0]
    return float(jt.t[-1] if len(bad) == 0 else jt.t[bad[0] - 1])


def jacobi_field(data, base_trace, x0, y0, xp0, yp0, step):
    """Jacobi-type field along a geodesic trace of ``data``.

    K~ and the torsion components are sampled along the base trace, which
    is read once per time for all three.
    """

    @functools.lru_cache(maxsize=1)
    def at(t):
        p, v = base_trace.eval(t)
        tau = data.torsion_vector(p)
        g = data.third_form(p)
        return p, float(tau @ g @ v), float(tau @ g @ (complex_structure(g) @ v))

    return integrate_jacobi(lambda t: data.curvature(at(t)[0]), lambda t: at(t)[1],
                            lambda t: at(t)[2], (x0, y0, xp0, yp0),
                            base_trace.total_length, step)


# ---------------------------------------------------------------------------
# regions and Gauss-Bonnet


class BoundarySegment:
    """One smooth piece of a region boundary.

    Either callable-backed (path, velocity, acceleration as functions of the
    segment parameter) or sample-backed (arrays on a uniform parameter grid;
    periodic sample grids difference cleanly).
    """

    def __init__(self, path=None, s_range=None, n_samples=None, velocity=None,
                 acceleration=None, samples=None):
        self.path = path
        self.s_range = s_range
        self.n_samples = n_samples
        self.velocity = velocity
        self.acceleration = acceleration
        self.samples = samples  # dict with keys s, points, velocities, accelerations

    @staticmethod
    def from_samples(s, points, velocities, accelerations):
        return BoundarySegment(samples={
            "s": np.asarray(s, dtype=float),
            "points": np.asarray(points, dtype=float),
            "velocities": np.asarray(velocities, dtype=float),
            "accelerations": np.asarray(accelerations, dtype=float),
        })

    def nodes(self):
        """(s, points, velocities, accelerations) arrays for quadrature."""
        if self.samples is not None:
            d = self.samples
            return d["s"], d["points"], d["velocities"], d["accelerations"]
        a, b = self.s_range
        n = self.n_samples if self.n_samples % 2 == 1 else self.n_samples + 1
        s = np.linspace(a, b, n)
        pts = np.array([self.path(t) for t in s], dtype=float)
        if self.velocity is not None:
            vel = np.array([self.velocity(t) for t in s], dtype=float)
        else:
            vel = np.array([_fd.derivative_along(self.path, t, 1e-6) for t in s])
        if self.acceleration is not None:
            acc = np.array([self.acceleration(t) for t in s], dtype=float)
        else:
            if self.velocity is not None:
                vfun = self.velocity
            else:
                def vfun(tt):
                    return _fd.derivative_along(self.path, tt, 1e-6)
            acc = np.array([_fd.derivative_along(lambda tt: np.asarray(vfun(tt)), t, 1e-5)
                            for t in s])
        return s, pts, vel, acc

    def trace(self):
        s, pts, vel, _ = self.nodes()
        if self.path is not None:
            return CurveTrace.from_path(self.path, self.s_range,
                                        (self.s_range[1] - self.s_range[0]) / (len(s) - 1),
                                        velocity=self.velocity,
                                        acceleration=self.acceleration)
        return CurveTrace.from_samples(s, pts, vel)


class RegionSpec:
    """A compact region: ordered boundary segments plus an interior quadrature.

    ``interior`` is either a dict with an explicit node set
    ``{"points": (m,2), "weights": (m,)}`` such that
    ``integral f dv ~ sum f(p_i) w_i / sqrt(det III)``-free (weights already
    include the chart Jacobian but NOT the metric area density), or a mapping
    ``{"map": E, "jacobian": DE or None, "n": (na, nb), "periodic_b": bool}``
    over the unit square.
    """

    closure_tol = 1e-6  # largest endpoint gap between consecutive segments

    def __init__(self, segments, interior):
        self.segments = segments
        self.interior = interior

    # -- boundary -----------------------------------------------------------

    def closure_gap(self):
        gaps = []
        ends = []
        starts = []
        for seg in self.segments:
            s, pts, _, _ = seg.nodes()
            starts.append(pts[0])
            ends.append(pts[-1])
        for i in range(len(self.segments)):
            nxt = (i + 1) % len(self.segments)
            gaps.append(float(np.linalg.norm(ends[i] - starts[nxt])))
        return max(gaps)

    def require_closed(self):
        gap = self.closure_gap()
        if gap > self.closure_tol:
            raise OpenBoundary(f"boundary endpoint gap {gap:.3e} exceeds {self.closure_tol}")

    def exterior_angles(self, data):
        """Signed corner turning angles, via the metric angle with orientation
        sign from J."""
        vel_out = []
        vel_in = []
        pts = []
        for seg in self.segments:
            s, p, v, _ = seg.nodes()
            vel_out.append(v[0])
            vel_in.append(v[-1])
            pts.append((p[0], p[-1]))
        angles = []
        for i in range(len(self.segments)):
            nxt = (i + 1) % len(self.segments)
            p_corner = pts[i][1]
            a = vel_in[i]
            b = vel_out[nxt]
            g = data.third_form(p_corner)
            j = data.complex_structure(p_corner)
            angles.append(float(np.arctan2((j @ a) @ g @ b, a @ g @ b)))
        return angles

    def boundary_kappa_integral(self, data):
        total = 0.0
        for seg in self.segments:
            s, pts, vel, acc = seg.nodes()
            vals = np.empty(len(s))
            for i in range(len(s)):
                p, v, a = pts[i], vel[i], acc[i]
                g = data.third_form(p)
                cov = a + np.einsum("kij,i,j->k", data.gamma(p), v, v)
                jv = data.complex_structure(p) @ v
                speed2 = float(v @ g @ v)
                kappa = float((cov @ g @ jv) / speed2 ** 1.5)
                vals[i] = kappa * np.sqrt(speed2)  # kappa ds
            if self._is_periodic(seg):
                total += float(np.mean(vals[:-1]) * (s[-1] - s[0]))
            else:
                total += float(simpson(vals, x=s))
        return total

    @staticmethod
    def _is_periodic(seg):
        s, pts, _, _ = seg.nodes()
        return np.linalg.norm(pts[-1] - pts[0]) < 1e-9

    # -- interior -----------------------------------------------------------

    def interior_nodes(self):
        """(points, weights) with weights carrying the chart Jacobian; the
        metric area density is applied by the caller."""
        if "points" in self.interior:
            return np.asarray(self.interior["points"]), np.asarray(self.interior["weights"])
        emap = self.interior["map"]
        najac = self.interior.get("jacobian")
        na, nb = self.interior["n"]
        ga, wa = np.polynomial.legendre.leggauss(na)
        a_nodes = 0.5 * (ga + 1.0)
        a_w = 0.5 * wa
        b_nodes = (np.arange(nb) + 0.5) / nb
        b_w = np.full(nb, 1.0 / nb)
        pts = []
        wts = []
        for ai, awi in zip(a_nodes, a_w):
            for bi, bwi in zip(b_nodes, b_w):
                p = np.asarray(emap(ai, bi), dtype=float)
                if najac is not None:
                    jac = abs(float(najac(ai, bi)))
                else:
                    da = _fd.derivative_along(lambda t: np.asarray(emap(t, bi)), ai, 1e-5)
                    db = _fd.derivative_along(lambda t: np.asarray(emap(ai, t)), bi, 1e-5)
                    jac = abs(float(da[0] * db[1] - da[1] * db[0]))
                pts.append(p)
                wts.append(awi * bwi * jac)
        return np.array(pts), np.array(wts)

    def curvature_integral(self, data):
        pts, wts = self.interior_nodes()
        total = 0.0
        for p, w in zip(pts, wts):
            total += data.curvature(p) * data.area_density(p) * w
        return float(total)

    # -- ready-made shapes ---------------------------------------------------

    @staticmethod
    def coordinate_disk(center, radius, n_boundary=201, n_radial=24, n_angular=64):
        """Disk in chart coordinates: boundary circle plus polar quadrature."""
        c = np.asarray(center, dtype=float)

        def path(t):
            return c + radius * np.array([np.cos(t), np.sin(t)])

        def velocity(t):
            return radius * np.array([-np.sin(t), np.cos(t)])

        def acceleration(t):
            return -radius * np.array([np.cos(t), np.sin(t)])

        seg = BoundarySegment(path=path, s_range=(0.0, 2 * np.pi), n_samples=n_boundary,
                              velocity=velocity, acceleration=acceleration)

        def emap(a, b):
            return c + a * radius * np.array([np.cos(2 * np.pi * b), np.sin(2 * np.pi * b)])

        def ejac(a, b):
            return 2 * np.pi * a * radius ** 2

        return RegionSpec([seg], {"map": emap, "jacobian": ejac,
                                  "n": (n_radial, n_angular)})

    @staticmethod
    def geodesic_disk(data, center, radius, n_rays=256, n_radial=16):
        """Disk swept by geodesics of the connection from a center point.

        Each ray takes 64 RK4 steps.  The boundary is the endpoint curve of
        the rays; derivatives across rays use 4th-order periodic differences.
        """
        center = as_point(center, 2)
        ray_step = radius / 64.0
        g = data.third_form(center)
        f, _ = orthonormal_frame(g)
        ga, wa = np.polynomial.legendre.leggauss(n_radial)
        s_nodes = 0.5 * (ga + 1.0) * radius
        s_w = 0.5 * wa * radius
        phis = 2 * np.pi * np.arange(n_rays) / n_rays
        ray_pts = np.empty((n_rays, len(s_nodes), 2))
        ray_vel = np.empty((n_rays, len(s_nodes), 2))
        ends = np.empty((n_rays, 2))
        for k, phi in enumerate(phis):
            v0 = np.cos(phi) * f[0] + np.sin(phi) * f[1]
            tr = integrate_geodesic(data, center, v0, radius, ray_step)
            for m, sn in enumerate(s_nodes):
                p, vv = tr.eval(sn)
                ray_pts[k, m] = p
                ray_vel[k, m] = vv
            ends[k] = tr.eval(radius)[0]

        def dphi(arr):
            # 4th-order centered periodic difference in the ray index
            h = 2 * np.pi / n_rays
            return (8 * (np.roll(arr, -1, axis=0) - np.roll(arr, 1, axis=0))
                    - (np.roll(arr, -2, axis=0) - np.roll(arr, 2, axis=0))) / (12 * h)

        b_vel = dphi(ends)
        b_acc = dphi(b_vel)
        phis_closed = np.append(phis, 2 * np.pi)
        pts_closed = np.vstack([ends, ends[:1]])
        vel_closed = np.vstack([b_vel, b_vel[:1]])
        acc_closed = np.vstack([b_acc, b_acc[:1]])
        seg = BoundarySegment.from_samples(phis_closed, pts_closed, vel_closed, acc_closed)

        dp_dphi = dphi(ray_pts)  # (n_rays, n_radial, 2)
        pts = []
        wts = []
        h_phi = 2 * np.pi / n_rays
        for k in range(n_rays):
            for m in range(len(s_nodes)):
                jac = abs(float(ray_vel[k, m, 0] * dp_dphi[k, m, 1]
                                - ray_vel[k, m, 1] * dp_dphi[k, m, 0]))
                pts.append(ray_pts[k, m])
                wts.append(s_w[m] * h_phi * jac)
        interior = {"points": np.array(pts), "weights": np.array(wts)}
        return RegionSpec([seg], interior)


def gauss_bonnet_residual(data, region):
    """| integral K~ dv + integral kappa ds + sum(exterior angles) - 2 pi |."""
    region.require_closed()
    interior = region.curvature_integral(data)
    boundary = region.boundary_kappa_integral(data)
    corners = sum(region.exterior_angles(data))
    return abs(interior + boundary + corners - 2 * np.pi)


def boundary_holonomy_angle(data, region):
    """Signed rotation of a vector parallel-transported around the boundary."""
    region.require_closed()
    w = None
    start_point = None
    for seg in region.segments:
        tr = seg.trace()
        p0, _ = tr.eval(tr.s0)
        if w is None:
            g = data.third_form(p0)
            f, _ = orthonormal_frame(g)
            w = f[0]
            start_point = p0
        w = parallel_transport(data, tr, w)
    g = data.third_form(start_point)
    f, _ = orthonormal_frame(g)
    w0 = f[0]
    j = data.complex_structure(start_point)
    return float(np.arctan2((j @ w0) @ g @ w, w0 @ g @ w))


# ---------------------------------------------------------------------------
# deformation rate


def deformation_rate_check(data, trace, profile, sv, eps=1e-3):
    """Compare the closed-form first variation of geodesic curvature under a
    normal deformation against a finite-difference oracle.

    The curve is deformed by the geodesic flow ``exp(eps * l(s) * J c'(s))``;
    the oracle differentiates the measured curvature of the deformed curves in
    eps with first-order extrapolation.  Its stencil in s is the trace step,
    but at least 1e-3.  Returns |formula - oracle|.
    """
    stencil = max(trace.step, 1e-3)
    p, v = trace.eval(sv)
    g = data.third_form(p)
    speed = np.sqrt(v @ g @ v)
    if abs(speed - 1.0) > 1e-6:
        raise ValueError("deformation rate formula requires a unit-speed trace")
    j = data.complex_structure(p)
    kappa0 = geodesic_curvature(data, trace, sv)
    ktilde = data.curvature(p)
    tau = data.torsion_vector(p)
    tau_x = float(tau @ g @ v)

    lv = profile(sv)
    lpp = (profile(sv + stencil) - 2 * lv + profile(sv - stencil)) / stencil ** 2

    def l_tau_y(t):
        pt, vt = trace.eval(t)
        gt = data.third_form(pt)
        jt = data.complex_structure(pt)
        return profile(t) * float(data.torsion_vector(pt) @ gt @ (jt @ vt))

    d_ltau = _fd.derivative_along(l_tau_y, sv, stencil)
    formula = lv * (ktilde + kappa0 * (kappa0 + tau_x)) + lpp - d_ltau

    offsets = np.array([-2, -1, 0, 1, 2]) * stencil

    def deformed_kappa(e):
        pts = []
        for d in offsets:
            pd, vd = trace.eval(sv + d)
            jd = data.complex_structure(pd)
            w = e * profile(sv + d) * (jd @ vd)
            pts.append(exponential_map(data, pd, w))
        pts = np.array(pts)
        # 5-point first and second derivative at the middle node
        c1 = np.array([1, -8, 0, 8, -1]) / (12 * stencil)
        c2 = np.array([-1, 16, -30, 16, -1]) / (12 * stencil ** 2)
        vel = c1 @ pts
        acc = c2 @ pts
        pm = pts[2]
        gm = data.third_form(pm)
        jm = data.complex_structure(pm)
        cov = acc + np.einsum("kij,i,j->k", data.gamma(pm), vel, vel)
        sp2 = float(vel @ gm @ vel)
        return float((cov @ gm @ (jm @ vel)) / sp2 ** 1.5)

    k0 = deformed_kappa(0.0)

    def rate(e):
        return (deformed_kappa(e) - k0) / e

    oracle = 2.0 * rate(eps / 2) - rate(eps)
    return abs(float(formula - oracle))

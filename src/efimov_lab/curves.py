"""Geodesics, parallel transport, geodesic curvature, Jacobi-type fields,
Gauss-Bonnet with torsion and the normal-deformation rate formula, for
surface connections that preserve a metric but may carry torsion.

Every integration in the package, here and in ``asymptotics`` and
``odelab``, steps with the one classical 4th-order Runge-Kutta step
:func:`_rk4_step` on the one step grid :func:`_step_sizes` (fixed steps,
the last one shortened).  Geodesics, geodesic-disk fans, exponential maps
and asymptotic lines step one state, or one stacked batch of states,
through the generator :func:`rk4_samples` inside the one chart-bounded flow
:func:`_chart_flow`, which stops them where they leave the chart.  The
linear systems ``Y' = A(t) Y`` (parallel transport, the Jacobi-type field
and the bump system of ``odelab``) read A once, as one batch over the
distinct stage times of all steps, and take every step's increment from
one batched RK4 step in :func:`_linear_samples`.  Interpolated states and crossing times come from
the one cubic Hermite interpolant :func:`hermite` between stored samples,
so traces are deterministic and reproducible.  Quadrature over stored
samples uses the one composite Simpson rule :func:`simpson`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fd
from .ambient import _quadratic, _scalar, as_point, as_points
from .connection import complex_structure, orthonormal_frame
from .errors import (
    DegenerateVector,
    EndpointSample,
    LeftPatch,
    OpenBoundary,
    ParameterOutOfRange,
    PointOutsideChart,
)

__all__ = [
    "CurveTrace",
    "JacobiTrace",
    "RegionSpec",
    "rk4_samples",
    "hermite",
    "simpson",
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
    """A sampled curve on the surface; optionally backed by an analytic path.

    ``accelerations``, when set, holds the second parameter derivative at
    the samples; region boundaries need it for their curvature integral.
    """

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    step: float
    total_length: float
    closed: bool = False
    left_patch: bool = False
    accelerations: np.ndarray = None
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
        """(point, velocity) at parameter sv, or at each entry of an array of
        parameters (with a leading axis over them), by the analytic path if
        there is one, else by cubic Hermite interpolation between samples."""
        sv = np.asarray(sv, dtype=float)
        if self.path is not None:
            pts, vel = (np.array([f(t) for t in sv.ravel()], dtype=float)
                        for f in (self.path, self.path_velocity))
            return pts.reshape(sv.shape + pts.shape[1:]), vel.reshape(sv.shape + vel.shape[1:])
        s = self.s
        sv = np.clip(sv, s[0], s[-1])
        i = np.clip(np.searchsorted(s, sv) - 1, 0, len(s) - 2)
        h = s[i + 1] - s[i]
        lead = (...,) + (None,) * (self.points.ndim - 1)  # against each sample coordinate
        return hermite(((sv - s[i]) / h)[lead], h[lead], self.points[i], self.velocities[i],
                       self.points[i + 1], self.velocities[i + 1])

    def acceleration(self, sv):
        """Second parameter derivative of the curve at sv: the analytic
        acceleration of a path-backed trace, else central differences of the
        interpolated velocity at the sample step."""
        if self.path is not None:
            return np.asarray(self.path_acceleration(sv), dtype=float)
        h = self.step
        if sv - 2 * h < self.s[0] or sv + 2 * h > self.s[-1]:
            raise EndpointSample(f"s={sv} too close to the trace ends for differentiation")
        return _fd.derivative_along(lambda t: self.eval(t)[1], sv, h)

    @staticmethod
    def from_path(path, s_range, step, velocity, acceleration, closed=False,
                  arclength=None):
        """Sample an analytic path, its velocity and its acceleration on the
        uniform grid of ``s_range`` nearest to ``step``."""
        if not 0.0 < step < np.inf:
            raise ParameterOutOfRange(f"path sampling needs a finite step > 0, got {step}")
        a, b = float(s_range[0]), float(s_range[1])
        n = max(2, int(round((b - a) / step)) + 1)
        s = np.linspace(a, b, n)

        def sample(f):
            return np.array([np.asarray(f(t), dtype=float) for t in s])

        length = arclength if arclength is not None else b - a
        return CurveTrace(s=s, points=sample(path), velocities=sample(velocity),
                          step=float(s[1] - s[0]), total_length=float(length),
                          closed=closed, accelerations=sample(acceleration), path=path,
                          path_velocity=velocity, path_acceleration=acceleration)

    @staticmethod
    def from_samples(s, points, velocities, accelerations=None):
        s = np.asarray(s, dtype=float)
        step = float(s[1] - s[0]) if len(s) > 1 else 0.0
        return CurveTrace(s=s, points=np.asarray(points, dtype=float),
                          velocities=np.asarray(velocities, dtype=float), step=step,
                          total_length=float(s[-1] - s[0]),
                          accelerations=None if accelerations is None
                          else np.asarray(accelerations, dtype=float))


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _step_count(length, step):
    """The number of candidate steps of the grid of :func:`_step_sizes`,
    after checking that step and length are finite, step > 0 and
    length >= 0."""
    if not (0.0 < step < np.inf and 0.0 <= length < np.inf):
        raise ParameterOutOfRange(
            f"RK4 needs a finite step > 0 and a finite length >= 0, "
            f"got step={step}, length={length}")
    return max(1, int(np.ceil(length / step - 1e-12)))


def _step_sizes(length, step):
    """The RK4 step grid on [0, length], one step size at a time: steps of
    ``step``, the last one shortened to end at ``length``; a zero length has
    no step.  The sample times are the running sums ``t + h`` from 0.  Lazy,
    so a caller that stops early never builds the rest of the grid."""
    n = _step_count(length, step)
    for i in range(n):
        h = min(step, length - i * step)
        if h <= 0:
            return
        yield h


def rk4_samples(f, y, length, step):
    """Classical RK4 solution of ``y' = f(t, y)`` from ``y(0) = y`` on the
    step grid of :func:`_step_sizes`.

    A lazy generator of ``(t, y)`` after each step.  Callers stop it by
    their own rules (:func:`_chart_flow` where a trace leaves the chart),
    and ``f`` may read state the caller updates between samples.
    """
    t = 0.0
    for h in _step_sizes(length, step):
        y = _rk4_step(f, t, y, h)
        t = t + h
        yield t, y


def _step_grid(length, step):
    """The sample times and the steps of the grid of :func:`_step_sizes`,
    as arrays, step for step the same float operations; the times are bit
    for bit the running sums ``t + h``."""
    h = np.minimum(step, length - np.arange(_step_count(length, step)) * step)
    h = h[h > 0]  # h never grows along the grid: this cuts it at the first h <= 0
    return np.concatenate([[0.0], np.add.accumulate(h)]), h


def _stage_times(t, h):
    """The 2n + 1 distinct RK4 stage times of the n steps ``h`` between the
    sample times ``t``: every sample, and between each two the midpoint
    ``t + h/2``.  A linear system reads its coefficients there."""
    out = np.empty(2 * len(h) + 1)
    out[0::2] = t
    out[1::2] = t[:-1] + h / 2
    return out


def _sample(f, tt, what, var):
    """``f`` on the array ``tt`` of its variable ``var``, from one call; a
    scalar result is broadcast to the shape of ``tt``.  ``what`` names f in
    the error."""
    tt = np.asarray(tt, dtype=float)
    vals = np.asarray(f(tt), dtype=float)
    try:
        return np.broadcast_to(vals, tt.shape)
    except ValueError:
        raise ParameterOutOfRange(
            f"{what} is called on an array of {var} and must return an array of its "
            f"shape or a scalar; it returned shape {vals.shape} for {var} of shape "
            f"{tt.shape}") from None


def _linear_samples(a, h, y):
    """RK4 samples of the linear system ``Y' = A(t) Y`` from ``Y(0) = y``
    over the steps ``h``: the (n + 1, d) states after 0, 1, ..., n steps.

    ``a`` (2n + 1, d, d) holds A at the stage times of the steps
    (:func:`_stage_times`).  One batched RK4 step integrates every step's
    increment ``Q_i' = A(t) (I + Q_i)`` from 0, so ``Y_{i+1} = Y_i + Q_i
    Y_i``.  The samples compose the increments in blocks of about sqrt(n)
    steps, ``P_j = P_{j-1} + Q_j + Q_j P_{j-1}``, one pass per position over
    all blocks, and a loop carries the state across the block starts.
    Increments are kept apart from I so that they are not rounded against
    it: with constant A a rounded ``I + Q`` would repeat at every step, and
    the samples would drift from the state-by-state RK4 by an ulp per step."""
    n, d = len(h), len(y)
    eye = np.eye(d)
    # _rk4_step reads its stages at the step's start, its midpoint (twice)
    # and its end, in that order
    stages = iter((a[:-1:2], a[1::2], a[1::2], a[2::2]))
    q = _rk4_step(lambda _, qq: next(stages) @ (eye + qq), 0.0, np.zeros((n, d, d)),
                  h[:, None, None])
    b = max(1, math.isqrt(n))
    m = -(-n // b)
    p = np.zeros((m * b, d, d))  # zero increments pad the last block
    p[:n] = q
    p = p.reshape(m, b, d, d)
    for j in range(1, b):
        p[:, j] += p[:, j - 1] + p[:, j] @ p[:, j - 1]
    starts = [np.asarray(y, dtype=float)]
    for total in p[:, -1]:
        starts.append(starts[-1] + total @ starts[-1])
    starts = np.array(starts)
    inner = starts[:-1, None] + (p @ starts[:-1, None, :, None])[..., 0]
    return np.concatenate([starts[:1], inner.reshape(-1, d)[:n]])


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


def _ragged_range(starts, counts):
    """The concatenation of ``range(s, s + c)`` over the pairs of ``starts``
    and ``counts``."""
    counts = np.asarray(counts)
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def simpson(y, x, lengths=None):
    """Composite Simpson integral of the samples y over strictly increasing,
    possibly uneven nodes x.

    With ``lengths``, y and x hold the nodes of consecutive pieces of those
    lengths, each increasing on its own, and the result is the array of the
    pieces' integrals; a single array is the one-piece case and returns a
    float.

    Parabolas through consecutive node triples; with an even sample count the
    last interval gets Cartwright's three-point end correction, and with two
    samples the rule is the trapezoid.  The operation order follows
    ``scipy.integrate.simpson``, so the two agree to rounding on every piece.
    Node gaps between pieces are never read.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = np.array([len(y)] if lengths is None else lengths, dtype=int).reshape(-1)
    if y.ndim != 1 or x.shape != y.shape or np.any(n < 2) or n.sum() != len(y):
        raise ValueError(f"simpson needs matching 1-D y and x split into pieces of at least "
                         f"2 samples, got shapes {y.shape} and {x.shape} and lengths {n}")
    start = np.cumsum(n) - n
    total = np.zeros(len(n))
    h = np.diff(x)
    two = n == 2
    i = start[two]
    total[two] = 0.5 * (x[i + 1] - x[i]) * (y[i + 1] + y[i])
    panels = (n - 1) // 2  # parabolic panels from each piece's node 0, 2, 4, ...
    i = np.repeat(start, panels) + 2 * _ragged_range(0, panels)
    h0, h1 = h[i], h[i + 1]
    hsum = h0 + h1
    ratio = h0 / h1
    vals = hsum / 6.0 * (y[i] * (2.0 - 1.0 / ratio)
                         + y[i + 1] * (hsum * (hsum / (h0 * h1)))
                         + y[i + 2] * (2.0 - ratio))
    if len(n) == 1:  # the pairwise sum of numpy and scipy
        total[panels > 0] = np.sum(vals)
    elif vals.size:  # one sum per piece in node order
        total[panels > 0] = np.add.reduceat(vals, (np.cumsum(panels) - panels)[panels > 0])
    corrected = (n % 2 == 0) & ~two
    end = (start + n - 1)[corrected]
    a, b = h[end - 2], h[end - 1]
    total[corrected] += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[end]
                         + (b ** 2 + 3.0 * a * b) / (6 * a) * y[end - 1]
                         - b ** 3 / (6 * a * (a + b)) * y[end - 2])
    return float(total[0]) if lengths is None else total


def _geodesic_rhs(data):
    """``(q, v)' = (v, -Gamma(v, v))`` for one state (4,) or the rows of an
    (N, 4) state."""

    def rhs(t, state):
        vv = state[..., 2:]
        acc = np.einsum("...kij,...i,...j->...k", data.gamma(state[..., :2]), vv, vv)
        return np.concatenate([vv, -acc], axis=-1)

    return rhs


def _chart_read(f, t, y):
    """``f(t, y)``, where a PointOutsideChart becomes LeftPatch naming the
    row of y that f rejects on its own: row 0 for one state, the first such
    row of an (N, d) batch (when no row fails alone, the error stands)."""
    try:
        return f(t, y)
    except PointOutsideChart as exc:
        if y.ndim == 1:
            raise LeftPatch(str(exc)) from None
        for k, row in enumerate(y):
            try:
                f(t, row)
            except PointOutsideChart as row_exc:
                raise LeftPatch(str(row_exc), row=k) from None
        raise


def _chart_flow(data, rhs, y, length, step, margin):
    """The samples ``(t, y)`` of :func:`rk4_samples` for ``y' = rhs(t, y)``,
    for one state or the stacked rows of an (N, d) batch, each state's first
    two entries a chart point.  At the first step where a row comes within
    ``margin`` of the box edge, or where a stage read raises
    PointOutsideChart, it raises LeftPatch naming that row.  ``rhs`` gets
    the state objects that rk4_samples passes, so it may test them by
    identity."""
    for t, y in rk4_samples(lambda tt, yy: _chart_read(rhs, tt, yy), y, length, step):
        outside = ~data.box.inside(y[..., :2], margin)
        if outside.any():
            k = int(np.argmax(outside))
            raise LeftPatch(f"the trace leaves the chart at length {t}, near "
                            f"{np.atleast_2d(y)[k, :2]}", row=k)
        yield t, y


def _geodesic_samples(data, y, length, step, margin):
    """``(s, states, exc)``: the sample times and the stacked states of the
    geodesic chart flow from the state y, (4,) or (N, 4), through its last
    sample before it raised LeftPatch ``exc`` (None when it ran its whole
    length)."""
    s_vals, states, exc = [0.0], [y], None
    try:
        for s, state in _chart_flow(data, _geodesic_rhs(data), y, length, step, margin):
            s_vals.append(s)
            states.append(state)
    except LeftPatch as left:
        exc = left
    return np.array(s_vals), np.array(states), exc


def trace_margin(data, step):
    """Default chart margin a trace keeps clear of the box edge: four steps
    in immersion mode, where the shape layer's stencils need the room, and
    none in the abstract modes."""
    return 4.0 * step if data.mode == "immersion" else 0.0


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
        margin = trace_margin(data, step)

    s_arr, states, exc = _geodesic_samples(data, np.concatenate([q, v]), length, step, margin)
    left = exc is not None
    pts = states[:, :2]
    trace = CurveTrace(s=s_arr, points=pts, velocities=states[:, 2:], step=step,
                       total_length=float(s_arr[-1]), left_patch=left)
    if error_estimate and not left:
        fine = integrate_geodesic(data, q, v, trace.total_length, step / 2.0,
                                  margin=margin)
        trace.endpoint_error = float(np.linalg.norm(fine.points[-1] - pts[-1]))
    return trace


def exponential_map(data, q, w):
    """Endpoint of the geodesic from q with initial velocity w, run for unit
    time in 8 RK4 steps; for (N, 2) rows of q and w, the endpoint of each
    row, from one flow over the stacked rows.  A geodesic that leaves the
    chart raises LeftPatch naming its row."""
    state = np.concatenate([as_points(q, 2), as_points(w, 2)], axis=-1)
    for _, state in _chart_flow(data, _geodesic_rhs(data), state, 1.0, 1.0 / 8, 0.0):
        pass
    return np.ascontiguousarray(state[..., :2])


def parallel_transport_samples(data, trace, w):
    """Transport w along the trace; returns the field at every trace sample.

    ``w' = -Gamma(v, w)`` is linear in w.  It takes one RK4 step per sample
    interval, since the field is wanted at the trace's own samples and their
    spacing need not be uniform.  The trace and the connection are read once,
    as one batch over every sample and midpoint; a one-sample trace reads
    nothing.
    """
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise DegenerateVector(f"cannot transport the non-finite vector {w}")
    if len(trace.s) == 1:
        return w[None]
    h = np.diff(trace.s)
    p, v = trace.eval(_stage_times(trace.s, h))
    return _linear_samples(-np.einsum("nkij,ni->nkj", data.gamma(p), v), h, w)


def parallel_transport(data, trace, w):
    """The parallel transport of w at the end of the trace."""
    return parallel_transport_samples(data, trace, w)[-1]


def _kappa(data, p, v, acc):
    """``III(D~_v v, J v) / |v|^3`` at p for a curve with velocity v and
    coordinate acceleration acc, or at each row of stacked (N, 2) arrays."""
    g = data.third_form(p)
    cov = acc + np.einsum("...kij,...i,...j->...k", data.gamma(p), v, v)
    jv = (data.complex_structure(p) @ v[..., None])[..., 0]
    return _scalar(_quadratic(cov, g, jv) / _quadratic(v, g, v) ** 1.5)


def geodesic_curvature(data, trace, sv):
    """kappa(s) = III(D~_{c'} c', J c') / |c'|^3 at an interior parameter."""
    p, v = trace.eval(sv)
    return _kappa(data, p, v, trace.acceleration(sv))


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


def integrate_jacobi(ktilde, tau_x, tau_y, init, length, step):
    """Integrate ``x' = y tau_x`` and ``y'' = -K~ y + (y tau_y)'``.

    The second equation is integrated through the exact first-order
    reformulation p := y' - y tau_y, p' = -K~ y, which avoids differentiating
    the sampled product.  ``init`` is (x0, y0, x0', y0').  Each coefficient
    is a callable that is called once, on the array of the run's 2n + 1
    distinct stage times, and returns an array of their shape or a scalar,
    which is broadcast; any other result raises ``ParameterOutOfRange``.  If
    a coefficient cannot be evaluated for lack of chart room
    (``PointOutsideChart``), the field stops after the last whole step whose
    stage times all evaluate and is returned with ``left_patch`` set.
    """
    def read(tt):
        return [_sample(f, tt, "a Jacobi coefficient", "t") for f in (tau_x, tau_y, ktilde)]

    return _jacobi(read, init, length, step)


def _jacobi(read, init, length, step):
    """The Jacobi-type field with ``read(tt) -> (tau_x, tau_y, K~)`` at the
    array of stage times ``tt``."""
    if not np.isfinite(init).all():
        raise ParameterOutOfRange(f"Jacobi initial data must be finite, got {init}")
    t, h = _step_grid(length, step)
    times = _stage_times(t, h)
    values, n, left = _whole_steps(read, times)
    tx, ty, k = np.array(values, dtype=float)  # broadcast constants made whole
    # the state (x, y, p): x' = tau_x y, y' = tau_y y + p, p' = -K~ y
    a = np.zeros((2 * n + 1, 3, 3))
    a[:, 0, 1], a[:, 1, 1], a[:, 1, 2], a[:, 2, 1] = tx, ty, 1.0, -k
    x0, y0, _, yp0 = init
    x, y, p = _linear_samples(a, h[:n], (x0, y0, yp0 - y0 * ty[0])).T
    tx, ty, k = tx[::2], ty[::2], k[::2]  # at the sample times
    return JacobiTrace(t=t[:n + 1], x=x, y=y, xp=y * tx, yp=p + y * ty,
                       ktilde=k, tau_x=tx, tau_y=ty, left_patch=left)


def _whole_steps(read, times):
    """``read`` at all stage times, or where that raises PointOutsideChart,
    at those of the longest run of whole steps that all evaluate, found by
    bisection; returns (values, steps, stopped short).  A first time that
    does not evaluate raises."""
    n = len(times) // 2
    try:
        return read(times), n, False
    except PointOutsideChart:
        pass
    lo, hi, values = 0, n, None  # the first lo steps evaluate, the first hi do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            values, lo = read(times[:2 * mid + 1]), mid
        except PointOutsideChart:
            hi = mid
    return (read(times[:1]) if values is None else values), lo, True


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

    K~ and the torsion components are read once, as one batch over the
    stage times: one read of the base trace, ``torsion_vector``, III and K~.
    """

    def read(tt):
        p, v = base_trace.eval(tt)
        tau = data.torsion_vector(p)
        g = data.third_form(p)
        jv = (complex_structure(g) @ v[..., None])[..., 0]
        return _quadratic(tau, g, v), _quadratic(tau, g, jv), data.curvature(p)

    return _jacobi(read, (x0, y0, xp0, yp0), base_trace.total_length, step)


# ---------------------------------------------------------------------------
# regions and Gauss-Bonnet


def _require_count(key, n, least):
    if not n >= least:
        raise ParameterOutOfRange(f"region {key!r} must be at least {least}, got {n}")


def _require_radius(radius):
    if not 0.0 < radius < np.inf:
        raise ParameterOutOfRange(f"region radius must be finite and positive, got {radius}")


class RegionSpec:
    """A compact region: ordered boundary segments plus an interior quadrature.

    Each segment is a :class:`CurveTrace` that carries ``accelerations``;
    the boundary integrals read its samples, which Simpson's rule wants odd
    in number, and a segment whose ends meet is integrated as periodic.
    ``interior`` is either an explicit node set
    ``{"points": (m, 2), "weights": (m,)}`` or a mapping
    ``{"map": E, "jacobian": det DE, "n": (na, nb)}`` of the unit square,
    with Gauss-Legendre nodes in a and the midpoint rule in b.  The weights
    include the chart Jacobian but not the metric area density, so
    ``integral f dv ~ sum f(p_i) w_i sqrt(det III(p_i))``.
    """

    closure_tol = 1e-6  # largest endpoint gap between consecutive segments

    def __init__(self, segments, interior):
        self.segments = segments
        self.interior = interior

    # -- boundary -----------------------------------------------------------

    def closure_gap(self):
        segs = self.segments
        return max(float(np.linalg.norm(seg.points[-1] - segs[(i + 1) % len(segs)].points[0]))
                   for i, seg in enumerate(segs))

    def require_closed(self):
        gap = self.closure_gap()
        if gap > self.closure_tol:
            raise OpenBoundary(f"boundary endpoint gap {gap:.3e} exceeds {self.closure_tol}")

    def exterior_angles(self, data):
        """Signed corner turning angles, via the metric angle with orientation
        sign from J."""
        angles = []
        for i, seg in enumerate(self.segments):
            nxt = self.segments[(i + 1) % len(self.segments)]
            p_corner = seg.points[-1]
            a = seg.velocities[-1]
            b = nxt.velocities[0]
            g = data.third_form(p_corner)
            j = data.complex_structure(p_corner)
            angles.append(float(np.arctan2((j @ a) @ g @ b, a @ g @ b)))
        return angles

    def boundary_kappa_integral(self, data):
        """The integral of kappa ds over the boundary, with one batched
        evaluation of the connection per segment."""
        total = 0.0
        for seg in self.segments:
            s, pts, vel = seg.s, seg.points, seg.velocities
            speed = np.sqrt(_quadratic(vel, data.third_form(pts), vel))
            vals = _kappa(data, pts, vel, seg.accelerations) * speed  # kappa ds
            if np.linalg.norm(pts[-1] - pts[0]) < 1e-9:  # periodic: trapezoid rule
                total += float(np.mean(vals[:-1]) * (s[-1] - s[0]))
            else:
                total += simpson(vals, s)
        return total

    # -- interior -----------------------------------------------------------

    def interior_nodes(self):
        """(points, weights) with weights carrying the chart Jacobian; the
        metric area density is applied by the caller."""
        if "points" in self.interior:
            return np.asarray(self.interior["points"]), np.asarray(self.interior["weights"])
        emap = self.interior["map"]
        ejac = self.interior["jacobian"]
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
                pts.append(np.asarray(emap(ai, bi), dtype=float))
                wts.append(awi * bwi * abs(float(ejac(ai, bi))))
        return np.array(pts), np.array(wts)

    def curvature_integral(self, data):
        """The integral of K~ dv, with one batched K~ and one area-density
        evaluation over the node set."""
        pts, wts = self.interior_nodes()
        return float(np.sum(data.curvature(pts) * data.area_density(pts) * wts))

    # -- ready-made shapes ---------------------------------------------------

    @staticmethod
    def coordinate_disk(center, radius, n_boundary=201, n_radial=24, n_angular=64):
        """Disk in chart coordinates: boundary circle plus polar quadrature."""
        _require_radius(radius)
        _require_count("n_boundary", n_boundary, 2)
        _require_count("n_radial", n_radial, 1)
        _require_count("n_angular", n_angular, 1)
        c = np.asarray(center, dtype=float)

        def path(t):
            return c + radius * np.array([np.cos(t), np.sin(t)])

        def velocity(t):
            return radius * np.array([-np.sin(t), np.cos(t)])

        def acceleration(t):
            return -radius * np.array([np.cos(t), np.sin(t)])

        # an odd sample count, as Simpson's rule wants
        seg = CurveTrace.from_path(path, (0.0, 2 * np.pi), 2 * np.pi / ((n_boundary | 1) - 1),
                                   velocity, acceleration)

        def emap(a, b):
            return c + a * radius * np.array([np.cos(2 * np.pi * b), np.sin(2 * np.pi * b)])

        def ejac(a, b):
            return 2 * np.pi * a * radius ** 2

        return RegionSpec([seg], {"map": emap, "jacobian": ejac,
                                  "n": (n_radial, n_angular)})

    @staticmethod
    def geodesic_disk(data, center, radius, n_rays=256, n_radial=16):
        """Disk swept by geodesics of the connection from a center point.

        The rays run as one chart flow of 64 steps over the stacked
        (n_rays, 4) state.  A ray that leaves the chart before reaching
        ``radius`` raises PointOutsideChart naming its direction.  The boundary is the
        endpoint curve of the rays; derivatives across rays use 4th-order
        periodic differences.
        """
        _require_radius(radius)
        # the boundary's 4th-order periodic difference spans five rays
        _require_count("n_rays", n_rays, 5)
        _require_count("n_radial", n_radial, 1)
        center = as_point(center, 2)
        f = orthonormal_frame(data.third_form(center))
        ga, wa = np.polynomial.legendre.leggauss(n_radial)
        s_nodes = 0.5 * (ga + 1.0) * radius
        s_w = 0.5 * wa * radius
        phis = 2 * np.pi * np.arange(n_rays) / n_rays
        dirs = np.cos(phis)[:, None] * f[0] + np.sin(phis)[:, None] * f[1]
        step = radius / 64.0
        s_vals, states, exc = _geodesic_samples(
            data, np.hstack([np.broadcast_to(center, dirs.shape), dirs]), radius, step,
            trace_margin(data, step))
        if exc is not None:
            raise PointOutsideChart(
                f"the geodesic_disk ray in direction {dirs[exc.row]} from {center} leaves the "
                f"chart before length {radius}: {exc}")
        # one trace whose samples stack every ray: points[i] is (n_rays, 2)
        fan = CurveTrace.from_samples(s_vals, states[..., :2], states[..., 2:])
        # (n_rays, n_radial, 2)
        ray_pts, ray_vel = (np.swapaxes(a, 0, 1) for a in fan.eval(s_nodes))
        ends = fan.eval(radius)[0]

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
        seg = CurveTrace.from_samples(phis_closed, pts_closed, vel_closed, acc_closed)

        dp_dphi = dphi(ray_pts)
        jac = np.abs(ray_vel[..., 0] * dp_dphi[..., 1] - ray_vel[..., 1] * dp_dphi[..., 0])
        h_phi = 2 * np.pi / n_rays
        interior = {"points": ray_pts.reshape(-1, 2), "weights": (s_w * h_phi * jac).reshape(-1)}
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
        p0, _ = seg.eval(seg.s0)
        if w is None:
            g = data.third_form(p0)
            f = orthonormal_frame(g)
            w = f[0]
            start_point = p0
        w = parallel_transport(data, seg, w)
    g = data.third_form(start_point)
    f = orthonormal_frame(g)
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
    but at least 1e-3.  The deformed points of all three curves (deformations
    0, eps/2 and eps) run as one batched exponential map.  Returns
    |formula - oracle|.
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
    nodes = []  # (point, profile value, J v) at each stencil node
    for d in offsets:
        pd, vd = trace.eval(sv + d)
        nodes.append((pd, profile(sv + d), data.complex_structure(pd) @ vd))
    es = (0.0, eps / 2, eps)
    ends = exponential_map(data, np.array([pd for e in es for pd, _, _ in nodes]),
                           np.array([e * ld * jv for e in es for _, ld, jv in nodes]))
    # 5-point first and second derivative at the middle node
    c1 = np.array([1, -8, 0, 8, -1]) / (12 * stencil)
    c2 = np.array([-1, 16, -30, 16, -1]) / (12 * stencil ** 2)
    # each curve's five points are contiguous rows, as the stencil matmul wants
    k0, k_half, k_full = (_kappa(data, pts[2], c1 @ pts, c2 @ pts)
                          for pts in ends.reshape(len(es), len(offsets), 2))
    oracle = 2.0 * ((k_half - k0) / (eps / 2)) - (k_full - k0) / eps
    return abs(float(formula - oracle))

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efimov_lab import curves, gallery
from efimov_lab.curves import (
    CurveTrace,
    RegionSpec,
    _rk4_step,
    _step_grid,
    _step_sizes,
    boundary_holonomy_angle,
    deformation_rate_check,
    exponential_map,
    gauss_bonnet_residual,
    geodesic_curvature,
    integrate_geodesic,
    integrate_jacobi,
    jacobi_field,
    parallel_transport,
    parallel_transport_samples,
    rk4_samples,
)
from efimov_lab.ambient import riemann_sectional
from efimov_lab.connection import SurfaceConnectionData, dual_connection_at, orthonormal_frame
from efimov_lab.errors import (
    BoundViolated,
    DegeneratePlane,
    DegenerateVector,
    LeftPatch,
    OpenBoundary,
    ParameterOutOfRange,
    PointOutsideChart,
)
from efimov_lab.odelab import construct_edo7, spiral_eigenvalues, weak_inequality_residual


def latitude_trace(data, psi, step=1e-3):
    """Unit-speed latitude circle at colatitude psi from the pole sitting at
    the origin of the stereographic sphere chart."""
    rho = np.tan(psi / 2.0)  # chart radius of the circle
    lam = 2.0 / (1.0 + rho * rho)
    total = 2 * np.pi * rho * lam  # metric circumference = 2 pi sin(psi)

    def path(s):
        a = s / (rho * lam)
        return rho * np.array([np.cos(a), np.sin(a)])

    def velocity(s):
        a = s / (rho * lam)
        return np.array([-np.sin(a), np.cos(a)]) / lam

    def acceleration(s):
        a = s / (rho * lam)
        return -np.array([np.cos(a), np.sin(a)]) / (rho * lam * lam)

    return CurveTrace.from_path(path, (0.0, total), step, velocity=velocity,
                                acceleration=acceleration, closed=True,
                                arclength=total)


def count_calls(monkeypatch, obj, name):
    """Wrap the evaluator ``obj.name``; the returned list collects the points
    of every call, one array per call."""
    calls = []
    fn = getattr(obj, name)

    def counted(q, *args, **kwargs):
        calls.append(np.array(q, dtype=float))
        return fn(q, *args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


def deformed_geodesic(data):
    """A 50-step geodesic well inside the chart of ``hyperbolic_deformed``."""
    q = np.array([1.2, 0.1])
    tr = integrate_geodesic(data, q, data.unit(q, [1.0, 0.5]), 0.5, 0.01)
    assert len(tr.s) == 51 and not tr.left_patch
    return tr


# --- geodesics --------------------------------------------------------------


def test_sphere_equator_closes(abstract_sphere):
    tr = integrate_geodesic(abstract_sphere, [1.0, 0.0], [0.0, 1.0], 2 * np.pi, 1e-3)
    assert not tr.left_patch
    assert np.linalg.norm(tr.points[-1] - tr.points[0]) < 1e-6


def test_flat_geodesic_is_straight(abstract_plane):
    v = np.array([0.6, 0.8])
    tr = integrate_geodesic(abstract_plane, [0.0, 0.0], v, 2.0, 1e-3)
    expected = np.outer(tr.s, v)
    assert np.max(np.abs(tr.points - expected)) < 1e-12


def test_hyperbolic_radial_geodesic(hyperbolic_abstract):
    tr = integrate_geodesic(hyperbolic_abstract, [0.5, 1.0], [1.0, 0.0], 1.5, 1e-3)
    assert np.max(np.abs(tr.points[:, 1] - 1.0)) < 1e-8
    assert abs(tr.points[-1, 0] - 2.0) < 1e-8


def test_unit_speed_preserved(slice_data):
    q = np.array([0.1, 0.2])
    v = slice_data.unit(q, [1.0, 0.4])
    tr = integrate_geodesic(slice_data, q, v, 0.5, 1e-3)
    drifts = [abs(slice_data.norm(p, w) - 1.0)
              for p, w in zip(tr.points[::100], tr.velocities[::100])]
    assert max(drifts) < 1e-8 * tr.total_length / min(tr.total_length, 1.0)


def test_left_patch_flag(abstract_plane):
    tr = integrate_geodesic(abstract_plane, [5.0, 0.0], [1.0, 0.0], 5.0, 1e-2)
    assert tr.left_patch
    assert tr.total_length < 5.0


# --- parallel transport -----------------------------------------------------


def test_flat_loop_transport_identity(abstract_plane):
    circ = CurveTrace.from_path(
        lambda s: 0.7 * np.array([np.cos(s), np.sin(s)]) + np.array([0.3, 0.1]),
        (0.0, 2 * np.pi), 1e-3,
        velocity=lambda s: 0.7 * np.array([-np.sin(s), np.cos(s)]),
        acceleration=lambda s: -0.7 * np.array([np.cos(s), np.sin(s)]), closed=True)
    w = parallel_transport(abstract_plane, circ, np.array([1.0, 2.0]))
    assert np.max(np.abs(w - [1.0, 2.0])) < 1e-12


def test_sphere_triangle_holonomy(abstract_sphere):
    """Transport around a geodesic triangle with three right angles rotates
    by its area, pi/2."""
    seg1 = CurveTrace.from_path(lambda s: np.array([np.cos(s), np.sin(s)]),
                                (0.0, np.pi / 2), np.pi / 400,
                                velocity=lambda s: np.array([-np.sin(s), np.cos(s)]),
                                acceleration=lambda s: -np.array([np.cos(s), np.sin(s)]))
    seg2 = CurveTrace.from_path(lambda s: np.array([0.0, 1.0 - s]), (0.0, 1.0), 1e-2,
                                velocity=lambda s: np.array([0.0, -1.0]),
                                acceleration=lambda s: np.zeros(2))
    seg3 = CurveTrace.from_path(lambda s: np.array([s, 0.0]), (0.0, 1.0), 1e-2,
                                velocity=lambda s: np.array([1.0, 0.0]),
                                acceleration=lambda s: np.zeros(2))
    assert [len(seg.s) for seg in (seg1, seg2, seg3)] == [201, 101, 101]
    # the holonomy reads the boundary only: an empty interior node set
    octant = RegionSpec([seg1, seg2, seg3], np.empty((0, 2)), np.empty(0))
    angle = boundary_holonomy_angle(abstract_sphere, octant)
    assert abs(angle - np.pi / 2) < 1e-4


def test_transport_preserves_norm(slice_data):
    q = np.array([0.0, 0.0])
    v = slice_data.unit(q, [1.0, 0.0])
    tr = integrate_geodesic(slice_data, q, v, 0.6, 1e-3)
    w0 = np.array([0.3, -0.5])
    ws = parallel_transport_samples(slice_data, tr, w0)
    n0 = slice_data.norm(tr.points[0], w0)
    n1 = slice_data.norm(tr.points[-1], ws[-1])
    assert abs(n1 - n0) < 1e-8


def _close(a, b):
    """Agreement to 1e-12 relative (absolute below 1)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))))


def per_stage_transport(data, tr, w0):
    """The per-stage formulation as the oracle: one RK4 step per trace
    interval, reading the trace and the connection at every stage."""

    def rhs(sv, wv):
        p, v = tr.eval(sv)
        return -np.einsum("kij,i,j->k", data.gamma(p), v, wv)

    ref = [np.asarray(w0, dtype=float)]
    for i in range(len(tr.s) - 1):
        ref.append(_rk4_step(rhs, tr.s[i], ref[-1], tr.s[i + 1] - tr.s[i]))
    return np.array(ref)


def per_stage_jacobi(ktilde, tau_x, tau_y, init, length, step):
    """The per-stage formulation as the oracle: ``rk4_samples`` on the state
    (x, y, p) with one scalar read of each coefficient per stage, stopping
    where a read raises PointOutsideChart.  Returns (t, x, y, yp)."""

    def rhs(t, st):
        x, y, p = st
        return np.array([y * tau_x(t), p + y * tau_y(t), -ktilde(t) * y])

    x0, y0, _, yp0 = init
    ts, states = [0.0], [np.array([x0, y0, yp0 - y0 * tau_y(0.0)])]
    try:
        for t, st in rk4_samples(rhs, states[0], length, step):
            ts.append(t)
            states.append(st)
    except PointOutsideChart:
        pass
    x, y, p = np.array(states).T
    return np.array(ts), x, y, p + y * np.array([tau_y(t) for t in ts])


def test_transport_reads_gamma_once_as_one_batch(monkeypatch):
    """One batched connection read of the 2n + 1 distinct stage points for
    n intervals, and the per-stage formulation's field to 1e-12."""
    data = gallery.hyperbolic_deformed(1.0)
    tr = deformed_geodesic(data)
    w0 = np.array([0.3, 1.0])
    ref = per_stage_transport(data, tr, w0)
    calls = count_calls(monkeypatch, data, "gamma")
    ws = parallel_transport_samples(data, tr, w0)
    assert len(calls) == 1 and calls[0].shape == (101, 2)
    assert len(np.unique(calls[0], axis=0)) == 101
    assert _close(ws, ref)


def count_shape_layer(monkeypatch):
    """Wrap the immersion connection's two ways to the shape layer: the batch
    kernel, called directly for (N, 2) rows, and the one-point
    ``fundamental_forms`` behind its memo.  Returns the row shapes of each."""
    from efimov_lab import connection

    kernel_calls, point_calls = [], []
    kernel, one_point = connection._fundamental_rows, connection.fundamental_forms

    def counted_kernel(patch, ambient, q):
        kernel_calls.append(q.shape)
        return kernel(patch, ambient, q)

    def counted_point(patch, ambient, q):
        point_calls.append(np.shape(q))
        return one_point(patch, ambient, q)

    monkeypatch.setattr(connection, "_fundamental_rows", counted_kernel)
    monkeypatch.setattr(connection, "fundamental_forms", counted_point)
    return kernel_calls, point_calls


@pytest.mark.parametrize("length", [0.1, 0.3])
def test_immersion_transport_reads_the_shape_layer_twice(monkeypatch, length):
    """An immersion-mode transport reads the shape layer in 2 batched kernel
    calls whatever the trace length: B and the symbols of I over all 2n + 1
    stage points, then B over their 8 (2n + 1) stacked dB stencil points; no
    one-point read."""
    data = gallery.build_example("saddle").data
    q = np.array([0.1, -0.2])
    tr = integrate_geodesic(data, q, data.unit(q, [0.6, 0.8]), length, 0.01)
    kernel_calls, point_calls = count_shape_layer(monkeypatch)
    parallel_transport_samples(data, tr, [0.3, -0.5])
    rows = 2 * len(tr.s) - 1
    assert kernel_calls == [(rows, 2), (8 * rows, 2)] and point_calls == []


@pytest.mark.parametrize("length", [0.1, 0.3])
def test_immersion_jacobi_field_reads_the_shape_layer_a_fixed_number_of_times(
        monkeypatch, length):
    """An immersion-mode Jacobi field reads the shape layer in 5 batched
    kernel calls, whatever the trace length: 3 for the torsion (gamma over
    all stage points and their stacked dB stencil, then III), 1 for III and
    1 for K~."""
    data = gallery.build_example("saddle").data
    q = np.array([0.1, 0.0])
    tr = integrate_geodesic(data, q, data.unit(q, [1.0, 0.2]), length, 0.01)
    kernel_calls, point_calls = count_shape_layer(monkeypatch)
    jt = jacobi_field(data, tr, 0.0, 0.0, 0.0, 1.0, 0.01)
    rows = 2 * len(jt.t) - 1
    assert kernel_calls == [(rows, 2), (8 * rows, 2)] + [(rows, 2)] * 3 and point_calls == []


def test_one_point_immersion_gamma_reads_nine_one_point_forms(monkeypatch):
    """A one-point immersion gamma at a fresh point makes 1 + 8 one-point
    ``fundamental_forms`` calls (B and the symbols of I, then the dB
    stencil) and no batched kernel call."""
    data = gallery.build_example("saddle").data
    kernel_calls, point_calls = count_shape_layer(monkeypatch)
    data.gamma([0.123, -0.321])
    assert point_calls == [(2,)] * 9 and kernel_calls == []


def test_transport_along_a_path_backed_trace_equals_per_stage():
    """A path-backed trace evaluates its path at the stage times; a closed
    latitude circle on the sphere transports as the per-stage oracle."""
    data = gallery.abstract_sphere()
    tr = latitude_trace(data, np.pi / 3)
    w0 = np.array([0.2, -0.4])
    assert _close(parallel_transport_samples(data, tr, w0), per_stage_transport(data, tr, w0))


def test_one_sample_trace_transports_to_itself(monkeypatch):
    data = gallery.hyperbolic_deformed(1.0)
    tr = integrate_geodesic(data, [1.2, 0.1], data.unit([1.2, 0.1], [1.0, 0.5]), 0.0, 0.01)
    assert len(tr.s) == 1
    calls = count_calls(monkeypatch, data, "gamma")
    ws = parallel_transport_samples(data, tr, [0.3, 1.0])
    assert ws.shape == (1, 2) and np.array_equal(ws[0], [0.3, 1.0]) and calls == []


def test_deformed_small_loop_rotation():
    """Rotation around a small loop matches curvature times area to O(A^2)."""
    dt = gallery.hyperbolic_deformed(2.0)
    loop = RegionSpec.coordinate_disk([1.0, 0.5], 0.05, n_boundary=201,
                                      n_radial=12, n_angular=48)
    angle = boundary_holonomy_angle(dt, loop)
    pts, wts = loop.points, loop.weights
    area = sum(dt.area_density(p) * w for p, w in zip(pts, wts))
    k_center = 2.0 * np.tanh(1.0) - 1.0
    assert abs(angle - k_center * area) < 10.0 * area ** 2


def test_geodesics_are_zero_quasi_geodesics(slice_data):
    """Transporting the initial velocity along a geodesic reproduces the
    velocity: geodesics have zero quasi-geodesic defect."""
    q = np.array([0.05, -0.1])
    v = slice_data.unit(q, [0.7, 0.7])
    tr = integrate_geodesic(slice_data, q, v, 0.4, 1e-3)
    ws = parallel_transport_samples(slice_data, tr, v)
    worst = 0.0
    for i in range(0, len(tr.s), 50):
        p = tr.points[i]
        g = slice_data.third_form(p)
        j = slice_data.complex_structure(p)
        a, b = tr.velocities[i], ws[i]
        worst = max(worst, abs(np.arctan2((j @ a) @ g @ b, a @ g @ b)))
    assert worst < 1e-6


# --- geodesic curvature -----------------------------------------------------


def test_geodesic_curvature_vanishes_on_geodesics(abstract_sphere):
    tr = integrate_geodesic(abstract_sphere, [1.0, 0.0], [0.0, 1.0], 2.0, 1e-3)
    for s in (0.5, 1.0, 1.5):
        assert abs(geodesic_curvature(abstract_sphere, tr, s)) < 1e-6


def test_latitude_circle_curvature(abstract_sphere):
    psi = np.pi / 3
    tr = latitude_trace(abstract_sphere, psi)
    k = geodesic_curvature(abstract_sphere, tr, 0.7)
    assert abs(k - 1.0 / np.tan(psi)) < 1e-5


def test_flat_circle_curvature(abstract_plane):
    r = 0.8
    tr = CurveTrace.from_path(
        lambda s: r * np.array([np.cos(s / r), np.sin(s / r)]), (0.0, 2 * np.pi * r),
        1e-3, velocity=lambda s: np.array([-np.sin(s / r), np.cos(s / r)]),
        acceleration=lambda s: -np.array([np.cos(s / r), np.sin(s / r)]) / r)
    assert abs(geodesic_curvature(abstract_plane, tr, 1.0) - 1.0 / r) < 1e-6


# --- Jacobi -----------------------------------------------------------------


def test_jacobi_sine_closed_form():
    jt = integrate_jacobi(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                          (0.0, 0.0, 0.0, 1.0), 1.8, 1e-4)
    assert np.max(np.abs(jt.y - np.sin(jt.t))) < 1e-8
    assert np.max(np.abs(jt.x)) < 1e-12


def test_jacobi_sandwich_bounds():
    jt = integrate_jacobi(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                          (0.0, 0.0, 0.0, 1.0), 1.8, 1e-4)
    mask = jt.t > 0
    t = jt.t[mask]
    y = jt.y[mask]
    assert np.all(y >= 0.5 * t - 1e-12)
    assert np.all(y <= 2.0 * t + 1e-12)


def test_jacobi_x_bound_constant_torsion():
    tau0 = 0.3
    jt = integrate_jacobi(lambda t: 1.0, lambda t: tau0, lambda t: 0.0,
                          (0.0, 0.0, 0.0, 1.0), 1.8, 1e-4)
    mask = jt.t > 0
    assert np.all(np.abs(jt.x[mask]) <= tau0 * jt.t[mask] ** 2 + 1e-12)


def test_jacobi_order_of_convergence():
    def err(step):
        jt = integrate_jacobi(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                              (0.0, 0.0, 0.0, 1.0), 1.5, step)
        return np.max(np.abs(jt.y - np.sin(jt.t)))

    assert err(2e-3) / err(1e-3) >= 8.0


def test_jacobi_along_data_trace(abstract_sphere):
    tr = integrate_geodesic(abstract_sphere, [1.0, 0.0], [0.0, 1.0], 1.8, 1e-3)
    jt = jacobi_field(abstract_sphere, tr, 0.0, 0.0, 0.0, 1.0, 1e-3)
    assert np.max(np.abs(jt.y - np.sin(jt.t))) < 1e-6
    assert np.max(np.abs(jt.xp - jt.y * jt.tau_x)) < 1e-12


def test_jacobi_field_reads_coefficients_once_as_one_batch(monkeypatch):
    """K~ and the torsion are read once, as one batch of the 2n + 1 distinct
    stage points for n steps, and the field equals the per-stage
    formulation with separate readers of K~ and each torsion component to
    1e-12."""
    data = gallery.hyperbolic_deformed(1.0)
    tr = deformed_geodesic(data)

    def tau_component(t, rotate):
        p, v = tr.eval(t)
        if rotate:
            v = data.complex_structure(p) @ v
        return float(data.torsion_vector(p) @ data.third_form(p) @ v)

    t, x, y, yp = per_stage_jacobi(lambda t: data.curvature(tr.eval(t)[0]),
                                   lambda t: tau_component(t, False),
                                   lambda t: tau_component(t, True),
                                   (0.0, 0.0, 0.0, 1.0), tr.total_length, 0.01)
    calls = count_calls(monkeypatch, data, "curvature")
    torsion_calls = count_calls(monkeypatch, data, "torsion_vector")
    jt = jacobi_field(data, tr, 0.0, 0.0, 0.0, 1.0, 0.01)
    assert len(jt.t) == 51 and not jt.left_patch
    assert len(calls) == 1 and calls[0].shape == (101, 2)
    assert len(np.unique(calls[0], axis=0)) == 101
    assert len(torsion_calls) == 1 and np.array_equal(torsion_calls[0], calls[0])
    assert np.array_equal(jt.t, t)
    for got, want in ((jt.x, x), (jt.y, y), (jt.yp, yp)):
        assert _close(got, want)


@pytest.mark.parametrize("cut", [0.2525, 0.2555])
def test_jacobi_stops_after_the_last_whole_step_that_evaluates(cut):
    """Where a coefficient raises PointOutsideChart past ``cut`` (at a
    midpoint, or at a sample), the field stops where the per-stage
    formulation stops: after the last whole step before it."""

    def ktilde(t):
        if np.max(t) > cut:
            raise PointOutsideChart(f"t = {np.max(t)} is past {cut}")
        return 1.0

    jt = integrate_jacobi(ktilde, lambda t: 0.1, lambda t: 0.2, (0.0, 0.0, 0.0, 1.0), 1.0, 0.01)
    t, x, y, yp = per_stage_jacobi(ktilde, lambda t: 0.1, lambda t: 0.2,
                                   (0.0, 0.0, 0.0, 1.0), 1.0, 0.01)
    assert jt.left_patch and len(jt.t) == len(t) == 26
    assert _close(jt.x, x) and _close(jt.y, y) and _close(jt.yp, yp)


def test_zero_length_jacobi_field_returns_its_initial_row():
    jt = integrate_jacobi(lambda t: 1.0, lambda t: 0.3, lambda t: 0.5,
                          (0.0, 2.0, 0.6, 1.0), 0.0, 0.01)
    assert list(jt.t) == [0.0] and not jt.left_patch
    assert (jt.x[0], jt.y[0], jt.xp[0], jt.yp[0]) == (0.0, 2.0, 0.6, 1.0)
    assert (jt.ktilde[0], jt.tau_x[0], jt.tau_y[0]) == (1.0, 0.3, 0.5)


def test_jacobi_coefficient_that_does_not_broadcast_raises_typed_error():
    with pytest.raises(ParameterOutOfRange, match="called on an array of t"):
        integrate_jacobi(lambda t: [1.0, 2.0], lambda t: 0.0, lambda t: 0.0,
                         (0.0, 0.0, 0.0, 1.0), 0.5, 0.1)


# --- Gauss-Bonnet -----------------------------------------------------------


def test_gauss_bonnet_spherical_cap(abstract_sphere):
    cap = RegionSpec.coordinate_disk([0.0, 0.0], 1.0 / np.sqrt(3.0),
                                     n_boundary=401, n_radial=24, n_angular=64)
    assert gauss_bonnet_residual(abstract_sphere, cap) < 1e-4


def test_gauss_bonnet_hyperbolic_disk(hyperbolic_abstract):
    disk = RegionSpec.coordinate_disk([1.5, 0.0], 1.0, n_boundary=401,
                                      n_radial=24, n_angular=72)
    assert gauss_bonnet_residual(hyperbolic_abstract, disk) < 1e-4


def test_gauss_bonnet_deformed_disk():
    dt = gallery.hyperbolic_deformed(2.0)
    disk = RegionSpec.geodesic_disk(dt, [1.2, 0.3], 0.5, n_rays=160, n_radial=12)
    assert gauss_bonnet_residual(dt, disk) < 1e-3
    hol = boundary_holonomy_angle(dt, disk)
    ik = disk.curvature_integral(dt)
    assert abs(np.exp(1j * hol) - np.exp(1j * ik)) < 1e-3


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(["tanh", "angular", "abstract_sphere"]),
       where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       radius=st.floats(0.1, 0.5), n_rays=st.integers(5, 9), n_radial=st.integers(1, 4))
# a 32-ray, 6-radial tanh disk like the CLI checks' (centre [1.3, 0.3]): 32-row gamma batches
@example(case="tanh", where=(0.2, 0.65), radius=0.4, n_rays=32, n_radial=6)
def test_geodesic_disk_rays_equal_integrate_geodesic(case, where, radius, n_rays, n_radial):
    """The one RK4 over the stacked rays gives each ray, its interior nodes
    and its boundary end exactly as integrate_geodesic traces it alone."""
    if case == "abstract_sphere":
        data, lo, hi = gallery.abstract_sphere(), np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    else:
        data = gallery.hyperbolic_deformed(1.5, profile=case)
        lo, hi = np.array([1.0, -1.0]), np.array([2.5, 1.0])
    center = lo + np.array(where) * (hi - lo)
    disk = RegionSpec.geodesic_disk(data, center, radius, n_rays=n_rays, n_radial=n_radial)
    f = orthonormal_frame(data.third_form(center))
    s_nodes = 0.5 * (np.polynomial.legendre.leggauss(n_radial)[0] + 1.0) * radius
    nodes = disk.points.reshape(n_rays, n_radial, 2)
    for k in range(n_rays):
        phi = 2 * np.pi * k / n_rays
        tr = integrate_geodesic(data, center, np.cos(phi) * f[0] + np.sin(phi) * f[1], radius,
                                radius / 64.0)
        assert not tr.left_patch
        assert np.array_equal(nodes[k], [tr.eval(s)[0] for s in s_nodes])
        assert np.array_equal(disk.segments[0].points[k], tr.eval(radius)[0])


def test_geodesic_disk_raises_when_a_ray_leaves_the_chart():
    """Rays towards the edge r = 0.05 of the polar chart leave it before the
    radius: PointOutsideChart naming a ray whose own geodesic leaves the
    chart, where the region used to be built from rays truncated at the
    edge."""
    data = gallery.hyperbolic_deformed(1.0)
    center = np.array([0.3, 0.0])
    with pytest.raises(PointOutsideChart, match="ray in direction") as info:
        RegionSpec.geodesic_disk(data, center, 0.4, n_rays=32, n_radial=6)
    direction = np.array(re.search(r"direction \[([^\]]*)\]", str(info.value)).group(1).split(),
                         dtype=float)
    assert abs(data.norm(center, direction) - 1.0) < 1e-6  # printed to 8 digits
    assert integrate_geodesic(data, center, data.unit(center, direction), 0.4, 0.4 / 64).left_patch


def test_region_integrals_equal_the_per_point_sums():
    """The batched K~ integral and boundary integral agree with sums of
    one-point evaluations up to summation order."""
    data = gallery.hyperbolic_deformed(1.5)
    disk = RegionSpec.geodesic_disk(data, [1.2, 0.3], 0.4, n_rays=32, n_radial=6)
    pts, wts = disk.points, disk.weights
    ref = sum(data.curvature(p) * data.area_density(p) * w for p, w in zip(pts, wts))
    assert abs(disk.curvature_integral(data) - ref) <= 1e-14 * abs(ref)

    seg = disk.segments[0]
    kappa_ds = []
    for p, v, acc in zip(seg.points, seg.velocities, seg.accelerations):
        g = data.third_form(p)
        cov = acc + np.einsum("kij,i,j->k", data.gamma(p), v, v)
        kappa_ds.append(cov @ g @ (data.complex_structure(p) @ v) / (v @ g @ v))
    ref = np.mean(kappa_ds[:-1]) * (seg.s[-1] - seg.s[0])  # periodic: trapezoid rule
    assert abs(disk.boundary_kappa_integral(data) - ref) <= 1e-13 * abs(ref)


def test_holonomy_consistent_with_curvature_integral(abstract_sphere):
    cap = RegionSpec.coordinate_disk([0.0, 0.0], 1.0 / np.sqrt(3.0),
                                     n_boundary=401, n_radial=24, n_angular=64)
    hol = boundary_holonomy_angle(abstract_sphere, cap)
    ik = cap.curvature_integral(abstract_sphere)
    assert abs(np.exp(1j * hol) - np.exp(1j * ik)) < 1e-3


def test_coordinate_disk_boundary_samples_are_odd():
    disk = RegionSpec.coordinate_disk([0.0, 0.0], 0.5, n_boundary=100)
    assert len(disk.segments[0].s) == 101


def test_gauss_bonnet_reads_boundary_samples_only(abstract_sphere, monkeypatch):
    """The boundary's path, velocity and acceleration are sampled once, when
    the region is built; the Gauss-Bonnet sums read only those samples."""
    disk = RegionSpec.coordinate_disk([0.0, 0.0], 0.5, n_boundary=101)
    seg = disk.segments[0]
    calls = []
    for name in ("path", "path_velocity", "path_acceleration"):
        fn = getattr(seg, name)
        monkeypatch.setattr(seg, name, lambda t, fn=fn: calls.append(t) or fn(t))
    assert gauss_bonnet_residual(abstract_sphere, disk) < 1e-4
    assert calls == []


@pytest.mark.parametrize("counts", [
    {"n_boundary": 0}, {"n_boundary": 1}, {"n_radial": 0}, {"n_angular": 0},
    {"n_boundary": float("nan")}])
def test_coordinate_disk_rejects_degenerate_counts(counts):
    with pytest.raises(ParameterOutOfRange, match="region"):
        RegionSpec.coordinate_disk([0.0, 0.0], 0.5, **counts)


@pytest.mark.parametrize("counts", [{"n_rays": 1}, {"n_rays": 2}, {"n_rays": 4},
                                    {"n_radial": 0}])
def test_geodesic_disk_rejects_degenerate_counts(abstract_sphere, counts):
    """The boundary's periodic difference spans five rays, so fewer would
    wrap onto themselves."""
    with pytest.raises(ParameterOutOfRange, match="region"):
        RegionSpec.geodesic_disk(abstract_sphere, [0.0, 0.0], 0.5, **counts)


@pytest.mark.parametrize("length, step", [(1.0, 0.0), (1.0, -1e-3), (1.0, np.nan),
                                          (1.0, np.inf), (np.nan, 1e-3), (np.inf, 1e-3),
                                          (-1.0, 0.1)])
def test_integrate_geodesic_rejects_bad_length_or_step(abstract_plane, length, step):
    with pytest.raises(ParameterOutOfRange):
        integrate_geodesic(abstract_plane, [0.0, 0.0], [1.0, 0.0], length, step)


def test_zero_length_trace_is_its_start(abstract_plane):
    """A zero length takes no step: the trace is the start sample alone, as
    a Jacobi field needs when its base geodesic left the chart at once."""
    tr = integrate_geodesic(abstract_plane, [0.5, 0.0], [1.0, 0.0], 0.0, 0.1)
    assert tr.s.tolist() == [0.0] and tr.points.tolist() == [[0.5, 0.0]]
    assert list(rk4_samples(lambda t, y: y, np.ones(1), 0.0, 0.1)) == []


def test_step_grid_array_equals_the_lazy_grid():
    """The array form of the step grid is bit for bit the lazy one, on
    random grids and on lengths that are whole multiples of the step."""
    rng = np.random.default_rng(19)
    cases = [(float(a), float(b)) for a, b in zip(rng.uniform(0.0, 3.0, 200),
                                                 10.0 ** rng.uniform(-3.0, 0.5, 200))]
    cases += [(0.0, 0.1), (1.0, 0.1), (0.3, 0.1), (0.7, 0.07), (2.0, 0.25), (1e-13, 0.1)]
    for length, step in cases:
        t, h = _step_grid(length, step)
        lazy = list(_step_sizes(length, step))
        assert h.tolist() == lazy
        times = [0.0]
        for hh in lazy:
            times.append(times[-1] + hh)
        assert t.tolist() == times


@pytest.mark.parametrize("length, step", [(1.0, 0.0), (1.0, np.nan), (np.inf, 1e-3),
                                          (-1.0, 0.1)])
def test_step_grid_rejects_bad_length_or_step(length, step):
    with pytest.raises(ParameterOutOfRange):
        _step_grid(length, step)


@pytest.mark.parametrize("step", [0.0, -0.1, np.nan, np.inf])
def test_from_path_rejects_bad_step(step):
    with pytest.raises(ParameterOutOfRange, match="step"):
        CurveTrace.from_path(lambda s: np.array([s, 0.0]), (0.0, 1.0), step,
                             velocity=lambda s: np.array([1.0, 0.0]),
                             acceleration=lambda s: np.zeros(2))


@pytest.mark.parametrize("radius", [0.0, -0.5, np.nan, np.inf])
def test_disks_reject_bad_radius(abstract_sphere, radius):
    with pytest.raises(ParameterOutOfRange, match="region"):
        RegionSpec.coordinate_disk([0.0, 0.0], radius)
    with pytest.raises(ParameterOutOfRange, match="region"):
        RegionSpec.geodesic_disk(abstract_sphere, [0.0, 0.0], radius)


@pytest.mark.parametrize("center, radius, n_radial, n_angular",
                         [([0.1, -0.1], 0.5, 8, 16), ([1.5, 0.0], 1.0, 24, 64),
                          ([0.3, 0.7], 2, 1, 1)])
def test_coordinate_disk_nodes_equal_the_per_node_loop(center, radius, n_radial, n_angular):
    """The array expression of the polar nodes and weights gives, bit for
    bit, the Gauss-Legendre x midpoint loop over the nodes, radius outermost."""
    ga, wa = np.polynomial.legendre.leggauss(n_radial)
    c = np.asarray(center, dtype=float)
    pts, wts = [], []
    b_nodes, b_w = (np.arange(n_angular) + 0.5) / n_angular, np.full(n_angular, 1.0 / n_angular)
    for a, aw in zip(0.5 * (ga + 1.0), 0.5 * wa):
        for b, bw in zip(b_nodes, b_w):
            pts.append(c + a * radius * np.array([np.cos(2 * np.pi * b), np.sin(2 * np.pi * b)]))
            wts.append(aw * bw * abs(2 * np.pi * a * radius ** 2))
    disk = RegionSpec.coordinate_disk(center, radius, n_radial=n_radial, n_angular=n_angular)
    assert np.array_equal(disk.points, pts) and np.array_equal(disk.weights, wts)


def test_open_boundary_raises(abstract_plane):
    seg = CurveTrace.from_path(lambda s: np.array([s, 0.0]), (0.0, 1.0), 2e-2,
                               velocity=lambda s: np.array([1.0, 0.0]),
                               acceleration=lambda s: np.zeros(2))
    assert len(seg.s) == 51
    region = RegionSpec([seg], np.empty((0, 2)), np.empty(0))
    with pytest.raises(OpenBoundary):
        gauss_bonnet_residual(abstract_plane, region)


# --- deformation rate -------------------------------------------------------


def test_deformation_rate_sphere_latitude(abstract_sphere):
    psi = np.pi / 3
    tr = latitude_trace(abstract_sphere, psi)
    assert deformation_rate_check(abstract_sphere, tr, lambda s: 1.0, 1.0) < 1e-4


def test_deformation_rate_flat_circle(abstract_plane):
    r = 0.8
    tr = CurveTrace.from_path(
        lambda s: r * np.array([np.cos(s / r), np.sin(s / r)]), (0.0, 2 * np.pi * r),
        1e-3, velocity=lambda s: np.array([-np.sin(s / r), np.cos(s / r)]),
        acceleration=lambda s: -np.array([np.cos(s / r), np.sin(s / r)]) / r)
    assert deformation_rate_check(abstract_plane, tr, lambda s: 1.0, 1.0) < 1e-4


def test_deformation_rate_deformed_connection():
    from scipy.interpolate import CubicSpline

    dt = gallery.hyperbolic_deformed(1.0)
    r0, rho = 1.3, 0.3
    sh = np.sinh(r0)

    def chart_point(a):
        return np.array([r0 + rho * np.cos(a), rho * np.sin(a) / sh])

    def chart_velocity(a):
        return np.array([-rho * np.sin(a), rho * np.cos(a) / sh])

    # arclength reparametrization of the coordinate circle via a spline
    angles = np.linspace(0.0, 2 * np.pi, 4001)
    speeds = np.array([np.sqrt(chart_velocity(a) @ dt.third_form(chart_point(a))
                               @ chart_velocity(a)) for a in angles])
    arc = np.concatenate([[0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1])
                                           * np.diff(angles))])
    total = arc[-1]
    angle_of_arc = CubicSpline(arc, angles)
    d_angle = angle_of_arc.derivative()
    dd_angle = d_angle.derivative()

    def path(s):
        return chart_point(float(angle_of_arc(s)))

    def velocity(s):
        a = float(angle_of_arc(s))
        return chart_velocity(a) * float(d_angle(s))

    def acceleration(s):
        a = float(angle_of_arc(s))
        da = float(d_angle(s))
        dda = float(dd_angle(s))
        second = np.array([-rho * np.cos(a), -rho * np.sin(a) / sh])
        return second * da * da + chart_velocity(a) * dda

    tr = CurveTrace.from_path(path, (0.0, total), 1e-3, velocity=velocity,
                              acceleration=acceleration, closed=True,
                              arclength=total)
    assert deformation_rate_check(dt, tr, lambda s: 1.0, total / 3.0) < 1e-3


@pytest.mark.parametrize("psi, amp, frac", [(0.8, 0.0, 0.2), (1.1, 0.15, 0.5), (1.4, 0.3, 0.8)])
def test_deformation_rate_batch_equals_one_point_maps(abstract_sphere, monkeypatch, psi, amp,
                                                      frac):
    """On the benchmark's latitude traces (step 1e-2), the one batched
    exponential map over the 3 x 5 deformed points gives the float that one
    exponential map per point gives."""
    tr = latitude_trace(abstract_sphere, psi, step=1e-2)

    def check():
        return deformation_rate_check(abstract_sphere, tr, lambda s: 1.0 + amp * np.sin(s),
                                      frac * tr.total_length)

    batched = check()
    one_point = curves.exponential_map
    monkeypatch.setattr(curves, "exponential_map", lambda data, q, w: np.array(
        [one_point(data, qq, ww) for qq, ww in zip(q, w)]))
    assert batched == check()
    assert batched < 1e-4


def _operator_data():
    sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)
    return SurfaceConnectionData.from_operator(
        sigma, gallery.random_monge_ampere_field(sigma, seed=3))


@pytest.mark.parametrize("name, build, center", [
    ("abstract_sphere", gallery.abstract_sphere, (0.2, -0.1)),
    ("hyperbolic_deformed", lambda: gallery.hyperbolic_deformed(1.5), (1.3, 0.2)),
    ("operator", _operator_data, (1.5, 0.3)),
    ("saddle", lambda: gallery.build_example("saddle").data, (0.1, 0.05)),
])
def test_exponential_map_rows_equal_per_row_calls(name, build, center):
    """One flow over stacked (N, 2) rows ends every row bit for bit where its
    one-point call ends, in torsion, operator and immersion modes."""
    data = build()
    rng = np.random.default_rng(5)
    q = np.array(center) + 0.2 * (rng.random((6, 2)) - 0.5)
    w = 0.4 * (rng.random((6, 2)) - 0.5)
    w[0] = 0.0
    ends = exponential_map(data, q, w)
    assert ends.shape == (6, 2) and ends.flags.c_contiguous
    assert np.array_equal(ends[0], q[0])
    for k in range(6):
        assert np.array_equal(ends[k], exponential_map(data, q[k], w[k]))


def test_exponential_map_names_the_row_that_leaves_the_chart(abstract_plane):
    q = np.array([[0.0, 0.0], [5.5, 0.0], [0.0, 5.5]])
    w = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(exponential_map(abstract_plane, q[:2], w[:2]), [[1.0, 0.0], [5.5, 1.0]])
    with pytest.raises(LeftPatch) as info:
        exponential_map(abstract_plane, q, w)
    assert info.value.row == 2
    with pytest.raises(ValueError):
        exponential_map(abstract_plane, q, w[:2])


def test_endpoint_sample_raises(slice_data):
    from efimov_lab.errors import EndpointSample

    q = np.array([0.0, 0.0])
    v = slice_data.unit(q, [1.0, 0.0])
    tr = integrate_geodesic(slice_data, q, v, 0.2, 1e-2)
    with pytest.raises(EndpointSample):
        geodesic_curvature(slice_data, tr, tr.s1)


def sandwich_horizon(jt):
    """Largest time up to which y'(0) t / 2 <= y(t) <= 2 y'(0) t holds on the
    Jacobi trace jt.  An empirical per-trace quantity; no universal constant
    is claimed."""
    yp0 = jt.yp[0]
    if yp0 <= 0:
        return 0.0
    ok = (jt.y >= 0.5 * yp0 * jt.t - 1e-12) & (jt.y <= 2.0 * yp0 * jt.t + 1e-12)
    ok[0] = True
    bad = np.nonzero(~ok)[0]
    return float(jt.t[-1] if len(bad) == 0 else jt.t[bad[0] - 1])


def test_sandwich_horizon_sine_case():
    jt = integrate_jacobi(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                          (0.0, 0.0, 0.0, 1.0), 2.5, 1e-3)
    horizon = sandwich_horizon(jt)
    # sin t >= t/2 holds up to ~1.8955; the upper bound never binds
    assert 1.89 < horizon < 1.90


@pytest.mark.parametrize("call, error", [
    (lambda plane: spiral_eigenvalues(np.nan, 1.0, 1.0), ParameterOutOfRange),
    (lambda plane: integrate_jacobi(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                                    (0.0, np.nan, 0.0, 1.0), 0.1, 0.01), ParameterOutOfRange),
    (lambda plane: parallel_transport(
        plane, integrate_geodesic(plane, [0.0, 0.0], [1.0, 0.0], 0.1, 0.05), [np.nan, 1.0]),
     DegenerateVector),
    (lambda plane: dual_connection_at(plane, [0.0, 0.0], [np.nan, 1.0], [1.0, 0.0]),
     DegenerateVector),
    (lambda plane: riemann_sectional(gallery.euclidean3(), [0.0, 0.0, 0.0], [np.nan, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]), DegeneratePlane),
    # a NaN integral must not pass as the +inf of an empty minimum
    (lambda plane: weak_inequality_residual(construct_edo7(0.0, 1.0, 1.0), lambda s: np.nan),
     BoundViolated),
], ids=["spiral_eigenvalues", "integrate_jacobi", "parallel_transport", "dual_connection_at",
        "riemann_sectional", "weak_inequality_residual"])
def test_non_finite_input_raises_typed_error(abstract_plane, call, error):
    with pytest.raises(error):
        call(abstract_plane)

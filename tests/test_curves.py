import numpy as np
import pytest

from efimov_lab import gallery
from efimov_lab.curves import (
    BoundarySegment,
    CurveTrace,
    RegionSpec,
    _rk4_step,
    boundary_holonomy_angle,
    deformation_rate_check,
    gauss_bonnet_residual,
    geodesic_curvature,
    integrate_geodesic,
    integrate_jacobi,
    jacobi_field,
    parallel_transport,
    parallel_transport_samples,
)
from efimov_lab.errors import OpenBoundary


def latitude_trace(data, psi):
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

    return CurveTrace.from_path(path, (0.0, total), 1e-3, velocity=velocity,
                                acceleration=acceleration, closed=True,
                                arclength=total)


def count_calls(monkeypatch, obj, name):
    """Wrap the point evaluator ``obj.name``; the returned list collects the
    point of every call."""
    calls = []
    fn = getattr(obj, name)

    def counted(q, *args, **kwargs):
        calls.append(tuple(np.asarray(q, dtype=float)))
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
        velocity=lambda s: 0.7 * np.array([-np.sin(s), np.cos(s)]), closed=True)
    w = parallel_transport(abstract_plane, circ, np.array([1.0, 2.0]))
    assert np.max(np.abs(w - [1.0, 2.0])) < 1e-12


def test_sphere_triangle_holonomy(abstract_sphere):
    """Transport around a geodesic triangle with three right angles rotates
    by its area, pi/2."""
    seg1 = BoundarySegment(path=lambda s: np.array([np.cos(s), np.sin(s)]),
                           s_range=(0.0, np.pi / 2), n_samples=201,
                           velocity=lambda s: np.array([-np.sin(s), np.cos(s)]),
                           acceleration=lambda s: -np.array([np.cos(s), np.sin(s)]))
    seg2 = BoundarySegment(path=lambda s: np.array([0.0, 1.0 - s]), s_range=(0.0, 1.0),
                           n_samples=101, velocity=lambda s: np.array([0.0, -1.0]),
                           acceleration=lambda s: np.zeros(2))
    seg3 = BoundarySegment(path=lambda s: np.array([s, 0.0]), s_range=(0.0, 1.0),
                           n_samples=101, velocity=lambda s: np.array([1.0, 0.0]),
                           acceleration=lambda s: np.zeros(2))
    octant = RegionSpec([seg1, seg2, seg3],
                        {"map": lambda a, b: a * np.array([np.cos(b * np.pi / 2),
                                                           np.sin(b * np.pi / 2)]),
                         "jacobian": lambda a, b: a * np.pi / 2, "n": (24, 48)})
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


def test_transport_reads_gamma_once_per_point(monkeypatch):
    """One connection read per sample and per midpoint, 2n + 1 for n
    intervals, with the field of an RK4 step that reads at every stage."""
    data = gallery.hyperbolic_deformed(1.0)
    tr = deformed_geodesic(data)
    w0 = np.array([0.3, 1.0])

    def rhs(sv, wv):
        p, v = tr.eval(sv)
        return -np.einsum("kij,i,j->k", data.gamma(p), v, wv)

    ref = [w0]
    for i in range(len(tr.s) - 1):
        ref.append(_rk4_step(rhs, tr.s[i], ref[-1], tr.s[i + 1] - tr.s[i]))
    calls = count_calls(monkeypatch, data.provider, "gamma")
    ws = parallel_transport_samples(data, tr, w0)
    assert len(calls) == 101 and len(set(calls)) == 101
    np.testing.assert_array_equal(ws, np.array(ref))


def test_deformed_small_loop_rotation():
    """Rotation around a small loop matches curvature times area to O(A^2)."""
    dt = gallery.hyperbolic_deformed(2.0)
    loop = RegionSpec.coordinate_disk([1.0, 0.5], 0.05, n_boundary=201,
                                      n_radial=12, n_angular=48)
    angle = boundary_holonomy_angle(dt, loop)
    pts, wts = loop.interior_nodes()
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


def test_jacobi_field_reads_curvature_once_per_time(monkeypatch):
    """K~ and the torsion are read once per distinct time, 2n + 1 for n
    steps, and the field equals one built from a separate reader of K~ and
    of each torsion component."""
    data = gallery.hyperbolic_deformed(1.0)
    tr = deformed_geodesic(data)

    def tau_component(t, rotate):
        p, v = tr.eval(t)
        if rotate:
            v = data.complex_structure(p) @ v
        return float(data.torsion_vector(p) @ data.third_form(p) @ v)

    ref = integrate_jacobi(lambda t: data.curvature(tr.eval(t)[0]),
                           lambda t: tau_component(t, False), lambda t: tau_component(t, True),
                           (0.0, 0.0, 0.0, 1.0), tr.total_length, 0.01)
    calls = count_calls(monkeypatch, data, "curvature")
    torsion_calls = count_calls(monkeypatch, data, "torsion_vector")
    jt = jacobi_field(data, tr, 0.0, 0.0, 0.0, 1.0, 0.01)
    assert len(jt.t) == 51 and not jt.left_patch
    assert len(calls) == 101 and len(set(calls)) == 101
    assert torsion_calls == calls  # one read serves both torsion components
    for name in ("t", "x", "y", "xp", "yp", "ktilde", "tau_x", "tau_y"):
        np.testing.assert_array_equal(getattr(jt, name), getattr(ref, name))


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


def test_holonomy_consistent_with_curvature_integral(abstract_sphere):
    cap = RegionSpec.coordinate_disk([0.0, 0.0], 1.0 / np.sqrt(3.0),
                                     n_boundary=401, n_radial=24, n_angular=64)
    hol = boundary_holonomy_angle(abstract_sphere, cap)
    ik = cap.curvature_integral(abstract_sphere)
    assert abs(np.exp(1j * hol) - np.exp(1j * ik)) < 1e-3


def test_open_boundary_raises(abstract_plane):
    seg = BoundarySegment(path=lambda s: np.array([s, 0.0]), s_range=(0.0, 1.0),
                          n_samples=51, velocity=lambda s: np.array([1.0, 0.0]),
                          acceleration=lambda s: np.zeros(2))
    region = RegionSpec([seg], {"map": lambda a, b: np.array([a, b]),
                                "jacobian": lambda a, b: 1.0, "n": (4, 4)})
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
    assert deformation_rate_check(dt, tr, lambda s: 1.0, total / 3.0,
                                  eps=1e-3) < 1e-3


def test_endpoint_sample_raises(slice_data):
    from efimov_lab.errors import EndpointSample

    q = np.array([0.0, 0.0])
    v = slice_data.unit(q, [1.0, 0.0])
    tr = integrate_geodesic(slice_data, q, v, 0.2, 1e-2)
    with pytest.raises(EndpointSample):
        geodesic_curvature(slice_data, tr, tr.s1)


def test_sandwich_horizon_sine_case():
    from efimov_lab.curves import sandwich_horizon

    jt = integrate_jacobi(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                          (0.0, 0.0, 0.0, 1.0), 2.5, 1e-3)
    horizon = sandwich_horizon(jt)
    # sin t >= t/2 holds up to ~1.8955; the upper bound never binds
    assert 1.89 < horizon < 1.90


def test_geodesic_error_estimate(abstract_sphere):
    tr = integrate_geodesic(abstract_sphere, [1.0, 0.0], [0.0, 1.0], 1.0, 1e-2,
                            error_estimate=True)
    assert tr.endpoint_error < 1e-8

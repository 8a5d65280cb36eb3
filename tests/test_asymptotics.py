import re

import numpy as np
import pytest

from efimov_lab import _fd, gallery
from efimov_lab.ambient import ChartBox, as_point
from efimov_lab.asymptotics import (
    asymptotic_frame,
    covariant_rate_check,
    measured_tau1,
    net_expansion_check,
    trace_asymptotic,
)
from efimov_lab.connection import FD_STEP, SurfaceConnectionData
from efimov_lab.curves import rk4_samples
from efimov_lab.errors import ModeUnsupported, NonHyperbolicPoint, PointOutsideChart
from efimov_lab.expressions import parse_assignments
from efimov_lab.immersion import surface_from_expressions


def covariant_derivative_of_field(data, q, x, field):
    """D~_x (field) at q for a vector field given as a callable q -> vector,
    one field per stencil: the oracle of the stacked frame rates."""
    q = as_point(q, 2)
    x = np.asarray(x, dtype=float)
    dfield = _fd.gradient(field, q, FD_STEP)
    gam = data.gamma(q)
    return np.einsum("i,ik->k", x, dfield) + np.einsum("kij,i,j->k", gam, x, field(q))


def theta_mean_curvature_residual(data, q):
    """| |cot theta| - |H| sqrt(|det B~|) | for the mean curvature H of the
    immersion, as an oracle of the frame angle; orientation conventions drop
    out through the absolute values."""
    frame = asymptotic_frame(data, q)
    h = 0.5 * float(np.trace(data.b_matrix(q)))
    det_bt = abs(float(np.linalg.det(data.b_tilde(q))))
    cot = np.cos(frame.theta) / np.sin(frame.theta)
    return abs(abs(cot) - abs(h) * np.sqrt(det_bt))


def frame_residuals(data, q, frame):
    """The eigen-equations as the oracle: the III-norms of B~U - kJU and
    B~V + kJV, which vanish for a correct frame."""
    bt = data.b_tilde(q)
    j = data.complex_structure(q)
    r1 = bt @ frame.u - frame.k * (j @ frame.u)
    r2 = bt @ frame.v + frame.k * (j @ frame.v)
    return data.norm(q, r1), data.norm(q, r2)


def test_saddle_frame(saddle_data):
    fr = asymptotic_frame(saddle_data, [0.0, 0.0])
    assert abs(fr.theta - np.pi / 2) < 1e-12
    assert abs(fr.k - 1.0) < 1e-12
    # U and V run along the parameter axes
    assert min(abs(fr.u[0]), abs(fr.u[1])) < 1e-12
    assert min(abs(fr.v[0]), abs(fr.v[1])) < 1e-12
    r1, r2 = frame_residuals(saddle_data, [0.0, 0.0], fr)
    assert r1 < 1e-12 and r2 < 1e-12


@pytest.mark.parametrize("name", ["pseudosphere", "clifford_torus"])
def test_frame_eigen_equations_at_random_points(name):
    """B~U = kJU and B~V = -kJV to 1e-10 relative to |B~U| at random points
    of the box."""
    data = gallery.build_example(name).data
    lo, hi = np.array(data.box.lo) + 0.1, np.array(data.box.hi) - 0.1
    rng = np.random.default_rng(5)
    for _ in range(8):
        q = lo + (hi - lo) * rng.random(2)
        fr = asymptotic_frame(data, q)
        r1, r2 = frame_residuals(data, q, fr)
        bt = data.b_tilde(q)
        assert r1 <= 1e-10 * data.norm(q, bt @ fr.u)
        assert r2 <= 1e-10 * data.norm(q, bt @ fr.v)


def test_saddle_frame_sign_ignores_rounding_noise(saddle_data):
    """On the saddle U runs along the v-axis, so its first component is
    rounding noise; the tie rule orients U along +v at every point."""
    rng = np.random.default_rng(11)
    for q in rng.uniform(-0.4, 0.4, (12, 2)):
        fr = asymptotic_frame(saddle_data, q)
        assert abs(fr.u[0]) <= 1e-12 and fr.u[1] > 0


def test_sphere_not_hyperbolic(sphere2_data):
    with pytest.raises(NonHyperbolicPoint):
        asymptotic_frame(sphere2_data, [1.1, 0.4])
    pts = np.array([[0.8, -0.3], [1.1, 0.4]])
    with pytest.raises(NonHyperbolicPoint, match=re.escape(str(pts[0]))):
        asymptotic_frame(sphere2_data, pts)


def test_frame_residuals_sampled(slice_data):
    rng = np.random.default_rng(2)
    for _ in range(6):
        q = 0.8 * (2 * rng.random(2) - 1)
        fr = asymptotic_frame(slice_data, q)
        r1, r2 = frame_residuals(slice_data, q, fr)
        assert r1 < 1e-6 and r2 < 1e-6
        assert 0.0 < fr.theta < np.pi


def test_u_norm_in_first_form_equals_k(slice_data):
    q = np.array([0.2, -0.3])
    fr = asymptotic_frame(slice_data, q)
    first = slice_data.fundamental(q).first
    norm_i = np.sqrt(fr.u @ first @ fr.u)
    assert abs(norm_i - fr.k) < 1e-8
    # and k stays below the pinching cap 1/sqrt(K2 - K1)
    from efimov_lab.connection import measured_pinching
    k1, k2, k3, _ = measured_pinching(slice_data, [q])
    assert fr.k <= 1.0 / np.sqrt(k2 - k1) + 1e-8


def test_pseudosphere_theta_mean_curvature():
    case = gallery.build_example("pseudosphere")
    for q in ([1.0, 0.3], [1.4, -0.5]):
        assert theta_mean_curvature_residual(case.data, q) < 1e-8


def test_covariant_rates_saddle(saddle_data):
    for q in ([0.1, 0.05], [0.0, 0.0], [0.3, -0.2]):
        r1, r2 = covariant_rate_check(saddle_data, q)
        assert r1 < 1e-4 and r2 < 1e-4


def test_covariant_rates_slice(slice_data_half):
    for q in ([0.2, 0.3], [-0.1, 0.5]):
        r1, r2 = covariant_rate_check(slice_data_half, q)
        assert r1 < 1e-3 and r2 < 1e-3


def test_rate_bounded_by_measured_tau1(slice_data_half):
    pts = [np.array([0.2, 0.3]), np.array([-0.1, 0.5]), np.array([0.4, -0.2])]
    tau1 = measured_tau1(slice_data_half, pts)
    for q in pts:
        base = asymptotic_frame(slice_data_half, q)

        def v_field(qq):
            return asymptotic_frame(slice_data_half, qq, ref_u=base.u, ref_v=base.v).v

        nuv = slice_data_half.norm(q, covariant_derivative_of_field(
            slice_data_half, q, base.u, v_field))
        assert nuv <= tau1 * np.sin(base.theta) * (1.0 + 1e-9) + 1e-12


@pytest.mark.parametrize("name, params, q", [
    ("saddle", {}, [0.1, 0.05]),
    ("hyperbolic_slice", {"lambda": 0.5}, [0.2, 0.3]),
    ("pseudosphere", {}, [1.2, 0.3]),
])
def test_frame_rates_equal_the_two_field_route(name, params, q):
    """One stencil over the stacked frame fields (U, V) gives D~_V U and
    D~_U V bit for bit as one ``covariant_derivative_of_field`` per field.
    On an (N, 2) batch, with no reference, with ``ref_u`` and with
    ``ref_v``, each row of the frame and of the rates equals the one-point
    call bit for bit."""
    from efimov_lab.asymptotics import _frame_rates

    data = gallery.build_example(name, **params).data
    q = np.array(q)
    base, nabla_v_u, nabla_u_v, _, _ = _frame_rates(data, q)

    def field(which):
        return lambda qq: getattr(asymptotic_frame(data, qq, ref_u=base.u, ref_v=base.v), which)

    assert np.array_equal(nabla_v_u, covariant_derivative_of_field(data, q, base.v, field("u")))
    assert np.array_equal(nabla_u_v, covariant_derivative_of_field(data, q, base.u, field("v")))

    rng = np.random.default_rng(8)
    pts = q + rng.uniform(-0.05, 0.05, (40, 2))
    refs = rng.normal(size=(40, 2))
    for kw in ({}, {"ref_u": refs}, {"ref_v": refs}):
        batch = asymptotic_frame(data, pts, **kw)
        for i, p in enumerate(pts):
            one = asymptotic_frame(data, p, **{key: r[i] for key, r in kw.items()})
            for key in ("u", "v", "theta", "k"):
                assert np.array_equal(getattr(batch, key)[i], getattr(one, key)), (kw, key)
    rates = _frame_rates(data, pts[:3])
    for i, p in enumerate(pts[:3]):
        for got, want in zip(rates[1:], _frame_rates(data, p)[1:]):
            assert np.array_equal(got[i], want)


@pytest.mark.parametrize("name, q, which", [
    ("pseudosphere", [1.0, 0.1], "U"),
    ("hyperbolic_slice", [0.1, -0.2], "V"),
])
def test_flow_reuses_sample_direction_bit_for_bit(name, q, which):
    """The flow takes a step's first RK4 stage from the sample's direction;
    the trace equals the one that evaluates the frame at every stage."""
    data = gallery.build_example(name).data
    tr = trace_asymptotic(data, q, which, 0.2, 0.01)
    key = which.lower()

    def direction(qq, ref):
        refs = {"ref_u": ref} if which == "U" else {"ref_v": ref}
        return getattr(asymptotic_frame(data, qq, **refs), key)

    vec = getattr(asymptotic_frame(data, q), key)
    pts, vels = [np.array(q, dtype=float)], [vec]
    for _, cur in rk4_samples(lambda t, qq: direction(qq, vec), pts[0], 0.2, 0.01):
        vec = direction(cur, vec)
        pts.append(cur)
        vels.append(vec)
    assert np.array_equal(tr.points, np.array(pts))
    assert np.array_equal(tr.velocities, np.array(vels))


def test_trace_stops_where_a_stage_read_leaves_the_chart(monkeypatch):
    """A frame read that raises PointOutsideChart inside an RK4 step ends the
    trace after the last whole step, with left_patch set: B~ here cannot be
    read beyond |q| = 0.053, which the U-line along the saddle's axis
    reaches in the stages of its sixth step."""
    data = gallery.build_example("saddle").data
    full = trace_asymptotic(data, [0.0, 0.0], "U", 0.2, 0.01)
    b_tilde = data.b_tilde

    def clipped(q):
        if np.hypot(*q) > 0.053:
            raise PointOutsideChart(f"no room at {q}")
        return b_tilde(q)

    monkeypatch.setattr(data, "b_tilde", clipped)
    tr = trace_asymptotic(data, [0.0, 0.0], "U", 0.2, 0.01)
    assert tr.left_patch and not full.left_patch
    assert len(tr.s) == 6
    assert np.array_equal(tr.points, full.points[:6])
    assert np.array_equal(tr.thetas, full.thetas[:6])


def test_trace_saddle_axis(saddle_data):
    tr = trace_asymptotic(saddle_data, [0.0, 0.0], "U", 0.2, 5e-3)
    assert not tr.left_patch
    # the trace runs along a parameter axis; theta stays at pi/2
    axis_dev = min(np.max(np.abs(tr.points[:, 0])), np.max(np.abs(tr.points[:, 1])))
    assert axis_dev < 1e-10
    assert np.max(np.abs(tr.thetas - np.pi / 2)) < 1e-10
    assert tr.delta > 3.0
    assert tr.quasi_defect < 1e-8


def test_trace_sigma_self_consistency():
    case = gallery.build_example("pseudosphere")
    tr = trace_asymptotic(case.data, [1.0, 0.0], "U", 0.5, 5e-3)
    manual = np.trapezoid(np.sin(tr.thetas), tr.s)
    assert tr.sigma > 0
    assert abs(tr.sigma - manual) < 1e-10


def test_trace_rejects_torsion_mode(hyperbolic_abstract):
    with pytest.raises(ModeUnsupported):
        trace_asymptotic(hyperbolic_abstract, [1.0, 0.0], "U", 0.1, 1e-3)


def test_trace_step_refinement():
    case = gallery.build_example("pseudosphere")

    def run(step):
        tr = trace_asymptotic(case.data, [1.0, 0.1], "V", 0.4, step)
        return tr.delta, tr.sigma

    d1, s1 = run(0.02)
    d2, s2 = run(0.01)
    d4, s4 = run(0.005)
    # halving the step shrinks the increments at order >= 2
    assert abs(s2 - s4) <= abs(s1 - s2) / 3.0 + 1e-13
    assert abs(d2 - d4) <= abs(d1 - d2) / 3.0 + 1e-12


def test_net_saddle(saddle_data):
    rep = net_expansion_check(saddle_data, [0.0, 0.0], (0.12, 0.12), n_u=4, n_v=4)
    alpha, beta = rep["alpha"], rep["beta"]
    assert np.max(np.abs(alpha - 1.0)) < 0.05
    assert np.max(np.abs(beta - 1.0)) < 0.05
    slack = 0.05
    assert rep["sup_dua_over_ab"] <= rep["bound"] + slack
    assert rep["sup_dvb_over_ab"] <= rep["bound"] + slack
    assert np.max(np.abs(rep["dL_dv"])) <= np.max(rep["dL_dv_bound"]) + slack


def test_net_constant_curvature_bound_reduces_to_tau1(saddle_data):
    rep = net_expansion_check(saddle_data, [0.05, -0.05], (0.1, 0.1), n_u=3, n_v=3)
    assert rep["tau0"] < 1e-6  # constant-curvature ambient
    assert abs(rep["bound"] - 2.0 * rep["tau1"]) < 1e-6


def test_net_degenerate_length(saddle_data):
    rep = net_expansion_check(saddle_data, [0.0, 0.0], (0.0, 0.1), n_u=0, n_v=4)
    assert rep.get("trivial")
    assert np.all(rep["alpha"] == 1.0)


def _file_saddle():
    """z = uv as a declarative surface: map-only, so every partial is a
    central difference."""
    fields, box = parse_assignments("box = -1 1 -1 1\nphi1 = u\nphi2 = v\nphi3 = u*v\n",
                                    ("u", "v"))
    patch = surface_from_expressions(fields, ChartBox((box[0], box[2]), (box[1], box[3])),
                                     name="saddle-file")
    return SurfaceConnectionData.from_immersion(patch, gallery.euclidean3())


@pytest.mark.parametrize("q", [(0.1, 0.2), (0.05, -0.05), (-0.07, 0.03)])
def test_builtin_and_file_saddle_nets_agree(saddle_data, q):
    """The same surface with analytic and with FD partials builds the same
    net: the frame's sign rule does not read rounding noise."""
    a = net_expansion_check(saddle_data, q, (0.1, 0.1), n_u=3, n_v=3)
    b = net_expansion_check(_file_saddle(), q, (0.1, 0.1), n_u=3, n_v=3)
    assert np.max(np.abs(a["points"] - b["points"])) < 1e-9
    assert np.max(np.abs(a["alpha"] - b["alpha"])) < 1e-8
    assert np.max(np.abs(a["beta"] - b["beta"])) < 1e-8
    assert abs(a["bound"] - b["bound"]) < 1e-5 * a["bound"]


def on_rulings(pts):
    """The grid of the u of each P[0][j] and the v of each P[i][0]: where a
    saddle net's points lie, since the asymptotic lines of z = uv are its
    coordinate lines."""
    return np.stack(np.broadcast_arrays(pts[0, :, 0][None, :], pts[:, 0, 1][:, None]), axis=-1)


def test_saddle_net_lies_on_the_rulings(saddle_data):
    rep = net_expansion_check(saddle_data, [0.05, -0.05], (0.12, 0.12), n_u=4, n_v=4)
    assert np.max(np.abs(rep["points"] - on_rulings(rep["points"]))) < 1e-10


def test_pseudosphere_net_is_chebyshev():
    """On a K = -1 surface the asymptotic lines parametrized by arclength
    form a Chebyshev net (Hazzidakis 1880): every net speed is 1."""
    data = gallery.build_example("pseudosphere").data
    rep = net_expansion_check(data, [0.9, 0.0], (0.2, 0.2), n_u=8, n_v=8)
    assert np.max(np.abs(rep["alpha"] - 1.0)) <= 1e-9
    assert np.max(np.abs(rep["beta"] - 1.0)) <= 1e-9


def test_net_lines_stop_where_the_net_ends(saddle_data):
    """A line is integrated only as far as the intersections read it, so a
    net whose far side comes near the box edge builds: from (0, 0.55) the
    net ends at v = 0.847, short of the trace margin 0.05 inside v = 1.
    Flows run 2.5 cells past every net point would leave the patch."""
    rep = net_expansion_check(saddle_data, [0.0, 0.55], (0.2, 0.2), n_u=2, n_v=2)
    pts = rep["points"]
    assert np.max(np.abs(pts)) < 0.85
    assert np.max(np.abs(pts - on_rulings(pts))) < 1e-10

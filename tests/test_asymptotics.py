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
from efimov_lab.errors import (LeftPatch, ModeUnsupported, NonHyperbolicPoint,
                               ParameterOutOfRange, PointOutsideChart)
from efimov_lab.expressions import parse_assignments
from efimov_lab.immersion import SurfacePatch, surface_from_expressions


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


def test_batched_measured_tau1_reads_the_shape_layer_once_per_row_set(monkeypatch):
    """Batched tau1 on 9 saddle points makes 6 kernel calls: the frame's B
    and III in one read, the stacked frame stencil, gamma's B and symbols
    and its dB stencil, and III for each of the two norms; its value is the
    largest of the one-point values, bit for bit."""
    from efimov_lab import connection

    data = gallery.build_example("saddle").data
    pts = np.stack(np.meshgrid([-0.2, 0.0, 0.2], [-0.1, 0.05, 0.3]), axis=-1).reshape(-1, 2)
    one_point = max(measured_tau1(data, q) for q in pts)
    calls, kernel = [], connection._fundamental_rows

    def counted(patch, ambient, q):
        calls.append(q.shape)
        return kernel(patch, ambient, q)

    monkeypatch.setattr(connection, "_fundamental_rows", counted)
    assert measured_tau1(data, pts) == one_point
    assert calls == [(9, 2), (72, 2), (9, 2), (72, 2), (9, 2), (9, 2)]


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
    trace after the last whole step, with left_patch set: the frame's read
    of the shape layer (B and III) here cannot reach beyond |q| = 0.053,
    which the U-line along the saddle's axis reaches in the stages of its
    sixth step."""
    data = gallery.build_example("saddle").data
    full = trace_asymptotic(data, [0.0, 0.0], "U", 0.2, 0.01)
    shape_forms = data._shape_forms

    def clipped(q):
        if np.hypot(*q) > 0.053:
            raise PointOutsideChart(f"no room at {q}")
        return shape_forms(q)

    monkeypatch.setattr(data, "_shape_forms", clipped)
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
    rep = net_expansion_check(saddle_data, [0.0, 0.0], (0.0, 0.1), n_u=3, n_v=4)
    assert rep.get("trivial")
    assert rep["alpha"].shape == rep["beta"].shape == (4, 5)


def test_net_rejects_a_count_that_is_not_an_integer(saddle_data):
    """The CLI parses counts as integers; a library caller may pass any
    number (negative counts and bad lengths: tests/test_cli.py)."""
    with pytest.raises(ParameterOutOfRange, match=r"n_u must be an integer >= 0, got 1\.5"):
        net_expansion_check(saddle_data, [0.0, 0.0], (0.1, 0.1), n_u=1.5, n_v=2)


def test_net_whose_base_line_leaves_the_chart_raises_left_patch(saddle_data):
    with pytest.raises(LeftPatch):
        net_expansion_check(saddle_data, [0.0, 0.0], (2.0, 0.1), n_u=4, n_v=4)


def _file_saddle():
    """z = uv as a declarative surface, whose partials are the derivative
    expressions of its map."""
    fields, box = parse_assignments("box = -1 1 -1 1\nphi1 = u\nphi2 = v\nphi3 = u*v\n",
                                    ("u", "v"))
    patch = surface_from_expressions(fields, ChartBox((box[0], box[2]), (box[1], box[3])),
                                     name="saddle-file")
    return SurfaceConnectionData.from_immersion(patch, gallery.euclidean3())


NET_STARTS = [(0.1, 0.2), (0.05, -0.05), (-0.07, 0.03)]


@pytest.mark.parametrize("q", NET_STARTS)
def test_builtin_and_file_saddle_nets_agree(saddle_data, q):
    """The same surface with hand-written and with derived partials builds
    the same net, and the frame's sign rule does not read rounding noise;
    the bound reads ``measured_tau1``, whose central differences of the
    frame amplify any difference in the partials."""
    a = net_expansion_check(saddle_data, q, (0.1, 0.1), n_u=3, n_v=3)
    b = net_expansion_check(_file_saddle(), q, (0.1, 0.1), n_u=3, n_v=3)
    assert np.max(np.abs(a["points"] - b["points"])) < 1e-9
    assert np.max(np.abs(a["alpha"] - b["alpha"])) < 1e-8
    assert np.max(np.abs(a["beta"] - b["beta"])) < 1e-8
    assert abs(a["bound"] - b["bound"]) < 1e-5 * a["bound"]


@pytest.mark.parametrize("q", NET_STARTS)
def test_fd_saddle_net_agrees_with_the_builtin_net(saddle_data, q):
    """z = uv from a Python callable with no derivatives hook, so every
    partial is a central difference: the sign rule of the frame still
    builds the same net.  The bound is not compared, since central
    differences of the frame over FD partials carry rounding noise."""
    patch = SurfacePatch(_fd.pointwise(lambda p: np.array([p[0], p[1], p[0] * p[1]])),
                         ChartBox.cube(2, 1.0), name="saddle-fd")
    data = SurfaceConnectionData.from_immersion(patch, gallery.euclidean3())
    a = net_expansion_check(saddle_data, q, (0.1, 0.1), n_u=3, n_v=3)
    b = net_expansion_check(data, q, (0.1, 0.1), n_u=3, n_v=3)
    assert np.max(np.abs(a["points"] - b["points"])) < 1e-9
    assert np.max(np.abs(a["alpha"] - b["alpha"])) < 1e-8
    assert np.max(np.abs(a["beta"] - b["beta"])) < 1e-8


def saddle_net(q, side, n):
    """The asymptotic net of z = uv in closed form: its points and the
    speeds alpha, beta off row and column 0.  III_vv = (1 + u^2)/W^4 with
    W^2 = 1 + u^2 + v^2, so along the ruling u = c the III-arclength is
    arctan(v / sqrt(1 + c^2)), and symmetrically along v = c.  U runs
    along +v and V along -u (the frame's sign rule at these points)."""
    u0, v0 = q
    d = side / n
    k = np.arange(n + 1)
    a0, b0 = np.hypot(1.0, u0), np.hypot(1.0, v0)
    v = a0 * np.tan(np.arctan(v0 / a0) + k * d)  # the base U-line, on u = u0
    u = b0 * np.tan(np.arctan(u0 / b0) - k * d)  # the base V-line, on v = v0
    pts = np.stack(np.broadcast_arrays(u[None, :], v[:, None]), axis=-1)
    beta = np.diff(np.arctan(v[:, None] / np.hypot(1.0, u)[None, :]), axis=0) / d
    alpha = -np.diff(np.arctan(u[None, :] / np.hypot(1.0, v)[:, None]), axis=1) / d
    return pts, alpha[1:], beta[:, 1:]


def saddle_net_error(data, q, side, n):
    rep = net_expansion_check(data, q, (side, side), n_u=n, n_v=n)
    pts, alpha, beta = saddle_net(q, side, n)
    return max(np.max(np.abs(rep["points"] - pts)), np.max(np.abs(rep["alpha"][1:, 1:] - alpha)),
               np.max(np.abs(rep["beta"][1:, 1:] - beta)))


@pytest.mark.parametrize("q,side,n,tol", [((0.0, 0.0), 0.3, 2, 5e-8),
                                          ((0.05, -0.05), 0.12, 4, 1e-9)])
def test_saddle_net_matches_the_closed_form(saddle_data, q, side, n, tol):
    assert saddle_net_error(saddle_data, q, side, n) <= tol


@pytest.mark.parametrize("q,side", [((0.0, 0.0), 0.3), ((-0.2, 0.1), 0.4)])
def test_saddle_net_converges_at_fourth_order(saddle_data, q, side):
    """The error against the closed form falls at least 8x per doubling of
    n (16x at fourth order)."""
    errors = [saddle_net_error(saddle_data, q, side, n) for n in (2, 4, 8)]
    assert errors[0] >= 8.0 * errors[1] and errors[1] >= 8.0 * errors[2]


def on_rulings(pts):
    """The grid of the u of each P[0][j] and the v of each P[i][0]: where a
    saddle net's points lie, since the asymptotic lines of z = uv are its
    coordinate lines."""
    return np.stack(np.broadcast_arrays(pts[0, :, 0][None, :], pts[:, 0, 1][:, None]), axis=-1)


def test_saddle_net_lies_on_the_rulings(saddle_data):
    rep = net_expansion_check(saddle_data, [0.05, -0.05], (0.12, 0.12), n_u=4, n_v=4)
    assert np.max(np.abs(rep["points"] - on_rulings(rep["points"]))) < 1e-10


@pytest.mark.parametrize("name,q,side,tol", [
    pytest.param("pseudosphere", (0.9, 0.0), 0.2, 1e-9, id="pseudosphere"),
    pytest.param("clifford_torus", (0.3, 0.2), 0.4, 1e-12, id="clifford_torus-a"),
    pytest.param("clifford_torus", (1.0, -0.5), 0.4, 1e-12, id="clifford_torus-b"),
])
def test_pseudosphere_net_is_chebyshev(name, q, side, tol):
    """On a surface of constant negative extrinsic curvature in a space form
    the asymptotic lines parametrized by arclength form a Chebyshev net
    (Hazzidakis 1880 for the pseudosphere; the flat Clifford torus in S^3
    too): every net speed is 1."""
    data = gallery.build_example(name).data
    rep = net_expansion_check(data, q, (side, side), n_u=8, n_v=8)
    assert np.max(np.abs(rep["alpha"] - 1.0)) <= tol
    assert np.max(np.abs(rep["beta"] - 1.0)) <= tol


def test_net_lines_stop_where_the_net_ends(saddle_data):
    """Only the two base lines are traced, each exactly as long as its side,
    so a net whose far side comes near the box edge builds: from (0, 0.55)
    the base U-line runs along v to 0.847, short of its trace margin (four
    sub-cell steps, 0.1) inside v = 1."""
    rep = net_expansion_check(saddle_data, [0.0, 0.55], (0.2, 0.2), n_u=2, n_v=2)
    pts = rep["points"]
    assert np.max(np.abs(pts)) < 0.85
    assert np.max(np.abs(pts - on_rulings(pts))) < 1e-10

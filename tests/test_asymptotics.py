import numpy as np
import pytest

from efimov_lab import gallery
from efimov_lab.asymptotics import (
    asymptotic_frame,
    covariant_rate_check,
    measured_tau1,
    net_expansion_check,
    theta_mean_curvature_residual,
    trace_asymptotic,
)
from efimov_lab.errors import ModeUnsupported, NonHyperbolicPoint


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


def test_sphere_not_hyperbolic(sphere2_data):
    with pytest.raises(NonHyperbolicPoint):
        asymptotic_frame(sphere2_data, [1.1, 0.4])


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
    from efimov_lab.connection import covariant_derivative_of_field

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
    D~_U V bit for bit as one ``covariant_derivative_of_field`` per field."""
    from efimov_lab.asymptotics import _frame_rates
    from efimov_lab.connection import covariant_derivative_of_field

    data = gallery.build_example(name, **params).data
    q = np.array(q)
    base, nabla_v_u, nabla_u_v = _frame_rates(data, q)

    def field(which):
        return lambda qq: getattr(asymptotic_frame(data, qq, ref_u=base.u, ref_v=base.v), which)

    assert np.array_equal(nabla_v_u, covariant_derivative_of_field(data, q, base.v, field("u")))
    assert np.array_equal(nabla_u_v, covariant_derivative_of_field(data, q, base.u, field("v")))


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

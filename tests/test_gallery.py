import numpy as np
import pytest

from efimov_lab import gallery
from efimov_lab.ambient import sectional_range
from efimov_lab.connection import orthonormal_frame
from efimov_lab.errors import ParameterOutOfRange, WrongSignDeterminant


def test_builtin_names_buildable():
    for name in gallery.builtin_names():
        case = gallery.build_example(name)
        assert case.kind in ("metric", "surface", "connection")


def test_unknown_name():
    with pytest.raises(ParameterOutOfRange):
        gallery.build_example("nonsense")


def test_g_lambda_zero_is_hyperbolic():
    m = gallery.g_lambda(0.0)
    for p in ([0.0, 0.0, 0.0], [0.5, -0.7, 0.1], [1.2, 0.9, -0.15]):
        lo, hi = sectional_range(m, p)
        assert abs(lo + 1.0) < 1e-5 and abs(hi + 1.0) < 1e-5


def test_g_lambda_positive_definite_range():
    m = gallery.g_lambda(2.0)
    assert m.box.hi[2] <= 1.0 / 8.0 + 1e-15
    with pytest.raises(ParameterOutOfRange):
        gallery.g_lambda(2.0, z_half=0.3)
    with pytest.raises(ParameterOutOfRange):
        gallery.g_lambda(-1.0)
    # inside the declared box the metric stays positive definite
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                      rng.uniform(-m.box.hi[2], m.box.hi[2])])
        assert np.all(np.linalg.eigvalsh(m.matrix(p)) > 0)


def test_g_lambda_entries_on_slice():
    lam = 3.0
    m = gallery.g_lambda(lam, analytic=False)
    refs = [f for _, f in gallery.g_lambda_reference_entries(lam)]
    for p in ([0.0, 0.7, 0.0], [0.4, -0.9, 0.0]):
        measured = gallery.measured_g_lambda_entries(m, np.asarray(p))
        for got, ref in zip(measured, refs):
            assert abs(got - ref(p)) < 1e-3


def test_deformed_reference_values():
    case = gallery.build_example("hyperbolic_deformed", t=2.0)
    assert abs(case.references["curvature_tanh_form"](1.0)
               - (2.0 * np.tanh(1.0) - 1.0)) < 1e-12
    q = np.array([1.0, 0.2])
    assert abs(case.data.torsion_norm(q) - 2.0) < 1e-8
    assert abs(case.data.curvature(q) - (2.0 * np.tanh(1.0) - 1.0)) < 1e-6


def test_deformed_verify_tanh_profile():
    rep = gallery.verify_example("hyperbolic_deformed", {"t": 1.0})
    by_name = {f["name"]: f for f in rep["fields"]}
    assert by_name["torsion_norm"]["pass"]
    assert by_name["curvature_tanh_form"]["pass"]
    assert by_name["curvature_coth_form"].get("informational")
    assert rep["all_pass"]


def test_deformed_verify_angular_profile_flags_discrepancy():
    """The purely angular torsion field of the same norm has the coth
    curvature profile; the tanh form is off by an O(1) amount."""
    rep = gallery.verify_example("hyperbolic_deformed", {"t": 2.0, "profile": "angular"})
    by_name = {f["name"]: f for f in rep["fields"]}
    assert by_name["curvature_coth_form"]["pass"]
    assert by_name["curvature_tanh_form"]["max_abs_err"] > 1.0
    assert rep["notes"]["t_sq_over_limit_K"] == 4.0


def test_deformed_zero_torsion_profiles_agree():
    rep = gallery.verify_example("hyperbolic_deformed", {"t": 0.0})
    by_name = {f["name"]: f for f in rep["fields"]}
    assert by_name["curvature_tanh_form"]["max_abs_err"] < 1e-6
    assert by_name["curvature_coth_form"]["max_abs_err"] < 1e-6


def test_verify_constant_curvature_metrics():
    for name in ("euclidean3", "sphere3", "hyperbolic3"):
        assert gallery.verify_example(name)["all_pass"]


def test_verify_clifford_torus():
    rep = gallery.verify_example("clifford_torus")
    assert rep["all_pass"]
    for f in rep["fields"]:
        assert f["max_abs_err"] < 1e-8


def test_verify_g_lambda_slice_passes_slab_fails():
    rep = gallery.verify_example("g_lambda", {"lambda": 1.0})
    by_name = {f["name"]: f for f in rep["fields"]}
    for entry in ("sectional_12", "sectional_13", "sectional_32", "mixed_1213"):
        assert by_name[entry + "_z0_slice"]["pass"]
        assert not by_name[entry]["pass"]  # the closed forms are z=0 facts
    assert rep["notes"]["slab_deviation"] > 0.1


def test_torus_inside_sphere_chart():
    case = gallery.build_example("clifford_torus")
    rng = np.random.default_rng(9)
    for _ in range(30):
        q = 3.2 * (2 * rng.random(2) - 1)
        p = case.patch.point(q)
        assert case.metric.box.contains(p)


# --- virtual third form -----------------------------------------------------


def _hyperbolic_sigma():
    return gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)


def test_virtual_third_form_identity_magnitude():
    sigma = _hyperbolic_sigma()

    def h_diag(q):
        g = sigma.matrix(q)
        f, _ = orthonormal_frame(g)
        frame = np.column_stack([f[0], f[1]])
        return frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)

    data, rep = gallery.virtual_third_form(sigma, h_diag, lambda q: 1.0,
                                           lambda q: np.zeros(2))
    # III = sigma and K~ = -K/b = 1 hold identically ...
    q = np.array([1.0, 0.3])
    assert np.max(np.abs(data.third_form(q) - sigma.matrix(q))) < 1e-10
    assert rep["ktilde_identity_residual"] < 1e-8
    # ... while H fails to solve the system and the report says so
    assert rep["dnabla_residual"] > 1.0
    assert rep["det_residual"] < 1e-12


def test_virtual_third_form_constructed_solution():
    sigma = _hyperbolic_sigma()
    h = gallery.random_monge_ampere_field(sigma, seed=5)

    def tau(q):
        return gallery.dnabla_h(sigma, h, q) / np.sqrt(np.linalg.det(sigma.matrix(q)))

    data, rep = gallery.virtual_third_form(sigma, h, lambda q: 1.0, tau)
    assert rep["det_residual"] < 1e-12
    assert rep["dnabla_residual"] < 1e-10  # second equation holds by construction
    assert rep["ktilde_identity_residual"] < 1e-8
    assert rep["torsion_identity_residual"] < 1e-8
    assert "hypothesis_bM_tau0sq_lt_4eps0_bm2" in rep


def test_virtual_third_form_scaling_homogeneity():
    """H -> cH, b -> c^2 b scales K~ by 1/c^2, matching -K/b."""
    sigma = _hyperbolic_sigma()
    h = gallery.random_monge_ampere_field(sigma, seed=11)
    c = 1.7

    def hc(q):
        return c * h(q)

    data1 = gallery.virtual_third_form(sigma, h, lambda q: 1.0,
                                       lambda q: np.zeros(2),
                                       sample_points=[[1.0, 0.2]])[0]
    data2 = gallery.virtual_third_form(sigma, hc, lambda q: c * c,
                                       lambda q: np.zeros(2),
                                       sample_points=[[1.0, 0.2]])[0]
    q = np.array([1.0, 0.2])
    k1 = data1.curvature(q)
    k2 = data2.curvature(q)
    assert abs(k2 - k1 / c ** 2) < 1e-8


def test_virtual_third_form_wrong_sign():
    sigma = _hyperbolic_sigma()

    def h_pos(q):
        return np.eye(2)

    with pytest.raises(WrongSignDeterminant):
        gallery.virtual_third_form(sigma, h_pos, lambda q: 1.0, lambda q: np.zeros(2))


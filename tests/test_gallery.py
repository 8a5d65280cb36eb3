import pathlib
import re

import numpy as np
import pytest

from efimov_lab import _fd, gallery
from efimov_lab.ambient import sectional_range
from efimov_lab.connection import orthonormal_frame
from efimov_lab.errors import ParameterOutOfRange, WrongSignDeterminant


def test_builtin_names_buildable():
    for name in gallery.builtin_names():
        case = gallery.build_example(name)
        assert case.kind in ("metric", "surface", "connection")


def test_abstract_charts_are_connection_examples():
    for name in ("abstract_sphere", "abstract_plane"):
        assert name in gallery.builtin_names()
        case = gallery.build_example(name)
        assert case.kind == "connection" and case.data.mode == "torsion"
        with pytest.raises(ParameterOutOfRange, match="no verification"):
            gallery.verify_example(name)


def test_unknown_name():
    with pytest.raises(ParameterOutOfRange):
        gallery.build_example("nonsense")


@pytest.mark.parametrize("name, params, match", [
    ("hyperbolic_slice", {"lamda": 2.0}, "no parameter lamda; it accepts lambda"),
    ("g_lambda", {"lam": 2.0}, "no parameter lam; it accepts lambda"),
    ("saddle", {"radius": 3.0}, "no parameter radius; it accepts none"),
    ("g_lambda", {"lambda": "abc"}, "g_lambda"),
    ("sphere2", {"radius": 0.0}, "radius"),
    ("geodesic_sphere_hyp3", {"radius": np.nan}, "radius"),
    ("constant_k_surface", {"k": np.inf}, "k must be finite"),
])
def test_build_example_rejects_unknown_or_bad_parameters(name, params, match):
    with pytest.raises(ParameterOutOfRange, match=match):
        gallery.build_example(name, **params)


def test_params_record_every_parameter_with_its_default():
    case = gallery.build_example("hyperbolic_deformed", t=2)
    assert case.params == {"t": 2.0, "profile": "tanh"} and type(case.params["t"]) is float
    assert gallery.build_example("sphere2").params == {"radius": 1.0}
    assert gallery.build_example("saddle").params == {}


def test_readme_lists_every_example_with_its_parameters():
    """README's example paragraph names every built-in example and every
    parameter of the table with its default."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Built-in example names", 1)[1].split("\n### ", 1)[0]
    for name, (_, defaults) in gallery._EXAMPLES.items():
        assert f"`{name}`" in paragraph
        for key, default in defaults.items():
            assert f"{key}={default}" in paragraph, (name, key)


@pytest.mark.parametrize("builder", [gallery.g_lambda, gallery.hyperbolic_deformed])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_builders_reject_non_finite_or_negative_parameter(builder, value):
    with pytest.raises(ParameterOutOfRange):
        builder(value)


def _oracle_points(box, n=20, seed=5):
    """n random points of the box, kept clear of its edges by 5% a side."""
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    rng = np.random.default_rng(seed)
    return [lo + (hi - lo) * (0.05 + 0.9 * rng.random(lo.size)) for _ in range(n)]


def _assert_close(value, reference, rel):
    assert np.max(np.abs(value - reference)) <= rel * max(1.0, np.max(np.abs(reference)))


@pytest.mark.parametrize("name", [n for n in gallery.builtin_names()
                                  if gallery.build_example(n).kind == "surface"])
def test_patch_derivatives_match_fd_jet_of_the_map(name):
    """The hand-written Jacobian and Hessian of each gallery patch against
    ``_fd.jet`` of its map at h = 1e-3."""
    patch = gallery.build_example(name).patch
    assert patch.has_analytic_partials
    for q in _oracle_points(patch.box):
        point, jac, hess = patch.jet(q)
        p_fd, grad_fd, hess_fd = _fd.jet(_fd.pointwise(patch.point), q, 1e-3)
        assert np.array_equal(point, p_fd)
        _assert_close(jac, grad_fd.T, 1e-9)
        _assert_close(hess, np.moveaxis(hess_fd, 2, 0), 1e-6)


_GALLERY_METRICS = {
    **{n: (lambda n=n: gallery.build_example(n).metric)
       for n in ("euclidean3", "sphere3", "hyperbolic3", "g_lambda")},
    "hyperbolic_plane_polar": gallery.hyperbolic_plane_polar,
    "abstract_sphere": lambda: gallery.abstract_sphere().iii_field,
    "abstract_plane": lambda: gallery.abstract_plane().iii_field,
}


@pytest.mark.parametrize("name", sorted(_GALLERY_METRICS))
def test_metric_partials_match_fd_jet_of_the_matrix(name):
    """The hand-written first partials of each gallery metric, and its
    second partials where it has them (else differences of the first),
    against ``_fd.jet`` of its matrix at h = 1e-3."""
    metric = _GALLERY_METRICS[name]()
    assert metric.has_analytic_partials
    for p in _oracle_points(metric.box):
        g, dg, d2g = metric.jet(p)
        g_fd, dg_fd, d2g_fd = _fd.jet(metric.matrix, p, 1e-3)
        assert np.array_equal(g, g_fd)
        _assert_close(dg, dg_fd, 1e-9)
        _assert_close(d2g, d2g_fd, 1e-6)


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
        frame = np.swapaxes(orthonormal_frame(sigma.matrix(q)), -1, -2)  # columns f1, f2
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
    """A constant H is broadcast to every sample point; with det H > 0 the
    error names the first one."""
    sigma = _hyperbolic_sigma()
    pts = np.array([[1.0, 0.2], [1.5, -0.3]])
    with pytest.raises(WrongSignDeterminant, match=re.escape(f"at {pts[0]}")):
        gallery.virtual_third_form(sigma, lambda q: np.eye(2), lambda q: 1.0,
                                   lambda q: np.zeros(2), sample_points=pts)


def test_virtual_third_form_names_the_first_sample_with_wrong_sign():
    """Only the third of four samples has det H >= 0, and the error names it;
    b and tau are read one sample at a time only once every det H passed."""
    sigma = _hyperbolic_sigma()
    h = gallery.random_monge_ampere_field(sigma, seed=5)
    pts = np.array([[1.0, 0.2], [1.5, -0.3], [2.0, 0.4], [1.2, 1.1]])
    bad = pts[2]

    def h_flipped(q):
        # H, but the identity (det +1) at the bad point
        out = np.array(h(q))
        out[np.all(q == bad, axis=-1)] = np.eye(2)
        return out

    reads = []
    with pytest.raises(WrongSignDeterminant, match=re.escape(f"at {bad}")):
        gallery.virtual_third_form(sigma, h_flipped, lambda q: reads.append(q) or 1.0,
                                   lambda q: np.zeros(2), sample_points=pts)
    assert reads == []


def _oracle_monge_ampere_field(sigma_field, seed):
    """The one-point construction of ``random_monge_ampere_field``: the same
    random modes, summed one at a time on floats, and the Gram-Schmidt
    frame of sigma as the inverse transpose of its Cholesky factor."""
    rng = np.random.default_rng(seed)
    am = 0.3 * (2 * rng.random(2) - 1)
    bm = 0.3 * (2 * rng.random(2) - 1)
    freq = rng.integers(1, 3, size=(2, 2))
    phase = 2 * np.pi * rng.random((2, 2))

    def scalar(q, coeffs):
        return float(sum(c * np.sin(freq[i, 0] * q[0] + phase[i, 0])
                         * np.cos(freq[i, 1] * q[1] + phase[i, 1])
                         for i, c in enumerate(coeffs)))

    def h(q):
        q = np.asarray(q, dtype=float)
        m = scalar(q, am)
        eta = scalar(q, bm)
        frame = np.linalg.inv(np.linalg.cholesky(sigma_field.matrix(q))).T
        c, s = np.cos(eta), np.sin(eta)
        rot = np.array([[c, -s], [s, c]])
        core = rot.T @ np.diag([np.exp(m), -np.exp(-m)]) @ rot
        return frame @ core @ np.linalg.inv(frame)

    return h


@pytest.mark.parametrize("seed", [0, 3, 8, 11])
def test_random_monge_ampere_field_matches_one_point_oracle(seed):
    """On a grid of the chart, the batched field (one call on the grid, and
    one on a (rows, cols, 2) array) matches the one-point oracle to 1e-14
    relative, and det H = -1 to 1e-12."""
    sigma = _hyperbolic_sigma()
    h = gallery.random_monge_ampere_field(sigma, seed)
    oracle = _oracle_monge_ampere_field(sigma, seed)
    grid = np.stack(np.meshgrid(np.linspace(0.45, 2.95, 9), np.linspace(-7.5, 7.5, 11)), -1)
    ref = np.array([[oracle(q) for q in row] for row in grid])
    for batch in (h(grid.reshape(-1, 2)).reshape(ref.shape), h(grid)):
        assert batch.shape == ref.shape
        scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(batch - ref) / scale) < 1e-14
    assert np.max(np.abs(np.linalg.det(h(grid)) + 1.0)) < 1e-12
    assert np.array_equal(h(grid[3, 4]), h(grid)[3, 4])


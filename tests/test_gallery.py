import pathlib
import re

import numpy as np
import pytest

from efimov_lab import _fd, gallery
from efimov_lab.ambient import sectional_range
from efimov_lab.connection import orthonormal_frame
from efimov_lab.errors import ParameterOutOfRange, WrongSignDeterminant
from efimov_lab.immersion import SurfacePatch, _fundamental_rows


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


@pytest.mark.parametrize("builder", [
    gallery.g_lambda, gallery.hyperbolic_deformed, gallery.sphere3,
    lambda z: gallery.g_lambda(1.0, z_half=z), lambda z: gallery.g_lambda(0.0, z_half=z),
    lambda r: gallery.hyperbolic_plane_polar(r_min=r), lambda r: gallery.hyperbolic_plane_polar(r_max=r),
], ids=["g_lambda", "hyperbolic_deformed", "sphere3", "z_half", "z_half_lambda_0", "r_min", "r_max"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_builders_reject_non_finite_or_negative_parameter(builder, value):
    """A parameter that is not finite, or negative, is ParameterOutOfRange at
    build time, not an empty or NaN chart box found at the first read."""
    with pytest.raises(ParameterOutOfRange):
        builder(value)


@pytest.mark.parametrize("build", [
    lambda: gallery.sphere3(half_width=0.0), lambda: gallery.g_lambda(1.0, z_half=0.0),
    lambda: gallery.hyperbolic_plane_polar(r_min=0.0), lambda: gallery.hyperbolic_plane_polar(2.0, 1.0),
    lambda: gallery.hyperbolic_plane_polar(1.0, 1.0),
], ids=["sphere3_zero", "z_half_zero", "r_min_zero", "reversed_radii", "equal_radii"])
def test_builders_reject_empty_or_degenerate_charts(build):
    """A zero width, r_min = 0 (where the polar metric degenerates) and
    radii with r_min >= r_max are ParameterOutOfRange."""
    with pytest.raises(ParameterOutOfRange):
        build()


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
    """The exact Jacobian and Hessian of each gallery patch against
    ``_fd.jet`` of its map at h = 1e-3."""
    patch = gallery.build_example(name).patch
    assert patch.has_analytic_partials
    for q in _oracle_points(patch.box):
        point, jac, hess = patch.jet(q)
        p_fd, grad_fd, hess_fd = _fd.jet(_fd.pointwise(patch.point), q, 1e-3)
        assert np.array_equal(point, p_fd)
        _assert_close(jac, grad_fd.T, 1e-9)
        _assert_close(hess, np.moveaxis(hess_fd, 2, 0), 1e-6)


# the closed-form jets that the gallery's surface text replaced, kept as an
# independent oracle: (point, Jacobian, Hessian) at points of shape (..., 2)


def _stacked(entries, lead):
    """Nested entries, each a float or an array of shape ``lead``, as one
    array of shape lead + nesting shape; a float is broadcast."""
    if isinstance(entries, list):
        return np.stack([_stacked(e, lead) for e in entries], axis=len(lead))
    return np.broadcast_to(entries, lead)


def _saddle_jet(q):
    u, v, lead = q[..., 0], q[..., 1], q.shape[:-1]
    h = np.zeros(lead + (3, 2, 2))
    h[..., 2, 0, 1] = h[..., 2, 1, 0] = 1.0
    return _stacked([u, v, u * v], lead), _stacked([[1.0, 0.0], [0.0, 1.0], [v, u]], lead), h


def _sphere_jet(radius):
    def jet(q):
        u, v, lead = q[..., 0], q[..., 1], q.shape[:-1]
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        h = np.empty(lead + (3, 2, 2))
        h[..., 0, 0] = radius * _stacked([-su * cv, -su * sv, -cu], lead)
        h[..., 0, 1] = h[..., 1, 0] = radius * _stacked([-cu * sv, cu * cv, 0.0], lead)
        h[..., 1, 1] = radius * _stacked([-su * cv, -su * sv, 0.0], lead)
        jac = [[cu * cv, -su * sv], [cu * sv, su * cv], [-su, 0.0]]
        return radius * _stacked([su * cv, su * sv, cu], lead), radius * _stacked(jac, lead), h
    return jet


def _pseudosphere_jet(a):
    def jet(q):
        u, v, lead = q[..., 0], q[..., 1], q.shape[:-1]
        se, th, cv, sv = 1.0 / np.cosh(u), np.tanh(u), np.cos(v), np.sin(v)
        dsth = -se * th * th + se * se * se  # d/du of (se*th)
        h = np.empty(lead + (3, 2, 2))
        h[..., 0, 0] = a * _stacked([-dsth * cv, -dsth * sv, 2.0 * th * se * se], lead)
        h[..., 0, 1] = h[..., 1, 0] = a * _stacked([se * th * sv, -se * th * cv, 0.0], lead)
        h[..., 1, 1] = a * _stacked([-se * cv, -se * sv, 0.0], lead)
        jac = [[-se * th * cv, -se * sv], [-se * th * sv, se * cv], [th * th, 0.0]]
        return a * _stacked([se * cv, se * sv, u - th], lead), a * _stacked(jac, lead), h
    return jet


def _torus_jet(q):
    k = 1.0 / np.sqrt(2.0)
    u, v, lead = q[..., 0], q[..., 1], q.shape[:-1]
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    d = 1.0 + k * sv
    d2 = d * d
    d3 = d2 * d
    dd = k * cv
    h = np.empty(lead + (3, 2, 2))
    h[..., 0, 0] = _stacked([-k * cu / d, -k * su / d, 0.0], lead)
    h[..., 0, 1] = h[..., 1, 0] = _stacked([k * su * dd / d2, -k * cu * dd / d2, 0.0], lead)
    h[..., 0, 1, 1] = k * k * cu * (sv * d + 2.0 * k * cv * cv) / d3
    h[..., 1, 1, 1] = k * k * su * (sv * d + 2.0 * k * cv * cv) / d3
    h[..., 2, 1, 1] = k * k * cv * sv / d3
    jac = [[-k * su / d, -k * cu * dd / d2], [k * cu / d, -k * su * dd / d2],
           [0.0, -k * (sv + k) / d2]]
    return _stacked([k * cu / d, k * su / d, k * cv / d], lead), _stacked(jac, lead), h


_CLOSED_FORM_JETS = [
    ("saddle", {}, _saddle_jet),
    ("sphere2", {}, _sphere_jet(1.0)),
    ("sphere2", {"radius": 2.5}, _sphere_jet(2.5)),
    ("geodesic_sphere_hyp3", {}, _sphere_jet(0.3)),
    ("pseudosphere", {}, _pseudosphere_jet(1.0)),
    ("constant_k_surface", {"k": -4.0}, _pseudosphere_jet(0.5)),
    ("clifford_torus", {}, _torus_jet),
]


@pytest.mark.parametrize("name, params, jet", _CLOSED_FORM_JETS)
def test_surface_text_matches_the_closed_form_jet(name, params, jet):
    """Each gallery patch is surface text; its jet equals the closed form
    to 1e-15 of each array's largest entry, at one point and on a 64-row
    batch, and so does its shape operator in its ambient, to 1e-15 of its
    own or the Hessian's largest entry (B is linear in the Hessian).
    Measured: the saddle and the spheres 0; the pseudospheres' jets 3.6e-16
    and B 2.7e-15 (|B| up to 7.1); the torus's jet 8.6e-16 and B 2.2e-15
    (|B| 1, Hessian 5.1)."""
    case = gallery.build_example(name, **params)
    oracle = SurfacePatch(lambda q: jet(q)[0], case.patch.box, derivatives=jet)
    lo, hi = np.asarray(case.patch.box.lo), np.asarray(case.patch.box.hi)
    rows = lo + (hi - lo) * np.random.default_rng(2).random((64, 2))
    for q in (rows[0], rows):
        want = jet(q)
        for got, closed in zip(case.patch.jet(q), want):
            assert got.shape == closed.shape
            assert np.max(np.abs(got - closed)) <= 1e-15 * max(1.0, np.max(np.abs(closed)))
        b = _fundamental_rows(case.patch, case.metric, q).shape_operator
        b_closed = _fundamental_rows(oracle, case.metric, q).shape_operator
        scale = max(1.0, np.max(np.abs(b_closed)), np.max(np.abs(want[2])))
        assert np.max(np.abs(b - b_closed)) <= 1e-15 * scale


# the closed-form metric jets that the gallery's metric text replaced, kept as
# an independent oracle: (g, dg, d2g) at points of shape (..., dim), with d2g
# None where the closed form had no second partials


def _flat_jet(p):
    dim, lead = p.shape[-1], p.shape[:-1]
    return (np.broadcast_to(np.eye(dim), lead + (dim,) * 2), np.zeros(lead + (dim,) * 3),
            np.zeros(lead + (dim,) * 4))


def _conformal_jet(sign):
    """lam^2 delta with lam = 2/(1 + sign |x|^2): d_k g = 2 lam d_k lam delta
    with d_k lam = -sign lam^2 x_k, and d_k d_l g = (6 lam^4 x_k x_l
    - 2 sign lam^3 delta_kl) delta, in any dimension."""
    def jet(p):
        eye = np.eye(p.shape[-1])
        lam = 2.0 / (1.0 + sign * np.sum(p * p, axis=-1))
        dlam = -sign * (lam * lam)[..., None] * p
        coeff = (6.0 * lam ** 4)[..., None, None] * p[..., :, None] * p[..., None, :] \
            - (2.0 * sign * lam ** 3)[..., None, None] * eye
        return ((lam * lam)[..., None, None] * eye, (2.0 * lam[..., None] * dlam)[..., None, None] * eye,
                coeff[..., None, None] * eye)
    return jet


def _slab_jet(lam):
    """g_lambda's matrix and first partials; its second partials had no
    closed form."""
    def jet(p):
        y, z, lead = p[..., 1], p[..., 2], p.shape[:-1]
        cy, sy, cz, sz = np.cosh(y), np.sinh(y), np.cosh(z), np.sinh(z)
        g = np.zeros(lead + (3, 3))
        g[..., 0, 0] = (1.0 + 2.0 * lam * z) * (cy * cy) * (cz * cz)
        g[..., 1, 1] = (1.0 - 2.0 * lam * z) * (cz * cz)
        g[..., 2, 2] = 1.0
        d = np.zeros(lead + (3, 3, 3))
        d[..., 1, 0, 0] = (1.0 + 2.0 * lam * z) * 2.0 * cy * sy * cz * cz
        d[..., 2, 0, 0] = 2.0 * lam * cy * cy * cz * cz + (1.0 + 2.0 * lam * z) * cy * cy * 2.0 * cz * sz
        d[..., 2, 1, 1] = -2.0 * lam * cz * cz + (1.0 - 2.0 * lam * z) * 2.0 * cz * sz
        return g, d, None
    return jet


def _polar_jet(q):
    r, lead = q[..., 0], q.shape[:-1]
    g, d, d2 = np.zeros(lead + (2, 2)), np.zeros(lead + (2, 2, 2)), np.zeros(lead + (2, 2, 2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sinh(r) * np.sinh(r)
    d[..., 0, 1, 1] = 2.0 * np.sinh(r) * np.cosh(r)
    d2[..., 0, 0, 1, 1] = 2.0 * np.cosh(2.0 * r)
    return g, d, d2


_CLOSED_FORM_METRICS = [
    ("euclidean3", gallery.euclidean3, _flat_jet),
    ("sphere3", gallery.sphere3, _conformal_jet(1.0)),
    ("hyperbolic3", gallery.hyperbolic3, _conformal_jet(-1.0)),
    ("g_lambda", lambda: gallery.g_lambda(1.0), _slab_jet(1.0)),
    ("g_lambda_3", lambda: gallery.g_lambda(3.0), _slab_jet(3.0)),
    ("hyperbolic_plane_polar", gallery.hyperbolic_plane_polar, _polar_jet),
    ("abstract_sphere", lambda: gallery.abstract_sphere().iii_field, _conformal_jet(1.0)),
    ("abstract_plane", lambda: gallery.abstract_plane().iii_field, _flat_jet),
]


@pytest.mark.parametrize("name, build, jet", _CLOSED_FORM_METRICS,
                         ids=[name for name, _, _ in _CLOSED_FORM_METRICS])
def test_metric_text_matches_the_closed_form_jet(name, build, jet):
    """Each gallery metric is metric text; its matrix, first jet and jet
    equal the closed form to 1e-14 of each array's largest entry, at one
    point and on a 64-row batch.  g_lambda's second partials had no closed
    form, and are checked against ``_fd.jet`` below; its matrix, which the
    pure-FD slab reads, is the closed form bit for bit.  Measured: the flat
    metrics and g_lambda's matrix 0, every other array at most 4.1e-16."""
    metric = build()
    lo, hi = np.asarray(metric.box.lo), np.asarray(metric.box.hi)
    rows = lo + (hi - lo) * np.random.default_rng(2).random((64, lo.size))
    for p in (rows[0], rows):
        want = jet(p)
        pairs = [(metric.matrix(p), want[0]), *zip(metric.first_jet(p), want),
                 *zip(metric.jet(p), want)]
        for got, closed in pairs:
            if closed is not None:
                assert got.shape == closed.shape
                assert np.max(np.abs(got - closed)) <= 1e-14 * max(1.0, np.max(np.abs(closed)))
        if name.startswith("g_lambda"):
            assert np.array_equal(metric.matrix(p), want[0])


_GALLERY_METRICS = {
    **{n: (lambda n=n: gallery.build_example(n).metric)
       for n in ("euclidean3", "sphere3", "hyperbolic3", "g_lambda")},
    "hyperbolic_plane_polar": gallery.hyperbolic_plane_polar,
    "abstract_sphere": lambda: gallery.abstract_sphere().iii_field,
    "abstract_plane": lambda: gallery.abstract_plane().iii_field,
}


@pytest.mark.parametrize("name", sorted(_GALLERY_METRICS))
def test_metric_partials_match_fd_jet_of_the_matrix(name):
    """The exact first and second partials of each gallery metric's text
    against ``_fd.jet`` of its matrix at h = 1e-3; with an exact jet, no
    gallery metric needs a stencil margin."""
    metric = _GALLERY_METRICS[name]()
    assert metric.has_analytic_partials and metric.fd_margin() == 0.0
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
    # 400 rows in one call, on the profile whose torsion is purely angular
    data = gallery.hyperbolic_deformed(2.0, profile="angular")
    pts = np.random.default_rng(4).uniform([0.1, -7.0], [3.9, 7.0], (400, 2))
    assert np.max(np.abs(data.torsion_norm(pts) - 2.0)) <= 1e-12


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


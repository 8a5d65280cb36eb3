import numpy as np
import pytest

from efimov_lab import gallery
from efimov_lab.ambient import ChartBox, MetricField, christoffel, metric_from_expressions
from efimov_lab.connection import (
    BoundSet,
    SurfaceConnectionData,
    check_hypothesis,
    complex_structure,
    curvature_bounds_k4k5,
    dual_codazzi_residual,
    dual_connection_at,
    metric_compatibility_residual,
    orthonormal_frame,
    torsion_bound_bruteforce,
    torsion_bound_tau0,
)
from efimov_lab.errors import InvalidPinching, ModeUnsupported, NonInvertibleMetric
from efimov_lab.expressions import Expression
from efimov_lab.immersion import dnabla_b


# --- dual connection --------------------------------------------------------


def test_constant_curvature_torsion_vanishes(sphere2_data):
    """In a space form the connection coincides with the Levi-Civita
    connection of the third form, so its torsion vanishes."""
    for q in ([1.1, 0.7], [0.8, -0.4], [1.6, 1.9]):
        assert sphere2_data.torsion_norm(q) < 1e-6


def test_abstract_zero_torsion_is_levi_civita(abstract_sphere):
    q = np.array([0.3, -0.2])
    tau = abstract_sphere.torsion_from_coefficients(q)
    g = abstract_sphere.third_form(q)
    assert np.sqrt(tau @ g @ tau) < 1e-12


def test_slice_torsion_equals_dnabla_b_norm(slice_data):
    """||tau||_III equals ||(d^nabla B)(x, y)||_I for III-orthonormal x, y."""
    case = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0})
    q = np.array([0.2, 0.4])
    fd = slice_data.fundamental(q)
    f, _ = orthonormal_frame(fd.third)
    dnb = dnabla_b(case.patch, case.metric, q, f[0], f[1])
    norm_i = float(np.sqrt(dnb @ fd.first @ dnb))
    assert abs(slice_data.torsion_norm(q) - norm_i) < 1e-3


def test_torsion_roundtrip_from_coefficients(slice_data):
    """The torsion read off the connection coefficients against
    ``B^{-1} (d^nabla B)(d_1, d_2) / sqrt(det III)``, which is built from the
    shape operator and the Levi-Civita connection of I, never from gamma."""
    case = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0})
    q = np.array([-0.3, 0.6])
    fd = slice_data.fundamental(q)
    dnb = dnabla_b(case.patch, case.metric, q, [1.0, 0.0], [0.0, 1.0])
    oracle = np.linalg.solve(fd.shape_operator, dnb) / np.sqrt(np.linalg.det(fd.third))
    assert np.sqrt(oracle @ fd.third @ oracle) > 1e-2  # a genuinely twisted point
    for tau in (slice_data.torsion_from_coefficients(q), slice_data.torsion_vector(q)):
        diff = tau - oracle
        assert np.sqrt(diff @ fd.third @ diff) < 1e-8


def test_metric_compatibility(slice_data, sphere2_data, hyperbolic_abstract):
    cases = [
        (slice_data, ([0.3, 0.2], [-0.4, 0.5])),
        (sphere2_data, ([1.1, 0.2], [1.8, -0.5])),
        (hyperbolic_abstract, ([0.8, 0.2], [1.5, -0.5])),
    ]
    for data, points in cases:
        for q in points:
            r = metric_compatibility_residual(data, q, [1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
            assert r < 1e-4


def _torsion_case(name):
    """(connection, sample box) for the torsion-mode characterisation test."""
    if name == "abstract_sphere":
        return gallery.abstract_sphere(), ([-1.5, -1.5], [1.5, 1.5])
    if name in ("tanh", "angular"):
        return gallery.hyperbolic_deformed(1.3, profile=name), ([0.3, -2.0], [3.0, 2.0])
    # a non-conformal metric with finite-difference partials and a varying torsion
    uv = ("u", "v")
    fields = {"g11": Expression("exp(u) + v^2", uv), "g12": Expression("0.3*sin(u*v)", uv),
              "g22": Expression("2 + cos(u)", uv)}
    metric = metric_from_expressions(fields, ChartBox.cube(2, 1.0), dim=2, variables=uv)
    data = SurfaceConnectionData.from_metric_and_torsion(
        metric, lambda q: np.array([0.4 * np.cos(q[1]), 0.1 * q[0] - 0.2]))
    return data, ([-0.8, -0.8], [0.8, 0.8])


@pytest.mark.parametrize("name", ["abstract_sphere", "tanh", "angular", "expressions"])
def test_torsion_gamma_characterisation(name):
    """Torsion-mode coefficients against facts that do not use them.  A
    metric connection is fixed by its torsion: its difference K to the
    Levi-Civita connection of III is III-skew, ``III(K(x, y), z) =
    -III(y, K(x, z))``, and its torsion is the prescribed field.  The
    difference is not symmetric, so only a torsion-free connection has the
    Levi-Civita symbols as its symmetric part."""
    data, (lo, hi) = _torsion_case(name)
    rng = np.random.default_rng(11)
    for _ in range(6):
        q = rng.uniform(lo, hi)
        gam = data.gamma(q)
        g = data.third_form(q)
        lc = christoffel(data.provider.iii_field, q)
        k_low = np.einsum("mk,kij->ijm", g, gam - lc)
        scale = max(1.0, np.max(np.abs(g)) * np.max(np.abs(gam)))
        assert np.max(np.abs(k_low + k_low.transpose(0, 2, 1))) <= 1e-12 * scale
        tau = data.torsion_vector(q)
        if not np.any(tau):
            assert np.max(np.abs(gam - lc)) <= 1e-12 * scale
        assert np.max(np.abs(data.torsion_from_coefficients(q) - tau)) <= 1e-12 * max(
            1.0, np.max(np.abs(tau)))
        x, y, z = rng.normal(size=(3, 2))
        assert metric_compatibility_residual(data, q, x, y, z) < 1e-9


@pytest.mark.parametrize("diag", [(1.0, -1.0), (-1.0, -1.0), (1.0, 0.0)])
def test_torsion_mode_rejects_non_positive_third_form(diag):
    """An indefinite, negative or degenerate III raises a typed error from
    gamma, K~, the complex structure and the III-norms, never a NaN or a
    silent 0."""
    metric = MetricField(2, lambda q: np.diag(diag), ChartBox.cube(2, 1.0),
                         partials=lambda q: np.zeros((2, 2, 2)),
                         second_partials=lambda q: np.zeros((2, 2, 2, 2)))
    data = SurfaceConnectionData.from_metric_and_torsion(metric, lambda q: np.array([0.1, 0.2]))
    for evaluate in (data.gamma, data.curvature, data.complex_structure, data.torsion_norm,
                     lambda q: data.norm(q, [0.3, 0.4]),
                     lambda q: complex_structure(metric.matrix(q))):
        with pytest.raises(NonInvertibleMetric):
            evaluate([0.1, 0.2])


def test_complex_structure_is_the_metric_rotation():
    """J from the closed-form 2x2 arithmetic equals sqrt(det g) eps g^{-1}
    and is a positively oriented isometry with J^2 = -1."""
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(2, 2))
        g = a @ a.T + 0.1 * np.eye(2)
        j = complex_structure(g)
        ref = np.sqrt(np.linalg.det(g)) * (eps @ np.linalg.inv(g)).T
        assert np.max(np.abs(j - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(j @ j + np.eye(2))) < 1e-12
        assert np.max(np.abs(j.T @ g @ j - g)) < 1e-12 * np.max(np.abs(g))
        x = rng.normal(size=2)
        assert abs(x @ g @ (j @ x)) < 1e-12 * (x @ g @ x)
        assert np.linalg.det(np.column_stack([x, j @ x])) > 0


def test_dual_connection_linearity(slice_data):
    q = np.array([0.1, 0.2])
    a = dual_connection_at(slice_data, q, [1.0, 0.0], [0.0, 1.0])
    b = dual_connection_at(slice_data, q, [2.0, 0.0], [0.0, 3.0])
    assert np.max(np.abs(6.0 * a - b)) < 1e-12


# --- dual Codazzi -----------------------------------------------------------


def test_dual_codazzi_space_forms(sphere2_data, clifford_data):
    assert dual_codazzi_residual(sphere2_data, [1.0, 0.4]) < 1e-6
    assert dual_codazzi_residual(clifford_data, [0.5, -0.7]) < 1e-6


def test_dual_codazzi_slice(slice_data):
    assert dual_codazzi_residual(slice_data, [0.3, 0.5]) < 1e-3


def test_dual_codazzi_needs_shape_operator(hyperbolic_abstract):
    with pytest.raises(ModeUnsupported):
        dual_codazzi_residual(hyperbolic_abstract, [1.0, 0.0])


# --- torsion bound ----------------------------------------------------------


def test_tau0_closed_form_values():
    assert torsion_bound_tau0(-0.5, -0.5, -1.0) == 0.0
    v = torsion_bound_tau0(-0.9, -0.8, -1.0)
    assert abs(v - 0.1 / (2.0 * np.sqrt(0.1 * 0.2))) < 1e-12
    v = torsion_bound_tau0(0.0, 1.0, -1.0)
    assert abs(v - 1.0 / (2.0 * np.sqrt(2.0))) < 1e-12


def test_tau0_invalid_pinching():
    with pytest.raises(InvalidPinching):
        torsion_bound_tau0(-1.0, 0.0, -0.5)


def test_bruteforce_matches_closed_form():
    rng = np.random.default_rng(123)
    for _ in range(100):
        k1 = -rng.uniform(0.2, 3.0)
        q1 = k1 + rng.uniform(0.05, 2.0)
        q2 = k1 + rng.uniform(0.05, 2.0)
        closed = torsion_bound_tau0(min(q1, q2), max(q1, q2), k1)
        brute = torsion_bound_bruteforce(q1, q2, k1, grid_size=10000)
        assert abs(closed - brute) < 1e-6


def test_bruteforce_grid_floor():
    with pytest.raises(ValueError):
        torsion_bound_bruteforce(0.0, 1.0, -1.0, grid_size=10)


# --- K4 / K5 ----------------------------------------------------------------


def test_k4k5_cases():
    assert curvature_bounds_k4k5(-1.0, 0.0, 0.0) == (1.0, 1.0)
    assert curvature_bounds_k4k5(-1.0, -0.5, -0.25) == (1.0, 2.0)
    assert curvature_bounds_k4k5(-1.0, 0.5, 1.0) == (0.5, 1.0)


def test_k4k5_ordering_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k1 = -rng.uniform(0.1, 4.0)
        k2 = k1 + rng.uniform(1e-3, 3.0)
        k3 = k2 + rng.uniform(0.0, 3.0)
        k4, k5 = curvature_bounds_k4k5(k1, k2, k3)
        assert 0 < k4 <= k5 + 1e-15


def test_boundset_from_pinching():
    b = BoundSet.from_pinching(-1.0, -0.9, -0.8)
    assert b.k4 == 1.0 and abs(b.k5 - 10.0) < 1e-12
    assert abs(b.tau0 - torsion_bound_tau0(-0.9, -0.8, -1.0)) < 1e-15


# --- K~ ---------------------------------------------------------------------


def test_ktilde_examples(sphere2_data, saddle_data):
    assert abs(sphere2_data.curvature([1.0, 0.3]) - 1.0) < 1e-8
    assert abs(saddle_data.curvature([0.0, 0.0]) - 1.0) < 1e-8


def test_ktilde_bounds_on_slice(slice_data):
    """Sampled K~ sits inside [K4, K5] for the measured pinching constants.

    The sample stays in |y| <= 0.45 where the measured ambient extremes keep
    K2 above K1; with the slab's K1 = -1 the wider |y| <= 1 band of the
    nominal statement already violates K1 < K2."""
    from efimov_lab.connection import measured_pinching

    pts = [np.array([x, y]) for x in (-0.4, 0.0, 0.4) for y in (-0.45, -0.2, 0.1, 0.45)]
    k1, k2, k3, _ = measured_pinching(slice_data, pts)
    assert k1 < k2 <= k3
    k4, k5 = curvature_bounds_k4k5(k1, k2, k3)
    for q in pts:
        kt = slice_data.curvature(q)
        assert k4 - 1e-6 <= kt <= k5 + 1e-6


def test_ktilde_abstract_matches_metric_curvature(abstract_sphere, hyperbolic_abstract):
    assert abs(abstract_sphere.curvature([0.4, -0.1]) - 1.0) < 1e-9
    assert abs(hyperbolic_abstract.curvature([1.3, 0.2]) + 1.0) < 1e-9


# --- hypothesis verdicts ----------------------------------------------------


def test_efimov_triple_excluded():
    v = check_hypothesis(-1.0, 0.0, 0.0)
    assert v.excluded and v.margin == 16.0 and v.lhs == 0.0
    assert v.regime == "both(K3=0)"
    assert v.sit_check and v.th1_tau0


def test_g_lambda_boundary_not_excluded():
    v = check_hypothesis(-1.0, 2.0, 14.0)
    assert v.lhs == 144.0 and v.rhs == 48.0
    assert not v.excluded


def test_negative_regime():
    v = check_hypothesis(-1.0, -0.9, -0.8)
    assert v.regime == "K3<=0"
    assert abs(v.lhs - 0.01) < 1e-12 and abs(v.rhs - 0.32) < 1e-12
    assert v.excluded and v.sit_check


def test_verdict_json_keys():
    v = check_hypothesis(-1.0, 0.0, 0.0)
    assert set(v.to_json_dict()) == {"regime", "lhs", "rhs", "margin", "excluded",
                                     "sit_check", "th1_cond0", "th1_tau0"}


def test_invalid_pinching_raises():
    with pytest.raises(InvalidPinching):
        check_hypothesis(1.0, 2.0, 3.0)
    with pytest.raises(InvalidPinching):
        check_hypothesis(-1.0, 2.0, 1.0)


def test_degenerate_pinching_reports_not_excluded():
    # K2 <= K1: the inequalities are still evaluated but nothing is excluded
    v = check_hypothesis(-1.0, -3.0, -2.0)
    assert not v.pinching_ok and not v.excluded
    assert not v.sit_check and not v.th1_tau0


def test_scale_covariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        k1 = -rng.uniform(0.1, 2.0)
        k2 = k1 + rng.uniform(0.01, 2.0)
        k3 = k2 + rng.uniform(0.0, 2.0)
        c = rng.uniform(0.1, 10.0)
        v1 = check_hypothesis(k1, k2, k3)
        v2 = check_hypothesis(c * k1, c * k2, c * k3)
        assert v1.excluded == v2.excluded
        assert abs(v2.lhs - c * c * v1.lhs) < 1e-9 * max(1.0, abs(v1.lhs))


def test_excluded_implies_sit_check():
    rng = np.random.default_rng(99)
    count = 0
    for _ in range(1000):
        k1 = -rng.uniform(0.05, 3.0)
        k2 = k1 + rng.uniform(0.001, 3.0)
        k3 = k2 + rng.uniform(0.0, 3.0)
        v = check_hypothesis(k1, k2, k3)
        if v.excluded:
            count += 1
            assert v.sit_check
    assert count > 50  # the sample genuinely hits the excluded regime


def test_measured_gradient_constants(slice_data):
    from efimov_lab.connection import measured_gradient_constants

    c_sigma, c_mu = measured_gradient_constants(slice_data, [[0.2, 0.3], [0.0, 0.1]])
    # both curvatures are constant along the slice (K_I = -1 and the ambient
    # sectional on the tangent plane is lambda^2 - 1), so the sampled
    # estimates are numerical-noise small
    assert 0.0 <= c_sigma < 1e-4
    assert 0.0 <= c_mu < 1e-3


def test_immersion_gamma_and_third_form_skip_curvature(monkeypatch):
    """Connection coefficients and III need only the shape layer: no
    Riemann tensor is built until a curvature field is read."""
    from efimov_lab import ambient, immersion

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("riemann_covariant", "riemann_sectional"):
        fn = counting(getattr(ambient, name))
        monkeypatch.setattr(ambient, name, fn)
        monkeypatch.setattr(immersion, name, fn)
    data = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0}).data
    for q in ([0.2, 0.4], [-0.3, 0.1]):
        data.gamma(q)
        data.third_form(q)
        data.third_form_partials(q)
    assert calls == []
    data.curvature([0.2, 0.4])
    assert calls  # the counter does see the curvature layer


def test_immersion_memo_is_bounded(saddle_data):
    from efimov_lab.connection import MEMO_SIZE
    from efimov_lab.curves import integrate_geodesic

    memo = saddle_data.provider._memo
    memo.cache_clear()
    q = np.array([0.0, 0.0])
    tr = integrate_geodesic(saddle_data, q, saddle_data.unit(q, [1.0, 0.3]), 0.2, 1e-3)
    assert len(tr.s) == 201 and not tr.left_patch
    info = memo.cache_info()
    assert info.misses > 30 * 200  # every RK4 step visits fresh points
    assert info.currsize <= MEMO_SIZE

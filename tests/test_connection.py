import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from efimov_lab import _fd, gallery
from efimov_lab.ambient import ChartBox, MetricField, christoffel, metric_from_expressions
from efimov_lab.connection import (
    CURVATURE_FD_STEP,
    SurfaceConnectionData,
    check_hypothesis,
    complex_structure,
    curvature_bounds_k4k5,
    dual_codazzi_residual,
    dual_connection_at,
    k1_threshold,
    metric_compatibility_residual,
    orthonormal_frame,
    torsion_bound_bruteforce,
    torsion_bound_tau0,
)
from efimov_lab.errors import (
    DegenerateImmersion,
    DegenerateShapeOperator,
    DegenerateVector,
    InvalidPinching,
    ModeUnsupported,
    NonFiniteMetric,
    NonInvertibleMetric,
    PointOutsideChart,
)
from efimov_lab.expressions import Expression, parse_assignments
from efimov_lab.immersion import SurfacePatch, dnabla_b, surface_from_expressions


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
    f = orthonormal_frame(fd.third)
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
    # a non-conformal metric with exact partials and a varying torsion
    uv = ("u", "v")
    fields = {"g11": Expression("exp(u) + v^2", uv), "g12": Expression("0.3*sin(u*v)", uv),
              "g22": Expression("2 + cos(u)", uv)}
    metric = metric_from_expressions(fields, ChartBox.cube(2, 1.0))
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
        lc = christoffel(data.iii_field, q)
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
    silent 0; in operator mode, where III = B^T sigma B comes from such a
    sigma, so do gamma, K~, the torsion and its norm, at one point and on a
    batch."""
    metric = MetricField(2, lambda q: np.diag(diag), ChartBox.cube(2, 1.0),
                         partials=lambda q: np.zeros((2, 2, 2)),
                         second_partials=lambda q: np.zeros((2, 2, 2, 2)))
    data = SurfaceConnectionData.from_metric_and_torsion(metric, lambda q: np.array([0.1, 0.2]))
    for evaluate in (data.gamma, data.curvature, data.complex_structure, data.torsion_norm,
                     lambda q: data.norm(q, [0.3, 0.4]),
                     lambda q: complex_structure(metric.matrix(q))):
        with pytest.raises(NonInvertibleMetric):
            evaluate([0.1, 0.2])
    operator = SurfaceConnectionData.from_operator(metric, lambda q: np.diag([1.0, 2.0]))
    for evaluate in (operator.gamma, operator.curvature, operator.torsion_vector,
                     operator.torsion_norm, operator.torsion_from_coefficients,
                     operator.area_density):
        for q in ([0.1, 0.2], [[0.1, 0.2], [0.3, -0.1]]):
            with pytest.raises(NonInvertibleMetric, match=r"\[0\.1 0\.2\]"):
                evaluate(q)


def test_torsion_batch_names_its_indefinite_row_before_the_square_root():
    """III = diag(1, u) is indefinite at the middle row of a torsion-mode
    batch only: ``gamma`` and K~ each raise NonInvertibleMetric naming that
    row's point, from the positive-definite check that runs before
    ``sqrt(det III)``, so no RuntimeWarning is emitted."""

    def matrix(q):
        g = np.zeros(q.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = q[..., 0]
        return g

    def partials(q):
        d = np.zeros(q.shape[:-1] + (2, 2, 2))
        d[..., 0, 1, 1] = 1.0
        return d

    metric = MetricField(2, matrix, ChartBox.cube(2, 1.0), partials=partials,
                         second_partials=lambda q: np.zeros((2, 2, 2, 2)))
    data = SurfaceConnectionData.from_metric_and_torsion(metric, lambda q: np.array([0.1, 0.2]))
    q = np.array([[0.5, 0.1], [0.4, -0.2], [-0.3, 0.25], [0.2, 0.3], [0.6, -0.1]])
    for evaluate in (data.gamma, data.curvature):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonInvertibleMetric, match=re.escape(f"at {q[2]}:")):
                evaluate(q)
    assert data.gamma(q[:2]).shape == (2, 2, 2, 2)


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


@pytest.mark.parametrize("mode, accessor", [
    ("torsion", "b_matrix"), ("torsion", "b_tilde"),
    ("torsion", "fundamental"), ("operator", "fundamental")])
def test_mode_without_the_data_raises_mode_unsupported(mode, accessor):
    """Each constructor returns the class of its mode, and an accessor whose
    data that mode lacks raises ModeUnsupported, not an AttributeError."""
    data, (lo, hi) = _torsion_case("tanh") if mode == "torsion" else _operator_case("seed3")
    assert isinstance(data, SurfaceConnectionData) and data.mode == mode
    q = 0.5 * (np.asarray(lo) + np.asarray(hi))
    data.gamma(q)  # the point is inside the chart
    with pytest.raises(ModeUnsupported):
        getattr(data, accessor)(q)


@pytest.mark.parametrize("x", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0], [1e200, 0.0]])
def test_unit_of_degenerate_vector_raises(abstract_sphere, x):
    """A zero, non-finite or overflowing vector raises DegenerateVector, for
    one point and as row 1 of a batch, whose error names that row's point,
    never a numpy warning."""
    with pytest.raises(DegenerateVector):
        abstract_sphere.unit([0.3, 0.2], x)
    pts = np.array([[0.3, 0.2], [0.1, -0.4], [0.5, 0.6]])
    xs = np.array([[1.0, 0.5], x, [0.0, 2.0]])
    with pytest.raises(DegenerateVector, match=re.escape(str(pts[1]))):
        abstract_sphere.unit(pts, xs)


def test_norm_without_finite_length_raises(abstract_plane):
    """Entries that are finite but whose III-length overflows raise the
    typed error, not numpy's overflow warning."""
    with pytest.raises(DegenerateVector):
        abstract_plane.norm([0.0, 0.0], [1e200, 0.0])
    with pytest.raises(DegenerateVector, match=re.escape(str(np.array([0.2, 0.1])))):
        abstract_plane.norm([[0.0, 0.0], [0.2, 0.1]], [[1.0, 0.0], [1e200, 0.0]])


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
    k4, k5 = curvature_bounds_k4k5(-1.0, -0.9, -0.8)
    assert k4 == 1.0 and abs(k5 - 10.0) < 1e-12


def test_k4k5_ordering_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k1 = -rng.uniform(0.1, 4.0)
        k2 = k1 + rng.uniform(1e-3, 3.0)
        k3 = k2 + rng.uniform(0.0, 3.0)
        k4, k5 = curvature_bounds_k4k5(k1, k2, k3)
        assert 0 < k4 <= k5 + 1e-15


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


@pytest.mark.parametrize("name, points", [
    ("saddle", [(0.0, 0.0), (0.1, -0.2), (-0.3, 0.25)]),
    ("clifford_torus", [(0.1, -0.2), (0.5, 0.3), (-1.0, 0.8)]),
    ("hyperbolic_slice", [(x, y) for x in (-0.4, 0.0, 0.4) for y in (-0.45, 0.1, 0.45)]),
])
def test_measured_pinching_batch_equals_one_point_reads(name, points):
    """The batched read of the sample gives the one-point reads' K1, K2, K3
    and tau0 bit for bit: K_I from one fundamental-data read per point and
    the sectional range at each point's ambient image."""
    from efimov_lab.ambient import sectional_range
    from efimov_lab.connection import measured_pinching, torsion_bound_tau0

    data = gallery.build_example(name).data
    forms = [data.fundamental(np.array(q)) for q in points]
    k1 = max(fd.k_intrinsic for fd in forms)
    ranges = [sectional_range(data.ambient, fd.point) for fd in forms]
    tau0 = max(torsion_bound_tau0(lo, hi, k1) if k1 < lo else np.inf for lo, hi in ranges)
    assert measured_pinching(data, points) == (
        k1, min(lo for lo, _ in ranges), max(hi for _, hi in ranges), tau0)


def test_ktilde_abstract_matches_metric_curvature(abstract_sphere, hyperbolic_abstract):
    assert abs(abstract_sphere.curvature([0.4, -0.1]) - 1.0) < 1e-9
    assert abs(hyperbolic_abstract.curvature([1.3, 0.2]) + 1.0) < 1e-9


def _frame_and_derivative(g, dg):
    """Gram-Schmidt frame ``f[a]`` of g and its coordinate derivatives
    ``df[k, a]`` in closed form from ``dg[k, i, j]``."""
    (g11, g12), (g21, g22) = g.tolist()
    det = g11 * g22 - g12 * g21
    c = g12 / g11
    s = np.sqrt(det / g11)
    df = []
    for (d11, d12), (_, d22) in dg.tolist():
        ddet = d11 * g22 + g11 * d22 - 2.0 * g12 * d12
        da = -0.5 * g11 ** (-1.5) * d11
        dc = (d12 * g11 - g12 * d11) / g11 ** 2
        ds = 0.5 / s * (ddet * g11 - det * d11) / g11 ** 2
        df.append(((da, 0.0), (-(dc * s - c * ds) / s ** 2, -ds / s ** 2)))
    return orthonormal_frame(g), np.array(df)


def _third_form_partials(data, q):
    """``d_k III`` of ``III = B^T sigma B`` by the product rule, from the
    central differences of B and sigma's own partials: the oracle's III
    partials where the connection has a shape operator."""
    b = data.b_matrix(q)
    db = data.b_matrix_partials(q)
    sigma = data.sigma_field.matrix(q)
    dsigma = data.sigma_field.partials(q)
    term = np.einsum("kca,cd,db->kab", db, sigma, b)
    return term + np.swapaxes(term, 1, 2) + np.einsum("ca,kcd,db->kab", b, dsigma, b)


def _frame_curvature(data, q):
    """Frame oracle for K~: ``-d omega / dv`` for the connection 1-form
    ``omega_i = III(D~_{d_i} f1, f2)`` of the Gram-Schmidt frame, which reads
    the connection coefficients and never a curvature."""

    def connection_form(qq):
        g = data.third_form(qq)
        if data.mode == "torsion":
            dg = data.iii_field.partials(qq)
        else:
            dg = _third_form_partials(data, qq)
        f, df = _frame_and_derivative(g, dg)
        # D~_{d_i} f1 = d_i f1 + Gamma(d_i, f1)
        cov = df[:, 0] + np.einsum("kij,j->ik", data.gamma(qq), f[0])
        return cov @ g @ f[1]

    grad = _fd.gradient(connection_form, q, CURVATURE_FD_STEP)
    return float(-(grad[0, 1] - grad[1, 0]) / data.area_density(q))


def _operator_case(name):
    """(operator-mode connection, sample box) on the hyperbolic plane."""
    sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)
    if name == "h_diag":
        def h(q):
            frame = np.swapaxes(orthonormal_frame(sigma.matrix(q)), -1, -2)
            return frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)
    else:
        field = gallery.random_monge_ampere_field(sigma, seed=int(name[-1]))

        def h(q):
            return 1.3 * field(q)  # det B = -1.69, so K_sigma / det B != K_sigma det B
    return SurfaceConnectionData.from_operator(sigma, h), ([0.8, -2.0], [2.5, 2.0])


@pytest.mark.parametrize("mode, name", [
    ("torsion", "abstract_sphere"), ("torsion", "tanh"), ("torsion", "angular"),
    ("torsion", "expressions"), ("operator", "seed3"), ("operator", "seed8"),
    ("operator", "h_diag")])
def test_curvature_matches_frame_oracle(mode, name):
    """Closed-form K~ (structure equation, K_sigma / det B) against the
    frame connection form at seeded points."""
    data, (lo, hi) = _torsion_case(name) if mode == "torsion" else _operator_case(name)
    assert data.mode == mode
    rng = np.random.default_rng(23)
    for _ in range(5):
        q = rng.uniform(lo, hi)
        assert abs(data.curvature(q) - _frame_curvature(data, q)) < 1e-8


def test_torsion_curvature_reads_no_connection_coefficients(monkeypatch):
    data = gallery.hyperbolic_deformed(1.3)
    monkeypatch.setattr(data, "gamma", lambda q: pytest.fail("gamma was called"))
    assert abs(data.curvature([1.0, 0.2]) - (1.3 * np.tanh(1.0) - 1.0)) < 1e-9


def test_operator_curvature_reads_b_once():
    sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)
    h = gallery.random_monge_ampere_field(sigma, seed=3)
    calls = []

    def counted(q):
        calls.append(q)
        return h(q)

    data = SurfaceConnectionData.from_operator(sigma, counted)
    k = data.curvature([1.2, 0.3])
    assert len(calls) == 1
    assert abs(k + 1.0 / np.linalg.det(h([1.2, 0.3]))) < 1e-9  # K_sigma = -1


def test_operator_curvature_rejects_degenerate_shape_operator():
    sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)
    data = SurfaceConnectionData.from_operator(sigma, lambda q: np.diag([1.0, 0.0]))
    with pytest.raises(DegenerateShapeOperator):
        data.curvature([1.2, 0.3])


def test_torsion_curvature_needs_stencil_room():
    """Within CURVATURE_FD_STEP of the edge the curl stencil would leave the
    chart: PointOutsideChart, before the metric or the torsion is read."""
    metric = gallery.hyperbolic_plane_polar(r_min=0.05, r_max=4.0)
    assert metric.fd_margin() == 0.0
    calls = []

    def matrix(q):
        calls.append(q)
        return metric.matrix(q)

    def tau(q):
        calls.append(q)
        return np.array([0.1, 0.2])

    counted = MetricField(2, matrix, metric.box, partials=metric.partials,
                          second_partials=lambda q: metric.jet(q)[2])
    data = SurfaceConnectionData.from_metric_and_torsion(counted, tau)
    for q in ([4.0 - 0.5 * CURVATURE_FD_STEP, 0.3], [1.0, -8.0 + 0.5 * CURVATURE_FD_STEP]):
        with pytest.raises(PointOutsideChart):
            data.curvature(q)
    assert calls == []
    data.curvature([4.0 - 2.0 * CURVATURE_FD_STEP, 0.3])
    assert calls


def test_torsion_curvature_near_the_edge_of_a_pure_fd_metric():
    """K(III) needs only the reach of its metric's stencil, fd_margin, from
    the chart edge: 3.5e-3 of room suffices for the round sphere's 2e-3."""
    assert abs(gallery.abstract_sphere().curvature([2.4965, 0.0]) - 1.0) < 1e-8


# --- the batch contract -----------------------------------------------------

BATCH_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# batches of 1 to 12 points in the unit square, scaled into a sample box
UNIT_BATCHES = st.integers(1, 12).flatmap(
    lambda n: arrays(float, (n, 2), elements=st.floats(0.0, 1.0)))
BATCH_METHODS = ("gamma", "curvature", "third_form", "area_density")
# for connections whose one-point calls cost milliseconds
SLOW_BATCH_PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _batch_case(name):
    """(torsion-mode connection, sample box that leaves K~ its stencil room)."""
    if name == "abstract_sphere":
        return gallery.abstract_sphere(), (np.array([-2.4, -2.4]), np.array([2.4, 2.4]))
    return (gallery.hyperbolic_deformed(1.3, profile=name),
            (np.array([0.06, -7.9]), np.array([3.9, 7.9])))


def assert_batch_equals_points(data, pts):
    for method in BATCH_METHODS:
        evaluate = getattr(data, method)
        batch = evaluate(pts)
        single = np.array([evaluate(p) for p in pts])
        assert batch.shape == single.shape and np.array_equal(batch, single), method


@pytest.mark.parametrize("name", ["tanh", "angular", "abstract_sphere"])
@BATCH_PROPERTY
@given(unit=UNIT_BATCHES)
def test_torsion_batch_equals_one_point_calls(name, unit):
    """A batch runs the one-point 2x2 formulas on (N,) arrays, so each row
    of gamma, K~, III and the area density equals its one-point call bit for
    bit."""
    data, (lo, hi) = _batch_case(name)
    assert_batch_equals_points(data, lo + unit * (hi - lo))


@pytest.mark.parametrize("name, outside", [("tanh", [0.04, 0.3]), ("angular", [4.2, -1.0]),
                                           ("abstract_sphere", [0.5, 2.6])])
@BATCH_PROPERTY
@given(unit=UNIT_BATCHES, where=st.floats(0.0, 1.0))
def test_torsion_batch_names_the_row_outside_the_chart(name, outside, unit, where):
    data, (lo, hi) = _batch_case(name)
    pts = lo + unit * (hi - lo)
    k = min(int(where * len(pts)), len(pts) - 1)
    pts[k] = outside
    for evaluate in (data.gamma, data.curvature):
        with pytest.raises(PointOutsideChart, match=re.escape(str(pts[k]))):
            evaluate(pts)


def test_torsion_batch_names_the_row_with_non_finite_coefficients():
    """A torsion field that is NaN at a point makes the coefficients there
    NaN: NonFiniteMetric naming the first such row, never a NaN result."""
    def tau(q):
        out = np.zeros(q.shape)
        out[..., 1] = np.where(q[..., 0] > 2.0, np.nan, 0.1)
        return out

    data = SurfaceConnectionData.from_metric_and_torsion(gallery.hyperbolic_plane_polar(), tau)
    pts = np.array([[1.0, 0.0], [2.5, 0.3], [3.0, 0.0]])
    with pytest.raises(NonFiniteMetric, match=re.escape(str(pts[1]))):
        data.gamma(pts)
    with pytest.raises(NonFiniteMetric, match=re.escape(str(pts[2]))):
        data.gamma(pts[2])
    assert np.isfinite(data.gamma(pts[:1])).all()


@pytest.mark.parametrize("name", ["tanh", "angular", "abstract_sphere", "expressions"])
def test_torsion_gamma_batch_of_one_row_and_of_a_strided_view(name):
    """The stacked-entry batch of gamma equals the one-point calls bit for
    bit on a batch of one row and on the strided ``state[:, :2]`` view of
    an (N, 4) state that the geodesic equations pass.  The non-conformal
    metric has every partial non-zero, so each lowered symbol sums three
    terms and each coefficient two products."""
    if name == "expressions":
        data = SurfaceConnectionData.from_metric_and_torsion(
            _torsion_case(name)[0].iii_field,
            lambda q: np.stack([0.4 * np.cos(q[..., 1]), 0.1 * q[..., 0] - 0.2], axis=-1))
        lo, hi = np.array([-0.8, -0.8]), np.array([0.8, 0.8])
    else:
        data, (lo, hi) = _batch_case(name)
    pts = lo + np.random.default_rng(3).random((32, 2)) * (hi - lo)
    single = np.array([data.gamma(p) for p in pts])
    state = np.concatenate([pts, np.ones_like(pts)], axis=1)
    assert not state[:, :2].flags.c_contiguous
    for batch, rows in ((pts[:1], single[:1]), (state[:1, :2], single[:1]),
                        (state[:, :2], single)):
        gam = data.gamma(batch)
        assert gam.shape == rows.shape and np.array_equal(gam, rows)


def test_torsion_gamma_names_the_row_with_non_finite_metric_partials():
    """A metric whose partials leaf is NaN at a point makes the coefficients
    there NaN: NonFiniteMetric naming that row of a batch, and the point
    itself at one point."""
    metric = gallery.hyperbolic_plane_polar()

    def partials(q):
        return np.where((q[..., 0] > 2.0)[..., None, None, None], np.nan, metric.partials(q))

    nan_partials = MetricField(2, metric.matrix, metric.box, partials=partials)
    data = SurfaceConnectionData.from_metric_and_torsion(nan_partials, lambda q: np.array([0.1, 0.2]))
    pts = np.array([[1.0, 0.0], [1.5, -0.4], [2.5, 0.3], [3.0, 0.0]])
    with pytest.raises(NonFiniteMetric, match=re.escape(str(pts[2]))):
        data.gamma(pts)
    with pytest.raises(NonFiniteMetric, match=re.escape(str(pts[3]))):
        data.gamma(pts[3])
    assert np.array_equal(data.gamma(pts[:2]), [data.gamma(p) for p in pts[:2]])


def test_torsion_field_contract():
    """A constant field is broadcast, a one-point callable wrapped in
    _fd.pointwise gives the values of its broadcasting twin, and a field of
    the wrong shape raises ValueError."""
    metric = gallery.hyperbolic_plane_polar()
    pts = np.array([[0.8, 0.1], [1.5, -0.7], [2.2, 1.3]])
    constant = SurfaceConnectionData.from_metric_and_torsion(metric, lambda q: np.array([0.1, 0.2]))
    assert constant.torsion_vector(pts).tolist() == [[0.1, 0.2]] * 3
    assert_batch_equals_points(constant, pts)

    def one_point(q):
        return np.array([0.4 * np.cos(q[1]), 0.1 * q[0] - 0.2])

    def broadcasting(q):
        return np.stack([0.4 * np.cos(q[..., 1]), 0.1 * q[..., 0] - 0.2], axis=-1)

    wrapped = SurfaceConnectionData.from_metric_and_torsion(metric, _fd.pointwise(one_point))
    twin = SurfaceConnectionData.from_metric_and_torsion(metric, broadcasting)
    for method in BATCH_METHODS:
        assert np.array_equal(getattr(wrapped, method)(pts), getattr(twin, method)(pts)), method
    bad = SurfaceConnectionData.from_metric_and_torsion(metric, lambda q: np.zeros(3))
    with pytest.raises(ValueError, match="torsion field"):
        bad.gamma(pts)


def _affine_b(q):
    """B = ((1, 0.2), (0.2, 2 + u)) at one point or at each of (..., 2) points."""
    b = np.empty(q.shape[:-1] + (2, 2))
    b[...] = [[1.0, 0.2], [0.2, 2.0]]
    b[..., 1, 1] += q[..., 0]
    return b


def test_operator_and_immersion_batches_in_one_pass(saddle_data):
    """Operator mode reads B once for the III and once for the K~ of a whole
    batch, and ``gamma`` and immersion mode evaluate a batch in one
    vectorised pass too; either way each row is its one-point call."""
    calls = []

    def counted(q):
        calls.append(q.shape)
        return _affine_b(q)

    operator = SurfaceConnectionData.from_operator(gallery.hyperbolic_plane_polar(), counted)
    pts = np.array([[0.8, 0.1], [1.5, -0.7], [2.2, 1.3]])
    assert_batch_equals_points(operator, pts)
    calls.clear()
    operator.third_form(pts)
    operator.curvature(pts)
    assert calls == [(3, 2), (3, 2)]
    assert_batch_equals_points(saddle_data, np.array([[0.1, 0.2], [-0.3, 0.05]]))


@pytest.mark.parametrize("name", ["seed3", "seed8", "h_diag"])
def test_operator_batch_rows_equal_one_point_calls(name):
    """B, B^{-1}, III and K~ of an (N, 2) batch, and B and III of a
    (rows, cols, 2) array, equal the one-point calls row by row."""
    data, (lo, hi) = _operator_case(name)
    rng = np.random.default_rng(4)
    pts = rng.uniform(lo, hi, size=(7, 2))
    for method in ("b_matrix", "b_tilde", "third_form", "curvature"):
        evaluate = getattr(data, method)
        batch = evaluate(pts)
        single = np.array([evaluate(p) for p in pts])
        assert batch.shape == single.shape and np.array_equal(batch, single), method
    grid = pts[:6].reshape(2, 3, 2)
    for method in ("b_matrix", "third_form"):
        evaluate = getattr(data, method)
        assert np.array_equal(evaluate(grid), evaluate(pts[:6]).reshape(2, 3, 2, 2)), method


def test_operator_b_field_contract():
    """A constant B is broadcast, a one-point callable wrapped in
    _fd.pointwise gives the values of its broadcasting twin, and a field of
    the wrong shape raises ValueError."""
    sigma = gallery.hyperbolic_plane_polar()
    pts = np.array([[0.8, 0.1], [1.5, -0.7], [2.2, 1.3]])
    constant = SurfaceConnectionData.from_operator(sigma, lambda q: np.diag([1.0, -2.0]))
    assert constant.b_matrix(pts).tolist() == [[[1.0, 0.0], [0.0, -2.0]]] * 3
    assert_batch_equals_points(constant, pts)

    def one_point(q):
        return np.array([[1.0, 0.2], [0.2, 2.0 + q[0]]])

    wrapped = SurfaceConnectionData.from_operator(sigma, _fd.pointwise(one_point))
    twin = SurfaceConnectionData.from_operator(sigma, _affine_b)
    for method in BATCH_METHODS + ("b_matrix", "b_tilde"):
        assert np.array_equal(getattr(wrapped, method)(pts), getattr(twin, method)(pts)), method
    bad = SurfaceConnectionData.from_operator(sigma, lambda q: np.zeros(3))
    with pytest.raises(ValueError, match="B field"):
        bad.third_form(pts)


def test_operator_batch_names_the_row_with_degenerate_b():
    """|det B| below DET_B_FLOOR at one row of a batch: DegenerateShapeOperator
    naming that point, from B^{-1} and from K~."""
    def b_field(q):
        b = _affine_b(q)
        b[..., 1, 1] = np.where(q[..., 0] > 2.0, 0.04, b[..., 1, 1])  # det B = 0
        return b

    data = SurfaceConnectionData.from_operator(gallery.hyperbolic_plane_polar(), b_field)
    pts = np.array([[1.0, 0.0], [2.5, 0.3], [3.0, 0.0]])
    for evaluate in (data.b_tilde, data.curvature):
        with pytest.raises(DegenerateShapeOperator, match=re.escape(str(pts[1]))):
            evaluate(pts)
    assert np.isfinite(data.curvature(pts[:1])).all()


def test_orthonormal_frame_batch_rows_equal_one_point_calls():
    """The frame of a (..., 2, 2) stack of metrics is, metric by metric, the
    one-point frame: orthonormal and positively oriented.  A metric that is
    not positive definite raises NonInvertibleMetric naming its row."""
    sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)
    g = sigma.matrix(np.random.default_rng(6).uniform([0.5, -7.0], [2.9, 7.0], size=(2, 3, 2)))
    g[..., 0, 1] = g[..., 1, 0] = 0.3  # off-diagonal, so f2 has both components
    frames = orthonormal_frame(g)
    assert frames.shape == (2, 3, 2, 2)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(frames[idx], orthonormal_frame(g[idx]))
        f = frames[idx]
        assert np.allclose(f @ g[idx] @ f.T, np.eye(2), atol=1e-14)
        assert np.linalg.det(f) > 0
    g[1, 0, 1, 1] = 0.0
    with pytest.raises(NonInvertibleMetric, match="row 3"):
        orthonormal_frame(g)


@pytest.mark.parametrize("name", ["seed3", "seed8", "h_diag"])
@SLOW_BATCH_PROPERTY
@given(unit=UNIT_BATCHES)
def test_operator_batch_equals_one_point_calls(name, unit):
    """Operator-mode gamma, K~, III and the area density of a batch are
    one vectorised pass, and each row equals its one-point call bit for
    bit."""
    data, (lo, hi) = _operator_case(name)
    assert_batch_equals_points(data, np.asarray(lo) + unit * (np.subtract(hi, lo)))


_IMMERSIONS = {}


# surfaces declared by expressions, with exact derivative expressions; ``^``
# holds the batch contract because it is np.power, which rounds a numpy
# scalar as it rounds an array
_FILE_SURFACES = {"file_saddle": "u*v", "file_power": "u*v + 0.1*(1.5 + u)^2.5 + 0.1*u^3"}


def _immersion_case(name):
    """Immersion-mode connection of a gallery surface or of a graph declared
    by expressions, built once per test session."""
    if name not in _IMMERSIONS:
        if name in _FILE_SURFACES:
            fields, box = parse_assignments(
                f"box = -1 1 -1 1\nphi1 = u\nphi2 = v\nphi3 = {_FILE_SURFACES[name]}\n",
                ("u", "v"))
            patch = surface_from_expressions(fields, ChartBox((box[0], box[2]), (box[1], box[3])))
            _IMMERSIONS[name] = SurfaceConnectionData.from_immersion(patch, gallery.euclidean3())
        else:
            params = {"lambda": 1.0} if name == "hyperbolic_slice" else {}
            _IMMERSIONS[name] = gallery.build_example(name, **params).data
    return _IMMERSIONS[name]


@pytest.mark.parametrize("name", ["saddle", "hyperbolic_slice", "clifford_torus", "sphere2",
                                  "pseudosphere", "file_saddle", "file_power"])
@SLOW_BATCH_PROPERTY
@given(unit=UNIT_BATCHES)
def test_immersion_batch_rows_equal_one_point_calls(name, unit):
    """Immersion mode evaluates a batch in one vectorised pass of the shape
    layer, and each row of gamma, III, the torsion, K~ and the area density
    equals its one-point call bit for bit."""
    data = _immersion_case(name)
    lo, hi = np.asarray(data.box.lo), np.asarray(data.box.hi)
    pts = lo + (0.01 + 0.98 * unit) * (hi - lo)
    for method in BATCH_METHODS + ("torsion_vector",):
        evaluate = getattr(data, method)
        batch = evaluate(pts)
        single = np.array([evaluate(p) for p in pts])
        assert batch.shape == single.shape and np.array_equal(batch, single), method


def test_immersion_batch_names_the_row_outside_the_chart(saddle_data):
    pts = np.array([[0.1, 0.2], [1.2, 0.0], [-0.3, 0.05]])
    for method in BATCH_METHODS + ("torsion_vector",):
        with pytest.raises(PointOutsideChart, match=re.escape(str(pts[1]))):
            getattr(saddle_data, method)(pts)


def test_immersion_batch_names_the_degenerate_row(euclid):
    """``(u, v^2, 0)`` has rank 1 on the u-axis: DegenerateImmersion naming
    that row, from every batched read of the shape layer."""
    patch = SurfacePatch(_fd.pointwise(lambda q: np.array([q[0], q[1] * q[1], 0.0])),
                         ChartBox.cube(2, 1.0), name="folded")
    data = SurfaceConnectionData.from_immersion(patch, euclid)
    pts = np.array([[0.2, 0.3], [0.1, 0.0], [-0.3, 0.4]])
    for method in ("third_form", "area_density", "curvature", "fundamental"):
        with pytest.raises(DegenerateImmersion, match=re.escape(str(pts[1]))):
            getattr(data, method)(pts)


@pytest.mark.parametrize("mode", ["torsion", "operator", "immersion"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_torsion_batch_rows_equal_one_point_calls(mode, n, saddle_data):
    """``torsion_vector``, ``torsion_from_coefficients``, ``torsion_norm``
    and the III-norms ``norm`` and ``unit`` of an (N, 2) batch equal the
    one-point calls row by row, N = 2 included (a 2-row batch must not be
    read as one point's coefficients)."""
    data, pts = {
        "torsion": (gallery.hyperbolic_deformed(1.3), [[1.2, 0.1], [1.5, -0.4], [0.9, 0.3]]),
        "operator": (_operator_case("seed3")[0], [[0.8, 0.1], [1.5, -0.7], [2.2, 1.3]]),
        "immersion": (saddle_data, [[0.1, 0.2], [-0.3, 0.05], [0.2, -0.1]]),
    }[mode]
    pts = np.array(pts[:n])
    for method in ("torsion_vector", "torsion_from_coefficients", "torsion_norm"):
        evaluate = getattr(data, method)
        batch = evaluate(pts)
        single = np.array([evaluate(p) for p in pts])
        assert batch.shape == single.shape and np.array_equal(batch, single), method
    x = np.array([[0.3, -0.5], [1e-3, 2.0], [-7.0, 0.25]])[:n]
    for method in ("norm", "unit"):
        evaluate = getattr(data, method)
        batch = evaluate(pts, x)
        single = np.array([evaluate(p, v) for p, v in zip(pts, x)])
        assert batch.shape == single.shape and np.array_equal(batch, single), method


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
    # the verdict carries the bound constants of the triple
    assert v.k4 == 1.0 and abs(v.k5 - 10.0) < 1e-12
    assert v.tau0 == torsion_bound_tau0(-0.9, -0.8, -1.0)


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


def _random_pinchings(seed, n=400):
    """n pairs K2 in [-3, 3], K3 - K2 in [0, 4]."""
    rng = np.random.default_rng(seed)
    k2 = rng.uniform(-3.0, 3.0, n)
    return np.column_stack([k2, k2 + rng.uniform(0.0, 4.0, n)]).tolist()


def test_k1_threshold_is_where_exclusion_flips():
    """80-step bisection on ``check_hypothesis(...).excluded`` over K1 < 0,
    from an excluded K1 = -1e3 to a K1 below min(K2, 0) that is not,
    finds the closed-form threshold."""
    worst = 0.0
    for k2, k3 in _random_pinchings(5):
        lo, hi = -1e3, min(k2, -1e-300)
        assert check_hypothesis(lo, k2, k3).excluded and not check_hypothesis(hi, k2, k3).excluded
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if check_hypothesis(mid, k2, k3).excluded else (lo, mid)
        worst = max(worst, abs(hi - k1_threshold(k2, k3)))
    assert worst < 1e-13


def test_k1_threshold_properties():
    """Continuous across K3 = 0, where both regimes apply; at most
    min(K2, 0), with equality exactly when K2 = K3 (a space form of
    curvature c has K1* = min(c, 0), with no K1 >= 0 evaluated); falling in
    K3; and the gap family (0, g) of demo 03 has K1* = -g/4."""
    assert k1_threshold(-1.0, 0.0) == -1.0590169943749475
    for k2 in (-3.0, -1.0, -0.2):
        assert abs(k1_threshold(k2, 1e-12) - k1_threshold(k2, -1e-12)) < 1e-11
    for k2, k3 in _random_pinchings(6):
        assert k1_threshold(k2, k3) < min(k2, 0.0)
        assert k1_threshold(k2, k2) == min(k2, 0.0)
        assert np.all(np.diff([k1_threshold(k2, k) for k in np.linspace(k2, k3, 9)]) < 0)
    assert k1_threshold(0.0, 2.0) == -0.5
    with pytest.raises(InvalidPinching):
        k1_threshold(1.0, 0.5)
    with pytest.raises(InvalidPinching):
        k1_threshold(np.nan, 0.5)


def test_exclusion_is_oscillation_at_the_bound_constants():
    """Under ``pinching_ok``, the exclusion inequality holds exactly when
    4 K4 > tau0^2 (``sit_check``): when the Jacobi system oscillates at the
    bound constants, and exactly when K1 < K1*."""
    rng = np.random.default_rng(7)
    hits = 0
    for k2, k3 in _random_pinchings(8, 1000):
        k1 = min(k2, 0.0) - rng.uniform(1e-3, 4.0)
        v = check_hypothesis(k1, k2, k3)
        assert v.pinching_ok and v.excluded == v.sit_check == (k1 < k1_threshold(k2, k3))
        hits += v.excluded
    assert min(hits, 1000 - hits) > 50  # both verdicts are sampled


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
    assert calls == []
    data.curvature([0.2, 0.4])
    assert calls  # the counter does see the curvature layer


def test_immersion_memo_is_bounded(saddle_data):
    from efimov_lab.connection import MEMO_SIZE
    from efimov_lab.curves import integrate_geodesic

    memo = saddle_data._memo
    memo.cache_clear()
    q = np.array([0.0, 0.0])
    tr = integrate_geodesic(saddle_data, q, saddle_data.unit(q, [1.0, 0.3]), 0.2, 1e-3)
    assert len(tr.s) == 201 and not tr.left_patch
    info = memo.cache_info()
    assert info.misses > 30 * 200  # every RK4 step visits fresh points
    assert info.currsize <= MEMO_SIZE

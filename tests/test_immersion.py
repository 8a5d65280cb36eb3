import pathlib
import re

import numpy as np
import pytest

from efimov_lab import _fd, gallery
from efimov_lab.errors import (
    DegenerateImmersion,
    ExpressionEvaluationError,
    NonFiniteMetric,
    NonInvertibleMetric,
    PointOutsideChart,
)
from efimov_lab.connection import SurfaceConnectionData
from efimov_lab.expressions import parse_assignments
from efimov_lab.immersion import (
    SurfacePatch,
    codazzi_residual,
    dnabla_b,
    fundamental_forms,
    gauss_residual,
    surface_from_expressions,
)
from efimov_lab.ambient import ChartBox, MetricField


def test_plane_is_flat(euclid):
    patch = gallery.plane_patch()
    d = fundamental_forms(patch, euclid, [0.4, -0.3])
    assert np.max(np.abs(d.shape_operator)) == 0.0
    assert np.max(np.abs(d.third)) == 0.0
    assert abs(d.k_extrinsic) < 1e-12


def test_unit_sphere_shape_operator(euclid):
    patch = gallery.sphere2_patch()
    d = fundamental_forms(patch, euclid, [1.1, 0.7])
    # outward normal: B is the identity, det B = 1, K_I = 1
    assert np.max(np.abs(d.normal - d.point)) < 1e-12
    assert np.max(np.abs(d.shape_operator - np.eye(2))) < 1e-10
    assert abs(np.linalg.det(d.shape_operator) - 1.0) < 1e-10
    assert abs(d.k_intrinsic - 1.0) < 1e-6


def test_saddle_principal_curvatures(euclid):
    patch = gallery.saddle_patch()
    d = fundamental_forms(patch, euclid, [0.0, 0.0])
    eig = sorted(np.linalg.eigvals(d.shape_operator))
    assert abs(eig[0] + 1.0) < 1e-12 and abs(eig[1] - 1.0) < 1e-12
    assert abs(d.k_intrinsic + 1.0) < 1e-6


def test_third_form_identity_sampled(euclid):
    rng = np.random.default_rng(8)
    patch = gallery.sphere2_patch()
    for _ in range(5):
        q = np.array([0.6, -0.5]) + 0.4 * rng.random(2)
        d = fundamental_forms(patch, euclid, q)
        iii = d.shape_operator.T @ d.first @ d.shape_operator
        assert np.max(np.abs(iii - d.third)) < 1e-8


def test_orientation_flip(euclid):
    """Swapping the parameters, (u, v) -> phi(v, u), flips the oriented
    normal d1 phi x d2 phi: N and B change sign (B up to the swap of its
    indices), while III, K_e and the Gauss residual do not."""
    patch = gallery.saddle_patch()
    q = np.array([0.2, 0.3])

    def derivatives(qq):
        point, jac, hess = patch._derivatives(qq[..., ::-1])
        return point, jac[..., ::-1], hess[..., ::-1, ::-1]

    swapped = SurfacePatch(lambda qq: patch._map(qq[..., ::-1]), patch.box, derivatives,
                           name=patch.name)
    d = fundamental_forms(patch, euclid, q)
    df = fundamental_forms(swapped, euclid, q[::-1])
    assert np.max(np.abs(df.normal + d.normal)) < 1e-12
    assert np.max(np.abs(df.shape_operator + d.shape_operator[::-1, ::-1])) < 1e-10
    assert np.max(np.abs(df.third - d.third[::-1, ::-1])) < 1e-10
    assert abs(df.k_extrinsic - d.k_extrinsic) < 1e-10
    assert abs(gauss_residual(swapped, euclid, q[::-1])
               - gauss_residual(patch, euclid, q)) < 1e-9


def test_gauss_residual_examples(euclid):
    assert gauss_residual(gallery.plane_patch(), euclid, [0.1, 0.1]) < 1e-12
    assert gauss_residual(gallery.sphere2_patch(), euclid, [1.0, 0.5]) < 1e-6


def test_gauss_residual_clifford():
    case = gallery.build_example("clifford_torus")
    q = np.array([0.7, -1.1])
    d = fundamental_forms(case.patch, case.metric, q)
    assert abs(np.linalg.det(d.shape_operator) + 1.0) < 1e-8
    assert abs(d.k_intrinsic) < 1e-8
    assert gauss_residual(case.patch, case.metric, q) < 1e-8


def test_codazzi_space_forms(euclid):
    assert codazzi_residual(gallery.sphere2_patch(), euclid, [1.0, 0.5],
                            [1.0, 0.0], [0.0, 1.0]) < 1e-6
    case = gallery.build_example("clifford_torus")
    assert codazzi_residual(case.patch, case.metric, [0.4, 0.9],
                            [1.0, 0.0], [0.0, 1.0]) < 1e-6


def test_codazzi_slice_nontrivial():
    """Both sides of the Codazzi identity are nonzero on the slab slice and
    must agree."""
    case = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0})
    q = np.array([0.2, 0.4])
    lhs = dnabla_b(case.patch, case.metric, q, [1.0, 0.0], [0.0, 1.0])
    assert np.max(np.abs(lhs)) > 1e-3  # genuinely curved configuration
    assert codazzi_residual(case.patch, case.metric, q, [1.0, 0.0], [0.0, 1.0]) < 1e-3


def test_degenerate_immersion(euclid):
    bad = SurfacePatch(_fd.pointwise(lambda q: np.array([q[0], 2.0 * q[0], 0.0])),
                       ChartBox.cube(2, 1.0), name="collapsed")
    with pytest.raises(DegenerateImmersion):
        fundamental_forms(bad, euclid, [0.0, 0.0])


def test_map_only_patch_jet_from_one_stencil(euclid):
    """A patch without analytic derivatives takes its point, Jacobian and
    Hessian from one 17-point stencil, equal to the map, ``_fd.gradient``
    and ``_fd.second`` bit for bit.  Map evaluations: 17 per
    fundamental_forms; 153 per K_I (17 points of I, 9 each); 153 per
    immersion gamma at a fresh point (17 for B and the symbols of I, 8 x 17
    for dB)."""
    from efimov_lab.connection import SurfaceConnectionData

    def smap(q):
        return np.array([q[0], q[1], q[0] * q[1]])

    calls = []

    def counted(q):
        calls.append(tuple(q))
        return smap(q)

    patch = SurfacePatch(_fd.pointwise(counted), ChartBox.cube(2, 1.0), name="fd-saddle")
    q = np.array([0.3, -0.2])
    h = patch.fd_step
    point, jac, hess = patch.jet(q)
    assert len(calls) == len(set(calls)) == 17
    assert np.array_equal(point, smap(q))
    assert np.array_equal(jac, _fd.gradient(smap, q, h).T)
    assert np.array_equal(jac, patch.jacobian(q))
    for a in range(2):
        for b in range(a, 2):
            expected = _fd.second(smap, q, a, b, h)
            assert np.array_equal(hess[:, a, b], expected)
            assert np.array_equal(hess[:, b, a], expected)

    calls.clear()
    data = fundamental_forms(patch, euclid, q)
    assert len(calls) == 17
    calls.clear()
    data.k_intrinsic
    assert len(calls) == 153
    calls.clear()
    SurfaceConnectionData.from_immersion(patch, euclid).gamma(q)
    assert len(calls) == 153


def test_gallery_gauss_residuals_small(euclid):
    for name in ("plane", "saddle", "sphere2", "pseudosphere"):
        case = gallery.build_example(name)
        mid = 0.5 * (np.asarray(case.patch.box.lo) + np.asarray(case.patch.box.hi))
        assert gauss_residual(case.patch, case.metric, mid) < 1e-4


def test_shape_operator_symmetric_wrt_first_form():
    rng = np.random.default_rng(21)
    for name in ("saddle", "sphere2", "clifford_torus", "hyperbolic_slice"):
        params = {"lambda": 1.0} if name == "hyperbolic_slice" else {}
        case = gallery.build_example(name, **params)
        lo = np.asarray(case.patch.box.lo)
        hi = np.asarray(case.patch.box.hi)
        mid, span = 0.5 * (lo + hi), 0.2 * (hi - lo)
        for _ in range(3):
            q = mid + span * (2 * rng.random(2) - 1)
            d = fundamental_forms(case.patch, case.metric, q)
            ib = d.first @ d.shape_operator
            assert np.max(np.abs(ib - ib.T)) < 1e-9


def test_curvature_layer_is_lazy(monkeypatch):
    """The shape layer is built on construction; III, the symbols of I and
    the curvature fields are computed on first read, once, and
    K_e = K_I - K_M(T Sigma) holds."""
    from efimov_lab import ambient, immersion

    calls = []
    real = ambient.riemann_covariant

    def counted(metric, p):
        calls.append(metric.name)
        return real(metric, p)

    monkeypatch.setattr(ambient, "riemann_covariant", counted)
    monkeypatch.setattr(immersion, "riemann_covariant", counted)
    case = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0})
    d = fundamental_forms(case.patch, case.metric, [0.2, 0.4])
    assert calls == []
    assert not ({"third", "christoffel_first", "k_intrinsic", "k_ambient_tangent",
                 "k_extrinsic"} & set(vars(d)))
    k_e = d.k_extrinsic
    assert len(calls) == 2  # one Riemann tensor of I, one of the ambient
    assert k_e == d.k_intrinsic - d.k_ambient_tangent
    assert len(calls) == 2
    assert abs(d.k_intrinsic + 1.0) < 1e-6
    assert abs(k_e - np.linalg.det(d.shape_operator)) < 1e-6


# --- the symbols of I by the Gauss formula ---------------------------------


def _symbols(entries):
    """``Gamma[c, a, b]`` from a dict {(c, a, b): value}, symmetric in (a, b)."""
    gam = np.zeros((2, 2, 2))
    for (c, a, b), value in entries.items():
        gam[c, a, b] = gam[c, b, a] = value
    return gam


@pytest.mark.parametrize("q", [(1.1, 0.7), (0.4, -2.5), (2.6, 1.9)])
def test_christoffel_first_sphere_closed_form(euclid, q):
    """I = du^2 + sin^2 u dv^2: Gamma^u_vv = -sin u cos u, Gamma^v_uv = cot u."""
    u = q[0]
    expected = _symbols({(0, 1, 1): -np.sin(u) * np.cos(u), (1, 0, 1): 1.0 / np.tan(u)})
    got = fundamental_forms(gallery.sphere2_patch(), euclid, q).christoffel_first
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("q", [(0.2, 0.4), (-1.3, -1.5), (0.7, 1.6)])
def test_christoffel_first_hyperbolic_slice_closed_form(q):
    """I = cosh^2 y dx^2 + dy^2 on the z = 0 slice of the slab metric:
    Gamma^x_xy = tanh y, Gamma^y_xx = -sinh y cosh y."""
    y = q[1]
    expected = _symbols({(0, 0, 1): np.tanh(y), (1, 0, 0): -np.sinh(y) * np.cosh(y)})
    case = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0})
    got = fundamental_forms(case.patch, case.metric, q).christoffel_first
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("q", [(0.13, 0.21), (0.3, -0.2), (-0.6, 0.5)])
def test_christoffel_first_map_only_saddle_exact(euclid, q):
    """phi = (u, v, uv) as a map with no derivatives hook, so every partial
    is a central difference, against the exact ``I^{-1} <phi_ab, phi_d>``:
    only phi_uv = (0, 0, 1) is non-zero, so Gamma^c_uv = I^{-1} (v, u) and
    the other symbols vanish.  The error is the rounding of the difference
    Hessian, about eps |phi| / h^2: 3.4e-10 to 2.6e-9 at these points."""
    patch = SurfacePatch(lambda p: np.stack([p[..., 0], p[..., 1], p[..., 0] * p[..., 1]], -1),
                         ChartBox.cube(2, 1.0))
    assert not patch.has_analytic_partials
    got = fundamental_forms(patch, euclid, q).christoffel_first
    assert np.max(np.abs(got - _saddle_symbols(q))) < 1e-8


@pytest.mark.parametrize("q", [(0.13, 0.21), (0.3, -0.2), (-0.6, 0.5)])
def test_christoffel_first_file_saddle_exact(euclid, q):
    """The same saddle as a surface file: its Jacobian and Hessian are
    exact derivative trees, so the symbols agree with the closed form to
    rounding (at most 5.6e-17 at these points)."""
    patch = _file_patch("u*v")
    assert patch.has_analytic_partials
    got = fundamental_forms(patch, euclid, q).christoffel_first
    assert np.max(np.abs(got - _saddle_symbols(q))) < 1e-15


def _saddle_symbols(q):
    """The symbols of I for phi = (u, v, uv) in Euclidean space."""
    u, v = q
    first = np.array([[1.0 + v * v, u * v], [u * v, 1.0 + u * u]])
    mixed = np.linalg.solve(first, [v, u])
    return _symbols({(0, 0, 1): mixed[0], (1, 0, 1): mixed[1]})


def _file_patch(phi3, half_width=1.0):
    box = f"box = {-half_width} {half_width} {-half_width} {half_width}\n"
    fields, box = parse_assignments(f"{box}phi1 = u\nphi2 = v\nphi3 = {phi3}\n", ("u", "v"))
    return surface_from_expressions(fields, ChartBox((box[0], box[2]), (box[1], box[3])))


def test_file_surface_batch_evaluates_each_nonzero_tree_once(leaf_stores):
    """A 64-row fundamental batch on a file surface stores each non-zero tree
    of its map, Jacobian and Hessian once, on all rows at a time: 3 + 4 + 2
    of its 18 trees; the derivatives of ``phi1 = u``, ``phi2 = v`` beyond the
    first and ``d(phi3)/dv = u`` in v fold to 0 and are never read."""
    data = SurfaceConnectionData.from_immersion(
        _file_patch("u*v + 0.1*(1.5 + u)^2.5 + 0.1*u^3"), gallery.euclidean3())
    points = np.random.default_rng(3).uniform(-0.8, 0.8, (64, 2))
    leaf_stores.clear()
    data.fundamental(points)
    assert sorted(index for index, _ in leaf_stores) == sorted(
        [(0,), (1,), (2,), (0, 0), (1, 1), (2, 0), (2, 1), (2, 0, 0), (2, 0, 1)])
    assert all(shape == (64, 2) for _, shape in leaf_stores)


def test_plane_file_reads_no_hessian_tree_and_equals_the_builtin_plane(leaf_stores):
    """``phi3 = 0``: every Hessian tree folds to 0 and is never evaluated, nor
    is phi3 or any derivative of it, and the jet equals the closed-form
    plane jet bit for bit, at one point and on a batch."""
    patch = _file_patch("0", 2.0)
    for q in (np.array([0.4, -1.3]), np.random.default_rng(5).uniform(-1.9, 1.9, (16, 2))):
        lead = q.shape[:-1]
        plane = (np.concatenate([q, np.zeros(lead + (1,))], axis=-1),
                 np.broadcast_to([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], lead + (3, 2)),
                 np.zeros(lead + (3, 2, 2)))
        leaf_stores.clear()
        for got, want in zip(patch.jet(q), plane):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert sorted(index for index, _ in leaf_stores) == [(0,), (0, 0), (1,), (1, 1)]


def test_a_failing_subtree_shared_by_two_trees_names_the_first_tree():
    """``ln(u)`` is one subtree of ``phi1``, ``phi3`` and their derivatives,
    and it is undefined for u < 0.  The map names ``phi1`` and the jet names
    ``d(phi1)/dv = ln(u)``, the first failing tree of the Jacobian, at the
    point for one point and at the failing row of a 64-row batch."""
    fields, _ = parse_assignments("phi1 = v*ln(u)\nphi2 = v\nphi3 = u*ln(u)\n", ("u", "v"))
    patch = surface_from_expressions(fields, ChartBox((-1.0, -1.0), (1.0, 1.0)))
    rows = np.random.default_rng(9).uniform([0.1, -0.9], [0.9, 0.9], (64, 2))
    rows[37] = [-0.5, 0.3]
    for q in (rows[37], rows):
        for read, text in ((patch.point, "v*ln(u)"), (patch.jet, "d(v*ln(u))/dv")):
            with pytest.raises(ExpressionEvaluationError) as err:
                read(q)
            assert str(err.value).startswith(f"failed to evaluate {text!r} at ")
            assert err.value.point == {"u": -0.5, "v": 0.3}


def test_immersion_gamma_keeps_the_chart_margin_of_sigma():
    """Immersion gamma reads the symbols of I from the fundamental data, and
    still raises inside the 2e-4 margin that differencing I would need."""
    data = gallery.build_example("saddle").data
    data.gamma([0.9997, 0.0])
    with pytest.raises(PointOutsideChart):
        data.gamma([0.99985, 0.0])


def test_immersion_gamma_on_a_non_finite_jet_raises_typed_error(euclid):
    """A map-only patch that is NaN only past the corner (h, h) of the jet
    stencil at q: the shape layer carries the NaN, and the symbols of I
    raise NonFiniteMetric in place of NaN coefficients."""
    from efimov_lab.connection import SurfaceConnectionData

    def smap(q):
        return np.array([q[0], q[1], np.nan if q[0] + q[1] > 0.5001 else q[0] * q[1]])

    patch = SurfacePatch(_fd.pointwise(smap), ChartBox.cube(2, 1.0), name="nan-corner")
    with pytest.raises(NonFiniteMetric):
        SurfaceConnectionData.from_immersion(patch, euclid).gamma([0.25, 0.25])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_map_raises_typed_error_at_one_point_and_in_a_batch(euclid):
    """A map-only patch that is infinite only past the corner (h, h) of the
    jet stencil at (0.25, 0.25): NonFiniteMetric naming that point, at one
    point and in a 3-row batch, never a numpy warning."""
    from efimov_lab.connection import SurfaceConnectionData

    def smap(q):
        return np.array([q[0], q[1], np.inf if q[0] + q[1] > 0.5001 else q[0] * q[1]])

    patch = SurfacePatch(_fd.pointwise(smap), ChartBox.cube(2, 1.0), name="inf-corner")
    data = SurfaceConnectionData.from_immersion(patch, euclid)
    hot = np.array([0.25, 0.25])
    pts = np.array([[-0.3, 0.1], hot, [0.1, -0.4]])
    for call in (lambda: fundamental_forms(patch, euclid, hot), lambda: data.gamma(hot),
                 lambda: data.gamma(pts), lambda: data.third_form(pts)):
        with pytest.raises(NonFiniteMetric, match=re.escape(str(hot))):
            call()
    assert np.isfinite(data.gamma(pts[::2])).all()


@pytest.mark.parametrize("build", [
    gallery.plane_patch, gallery.saddle_patch, gallery.sphere2_patch, gallery.pseudosphere_patch,
    gallery.clifford_torus, lambda: gallery.hyperbolic_slice(1.0)])
def test_gallery_patches_broadcast_over_points(build):
    """The map and the derivatives hook of a gallery patch take (..., 2)
    points: each row of a batch, and of a (rows, cols, 2) grid, is the
    one-point jet bit for bit."""
    patch = build()
    lo, hi = np.asarray(patch.box.lo), np.asarray(patch.box.hi)
    pts = lo + (hi - lo) * np.random.default_rng(6).random((6, 2))
    batch = patch.jet(pts)
    for k, q in enumerate(pts):
        for rows, one in zip(batch, patch.jet(q)):
            assert np.array_equal(rows[k], one)
    for grid, rows in zip(patch.jet(pts.reshape(2, 3, 2)), batch):
        assert np.array_equal(grid, rows.reshape((2, 3) + rows.shape[1:]))


def test_one_point_map_takes_a_batch_through_pointwise():
    """A map of one (2,) point, fed a batch, gives the wrong shape and
    raises ValueError, as does a map with 2 components at one point or on a
    batch; wrapped in ``_fd.pointwise`` the one-point map gives the rows of
    its broadcasting twin."""
    def one_point(q):
        return np.array([q[0], q[1], q[0] * q[1]])

    pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]])
    with pytest.raises(ValueError, match="patch map"):
        SurfacePatch(one_point, ChartBox.cube(2, 1.0)).point(pts)
    planar = SurfacePatch(lambda q: np.asarray(q), ChartBox.cube(2, 1.0))
    for q in (np.zeros(2), pts):
        with pytest.raises(ValueError, match="patch map"):
            planar.point(q)
    wrapped = SurfacePatch(_fd.pointwise(one_point), ChartBox.cube(2, 1.0))
    assert np.array_equal(wrapped.point(pts), gallery.saddle_patch().point(pts))


def test_singular_ambient_metric_raises_typed_error():
    """g is inverted once per point, with the determinant floor, before the
    normal is formed: a singular ambient metric is a NonInvertibleMetric."""
    zero = MetricField(3, lambda p: np.zeros(p.shape[:-1] + (3, 3)), ChartBox.cube(3, 2.0),
                       first_jet=lambda p: (np.zeros(p.shape[:-1] + (3, 3)),
                                            np.zeros(p.shape[:-1] + (3, 3, 3))), name="zero")
    with pytest.raises(NonInvertibleMetric):
        fundamental_forms(gallery.saddle_patch(), zero, [0.1, 0.2])


def _kuen_patch():
    """Kuen's surface, read from its surface file under ``demos/``."""
    text = (pathlib.Path(__file__).parents[1] / "demos" / "kuen_surface.txt").read_text()
    fields, box = parse_assignments(text, ("u", "v"))
    return surface_from_expressions(fields, ChartBox((box[0], box[2]), (box[1], box[3])), "kuen")


def test_kuen_surface_has_k_minus_one_in_curvature_line_coordinates(euclid):
    """At 40 seeded points of the box with det I >= 1e-2: det B = -1 (6.0e-15
    measured), I12 = II12 = 0 (9.0e-16), I11 + I22 = 1 (1.6e-15), so I =
    cos^2(omega/2) du^2 + sin^2(omega/2) dv^2; K_I = -1 to the error of its
    finite differences (9.0e-10)."""
    patch = _kuen_patch()
    rows = np.random.default_rng(0).uniform(-1.5, 1.5, (400, 2))
    jac = patch.jacobian(rows)
    rows = rows[np.linalg.det(np.swapaxes(jac, -1, -2) @ jac) >= 1e-2][:40]
    assert len(rows) == 40
    data = SurfaceConnectionData.from_immersion(patch, euclid).fundamental(rows)
    assert np.max(np.abs(np.linalg.det(data.shape_operator) + 1.0)) <= 1.2e-14
    assert np.max(np.abs(data.first[:, 0, 1])) <= 2e-15
    assert np.max(np.abs(data.second[:, 0, 1])) <= 2e-15
    assert np.max(np.abs(data.first[:, 0, 0] + data.first[:, 1, 1] - 1.0)) <= 3e-15
    assert np.max(np.abs(data.k_intrinsic + 1.0)) <= 2e-9


def test_kuen_surface_is_degenerate_at_the_origin(euclid):
    """(0, 0) lies on a cuspidal edge: DegenerateImmersion names it, alone
    and as a row of a batch."""
    patch = _kuen_patch()
    with pytest.raises(DegenerateImmersion, match=re.escape("q=[0. 0.]")):
        fundamental_forms(patch, euclid, [0.0, 0.0])
    data = SurfaceConnectionData.from_immersion(patch, euclid)
    with pytest.raises(DegenerateImmersion, match=re.escape("q=[0. 0.]")):
        data.fundamental(np.array([[0.3, 0.9], [0.0, 0.0], [-0.4, 0.2]]))

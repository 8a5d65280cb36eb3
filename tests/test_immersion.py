import numpy as np
import pytest

from efimov_lab import gallery
from efimov_lab.errors import DegenerateImmersion
from efimov_lab.immersion import (
    SurfacePatch,
    codazzi_residual,
    dnabla_b,
    fundamental_forms,
    gauss_residual,
    unit_normal,
)
from efimov_lab.ambient import ChartBox


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
    assert np.array_equal(unit_normal(patch, euclid, [1.1, 0.7]), d.normal)
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
    patch = gallery.saddle_patch()
    q = np.array([0.2, 0.3])
    d = fundamental_forms(patch, euclid, q)
    df = fundamental_forms(patch.flipped(), euclid, q)
    assert np.max(np.abs(df.normal + d.normal)) < 1e-12
    assert np.max(np.abs(df.shape_operator + d.shape_operator)) < 1e-10
    assert np.max(np.abs(df.third - d.third)) < 1e-10
    assert abs(df.k_extrinsic - d.k_extrinsic) < 1e-10
    assert abs(gauss_residual(patch.flipped(), euclid, q)
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
    bad = SurfacePatch(lambda q: np.array([q[0], 2.0 * q[0], 0.0]),
                       ChartBox.cube(2, 1.0), name="collapsed")
    with pytest.raises(DegenerateImmersion):
        fundamental_forms(bad, euclid, [0.0, 0.0])
    with pytest.raises(DegenerateImmersion):
        unit_normal(bad, euclid, [0.0, 0.0])


def test_fd_hessian_from_one_stencil():
    """Without analytic derivatives the patch Hessian comes from one 17-point
    stencil, each point evaluated once, and equals the separate
    ``_fd.second`` stencils (19 map evaluations) bit for bit."""
    from efimov_lab import _fd

    def smap(q):
        return np.array([q[0], q[1], q[0] * q[1]])

    calls = []

    def counted(q):
        calls.append(tuple(q))
        return smap(q)

    patch = SurfacePatch(counted, ChartBox.cube(2, 1.0), name="fd-saddle")
    q = np.array([0.3, -0.2])
    hess = patch.hessian(q)
    assert len(calls) == len(set(calls)) == 17
    for a in range(2):
        for b in range(a, 2):
            expected = _fd.second(smap, q, a, b, patch.fd_step)
            assert np.array_equal(hess[:, a, b], expected)
            assert np.array_equal(hess[:, b, a], expected)


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
    """The shape layer is built on construction; the curvature fields are
    computed on first read, once, and K_e = K_I - K_M(T Sigma) holds."""
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
    assert not {"k_intrinsic", "k_ambient_tangent", "k_extrinsic"} & set(vars(d))
    k_e = d.k_extrinsic
    assert len(calls) == 2  # one Riemann tensor of I, one of the ambient
    assert k_e == d.k_intrinsic - d.k_ambient_tangent
    assert len(calls) == 2
    assert abs(d.k_intrinsic + 1.0) < 1e-6
    assert abs(k_e - np.linalg.det(d.shape_operator)) < 1e-6

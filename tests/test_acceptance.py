"""Acceptance suite: every closed-form value and property contract, one
criterion per test, each printing a pass/fail line (run with ``pytest -s``
to see them all).

Criterion 1 is asserted exactly as stated and fails honestly: the six
closed-form curvature entries of the slab metric are exact on the z = 0
slice only, so the 1e-3 match cannot hold on the z = +/-0.1 grid layers for
lambda > 0.  The companion test pins the same pipeline to the z = 0 layer,
where it passes with three orders of margin, and a third one checks the
pipeline on the full grid against the true curvature of the slab metric at
every height.  See README, "Known verification outcomes".
"""

import time

import numpy as np
import pytest

from efimov_lab import gallery
from efimov_lab.connection import (
    check_hypothesis,
    dual_codazzi_residual,
    torsion_bound_bruteforce,
    torsion_bound_tau0,
)
from efimov_lab.curves import (
    RegionSpec,
    boundary_holonomy_angle,
    gauss_bonnet_residual,
    integrate_jacobi,
)
from efimov_lab.odelab import construct_edo7, solve_prop_edo, weak_inequality_residual


def _line(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _g_lambda_grid_errors(lam, z_values):
    m = gallery.g_lambda(lam, analytic=False, fd_step=1e-3, z_half=0.106)
    refs = [f for _, f in gallery.g_lambda_reference_entries(lam)]
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 11):
        for y in np.linspace(-1.0, 1.0, 11):
            for z in z_values:
                p = np.array([x, y, z])
                measured = gallery.measured_g_lambda_entries(m, p)
                worst = max(worst, max(abs(measured[i] - refs[i](p)) for i in range(6)))
    return worst


def test_criterion_1_g_lambda_entries_full_grid():
    """Stated form: 11x11x3 grid with |z| <= 0.1 at 1e-3.  Honest red for
    lambda > 0: the printed entry list is a z = 0 fact about this metric."""
    t0 = time.monotonic()
    worst = {}
    for lam in (0.5, 1.0, 3.0):
        worst[lam] = _g_lambda_grid_errors(lam, np.linspace(-0.1, 0.1, 3))
    runtime = time.monotonic() - t0
    ok = all(w < 1e-3 for w in worst.values()) and runtime < 30.0
    _line("1", ok, f"slab-grid entry errors {worst} (runtime {runtime:.1f}s)")
    assert runtime < 30.0
    assert all(w < 1e-3 for w in worst.values()), (
        "the closed-form entries hold only on the z=0 slice of the slab "
        f"metric; measured slab deviations {worst} necessarily exceed 1e-3 "
        "for lambda > 0 (see README, 'Known verification outcomes')")


def test_criterion_1_g_lambda_entries_z0_layer():
    """The same pipeline and tolerances restricted to the z = 0 layer."""
    t0 = time.monotonic()
    worst = {}
    for lam in (0.5, 1.0, 3.0):
        worst[lam] = _g_lambda_grid_errors(lam, [0.0])
    runtime = time.monotonic() - t0
    ok = all(w < 1e-3 for w in worst.values())
    _line("1 (z=0 layer)", ok, f"entry errors {worst} (runtime {runtime:.1f}s)")
    assert ok
    assert runtime < 30.0


def _true_slab_sectionals(lam, z):
    """K_12, K_13 and K_32 of the slab metric at height z, by Eisenhart's
    formulas for an orthogonal metric with Lame coefficients
    H1 = f(z) cosh y, H2 = g(z), H3 = 1, where f = sqrt(1 + 2 lam z) cosh z
    and g = sqrt(1 - 2 lam z) cosh z: K_13 = -f''/f, K_32 = -g''/g and
    K_12 = -(1/g^2 + f' g' / (f g)).  At z = 0 all three are lam^2 - 1."""
    def log_derivatives(sign):  # h'/h and h''/h of h = sqrt(1 + 2 sign lam z) cosh z
        t = 1.0 + 2.0 * sign * lam * z
        return (sign * lam / t + np.tanh(z),
                1.0 + 2.0 * sign * lam * np.tanh(z) / t - lam * lam / (t * t))

    (f1, f2), (g1, g2) = log_derivatives(1.0), log_derivatives(-1.0)
    g_squared = (1.0 - 2.0 * lam * z) * np.cosh(z) ** 2
    return -(1.0 / g_squared + f1 * g1), -f2, -g2


@pytest.mark.parametrize("analytic, tol", [(True, 1e-10), (False, 1e-7)])
def test_g_lambda_sectionals_match_the_true_slab_curvature_off_z0(analytic, tol):
    """The pipeline's sectional entries on the honest red's 11 x 11 x 3 grid,
    |z| <= 0.1 capped by the box, against the closed-form curvature of the
    slab metric at every height: the honest red's deviations are the
    stated table's, not the pipeline's.  The largest errors were 1.4e-14
    with the exact jet of the metric text and 2.3e-9 in pure finite
    differences."""
    for lam in (0.5, 1.0, 3.0):
        m = gallery.g_lambda(lam, analytic=analytic)
        z_top = min(0.1, m.box.hi[2] - m.fd_margin())
        grid = np.meshgrid(np.linspace(-1.0, 1.0, 11), np.linspace(-1.0, 1.0, 11),
                           np.linspace(-z_top, z_top, 3), indexing="ij")
        p = np.stack([c.ravel() for c in grid], axis=-1)
        measured = gallery.measured_g_lambda_entries(m, p)[:3]
        for got, want in zip(measured, _true_slab_sectionals(lam, p[:, 2])):
            assert np.max(np.abs(got - want)) < tol


def test_criterion_2_hypothesis_boundary_regression():
    results = []
    for lam in (1.0, 2.0, 3.0, 5.0):
        v = check_hypothesis(-1.0, lam * lam - 1.0 - 2.0 * lam,
                             lam * lam - 1.0 + 2.0 * lam)
        results.append((lam, v.lhs, v.rhs, v.excluded))
        assert v.lhs == 16.0 * lam * lam          # exact in 64-bit arithmetic
        assert v.rhs == 16.0 * lam * lam - 32.0 * lam
        assert v.excluded is False
    efimov = check_hypothesis(-1.0, 0.0, 0.0)
    assert efimov.excluded is True
    _line("2", True, f"boundary family {results}; Efimov triple excluded")


def test_criterion_3_torsion_bound_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        k1 = -rng.uniform(0.2, 3.0)
        q1 = k1 + rng.uniform(0.05, 2.5)
        q2 = k1 + rng.uniform(0.05, 2.5)
        closed = torsion_bound_tau0(min(q1, q2), max(q1, q2), k1)
        brute = torsion_bound_bruteforce(q1, q2, k1, grid_size=10000)
        worst = max(worst, abs(closed - brute))
    _line("3", worst < 1e-6, f"closed-form vs brute-force max gap {worst:.2e}")
    assert worst < 1e-6


def test_criterion_4_deformed_connection():
    worst_tau = 0.0
    worst_k = 0.0
    for t in (0.0, 1.0, 2.0):
        data = gallery.hyperbolic_deformed(t)
        for r in np.linspace(0.1, 3.0, 100):
            q = np.array([r, 0.4])
            tau = data.torsion_from_coefficients(q)
            g = data.third_form(q)
            worst_tau = max(worst_tau, abs(np.sqrt(tau @ g @ tau) - t))
            worst_k = max(worst_k, abs(data.curvature(q) - (t * np.tanh(r) - 1.0)))
    ok = worst_tau < 1e-8 and worst_k < 1e-5
    _line("4", ok, f"torsion norm err {worst_tau:.2e}, curvature err {worst_k:.2e}")
    assert worst_tau < 1e-8
    assert worst_k < 1e-5


def test_criterion_5_space_form_degeneration():
    # every gallery surface with an invertible shape operator (the dual
    # connection is undefined at flat points, e.g. on a plane)
    cases = [
        ("sphere2", [(1.1, 0.4), (0.8, -0.9), (1.9, 1.3)]),
        ("saddle", [(0.0, 0.0), (0.3, -0.4), (-0.5, 0.5)]),
        ("pseudosphere", [(1.0, 0.3), (1.5, -0.7)]),
        ("clifford_torus", [(0.4, 0.9), (-1.2, 2.0), (2.5, -0.6)]),
        ("geodesic_sphere_hyp3", [(1.2, 0.5), (1.7, -0.8)]),
    ]
    worst_tau = 0.0
    worst_codazzi = 0.0
    for name, points in cases:
        data = gallery.build_example(name).data
        for q in points:
            worst_tau = max(worst_tau, data.torsion_norm(np.asarray(q)))
            worst_codazzi = max(worst_codazzi, dual_codazzi_residual(data, np.asarray(q)))
    ok = worst_tau < 1e-6 and worst_codazzi < 1e-6
    _line("5", ok, f"torsion sup {worst_tau:.2e}, dual-Codazzi sup {worst_codazzi:.2e}")
    assert worst_tau < 1e-6
    assert worst_codazzi < 1e-6


def test_criterion_6_jacobi_suite():
    jt = integrate_jacobi(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0,
                          (0.0, 0.0, 0.0, 1.0), 1.8, 1e-4)
    sine_err = float(np.max(np.abs(jt.y - np.sin(jt.t))))
    mask = jt.t > 0
    sandwich = bool(np.all(jt.y[mask] >= 0.5 * jt.t[mask] - 1e-12)
                    and np.all(jt.y[mask] <= 2.0 * jt.t[mask] + 1e-12))
    tau0 = 0.35
    jx = integrate_jacobi(lambda t: 1.0, lambda t: tau0, lambda t: 0.0,
                          (0.0, 0.0, 0.0, 1.0), 1.8, 1e-4)
    xbound = bool(np.all(np.abs(jx.x[mask]) <= tau0 * jx.t[mask] ** 2 + 1e-12))
    ok = sine_err < 1e-8 and sandwich and xbound
    _line("6", ok, f"sine err {sine_err:.2e}, sandwich {sandwich}, |x| bound {xbound}")
    assert sine_err < 1e-8
    assert sandwich and xbound


def test_criterion_7_gauss_bonnet_with_torsion():
    sphere = gallery.abstract_sphere()
    cap = RegionSpec.coordinate_disk([0.0, 0.0], 1.0 / np.sqrt(3.0),
                                     n_boundary=401, n_radial=24, n_angular=64)
    r_cap = gauss_bonnet_residual(sphere, cap)

    hyp = gallery.hyperbolic_deformed(0.0)
    disk = RegionSpec.coordinate_disk([1.5, 0.0], 1.0, n_boundary=401,
                                      n_radial=24, n_angular=64)
    r_hyp = gauss_bonnet_residual(hyp, disk)

    dt = gallery.hyperbolic_deformed(2.0)
    gdisk = RegionSpec.geodesic_disk(dt, [1.2, 0.3], 0.5, n_rays=160, n_radial=12)
    r_dt = gauss_bonnet_residual(dt, gdisk)

    hol_gap = abs(np.exp(1j * boundary_holonomy_angle(sphere, cap))
                  - np.exp(1j * cap.curvature_integral(sphere)))
    hol_gap_dt = abs(np.exp(1j * boundary_holonomy_angle(dt, gdisk))
                     - np.exp(1j * gdisk.curvature_integral(dt)))

    ok = r_cap < 1e-4 and r_hyp < 1e-4 and r_dt < 1e-3 and \
        hol_gap < 1e-3 and hol_gap_dt < 1e-3
    _line("7", ok, f"cap {r_cap:.2e}, hyperbolic disk {r_hyp:.2e}, "
          f"torsion disk {r_dt:.2e}, holonomy gaps {hol_gap:.2e}/{hol_gap_dt:.2e}")
    assert r_cap < 1e-4
    assert r_hyp < 1e-4
    assert r_dt < 1e-3
    assert hol_gap < 1e-3
    assert hol_gap_dt < 1e-3


def test_criterion_8_bump_construction():
    sol = solve_prop_edo(0.0, 1.0, step=1e-4)
    e_s0 = abs(sol.s0 - 2.0 * np.arctan(4.0))
    e_s1 = abs(sol.s1 - (np.pi - np.arctan(0.25)))
    e_m = abs(max(np.max(np.abs(sol.y)), 0.0) - np.sqrt(17.0))
    caps_ok = all(solve_prop_edo(0.0, eps, step=1e-4).s1 <= np.pi / np.sqrt(eps) + 1e-9
                  for eps in (0.25, 1.0, 4.0))

    bump = construct_edo7(0.0, 1.0, 1.0, step=1e-3)
    weak = weak_inequality_residual(bump, 0.0, n_tests=50)
    lo, hi = bump.support
    m1 = bump.m1_prime
    support_ok = lo >= -1.0 - m1 - 1e-9 and hi <= 1.0 + m1 + 1e-9
    floor_ok = bool(np.min(bump(np.linspace(-1.0, 1.0, 801))) >= 1.0 - 1e-9)
    lip_ok = bump.lipschitz <= m1 + 1e-9

    ok = (e_s0 < 1e-6 and e_s1 < 1e-6 and e_m < 1e-6 and caps_ok
          and weak >= -1e-6 and support_ok and floor_ok and lip_ok)
    _line("8", ok, f"s0/s1/max errors {e_s0:.2e}/{e_s1:.2e}/{e_m:.2e}, "
          f"weak residual {weak:.2e}, support/floor/Lipschitz "
          f"{support_ok}/{floor_ok}/{lip_ok}")
    assert e_s0 < 1e-6 and e_s1 < 1e-6 and e_m < 1e-6
    assert caps_ok
    assert weak >= -1e-6
    assert support_ok and floor_ok and lip_ok


def test_criterion_9_clifford_torus():
    data = gallery.build_example("clifford_torus").data
    worst_k = worst_det = worst_gauss = 0.0
    for u in np.linspace(-3.0, 3.0, 7):
        for v in np.linspace(-3.0, 3.0, 7):
            fd = data.fundamental(np.array([u, v]))
            det_b = float(np.linalg.det(fd.shape_operator))
            worst_k = max(worst_k, abs(fd.k_intrinsic))
            worst_det = max(worst_det, abs(det_b + 1.0))
            worst_gauss = max(worst_gauss, abs(det_b - fd.k_extrinsic))
    ok = worst_k < 1e-8 and worst_det < 1e-8 and worst_gauss < 1e-8
    _line("9", ok, f"|K_I| {worst_k:.2e}, |det B + 1| {worst_det:.2e}, "
          f"Gauss residual {worst_gauss:.2e}")
    assert worst_k < 1e-8
    assert worst_det < 1e-8
    assert worst_gauss < 1e-8


def test_criterion_10_virtual_third_form():
    sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)
    worst_k = worst_tau = worst_det = worst_sys = 0.0
    for seed in range(20):
        h = gallery.random_monge_ampere_field(sigma, seed=seed)

        def tau(q, h=h):
            return gallery.dnabla_h(sigma, h, q) / np.sqrt(
                np.linalg.det(sigma.matrix(q)))

        _, rep = gallery.virtual_third_form(sigma, h, lambda q: 1.0, tau)
        worst_k = max(worst_k, rep["ktilde_identity_residual"])
        worst_tau = max(worst_tau, rep["torsion_identity_residual"])
        worst_det = max(worst_det, rep["det_residual"])
        worst_sys = max(worst_sys, rep["dnabla_residual"])
    ok = worst_k < 1e-8 and worst_tau < 1e-8
    _line("10", ok, f"K~ identity {worst_k:.2e}, torsion identity {worst_tau:.2e}; "
          f"det residual {worst_det:.2e}, system residual {worst_sys:.2e} (reported)")
    assert worst_k < 1e-8
    assert worst_tau < 1e-8

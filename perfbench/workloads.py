"""The benchmark's three workloads: fixed, seeded sets of verification
operations, each with its expected outcome and independent closed-form
spot checks.

An operation is a callable that builds its example afresh (as one CLI call
does), runs the verification, and returns normally only when the outcome is
the expected one.  It raises ``Mismatch`` when the outcome differs; any other
exception is a program failure.  Both count as failed operations.

Every library call goes through a module attribute (``curves.integrate_geodesic``
rather than a name imported into this file), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from efimov_lab import asymptotics, cli, connection, curves, gallery, immersion

class Mismatch(Exception):
    """An operation's outcome differs from the expected one."""


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


def close(value, target, tol, what):
    expect(abs(value - target) <= tol, f"{what}: {value!r} vs closed form {target!r} (tol {tol})")


def run_cli(expected_code, *argv):
    """Run one CLI call in-process, require its exit status, return its JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv] + ["--json"])
    expect(code == expected_code, f"efimov-lab {' '.join(map(str, argv))}: exit {code}, "
           f"expected {expected_code}")
    return json.loads(out.getvalue())


def _pair(x):
    return f"{float(x[0])!r},{float(x[1])!r}"


def _unit_vector(rng):
    a = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.cos(a), np.sin(a)])


# ---------------------------------------------------------------------------
# immersed-surface: immersion mode only


def _saddle_gauss_map(q):
    """Unit normal of z = uv and its derivative along the chart axes."""
    u, v = q
    n = np.array([-v, -u, 1.0])
    r = np.linalg.norm(n)
    big_n = n / r
    dn = np.array([[0.0, -1.0], [-1.0, 0.0], [0.0, 0.0]])  # dn/du, dn/dv as columns
    d_big_n = (dn - np.outer(big_n, big_n @ dn)) / r
    return big_n, d_big_n


def _geodesic_transport(name, params, start, direction, length, step, w0):
    """What ``efimov-lab transport`` runs: a geodesic, then parallel transport."""
    data = gallery.build_example(name, **params).data
    v0 = data.unit(start, direction)
    trace = curves.integrate_geodesic(data, start, v0, length, step)
    expect(not trace.left_patch, f"{name} geodesic left the patch")
    w1 = curves.parallel_transport(data, trace, w0)
    return data, v0, trace, w1


def _op_saddle(start, direction, w0, length, step):
    def op():
        _, v0, tr, w1 = _geodesic_transport("saddle", {}, start, direction, length, step, w0)
        # D~ is the Levi-Civita connection of III, the pull-back of the round
        # metric by the Gauss map: geodesics map to unit-speed great circles
        # and transported vectors keep their components along the circle.
        n0, dn0 = _saddle_gauss_map(start)
        n1, dn1 = _saddle_gauss_map(tr.points[-1])
        t0 = dn0 @ v0
        binormal = np.cross(n0, t0)
        c, s = math.cos(tr.total_length), math.sin(tr.total_length)
        t1 = -s * n0 + c * t0
        expect(np.linalg.norm(n1 - (c * n0 + s * t0)) < 1e-6, "saddle Gauss image off its great circle")
        expect(np.linalg.norm(dn1 @ tr.velocities[-1] - t1) < 1e-6, "saddle Gauss image speed")
        w_img = dn0 @ w0
        w_ref = (w_img @ t0) * t1 + (w_img @ binormal) * binormal
        expect(np.linalg.norm(dn1 @ w1 - w_ref) < 1e-6, "saddle transport off the round-sphere closed form")
    return op


def _op_slice(lam, start, direction, w0, length, step):
    def op():
        _, v0, tr, w1 = _geodesic_transport("hyperbolic_slice", {"lambda": lam}, start,
                                            direction, length, step, w0)
        # B = lam diag(1, -1) is constant, so x'' = 0 along geodesics and
        # III = lam^2 (cosh^2 y dx^2 + dy^2).
        close(tr.velocities[-1][0], v0[0], 1e-7, "slice geodesic x'")
        close(tr.points[-1][0], start[0] + v0[0] * tr.total_length, 1e-7, "slice geodesic x")

        def iii_norm2(p, w):
            return lam * lam * (math.cosh(p[1]) ** 2 * w[0] ** 2 + w[1] ** 2)

        close(iii_norm2(tr.points[-1], tr.velocities[-1]), 1.0, 1e-8, "slice unit speed in III")
        close(iii_norm2(tr.points[-1], w1), iii_norm2(start, w0), 1e-8, "slice transported norm")
    return op


def _op_torus(start, direction, w0, length, step):
    def op():
        _, v0, tr, w1 = _geodesic_transport("clifford_torus", {}, start, direction,
                                            length, step, w0)
        # III = I = (du^2 + dv^2) / 2 and no torsion: straight lines, constant transport.
        expect(np.linalg.norm(tr.points[-1] - (start + tr.total_length * v0)) < 1e-7,
               "torus geodesic is not a straight line")
        expect(np.linalg.norm(w1 - w0) < 1e-7, "torus transport changed the vector")
        close(0.5 * float(v0 @ v0), 1.0, 1e-12, "torus unit speed")
    return op


def _op_asymptotic(workdir, which, start, length, step):
    def op():
        csv = os.path.join(workdir, f"asymptotic_{which}.csv")
        rep = run_cli(0, "asymptotic", "--example", "saddle", "--which", which,
                      f"--start={_pair(start)}", "--length", length, "--step", step, "--csv", csv)
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        # asymptotic curves of z = uv are its rulings, the coordinate lines
        drift = np.max(np.abs(rows[:, 1:3] - start), axis=0)
        expect(min(drift) < 1e-9, f"saddle {which}-curve left its ruling by {drift}")
        close(rows[-1, 0], length, 1e-9, f"saddle {which}-curve length")
        expect(rep["quasi_defect"] >= 0.0, "negative quasi-geodesic defect")
    return op


def _op_net(start):
    def op():
        rep = run_cli(0, "net-check", "--example", "saddle", f"--start={_pair(start)}",
                      "--lu", 0.06, "--lv", 0.06, "--nu", 2, "--nv", 2)
        # Euclidean ambient: K_m = K_M, so the closed-form torsion bound is 0
        expect(rep["tau0"] < 1e-6, f"tau0 {rep['tau0']} in a space form")
        close(rep["bound"], 2.0 * rep["tau1"], 1e-6, "net bound reduces to 2 tau1")
    return op


def _op_pointwise(lam, points):
    def op():
        case = gallery.build_example("hyperbolic_slice", **{"lambda": lam})
        data, patch, amb = case.data, case.patch, case.metric
        for q in points:
            r_vu, r_uv = asymptotics.covariant_rate_check(data, q)
            expect(max(r_vu, r_uv) < 1e-6, f"covariant rates {r_vu}, {r_uv} at {q}")
            expect(immersion.codazzi_residual(patch, amb, q, (1.0, 0.0), (0.0, 1.0)) < 1e-6,
                   f"Codazzi at {q}")
            expect(connection.dual_codazzi_residual(data, q) < 1e-6, f"dual Codazzi at {q}")
            expect(connection.metric_compatibility_residual(
                data, q, (1.0, 0.3), (0.2, 1.0), (1.0, -1.0)) < 1e-6,
                f"metric compatibility at {q}")
            expect(immersion.gauss_residual(patch, amb, q) < 1e-6, f"Gauss at {q}")
            fd = data.fundamental(q)
            close(fd.k_intrinsic, -1.0, 1e-6, "slice K_I")
            close(float(np.linalg.det(fd.shape_operator)), -lam * lam, 1e-8, "slice det B")
            close(data.curvature(q), 1.0 / (lam * lam), 1e-6, "slice K~")
    return op


def immersed_surface(rng, workdir):
    lam = float(rng.uniform(0.6, 1.4))
    length, step = 0.15, 0.01
    ops = [
        ("transport-saddle", _op_saddle(rng.uniform(-0.25, 0.25, 2), _unit_vector(rng),
                                        rng.uniform(-1, 1, 2), length, step)),
        ("transport-slice", _op_slice(lam, rng.uniform(-0.3, 0.3, 2), _unit_vector(rng),
                                      rng.uniform(-1, 1, 2), length, step)),
        ("transport-torus", _op_torus(rng.uniform(-1, 1, 2), _unit_vector(rng),
                                      rng.uniform(-1, 1, 2), length, step)),
    ]
    for which in ("U", "V"):
        ops.append((f"asymptotic-{which}",
                    _op_asymptotic(workdir, which, rng.uniform(-0.2, 0.2, 2), 0.1, 0.01)))
    ops.append(("net-check", _op_net(rng.uniform(-0.1, 0.1, 2))))
    ops.append(("pointwise-slice", _op_pointwise(lam, [rng.uniform(-0.4, 0.4, 2)
                                                       for _ in range(4)])))
    examples = [("saddle", {}), ("hyperbolic_slice", {"lambda": lam}), ("clifford_torus", {})]
    return ops, lambda: [gallery.build_example(n, **p) for n, p in examples]


# ---------------------------------------------------------------------------
# abstract-connection: torsion and operator modes only


def _write_json(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _op_jacobi_sphere(start, direction, length, step):
    def op():
        rep = run_cli(0, "jacobi", "--example", "abstract_sphere", f"--start={_pair(start)}",
                      f"--dir={_pair(direction)}", "--length", length, "--step", step,
                      "--init", "0,0,0,1")
        # K~ = 1 and no torsion: y = sin t, x = 0
        final = rep["final"]
        close(final["y"], math.sin(length), 1e-6, "sphere Jacobi y")
        close(final["yp"], math.cos(length), 1e-6, "sphere Jacobi y'")
        close(final["x"], 0.0, 1e-12, "sphere Jacobi x")
    return op


def _op_jacobi_deformed(t, start, direction, length, step):
    def op():
        run_cli(0, "jacobi", "--example", "hyperbolic_deformed", "--param", f"t={t!r}",
                f"--start={_pair(start)}", f"--dir={_pair(direction)}", "--length", length,
                "--step", step, "--init", "0,0,0,1")
        data = gallery.build_example("hyperbolic_deformed", t=t).data
        close(data.curvature(start), t * math.tanh(start[0]) - 1.0, 1e-5,
              "deformed K~ = t tanh r - 1")
    return op


def _op_gb_cap(workdir, center, radius):
    def op():
        spec = {"kind": "coordinate_disk", "center": list(center), "radius": radius,
                "n_boundary": 101, "n_radial": 8, "n_angular": 16}
        rep = run_cli(0, "gauss-bonnet", "--example", "abstract_sphere", "--region",
                      _write_json(workdir, "cap.json", spec), "--tolerance", 1e-6)
        # stereographic chart: the disk is a spherical cap; its diameter runs
        # between polar angles 2 atan(|c| - r) and 2 atan(|c| + r)
        c = float(np.linalg.norm(center))
        alpha = math.atan(c + radius) - math.atan(c - radius)
        area = 2.0 * math.pi * (1.0 - math.cos(alpha))
        expect(abs(np.exp(1j * rep["holonomy_angle"]) - np.exp(1j * area)) < 1e-4,
               f"cap holonomy {rep['holonomy_angle']} vs area {area}")
    return op


def _op_gb_geodesic_disk(workdir, t, center):
    def op():
        spec = {"kind": "geodesic_disk", "center": list(center), "radius": 0.4,
                "n_rays": 32, "n_radial": 6}
        run_cli(0, "gauss-bonnet", "--example", "hyperbolic_deformed", "--param", f"t={t!r}",
                "--region", _write_json(workdir, "gdisk.json", spec), "--tolerance", 3e-3)
    return op


def _latitude_trace(psi):
    """Unit-speed latitude circle at colatitude psi of the stereographic sphere."""
    rho = math.tan(psi / 2.0)
    lam = 2.0 / (1.0 + rho * rho)
    total = 2 * math.pi * rho * lam

    def path(s):
        a = s / (rho * lam)
        return rho * np.array([math.cos(a), math.sin(a)])

    def velocity(s):
        a = s / (rho * lam)
        return np.array([-math.sin(a), math.cos(a)]) / lam

    def acceleration(s):
        a = s / (rho * lam)
        return -np.array([math.cos(a), math.sin(a)]) / (rho * lam * lam)

    return curves.CurveTrace.from_path(path, (0.0, total), 1e-2, velocity=velocity,
                                       acceleration=acceleration, closed=True,
                                       arclength=total)


def _op_deformation(psi, amp, frac):
    def op():
        data = gallery.abstract_sphere()
        tr = _latitude_trace(psi)
        resid = curves.deformation_rate_check(data, tr, lambda s: 1.0 + amp * math.sin(s),
                                              frac * tr.total_length)
        expect(resid < 1e-4, f"deformation rate residual {resid}")
    return op


def _monge_ampere(seed):
    sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)
    return sigma, gallery.random_monge_ampere_field(sigma, seed=seed)


def _op_monge_ampere(seed):
    def op():
        sigma, h = _monge_ampere(seed)

        def tau(q):
            return gallery.dnabla_h(sigma, h, q) / np.sqrt(np.linalg.det(sigma.matrix(q)))

        _, rep = gallery.virtual_third_form(sigma, h, lambda q: 1.0, tau)
        # K~ = -K_sigma / b and ||tau~|| = ||tau|| / b hold for any H; det H = -1
        # and d^sigma H = tau (x) area hold by construction
        expect(rep["ktilde_identity_residual"] < 1e-8, "K~ identity")
        expect(rep["torsion_identity_residual"] < 1e-8, "torsion identity")
        expect(rep["det_residual"] < 1e-12, "det H = -b")
        expect(rep["dnabla_residual"] < 1e-10, "d^sigma H = tau (x) area")
    return op


def abstract_connection(rng, workdir):
    t = float(rng.uniform(0.5, 2.5))
    r0 = rng.uniform(0.2, 0.5)  # the length-1.2 geodesic stays inside the chart box
    a0 = rng.uniform(0.0, 2.0 * np.pi)
    ma_seed = int(rng.integers(0, 2 ** 31))
    ops = [
        ("jacobi-sphere", _op_jacobi_sphere(r0 * np.array([np.cos(a0), np.sin(a0)]),
                                            _unit_vector(rng), 1.2, 0.02)),
        ("jacobi-deformed", _op_jacobi_deformed(
            t, np.array([rng.uniform(1.0, 1.6), rng.uniform(-0.5, 0.5)]),
            _unit_vector(rng), 0.5, 0.02)),
        ("gauss-bonnet-cap", _op_gb_cap(workdir, rng.uniform(-0.2, 0.2, 2),
                                        float(rng.uniform(0.4, 0.7)))),
        ("gauss-bonnet-geodesic-disk", _op_gb_geodesic_disk(
            workdir, t, [rng.uniform(1.1, 1.4), rng.uniform(-0.3, 0.3)])),
        ("deformation-rate", _op_deformation(rng.uniform(0.8, 1.4), rng.uniform(0.0, 0.3),
                                             rng.uniform(0.2, 0.8))),
        ("virtual-third-form", _op_monge_ampere(ma_seed)),
    ]

    def build():
        return [gallery.abstract_sphere(), gallery.build_example("hyperbolic_deformed", t=t),
                _monge_ampere(ma_seed)]

    return ops, build


# ---------------------------------------------------------------------------
# closed-form-sweep: ambient grids, expressions, scalar ODEs


def _op_verify(name, params, code):
    def op():
        argv = ["example", "verify", name]
        for k, v in params.items():
            argv += ["--param", f"{k}={v!r}"]
        rep = run_cli(code, *argv)
        if code == 1:
            # the documented honest red: the closed-form entries are z = 0
            # facts, so the z = 0 layer passes and the slab grid fails
            checks = {c["name"]: c["pass"] for c in rep["checks"]}
            for entry in ("sectional_12", "sectional_13", "sectional_32", "mixed_1213"):
                expect(checks[entry + "_z0_slice"], f"{entry} on z = 0 failed")
                expect(not checks[entry], f"{entry} passed on the slab grid")
    return op


def _op_curvature_builtin(metric):
    k = 1.0 if metric == "sphere3" else -1.0

    def op():
        rep = run_cli(0, "curvature-report", "--metric", metric, "--grid", "4x4x3")
        close(rep["sectional_min"], k, 1e-6, f"{metric} K_min")
        close(rep["sectional_max"], k, 1e-6, f"{metric} K_max")
    return op


def _op_curvature_file(workdir, c):
    def op():
        path = os.path.join(workdir, "metric.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"box = -1 1 -1 1 -0.5 0.5\ng11 = exp(2*{c!r}*w)\n"
                     f"g22 = exp(2*{c!r}*w)\ng33 = 1\n")
        rep = run_cli(0, "curvature-report", "--metric", path, "--grid", "9x9x5")
        # dw^2 + e^{2cw}(du^2 + dv^2) has constant curvature -c^2
        close(rep["sectional_min"], -c * c, 1e-5, "file metric K_min")
        close(rep["sectional_max"], -c * c, 1e-5, "file metric K_max")
    return op


def _op_hypothesis(lam_b, triples):
    def op():
        rep = run_cli(0, "check-hypothesis", "--k1=-1", "--k2=0", "--k3=0")
        expect(rep["excluded"] is True, "Efimov triple (-1, 0, 0) not excluded")
        k2, k3 = lam_b * lam_b - 1.0 - 2.0 * lam_b, lam_b * lam_b - 1.0 + 2.0 * lam_b
        rep = run_cli(0, "check-hypothesis", "--k1=-1", f"--k2={k2!r}", f"--k3={k3!r}")
        expect(rep["excluded"] is False, "boundary-family triple excluded")
        close(rep["lhs"], 16.0 * lam_b ** 2, 1e-9 * lam_b ** 2, "boundary lhs")
        close(rep["rhs"], 16.0 * lam_b ** 2 - 32.0 * lam_b, 1e-9 * lam_b ** 2, "boundary rhs")
        for k1, k2, k3 in triples:
            rep = run_cli(0, "check-hypothesis", f"--k1={k1!r}", f"--k2={k2!r}", f"--k3={k3!r}")
            rhs = 16.0 * (abs(k1) if k3 >= 0 else k3 - k1) * (k2 - k1)
            expect(rep["excluded"] == ((k3 - k2) ** 2 < rhs),
                   f"verdict for {(k1, k2, k3)}")
    return op


def _op_tau0(pinchings):
    def op():
        for k1, q1, q2 in pinchings:
            closed = connection.torsion_bound_tau0(min(q1, q2), max(q1, q2), k1)
            brute = connection.torsion_bound_bruteforce(q1, q2, k1, grid_size=10000)
            close(closed, brute, 1e-6, f"tau0 at {(k1, q1, q2)}")
    return op


def _edo_step(eps, n):
    """A step giving n RK4 steps per pi/sqrt(eps), so the work does not depend on eps."""
    return math.pi / math.sqrt(eps) / n


def _op_edo(eps):
    def op():
        rep = run_cli(0, "edo", "--u", "0", "--eps", eps, "--step", _edo_step(eps, 2500))
        # u = 0: y = cos(x) + a sin(x), x = sqrt(eps) s, a = 4 / sqrt(eps)
        r = math.sqrt(eps)
        close(rep["s0"], 2.0 * math.atan(4.0 / r) / r, 1e-6, "edo s0")
        close(rep["s1"], (math.pi - math.atan(r / 4.0)) / r, 1e-6, "edo s1")
        close(rep["M0"], max(math.sqrt(1.0 + 16.0 / eps), 4.0), 1e-5, "edo M0")
        expect(rep["s1"] <= math.pi / r, "edo s1 > pi / sqrt(eps)")
    return op


def _op_edo_profile(eps, amp):
    def op():
        rep = run_cli(0, "edo", "--u", f"{amp!r}*sin(s)", "--eps", eps,
                      "--step", _edo_step(eps, 2500))
        # Sturm comparison with y'' = -eps y bounds the first zero
        expect(rep["s0"] <= rep["s1"] <= math.pi / math.sqrt(eps) + 1e-9,
               f"edo s0 {rep['s0']}, s1 {rep['s1']} vs pi / sqrt(eps)")
    return op


def _op_edo7(eps, frac):
    # n1 = (2 + frac) s0 / 2 with the closed-form s0 of u = 0: always three bumps
    r = math.sqrt(eps)
    n1 = (2.0 + frac) * math.atan(4.0 / r) / r

    def op():
        rep = run_cli(0, "edo7", "--u", "0", "--eps", eps, "--n1", n1,
                      "--step", _edo_step(eps, 1000))
        # u = 0: the left closing segment is cos(sqrt(eps) (x + n1))
        close(rep["support"][0], -n1 - math.pi / (2.0 * math.sqrt(eps)), 1e-6, "edo7 support")
    return op


def closed_form_sweep(rng, workdir):
    lams = [0.0, float(rng.uniform(0.5, 1.5)), float(rng.uniform(1.5, 3.0))]
    triples = []
    for _ in range(6):
        k1, d2, d3 = -rng.uniform(0.2, 3.0), rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0)
        triples.append((float(k1), float(k1 + d2), float(k1 + d2 + d3)))
    pinchings = []
    for _ in range(20):
        k1 = -rng.uniform(0.2, 3.0)
        pinchings.append((k1, k1 + rng.uniform(0.05, 2.5), k1 + rng.uniform(0.05, 2.5)))
    eps = float(rng.uniform(0.5, 2.0))
    ops = [(f"verify-{n}", _op_verify(n, {}, 0)) for n in ("euclidean3", "sphere3", "hyperbolic3")]
    ops += [(f"verify-g_lambda-{i}", _op_verify("g_lambda", {"lambda": lam}, 1 if lam > 0 else 0))
            for i, lam in enumerate(lams)]
    ops += [
        ("curvature-report-builtin", _op_curvature_builtin(
            "sphere3" if rng.random() < 0.5 else "hyperbolic3")),
        ("curvature-report-file", _op_curvature_file(workdir, float(rng.uniform(0.5, 1.5)))),
        ("check-hypothesis", _op_hypothesis(float(rng.uniform(1.0, 5.0)), triples)),
        ("tau0-oracle", _op_tau0(pinchings)),
        ("edo", _op_edo(eps)),
        ("edo-profile", _op_edo_profile(eps, float(rng.uniform(0.0, 0.5)))),
        ("edo7", _op_edo7(eps, float(rng.uniform(0.2, 0.8)))),
    ]

    def build():
        return ([gallery.build_example(n) for n in ("euclidean3", "sphere3", "hyperbolic3")]
                + [gallery.build_example("g_lambda", **{"lambda": lam}) for lam in lams])

    return ops, build


def make(name, seed, workdir):
    """(ops, build) for a workload: the seeded operation list and a callable
    that builds the workload's examples (what set-up time measures)."""
    rng = np.random.default_rng(seed)
    maker = {"immersed-surface": immersed_surface,
             "abstract-connection": abstract_connection,
             "closed-form-sweep": closed_form_sweep}[name]
    return maker(rng, workdir)

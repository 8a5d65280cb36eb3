"""Ready-made metrics, surface patches, and connections with closed-form
reference data, plus the virtual-third-form construction for hyperbolic
Monge-Ampere systems.

Every builder returns objects wired with analytic partials where the
reference numbers are sharpest, so verification compares the full numerical
pipeline against closed forms rather than against itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _fd
from .ambient import (
    ChartBox,
    MetricField,
    dnabla,
    riemann_covariant,
    riemann_sectional,
    sectional_range,
)
from .connection import SurfaceConnectionData, christoffel, orthonormal_frame
from .errors import ParameterOutOfRange, WrongSignDeterminant
from .immersion import SurfacePatch

__all__ = [
    "ExampleCase",
    "build_example",
    "verify_example",
    "virtual_third_form",
    "random_monge_ampere_field",
    "builtin_names",
    "euclidean3",
    "sphere3",
    "hyperbolic3",
    "g_lambda",
    "hyperbolic_plane_polar",
    "hyperbolic_deformed",
    "abstract_sphere",
    "abstract_plane",
    "saddle_patch",
    "sphere2_patch",
    "plane_patch",
    "pseudosphere_patch",
    "constant_k_surface",
    "clifford_torus",
    "hyperbolic_slice",
    "geodesic_sphere_hyp3",
]


# ---------------------------------------------------------------------------
# ambient metrics


def euclidean3(half_width=10.0):
    return MetricField(
        3, lambda p: np.eye(3), ChartBox.cube(3, half_width),
        partials=lambda p: np.zeros((3, 3, 3)),
        second_partials=lambda p: np.zeros((3, 3, 3, 3)),
        name="euclidean3")


def _conformal3(sign, half_width, name):
    """g = lam(x)^2 delta with lam = 2/(1 + sign*|x|^2): the round 3-sphere
    (sign=+1) or hyperbolic 3-space (sign=-1) in a conformal chart."""

    def lam(p):
        return 2.0 / (1.0 + sign * float(p @ p))

    def matrix(p):
        return lam(p) ** 2 * np.eye(3)

    def partials(p):
        l = lam(p)
        dl = -sign * l * l * p
        out = np.zeros((3, 3, 3))
        for k in range(3):
            out[k] = 2.0 * l * dl[k] * np.eye(3)
        return out

    def second_partials(p):
        l = lam(p)
        out = np.zeros((3, 3, 3, 3))
        for k in range(3):
            for m in range(3):
                coeff = 6.0 * l ** 4 * p[k] * p[m] - sign * 2.0 * l ** 3 * (1 if k == m else 0)
                out[k, m] = coeff * np.eye(3)
        return out

    return MetricField(3, matrix, ChartBox.cube(3, half_width), partials=partials,
                       second_partials=second_partials, name=name)


def sphere3(half_width=1.5):
    """Round unit 3-sphere, stereographic chart (curvature +1)."""
    return _conformal3(+1.0, half_width, "sphere3")


def hyperbolic3(half_width=0.5):
    """Hyperbolic 3-space, conformal ball chart (curvature -1)."""
    return _conformal3(-1.0, half_width, "hyperbolic3")


def g_lambda(lam, xy_half=2.0, z_half=None, analytic=True, fd_step=1e-3):
    """The pinched slab metric

        (1 + 2 lam z) cosh^2(y) cosh^2(z) dx^2
        + (1 - 2 lam z) cosh^2(z) dy^2 + dz^2

    on |z| <= min(0.2, 1/(4 lam)); hyperbolic for lam = 0.  With
    ``analytic=True`` it carries closed-form first partials (second
    derivatives fall back to finite differences of those); with
    ``analytic=False`` the whole derivative stack is pure central
    differences, which is what the sharpest verification exercises.
    """
    if lam < 0:
        raise ParameterOutOfRange(f"lambda must be >= 0, got {lam}")
    if z_half is None:
        z_half = min(0.2, 1.0 / (4.0 * lam)) if lam > 0 else 0.2
    elif lam > 0 and 2.0 * lam * z_half >= 1.0:
        raise ParameterOutOfRange(
            f"z-box {z_half} too wide: 1 - 2*lambda*z vanishes inside it")

    def matrix(p):
        x, y, z = p
        return np.diag([
            (1.0 + 2.0 * lam * z) * np.cosh(y) ** 2 * np.cosh(z) ** 2,
            (1.0 - 2.0 * lam * z) * np.cosh(z) ** 2,
            1.0,
        ])

    def partials(p):
        x, y, z = p
        cy, sy = np.cosh(y), np.sinh(y)
        cz, sz = np.cosh(z), np.sinh(z)
        d = np.zeros((3, 3, 3))
        d[1, 0, 0] = (1.0 + 2.0 * lam * z) * 2.0 * cy * sy * cz * cz
        d[2, 0, 0] = 2.0 * lam * cy * cy * cz * cz \
            + (1.0 + 2.0 * lam * z) * cy * cy * 2.0 * cz * sz
        d[2, 1, 1] = -2.0 * lam * cz * cz + (1.0 - 2.0 * lam * z) * 2.0 * cz * sz
        return d

    box = ChartBox((-xy_half, -xy_half, -z_half), (xy_half, xy_half, z_half))
    return MetricField(3, matrix, box, partials=partials if analytic else None,
                       fd_step=fd_step, name=f"g_lambda({lam})")


def g_lambda_reference_entries(lam):
    """The six closed-form curvature entries of the slab metric in the
    orthonormal frame along the coordinate axes, as functions of the point.

    The first three are the sectional curvatures of the coordinate planes;
    the last three are the mixed entries Rm(e1,e2,e1,e3), Rm(e2,e1,e2,e3),
    Rm(e3,e1,e3,e2).  These closed forms are exact on the z = 0 slice.
    """
    return [
        ("sectional_12", lambda p: lam ** 2 - 1.0),
        ("sectional_13", lambda p: lam ** 2 - 1.0),
        ("sectional_32", lambda p: lam ** 2 - 1.0),
        ("mixed_1213", lambda p: 2.0 * lam * np.tanh(p[1])),
        ("mixed_2123", lambda p: 0.0),
        ("mixed_3132", lambda p: 0.0),
    ]


def measured_g_lambda_entries(metric, p):
    """The same six entries measured through the curvature pipeline."""
    g = metric.matrix(p)
    rm = riemann_covariant(metric, p)
    e = [np.zeros(3) for _ in range(3)]
    for i in range(3):
        e[i][i] = 1.0 / np.sqrt(g[i, i])

    def rm_e(a, b, c, d):
        return float(np.einsum("ijkl,i,j,k,l->", rm, e[a], e[b], e[c], e[d]))

    def sec(a, b):
        return rm_e(a, b, b, a)  # orthonormal pair, so the Gram factor is 1

    return [sec(0, 1), sec(0, 2), sec(2, 1),
            rm_e(0, 1, 0, 2), rm_e(1, 0, 1, 2), rm_e(2, 0, 2, 1)]


# ---------------------------------------------------------------------------
# 2D metrics and abstract connections


def hyperbolic_plane_polar(r_min=1e-3, r_max=4.0, theta_half=8.0):
    """dr^2 + sinh^2(r) dtheta^2; curvature -1, polar coordinate chart."""

    def matrix(q):
        return np.diag([1.0, np.sinh(q[0]) ** 2])

    def partials(q):
        d = np.zeros((2, 2, 2))
        d[0, 1, 1] = 2.0 * np.sinh(q[0]) * np.cosh(q[0])
        return d

    def second_partials(q):
        d = np.zeros((2, 2, 2, 2))
        d[0, 0, 1, 1] = 2.0 * np.cosh(2.0 * q[0])
        return d

    return MetricField(2, matrix, ChartBox((r_min, -theta_half), (r_max, theta_half)),
                       partials=partials, second_partials=second_partials,
                       name="hyperbolic_polar")


def abstract_sphere(half_width=2.5):
    """Round 2-sphere in a stereographic chart with zero torsion."""

    def matrix(q):
        l = 2.0 / (1.0 + float(q @ q))
        return l * l * np.eye(2)

    def partials(q):
        l = 2.0 / (1.0 + float(q @ q))
        dl = -l * l * q
        out = np.zeros((2, 2, 2))
        for k in range(2):
            out[k] = 2.0 * l * dl[k] * np.eye(2)
        return out

    m = MetricField(2, matrix, ChartBox.cube(2, half_width), partials=partials,
                    name="sphere2_abstract")
    return SurfaceConnectionData.from_metric_and_torsion(m, lambda q: np.zeros(2),
                                                         name="sphere2_abstract")


def abstract_plane(half_width=6.0):
    m = MetricField(2, lambda q: np.eye(2), ChartBox.cube(2, half_width),
                    partials=lambda q: np.zeros((2, 2, 2)),
                    second_partials=lambda q: np.zeros((2, 2, 2, 2)),
                    name="plane2_abstract")
    return SurfaceConnectionData.from_metric_and_torsion(m, lambda q: np.zeros(2),
                                                         name="plane2_abstract")


def _gudermannian(r):
    return np.arcsin(np.tanh(r))


def hyperbolic_deformed(t, r_min=0.05, r_max=4.0, theta_half=8.0, profile="tanh"):
    """The hyperbolic plane with a rotationally invariant torsion field of
    exact norm t.

    profile="tanh" picks the torsion direction so the measured connection
    curvature is exactly ``t*tanh(r) - 1``; profile="angular" keeps the
    torsion purely angular (norm still t), which yields ``t*coth(r) - 1``.
    Both closed forms are attached as reference evaluators, and verification
    reports how each matches the measured curvature.
    """
    if t < 0:
        raise ParameterOutOfRange(f"t must be >= 0, got {t}")
    if profile not in ("tanh", "angular"):
        raise ParameterOutOfRange(f"unknown profile {profile!r}")
    metric = hyperbolic_plane_polar(r_min=r_min, r_max=r_max, theta_half=theta_half)

    if profile == "angular":
        def tau(q):
            return np.array([0.0, t / np.sinh(q[0])])
    else:
        def tau(q):
            r = q[0]
            sh = np.sinh(r)
            qr = (sh - _gudermannian(r)) / sh
            b = t * np.sqrt(max(0.0, 1.0 - qr * qr))
            return np.array([-b, t * qr / sh])

    data = SurfaceConnectionData.from_metric_and_torsion(
        metric, tau, name=f"hyperbolic_deformed(t={t},{profile})")
    return data


def deformed_curvature_tanh(t):
    return lambda r: t * np.tanh(r) - 1.0


def deformed_curvature_coth(t):
    return lambda r: t / np.tanh(r) - 1.0


# ---------------------------------------------------------------------------
# surface patches


def plane_patch(half_width=2.0):
    return SurfacePatch(
        lambda q: np.array([q[0], q[1], 0.0]), ChartBox.cube(2, half_width),
        jacobian=lambda q: np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        hessian=lambda q: np.zeros((3, 2, 2)), name="plane")


def saddle_patch(half_width=1.0):
    def hess(q):
        h = np.zeros((3, 2, 2))
        h[2, 0, 1] = h[2, 1, 0] = 1.0
        return h

    return SurfacePatch(
        lambda q: np.array([q[0], q[1], q[0] * q[1]]), ChartBox.cube(2, half_width),
        jacobian=lambda q: np.array([[1.0, 0.0], [0.0, 1.0], [q[1], q[0]]]),
        hessian=hess, name="saddle")


def sphere2_patch(radius=1.0, u_range=(0.3, 2.8), v_half=3.0):
    """Round sphere of the given radius about the origin, spherical angles."""

    def smap(q):
        u, v = q
        return radius * np.array([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)])

    def sjac(q):
        u, v = q
        return radius * np.array([
            [np.cos(u) * np.cos(v), -np.sin(u) * np.sin(v)],
            [np.cos(u) * np.sin(v), np.sin(u) * np.cos(v)],
            [-np.sin(u), 0.0]])

    def shess(q):
        u, v = q
        h = np.empty((3, 2, 2))
        h[:, 0, 0] = radius * np.array([-np.sin(u) * np.cos(v), -np.sin(u) * np.sin(v), -np.cos(u)])
        h[:, 0, 1] = h[:, 1, 0] = radius * np.array([-np.cos(u) * np.sin(v), np.cos(u) * np.cos(v), 0.0])
        h[:, 1, 1] = radius * np.array([-np.sin(u) * np.cos(v), -np.sin(u) * np.sin(v), 0.0])
        return h

    return SurfacePatch(smap, ChartBox((u_range[0], -v_half), (u_range[1], v_half)),
                        jacobian=sjac, hessian=shess, name=f"sphere2(r={radius})")


def pseudosphere_patch(scale=1.0, u_range=(0.5, 2.0), v_half=1.5):
    """Tractroid scaled by ``scale``; constant curvature -1/scale^2."""
    a = scale

    def tmap(q):
        u, v = q
        se = 1.0 / np.cosh(u)
        return a * np.array([se * np.cos(v), se * np.sin(v), u - np.tanh(u)])

    def tjac(q):
        u, v = q
        se = 1.0 / np.cosh(u)
        th = np.tanh(u)
        return a * np.array([
            [-se * th * np.cos(v), -se * np.sin(v)],
            [-se * th * np.sin(v), se * np.cos(v)],
            [th * th, 0.0]])

    def thess(q):
        u, v = q
        se = 1.0 / np.cosh(u)
        th = np.tanh(u)
        dsth = -se * th * th + se * se * se  # d/du of (se*th)
        h = np.empty((3, 2, 2))
        h[:, 0, 0] = a * np.array([-dsth * np.cos(v), -dsth * np.sin(v), 2.0 * th * se * se])
        h[:, 0, 1] = h[:, 1, 0] = a * np.array([se * th * np.sin(v), -se * th * np.cos(v), 0.0])
        h[:, 1, 1] = a * np.array([-se * np.cos(v), -se * np.sin(v), 0.0])
        return h

    return SurfacePatch(tmap, ChartBox((u_range[0], -v_half), (u_range[1], v_half)),
                        jacobian=tjac, hessian=thess, name=f"pseudosphere(a={scale})")


def constant_k_surface(k):
    """A patch of constant intrinsic curvature k in Euclidean 3-space."""
    if k < 0:
        return pseudosphere_patch(scale=1.0 / math.sqrt(-k))
    if k > 0:
        return sphere2_patch(radius=1.0 / math.sqrt(k))
    return plane_patch()


def clifford_torus():
    """The square torus inside the round 3-sphere, stereographic chart,
    with fully analytic partials."""
    k = 1.0 / math.sqrt(2.0)

    def dmap(q):
        u, v = q
        d = 1.0 + k * np.sin(v)
        return np.array([k * np.cos(u) / d, k * np.sin(u) / d, k * np.cos(v) / d])

    def djac(q):
        u, v = q
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        d = 1.0 + k * sv
        dd = k * cv
        return np.array([
            [-k * su / d, -k * cu * dd / d ** 2],
            [k * cu / d, -k * su * dd / d ** 2],
            [0.0, -k * (sv + k) / d ** 2]])

    def dhess(q):
        u, v = q
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        d = 1.0 + k * sv
        dd = k * cv
        h = np.empty((3, 2, 2))
        h[:, 0, 0] = [-k * cu / d, -k * su / d, 0.0]
        h[:, 0, 1] = h[:, 1, 0] = [k * su * dd / d ** 2, -k * cu * dd / d ** 2, 0.0]
        h[0, 1, 1] = k * k * cu * (sv * d + 2.0 * k * cv * cv) / d ** 3
        h[1, 1, 1] = k * k * su * (sv * d + 2.0 * k * cv * cv) / d ** 3
        h[2, 1, 1] = k * k * cv * sv / d ** 3
        return h

    return SurfacePatch(dmap, ChartBox.cube(2, 3.2), jacobian=djac, hessian=dhess,
                        name="clifford_torus")


def hyperbolic_slice(lam, half_width=1.8):
    """The totally geodesic-looking z = 0 plane inside the slab metric; its
    induced metric is the hyperbolic plane."""
    return SurfacePatch(
        lambda q: np.array([q[0], q[1], 0.0]), ChartBox.cube(2, half_width),
        jacobian=lambda q: np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        hessian=lambda q: np.zeros((3, 2, 2)), name=f"hyperbolic_slice(lam={lam})")


def geodesic_sphere_hyp3(radius=0.3):
    """Coordinate sphere about the origin of the conformal ball chart; a
    geodesic sphere of hyperbolic 3-space."""
    base = sphere2_patch(radius=radius)

    return SurfacePatch(base._map, base.box, jacobian=base._jacobian,
                        hessian=base._hessian, name=f"geodesic_sphere_hyp3(r={radius})")


# ---------------------------------------------------------------------------
# example registry


@dataclass
class ExampleCase:
    """A built example: objects plus closed-form reference evaluators."""

    name: str
    params: dict
    kind: str                      # "metric" | "surface" | "connection"
    metric: object = None          # ambient MetricField (if any)
    patch: object = None           # SurfacePatch (if any)
    data: object = None            # SurfaceConnectionData (if any)
    references: dict = field(default_factory=dict)


_METRIC_NAMES = ("euclidean3", "sphere3", "hyperbolic3", "g_lambda")
_SURFACE_NAMES = ("saddle", "clifford_torus", "constant_k_surface", "plane",
                  "sphere2", "pseudosphere", "hyperbolic_slice", "geodesic_sphere_hyp3")
_CONNECTION_NAMES = ("hyperbolic_deformed",)


def builtin_names():
    return _METRIC_NAMES + _SURFACE_NAMES + _CONNECTION_NAMES


def build_example(name, **params):
    """Build a named example with its reference data attached.

    Raises ParameterOutOfRange for parameters outside the documented ranges.
    """
    if name == "euclidean3":
        m = euclidean3()
        return ExampleCase(name, params, "metric", metric=m,
                           references={"sectional": lambda p: 0.0})
    if name == "sphere3":
        m = sphere3()
        return ExampleCase(name, params, "metric", metric=m,
                           references={"sectional": lambda p: 1.0})
    if name == "hyperbolic3":
        m = hyperbolic3()
        return ExampleCase(name, params, "metric", metric=m,
                           references={"sectional": lambda p: -1.0})
    if name == "g_lambda":
        lam = float(params.get("lambda", params.get("lam", 1.0)))
        m = g_lambda(lam)
        refs = dict(g_lambda_reference_entries(lam))
        return ExampleCase(name, {"lambda": lam}, "metric", metric=m, references=refs)
    if name == "hyperbolic_deformed":
        t = float(params.get("t", 1.0))
        profile = params.get("profile", "tanh")
        data = hyperbolic_deformed(t, profile=profile)
        return ExampleCase(name, {"t": t, "profile": profile}, "connection", data=data,
                           references={
                               "torsion_norm": lambda q: t,
                               "curvature_tanh_form": deformed_curvature_tanh(t),
                               "curvature_coth_form": deformed_curvature_coth(t),
                           })
    if name == "saddle":
        patch = saddle_patch()
        amb = euclidean3()
        data = SurfaceConnectionData.from_immersion(patch, amb)
        return ExampleCase(name, params, "surface", metric=amb, patch=patch, data=data,
                           references={"k_intrinsic_origin": -1.0, "det_b_origin": -1.0})
    if name == "plane":
        patch = plane_patch()
        amb = euclidean3()
        return ExampleCase(name, params, "surface", metric=amb, patch=patch,
                           data=SurfaceConnectionData.from_immersion(patch, amb),
                           references={"k_intrinsic": 0.0, "det_b": 0.0})
    if name == "sphere2":
        radius = float(params.get("radius", 1.0))
        patch = sphere2_patch(radius=radius)
        amb = euclidean3()
        return ExampleCase(name, {"radius": radius}, "surface", metric=amb, patch=patch,
                           data=SurfaceConnectionData.from_immersion(patch, amb),
                           references={"k_intrinsic": 1.0 / radius ** 2})
    if name == "pseudosphere":
        patch = pseudosphere_patch()
        amb = euclidean3()
        return ExampleCase(name, params, "surface", metric=amb, patch=patch,
                           data=SurfaceConnectionData.from_immersion(patch, amb),
                           references={"k_intrinsic": -1.0})
    if name == "constant_k_surface":
        k = float(params.get("k", -1.0))
        patch = constant_k_surface(k)
        amb = euclidean3()
        return ExampleCase(name, {"k": k}, "surface", metric=amb, patch=patch,
                           data=SurfaceConnectionData.from_immersion(patch, amb),
                           references={"k_intrinsic": k})
    if name == "clifford_torus":
        patch = clifford_torus()
        # the stereographic image of the torus reaches |x| ~ 1 + sqrt(2)
        amb = sphere3(half_width=2.6)
        return ExampleCase(name, params, "surface", metric=amb, patch=patch,
                           data=SurfaceConnectionData.from_immersion(patch, amb),
                           references={"k_intrinsic": 0.0, "det_b": -1.0,
                                       "k_extrinsic": -1.0})
    if name == "hyperbolic_slice":
        lam = float(params.get("lambda", params.get("lam", 1.0)))
        patch = hyperbolic_slice(lam)
        amb = g_lambda(lam)
        return ExampleCase(name, {"lambda": lam}, "surface", metric=amb, patch=patch,
                           data=SurfaceConnectionData.from_immersion(patch, amb),
                           references={"k_intrinsic": -1.0, "det_b": -lam * lam,
                                       "ktilde": (1.0 / lam ** 2) if lam > 0 else None})
    if name == "geodesic_sphere_hyp3":
        radius = float(params.get("radius", 0.3))
        patch = geodesic_sphere_hyp3(radius=radius)
        amb = hyperbolic3()
        return ExampleCase(name, {"radius": radius}, "surface", metric=amb, patch=patch,
                           data=SurfaceConnectionData.from_immersion(patch, amb),
                           references={})
    raise ParameterOutOfRange(f"unknown example name {name!r}")


# ---------------------------------------------------------------------------
# verification


def _field(name, max_err, tol):
    """A report entry; tol=None marks an informational (ungated) field."""
    if tol is None:
        return {"name": name, "max_abs_err": float(max_err), "tolerance": None,
                "pass": True, "informational": True}
    return {"name": name, "max_abs_err": float(max_err), "tolerance": float(tol),
            "pass": bool(max_err < tol)}


def verify_example(name, params=None):
    """Run the numerical pipeline over a sample grid of the named example and
    compare against its closed-form reference fields.

    Returns ``{"example", "parameters", "fields": [{name, max_abs_err,
    tolerance, pass}, ...], "all_pass"}``.  Failing fields are report
    entries, not exceptions.
    """
    params = dict(params or {})
    case = build_example(name, **params)
    fields = []
    notes = {}

    if name == "g_lambda":
        lam = case.params["lambda"]
        # pure finite differences (h = 1e-3, one Richardson step): the
        # verification exercises the derivative-free pipeline end to end
        m = g_lambda(lam, analytic=False, fd_step=1e-3)
        z_cap = min(0.1, m.box.hi[2] - 5 * m.fd_step)
        xs = np.linspace(-1, 1, 11)
        ys = np.linspace(-1, 1, 11)
        zs = np.linspace(-z_cap, z_cap, 3)
        names = [n for n, _ in g_lambda_reference_entries(lam)]
        refs = [f for _, f in g_lambda_reference_entries(lam)]
        grid = [np.array([x, y, z]) for x in xs for y in ys for z in zs]

        def errs_at(p):
            measured = measured_g_lambda_entries(m, p)
            return [abs(measured[i] - refs[i](p)) for i in range(6)]

        all_errs = np.array([errs_at(p) for p in grid])
        z0 = np.array([abs(p[2]) < 1e-12 for p in grid])
        tol = 1e-3
        for i, nm in enumerate(names):
            fields.append(_field(nm, np.max(all_errs[:, i]), tol))
            fields.append(_field(nm + "_z0_slice", np.max(all_errs[z0, i]), tol))
        notes["z_cap"] = z_cap
        notes["slab_deviation"] = float(np.max(all_errs[~z0])) if np.any(~z0) else 0.0

    elif name in ("euclidean3", "sphere3", "hyperbolic3"):
        m = case.metric
        ref = case.references["sectional"]
        lo = np.asarray(m.box.lo) * 0.6
        hi = np.asarray(m.box.hi) * 0.6
        rng = np.random.default_rng(7)
        pts = [lo + (hi - lo) * rng.random(3) for _ in range(20)]

        def err_at(p):
            kmin, kmax = sectional_range(m, p)
            r = ref(p)
            return max(abs(kmin - r), abs(kmax - r))

        errs = [err_at(p) for p in pts]
        fields.append(_field("sectional_range", max(errs), 1e-5))

    elif name == "hyperbolic_deformed":
        t = case.params["t"]
        profile = case.params["profile"]
        data = case.data
        rs = np.linspace(0.1, 3.0, 100)
        tn_err = 0.0
        tanh_err = 0.0
        coth_err = 0.0
        k_meas = []
        for r in rs:
            q = np.array([r, 0.4])
            tau_rt = data.torsion_from_coefficients(q)
            tn_err = max(tn_err, abs(
                np.sqrt(tau_rt @ data.third_form(q) @ tau_rt) - t))
            km = data.curvature(q)
            k_meas.append(km)
            tanh_err = max(tanh_err, abs(km - case.references["curvature_tanh_form"](r)))
            coth_err = max(coth_err, abs(km - case.references["curvature_coth_form"](r)))
        tol_k = 1e-5
        fields.append(_field("torsion_norm", tn_err, 1e-8))
        # the form matching the built profile is gated; the other is reported
        # so the tanh/coth discrepancy of this example family stays visible
        fields.append(_field("curvature_tanh_form", tanh_err,
                             tol_k if profile == "tanh" else None))
        fields.append(_field("curvature_coth_form", coth_err,
                             tol_k if profile == "angular" else None))
        k_meas = np.array(k_meas)
        if t > 1:
            # torsion-vs-curvature landscape: the asymptote of K is t - 1, so
            # t^2 / K approaches t^2/(t-1); recorded for the boundary-case
            # comparison (the printed ratio 1/4 at t = 2 is its reciprocal).
            notes["sup_K"] = float(np.max(k_meas))
            notes["inf_K"] = float(np.min(k_meas))
            notes["t_sq_over_limit_K"] = float(t * t / (t - 1.0))
        notes["profile"] = case.params["profile"]

    elif name == "clifford_torus":
        data = case.data
        us = np.linspace(-3.0, 3.0, 7)
        vs = np.linspace(-3.0, 3.0, 7)
        ki = detb = ge = third = 0.0
        for u in us:
            for v in vs:
                fd = data.fundamental(np.array([u, v]))
                ki = max(ki, abs(fd.k_intrinsic))
                detb = max(detb, abs(np.linalg.det(fd.shape_operator) + 1.0))
                ge = max(ge, abs(np.linalg.det(fd.shape_operator) - fd.k_extrinsic))
                third = max(third, float(np.max(np.abs(fd.third - fd.first))))
        tol = 1e-8
        fields.append(_field("k_intrinsic", ki, tol))
        fields.append(_field("det_b_plus_1", detb, tol))
        fields.append(_field("gauss_residual", ge, tol))
        fields.append(_field("third_equals_first", third, tol))

    elif name in ("saddle", "plane", "sphere2", "pseudosphere", "constant_k_surface",
                  "hyperbolic_slice", "geodesic_sphere_hyp3"):
        data = case.data
        lo = np.asarray(case.patch.box.lo)
        hi = np.asarray(case.patch.box.hi)
        mid = 0.5 * (lo + hi)
        span = 0.25 * (hi - lo)
        rng = np.random.default_rng(11)
        pts = [mid + span * (2 * rng.random(2) - 1) for _ in range(9)]
        if "k_intrinsic" in case.references and case.references["k_intrinsic"] is not None:
            ref = case.references["k_intrinsic"]
            err = max(abs(data.fundamental(q).k_intrinsic - ref) for q in pts)
            fields.append(_field("k_intrinsic", err, 1e-6))
        gerr = max(abs(np.linalg.det(data.fundamental(q).shape_operator)
                       - data.fundamental(q).k_extrinsic) for q in pts)
        fields.append(_field("gauss_residual", gerr, 1e-4))

    else:
        raise ParameterOutOfRange(f"no verification defined for {name!r}")

    report = {
        "example": name,
        "parameters": case.params,
        "fields": fields,
        "all_pass": bool(all(f["pass"] for f in fields)),
    }
    if notes:
        report["notes"] = notes
    return report


# ---------------------------------------------------------------------------
# hyperbolic Monge-Ampere: virtual third fundamental form


def virtual_third_form(sigma_field, h_field, b_field, tau_field, sample_points=None,
                       eps0=None):
    """Treat a symmetric endomorphism field H with det H = -b < 0 as a shape
    operator: build the compatible connection for III = sigma(H., H.) and
    report how well (H, b, tau) solves the hyperbolic Monge-Ampere system

        det H = -b,     d^sigma H = tau (x) area form.

    Returns (SurfaceConnectionData, report).  The report carries the
    measured identities K~ = -K_sigma/b and ||tau~||_III = ||tau||_sigma / b
    (these hold for any H), and the system residuals |det H + b| and
    ||d^sigma H - tau (x) nu|| (these vanish only for actual solutions).
    """
    data = SurfaceConnectionData.from_operator(sigma_field, h_field, name="monge_ampere")
    if sample_points is None:
        lo = np.asarray(sigma_field.box.lo)
        hi = np.asarray(sigma_field.box.hi)
        mid = 0.5 * (lo + hi)
        span = 0.3 * (hi - lo)
        rng = np.random.default_rng(3)
        sample_points = [mid + span * (2 * rng.random(2) - 1) for _ in range(12)]

    det_resid = 0.0
    dnh_resid = 0.0
    ktilde_resid = 0.0
    torsion_resid = 0.0
    sup_tau = 0.0
    b_min, b_max = np.inf, -np.inf
    sup_k_sigma = -np.inf
    for q in sample_points:
        q = np.asarray(q, dtype=float)
        h = np.asarray(h_field(q), dtype=float)
        b = float(b_field(q))
        det = float(np.linalg.det(h))
        if det >= 0:
            raise WrongSignDeterminant(f"det H = {det:.3e} >= 0 at {q}")
        det_resid = max(det_resid, abs(det + b))
        b_min, b_max = min(b_min, b), max(b_max, b)

        sigma = sigma_field.matrix(q)
        tau = np.asarray(tau_field(q), dtype=float)
        ntau = float(np.sqrt(max(tau @ sigma @ tau, 0.0)))
        sup_tau = max(sup_tau, ntau)

        dnh = dnabla_h(sigma_field, h_field, q)
        target = np.sqrt(np.linalg.det(sigma)) * tau
        diff = dnh - target
        dnh_resid = max(dnh_resid, float(np.sqrt(diff @ sigma @ diff)))

        k_sigma = _gauss_curvature(sigma_field, q)
        sup_k_sigma = max(sup_k_sigma, k_sigma)
        ktilde_resid = max(ktilde_resid, abs(data.curvature(q) - (-k_sigma / b)))

        tau_tilde = data.torsion_from_coefficients(q)
        iii = data.third_form(q)
        nt = float(np.sqrt(max(tau_tilde @ iii @ tau_tilde, 0.0)))
        # the connection's own torsion satisfies ||tau~|| = ||d^sigma H||/... ;
        # against the supplied tau the identity is ||tau~|| = ||tau||_sigma / b
        torsion_resid = max(torsion_resid, abs(nt - ntau / b))

    report = {
        "det_residual": det_resid,
        "dnabla_residual": dnh_resid,
        "ktilde_identity_residual": ktilde_resid,
        "torsion_identity_residual": torsion_resid,
        "sup_tau": sup_tau,
        "b_range": (float(b_min), float(b_max)),
    }
    if eps0 is None and sup_k_sigma < 0:
        eps0 = -sup_k_sigma
    if eps0 is not None:
        report["eps0"] = float(eps0)
        report["hypothesis_bM_tau0sq_lt_4eps0_bm2"] = bool(
            b_max * sup_tau ** 2 < 4.0 * eps0 * b_min ** 2)
    return data, report


def dnabla_h(sigma_field, h_field, q):
    """(d^sigma H)(d1, d2) for the Levi-Civita connection of sigma."""
    q = np.asarray(q, dtype=float)
    dh = _fd.gradient(h_field, q, 1e-5)
    e1, e2 = np.eye(2)
    return dnabla(np.asarray(h_field(q), dtype=float), dh, christoffel(sigma_field, q), e1, e2)


def _gauss_curvature(field2d, q):
    rm = riemann_covariant(field2d, q)
    g = field2d.matrix(q)
    return float(rm[0, 1, 1, 0] / np.linalg.det(g))


def random_monge_ampere_field(sigma_field, seed):
    """A smooth random symmetric endomorphism field with det H = -1, built in
    the orthonormal frame of sigma as R(eta)^T diag(e^m, -e^-m) R(eta), where
    m and eta are sums of two random sine-cosine modes of amplitude <= 0.3."""
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
        g = sigma_field.matrix(q)
        f, _ = orthonormal_frame(g)
        frame = np.column_stack([f[0], f[1]])
        c, s = np.cos(eta), np.sin(eta)
        rot = np.array([[c, -s], [s, c]])
        core = rot.T @ np.diag([np.exp(m), -np.exp(-m)]) @ rot
        return frame @ core @ np.linalg.inv(frame)

    return h

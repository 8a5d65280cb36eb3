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
    _assemble,
    _quadratic,
    dnabla,
    gauss_curvature,
    riemann_covariant,
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


def _flat(dim, half_width, name):
    """The identity metric on a cube chart, with zero partials."""
    return MetricField(
        dim, lambda p: np.eye(dim), ChartBox.cube(dim, half_width),
        partials=lambda p: np.zeros((dim,) * 3),
        second_partials=lambda p: np.zeros((dim,) * 4),
        name=name)


def euclidean3(half_width=10.0):
    return _flat(3, half_width, "euclidean3")


def _square_norm(p):
    """|p|^2 over the last axis; the stacked matmul of a batch rounds each
    row as ``p @ p`` does."""
    return p @ p if p.ndim == 1 else (p[..., None, :] @ p[..., None])[..., 0, 0]


def _conformal3(sign, half_width, name):
    """g = lam(x)^2 delta with lam = 2/(1 + sign*|x|^2): the round 3-sphere
    (sign=+1) or hyperbolic 3-space (sign=-1) in a conformal chart."""

    eye = np.eye(3)

    def lam(p):
        return 2.0 / (1.0 + sign * _square_norm(p))

    # powers as products: numpy raises a float and an array to a power by
    # different routines, and a row of a batch must equal its point
    def matrix(p):
        l = lam(p)
        return (l * l)[..., None, None] * eye

    def partials(p):
        l = lam(p)[..., None]
        dl = -sign * l * l * p
        # dg[k] = 2 l d_k l delta
        return (2.0 * l * dl)[..., None, None] * eye

    def second_partials(p):
        l = lam(p)
        l2 = l * l
        coeff = (6.0 * (l2 * l2))[..., None, None] * p[..., :, None] * p[..., None, :] \
            - (sign * 2.0 * (l2 * l))[..., None, None] * eye
        return coeff[..., None, None] * eye

    return MetricField(3, matrix, ChartBox.cube(3, half_width), partials=partials,
                       second_partials=second_partials, name=name)


def sphere3(half_width=1.5):
    """Round unit 3-sphere, stereographic chart (curvature +1)."""
    return _conformal3(+1.0, half_width, "sphere3")


def hyperbolic3(half_width=0.5):
    """Hyperbolic 3-space, conformal ball chart (curvature -1)."""
    return _conformal3(-1.0, half_width, "hyperbolic3")


def g_lambda(lam, z_half=None, analytic=True, fd_step=1e-3):
    """The pinched slab metric

        (1 + 2 lam z) cosh^2(y) cosh^2(z) dx^2
        + (1 - 2 lam z) cosh^2(z) dy^2 + dz^2

    on |x|, |y| <= 2 and |z| <= min(0.2, 1/(4 lam)); hyperbolic for lam = 0.  With
    ``analytic=True`` it carries closed-form first partials (second
    derivatives fall back to finite differences of those); with
    ``analytic=False`` the whole derivative stack is pure central
    differences, which is what the sharpest verification exercises.
    """
    if not 0.0 <= lam < np.inf:
        raise ParameterOutOfRange(f"lambda must be finite and >= 0, got {lam}")
    if z_half is None:
        z_half = min(0.2, 1.0 / (4.0 * lam)) if lam > 0 else 0.2
    elif lam > 0 and 2.0 * lam * z_half >= 1.0:
        raise ParameterOutOfRange(
            f"z-box {z_half} too wide: 1 - 2*lambda*z vanishes inside it")

    def matrix(p):
        y, z = p[..., 1], p[..., 2]
        cy, cz = np.cosh(y), np.cosh(z)
        # squares as products: numpy squares a float and an array by
        # different routines, and a row of a batch must equal its point
        g = np.zeros(p.shape[:-1] + (3, 3))
        g[..., 0, 0] = (1.0 + 2.0 * lam * z) * (cy * cy) * (cz * cz)
        g[..., 1, 1] = (1.0 - 2.0 * lam * z) * (cz * cz)
        g[..., 2, 2] = 1.0
        return g

    def partials(p):
        y, z = p[..., 1], p[..., 2]
        cy, sy = np.cosh(y), np.sinh(y)
        cz, sz = np.cosh(z), np.sinh(z)
        d = np.zeros(p.shape[:-1] + (3, 3, 3))
        d[..., 1, 0, 0] = (1.0 + 2.0 * lam * z) * 2.0 * cy * sy * cz * cz
        d[..., 2, 0, 0] = 2.0 * lam * cy * cy * cz * cz \
            + (1.0 + 2.0 * lam * z) * cy * cy * 2.0 * cz * sz
        d[..., 2, 1, 1] = -2.0 * lam * cz * cz + (1.0 - 2.0 * lam * z) * 2.0 * cz * sz
        return d

    box = ChartBox((-2.0, -2.0, -z_half), (2.0, 2.0, z_half))
    return MetricField(3, matrix, box, partials=partials if analytic else None,
                       fd_step=fd_step, name=f"g_lambda({lam})")


def g_lambda_reference_entries(lam):
    """The six closed-form curvature entries of the slab metric in the
    orthonormal frame along the coordinate axes, as functions of the point.

    The first three are the sectional curvatures of the coordinate planes;
    the last three are the mixed entries Rm(e1,e2,e1,e3), Rm(e2,e1,e2,e3),
    Rm(e3,e1,e3,e2).  These closed forms are exact on the z = 0 slice.
    Each takes a point or an (N, 3) batch of points.
    """
    return [
        ("sectional_12", lambda p: lam ** 2 - 1.0),
        ("sectional_13", lambda p: lam ** 2 - 1.0),
        ("sectional_32", lambda p: lam ** 2 - 1.0),
        ("mixed_1213", lambda p: 2.0 * lam * np.tanh(np.asarray(p)[..., 1])),
        ("mixed_2123", lambda p: 0.0),
        ("mixed_3132", lambda p: 0.0),
    ]


def measured_g_lambda_entries(metric, p):
    """The same six entries measured through the curvature pipeline, as
    floats at one point or as (N,) arrays over the rows of a batch."""
    g = metric.matrix(p)
    rm = riemann_covariant(metric, p)
    # the unit vectors along the axes: e_a = scale[a] d_a
    scale = [1.0 / np.sqrt(g[..., i, i]) for i in range(3)]

    def rm_e(a, b, c, d):
        # the single nonzero term of Rm(e_a, e_b, e_c, e_d), multiplied in
        # the order of the four-vector contraction
        value = rm[..., a, b, c, d] * scale[a] * scale[b] * scale[c] * scale[d]
        return float(value) if value.ndim == 0 else value

    def sec(a, b):
        return rm_e(a, b, b, a)  # orthonormal pair, so the Gram factor is 1

    return [sec(0, 1), sec(0, 2), sec(2, 1),
            rm_e(0, 1, 0, 2), rm_e(1, 0, 1, 2), rm_e(2, 0, 2, 1)]


# ---------------------------------------------------------------------------
# 2D metrics and abstract connections


def hyperbolic_plane_polar(r_min=1e-3, r_max=4.0):
    """dr^2 + sinh^2(r) dtheta^2; curvature -1, polar coordinate chart
    with |theta| <= 8."""

    def matrix(q):
        g = np.zeros(q.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        sh = np.sinh(q[..., 0])
        g[..., 1, 1] = sh * sh  # a product rounds alike for one point and a batch
        return g

    def partials(q):
        d = np.zeros(q.shape[:-1] + (2, 2, 2))
        d[..., 0, 1, 1] = 2.0 * np.sinh(q[..., 0]) * np.cosh(q[..., 0])
        return d

    def second_partials(q):
        d = np.zeros(q.shape[:-1] + (2, 2, 2, 2))
        d[..., 0, 0, 1, 1] = 2.0 * np.cosh(2.0 * q[..., 0])
        return d

    return MetricField(2, matrix, ChartBox((r_min, -8.0), (r_max, 8.0)),
                       partials=partials, second_partials=second_partials,
                       name="hyperbolic_polar")


def abstract_sphere(half_width=2.5):
    """Round 2-sphere in a stereographic chart with zero torsion."""

    eye = np.eye(2)

    def lam(q):
        return 2.0 / (1.0 + _square_norm(q))

    def matrix(q):
        l = lam(q)[..., None, None]
        return l * l * eye

    def partials(q):
        l = lam(q)[..., None]
        dl = -l * l * q
        return (2.0 * l * dl)[..., None, None] * eye

    m = MetricField(2, matrix, ChartBox.cube(2, half_width), partials=partials,
                    name="sphere2_abstract")
    return SurfaceConnectionData.from_metric_and_torsion(m, lambda q: np.zeros(2),
                                                         name="sphere2_abstract")


def abstract_plane(half_width=6.0):
    m = _flat(2, half_width, "plane2_abstract")
    return SurfaceConnectionData.from_metric_and_torsion(m, lambda q: np.zeros(2),
                                                         name="plane2_abstract")


def hyperbolic_deformed(t, r_min=0.05, r_max=4.0, profile="tanh"):
    """The hyperbolic plane with a rotationally invariant torsion field of
    exact norm t.

    profile="tanh" picks the torsion direction so the measured connection
    curvature is exactly ``t*tanh(r) - 1``; profile="angular" keeps the
    torsion purely angular (norm still t), which yields ``t*coth(r) - 1``.
    Both closed forms are attached as reference evaluators, and verification
    reports how each matches the measured curvature.
    """
    if not 0.0 <= t < np.inf:
        raise ParameterOutOfRange(f"t must be finite and >= 0, got {t}")
    if profile not in ("tanh", "angular"):
        raise ParameterOutOfRange(f"unknown profile {profile!r}")
    metric = hyperbolic_plane_polar(r_min=r_min, r_max=r_max)

    # the torsion fields broadcast over (..., 2) points
    if profile == "angular":
        def tau(q):
            out = np.zeros(q.shape)
            out[..., 1] = t / np.sinh(q[..., 0])
            return out
    else:
        def tau(q):
            r = q[..., 0]
            sh = np.sinh(r)
            qr = (sh - np.arcsin(np.tanh(r))) / sh  # gd(r) = arcsin(tanh r)
            out = np.empty(q.shape)
            out[..., 0] = -t * np.sqrt(np.maximum(0.0, 1.0 - qr * qr))
            out[..., 1] = t * qr / sh
            return out

    return SurfaceConnectionData.from_metric_and_torsion(
        metric, tau, name=f"hyperbolic_deformed(t={t},{profile})")


# ---------------------------------------------------------------------------
# surface patches


def _uv(q):
    """The coordinates (u, v) of parameter points: numpy floats for one
    point, arrays over the leading axes of a batch."""
    return (q[0], q[1]) if q.ndim == 1 else (q[..., 0], q[..., 1])


def _stacked(entries, lead):
    """Nested entries, each a float or an array of shape ``lead``, as one
    array of shape lead + nesting shape; a float is broadcast.  For one
    point (``lead == ()``) this is ``np.array(entries)``."""
    if not lead:
        return np.array(entries)
    if isinstance(entries, list):
        return np.stack([_stacked(e, lead) for e in entries], axis=len(lead))
    return np.broadcast_to(entries, lead)


def _flat_patch(half_width, name):
    """The coordinate plane z = 0 of a 3D chart."""
    return SurfacePatch(
        lambda q: _stacked([*_uv(q), 0.0], q.shape[:-1]),
        ChartBox.cube(2, half_width),
        derivatives=lambda q: (np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                               np.zeros((3, 2, 2))),
        name=name)


def plane_patch(half_width=2.0):
    return _flat_patch(half_width, "plane")


def saddle_patch(half_width=1.0):
    def derivatives(q):
        u, v = _uv(q)
        h = np.zeros((3, 2, 2))  # one Hessian for every point
        h[2, 0, 1] = h[2, 1, 0] = 1.0
        return _stacked([[1.0, 0.0], [0.0, 1.0], [v, u]], q.shape[:-1]), h

    def smap(q):
        u, v = _uv(q)
        return _stacked([u, v, u * v], q.shape[:-1])

    return SurfacePatch(smap, ChartBox.cube(2, half_width), derivatives=derivatives,
                        name="saddle")


def sphere2_patch(radius=1.0):
    """Round sphere of the given radius about the origin, spherical angles
    0.3 <= u <= 2.8 and |v| <= 3."""
    if not (math.isfinite(radius) and radius != 0.0):
        raise ParameterOutOfRange(f"radius must be finite and nonzero, got {radius}")

    def smap(q):
        u, v = _uv(q)
        return radius * _stacked([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)],
                                 q.shape[:-1])

    def sderivatives(q):
        u, v = _uv(q)
        lead = q.shape[:-1]
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        jac = radius * _stacked([
            [cu * cv, -su * sv],
            [cu * sv, su * cv],
            [-su, 0.0]], lead)
        h = np.empty(lead + (3, 2, 2))
        h[..., 0, 0] = radius * _stacked([-su * cv, -su * sv, -cu], lead)
        h[..., 0, 1] = h[..., 1, 0] = radius * _stacked([-cu * sv, cu * cv, 0.0], lead)
        h[..., 1, 1] = radius * _stacked([-su * cv, -su * sv, 0.0], lead)
        return jac, h

    return SurfacePatch(smap, ChartBox((0.3, -3.0), (2.8, 3.0)),
                        derivatives=sderivatives, name=f"sphere2(r={radius})")


def pseudosphere_patch(scale=1.0):
    """Tractroid scaled by ``scale`` on 0.5 <= u <= 2, |v| <= 1.5; constant
    curvature -1/scale^2."""
    a = scale

    def tmap(q):
        u, v = _uv(q)
        se = 1.0 / np.cosh(u)
        return a * _stacked([se * np.cos(v), se * np.sin(v), u - np.tanh(u)], q.shape[:-1])

    def tderivatives(q):
        u, v = _uv(q)
        lead = q.shape[:-1]
        se = 1.0 / np.cosh(u)
        th = np.tanh(u)
        cv, sv = np.cos(v), np.sin(v)
        jac = a * _stacked([
            [-se * th * cv, -se * sv],
            [-se * th * sv, se * cv],
            [th * th, 0.0]], lead)
        dsth = -se * th * th + se * se * se  # d/du of (se*th)
        h = np.empty(lead + (3, 2, 2))
        h[..., 0, 0] = a * _stacked([-dsth * cv, -dsth * sv, 2.0 * th * se * se], lead)
        h[..., 0, 1] = h[..., 1, 0] = a * _stacked([se * th * sv, -se * th * cv, 0.0], lead)
        h[..., 1, 1] = a * _stacked([-se * cv, -se * sv, 0.0], lead)
        return jac, h

    return SurfacePatch(tmap, ChartBox((0.5, -1.5), (2.0, 1.5)),
                        derivatives=tderivatives, name=f"pseudosphere(a={scale})")


def constant_k_surface(k):
    """A patch of constant intrinsic curvature k in Euclidean 3-space."""
    if not math.isfinite(k):
        raise ParameterOutOfRange(f"k must be finite, got {k}")
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
        u, v = _uv(q)
        d = 1.0 + k * np.sin(v)
        return _stacked([k * np.cos(u) / d, k * np.sin(u) / d, k * np.cos(v) / d], q.shape[:-1])

    def dderivatives(q):
        u, v = _uv(q)
        lead = q.shape[:-1]
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        d = 1.0 + k * sv
        # powers as products: numpy raises a float and an array to a power
        # by different routines, and a row of a batch must equal its point
        d2 = d * d
        d3 = d2 * d
        dd = k * cv
        jac = _stacked([
            [-k * su / d, -k * cu * dd / d2],
            [k * cu / d, -k * su * dd / d2],
            [0.0, -k * (sv + k) / d2]], lead)
        h = np.empty(lead + (3, 2, 2))
        h[..., 0, 0] = _stacked([-k * cu / d, -k * su / d, 0.0], lead)
        h[..., 0, 1] = h[..., 1, 0] = _stacked([k * su * dd / d2, -k * cu * dd / d2, 0.0], lead)
        h[..., 0, 1, 1] = k * k * cu * (sv * d + 2.0 * k * cv * cv) / d3
        h[..., 1, 1, 1] = k * k * su * (sv * d + 2.0 * k * cv * cv) / d3
        h[..., 2, 1, 1] = k * k * cv * sv / d3
        return jac, h

    return SurfacePatch(dmap, ChartBox.cube(2, 3.2), derivatives=dderivatives,
                        name="clifford_torus")


def hyperbolic_slice(lam, half_width=1.8):
    """The totally geodesic-looking z = 0 plane inside the slab metric; its
    induced metric is the hyperbolic plane."""
    return _flat_patch(half_width, f"hyperbolic_slice(lam={lam})")


def geodesic_sphere_hyp3(radius=0.3):
    """Coordinate sphere about the origin of the conformal ball chart; a
    geodesic sphere of hyperbolic 3-space."""
    patch = sphere2_patch(radius=radius)
    patch.name = f"geodesic_sphere_hyp3(r={radius})"
    return patch


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


def _metric(metric, sectional=None):
    """The fields of a metric case; ``sectional`` is its constant sectional
    curvature, where it has one."""
    references = {} if sectional is None else {"sectional": lambda p: sectional}
    return {"kind": "metric", "metric": metric, "references": references}


def _surface(patch, ambient=None, k_intrinsic=None):
    """The fields of a surface case: the patch immersed in ``ambient``
    (default euclidean3), with its constant intrinsic curvature, if any."""
    ambient = euclidean3() if ambient is None else ambient
    references = {} if k_intrinsic is None else {"k_intrinsic": k_intrinsic}
    return {"kind": "surface", "metric": ambient, "patch": patch,
            "data": SurfaceConnectionData.from_immersion(patch, ambient),
            "references": references}


def _connection(data, **references):
    return {"kind": "connection", "data": data, "references": references}


# name -> (builder, parameter defaults); the builder takes the parameter
# values in the order of the defaults, each converted to its default's type
_EXAMPLES = {
    "euclidean3": (lambda: _metric(euclidean3(), 0.0), {}),
    "sphere3": (lambda: _metric(sphere3(), 1.0), {}),
    "hyperbolic3": (lambda: _metric(hyperbolic3(), -1.0), {}),
    "g_lambda": (lambda lam: _metric(g_lambda(lam)), {"lambda": 1.0}),
    "saddle": (lambda: _surface(saddle_patch()), {}),
    # the stereographic image of the torus reaches |x| ~ 1 + sqrt(2)
    "clifford_torus": (lambda: _surface(clifford_torus(), sphere3(half_width=2.6), 0.0), {}),
    "constant_k_surface": (lambda k: _surface(constant_k_surface(k), k_intrinsic=k),
                           {"k": -1.0}),
    "plane": (lambda: _surface(plane_patch(), k_intrinsic=0.0), {}),
    "sphere2": (lambda radius: _surface(sphere2_patch(radius), k_intrinsic=1.0 / radius ** 2),
                {"radius": 1.0}),
    "pseudosphere": (lambda: _surface(pseudosphere_patch(), k_intrinsic=-1.0), {}),
    "hyperbolic_slice": (lambda lam: _surface(hyperbolic_slice(lam), g_lambda(lam), -1.0),
                         {"lambda": 1.0}),
    "geodesic_sphere_hyp3": (lambda radius: _surface(geodesic_sphere_hyp3(radius), hyperbolic3()),
                             {"radius": 0.3}),
    "hyperbolic_deformed": (
        lambda t, profile: _connection(hyperbolic_deformed(t, profile=profile),
                                       curvature_tanh_form=lambda r: t * np.tanh(r) - 1.0,
                                       curvature_coth_form=lambda r: t / np.tanh(r) - 1.0),
        {"t": 1.0, "profile": "tanh"}),
    "abstract_sphere": (lambda: _connection(abstract_sphere()), {}),
    "abstract_plane": (lambda: _connection(abstract_plane()), {}),
}


def builtin_names():
    return tuple(_EXAMPLES)


def build_example(name, **params):
    """Build a named example with its reference data attached.

    Raises ParameterOutOfRange for an unknown name, a parameter the example
    does not take, and parameters outside the documented ranges.
    """
    if name not in _EXAMPLES:
        raise ParameterOutOfRange(f"unknown example name {name!r}")
    builder, defaults = _EXAMPLES[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterOutOfRange(
            f"example {name!r} takes no parameter {', '.join(unknown)}; "
            f"it accepts {', '.join(defaults) or 'none'}")
    try:
        values = {k: type(d)(params.get(k, d)) for k, d in defaults.items()}
    except (TypeError, ValueError) as exc:
        raise ParameterOutOfRange(f"example {name!r}: {exc}") from None
    return ExampleCase(name, values, **builder(*values.values()))


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
        names, refs = zip(*g_lambda_reference_entries(lam))
        grid = np.array([[x, y, z] for x in xs for y in ys for z in zs])
        measured = measured_g_lambda_entries(m, grid)
        all_errs = np.column_stack([np.abs(measured[i] - refs[i](grid)) for i in range(6)])
        z0 = np.abs(grid[:, 2]) < 1e-12
        tol = 1e-3
        for i, nm in enumerate(names):
            fields.append(_field(nm, np.max(all_errs[:, i]), tol))
            fields.append(_field(nm + "_z0_slice", np.max(all_errs[z0, i]), tol))
        notes["z_cap"] = z_cap
        notes["slab_deviation"] = float(np.max(all_errs[~z0])) if np.any(~z0) else 0.0

    elif case.kind == "metric":
        m = case.metric
        ref = case.references["sectional"]
        lo = np.asarray(m.box.lo) * 0.6
        hi = np.asarray(m.box.hi) * 0.6
        rng = np.random.default_rng(7)
        pts = np.array([lo + (hi - lo) * rng.random(3) for _ in range(20)])
        kmin, kmax = sectional_range(m, pts)
        r = ref(pts)
        errs = np.maximum(np.abs(kmin - r), np.abs(kmax - r))
        fields.append(_field("sectional_range", np.max(errs), 1e-5))

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

    elif case.kind == "surface":
        data = case.data
        lo = np.asarray(case.patch.box.lo)
        hi = np.asarray(case.patch.box.hi)
        mid = 0.5 * (lo + hi)
        span = 0.25 * (hi - lo)
        rng = np.random.default_rng(11)
        pts = [mid + span * (2 * rng.random(2) - 1) for _ in range(9)]
        if "k_intrinsic" in case.references:
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
    K~ is measured by Cartan's structure equation from III and the
    connection's torsion, so the identity reads neither K_sigma nor det H.

    ``h_field`` follows the batch contract of an operator-mode B field: it
    maps (..., 2) points to (..., 2, 2) matrices (a constant is broadcast),
    and every layer of the check evaluates all sample points in one call.
    ``b_field`` and ``tau_field`` take one (2,) point and are called once
    per sample point.
    """
    data = SurfaceConnectionData.from_operator(sigma_field, h_field, name="monge_ampere")

    def torsion(q):
        # the connection's torsion H^{-1} (d^sigma H)(d_1, d_2) / sqrt(det III);
        # the structure equation differentiates it again, so dH is taken at
        # 1e-3, where rounding stays far below the 1e-8 scale of the identity
        h = data.b_matrix(q)
        dh = _fd.gradient(data.b_matrix, q, 1e-3)
        twist = dnabla(h, dh, christoffel(sigma_field, q), *np.eye(2))
        area = np.sqrt(np.linalg.det(data.third_form(q)))
        return np.linalg.solve(h, twist[..., None])[..., 0] / area[..., None]

    structure = SurfaceConnectionData.from_metric_and_torsion(
        MetricField(2, data.third_form, sigma_field.box, name="III[monge_ampere]"), torsion)
    if sample_points is None:
        lo = np.asarray(sigma_field.box.lo)
        hi = np.asarray(sigma_field.box.hi)
        mid = 0.5 * (lo + hi)
        span = 0.3 * (hi - lo)
        rng = np.random.default_rng(3)
        sample_points = [mid + span * (2 * rng.random(2) - 1) for _ in range(12)]
    pts = np.array(sample_points, dtype=float).reshape(-1, 2)

    det = np.linalg.det(data.b_matrix(pts))
    wrong = det >= 0
    if wrong.any():
        k = int(np.argmax(wrong))
        raise WrongSignDeterminant(f"det H = {det[k]:.3e} >= 0 at {pts[k]}")
    b = np.array([float(b_field(q)) for q in pts])
    tau = np.array([np.asarray(tau_field(q), dtype=float) for q in pts])

    sigma = sigma_field.matrix(pts)
    ntau = np.sqrt(np.maximum(_quadratic(tau, sigma, tau), 0.0))
    diff = dnabla_h(sigma_field, data.b_matrix, pts) - np.sqrt(np.linalg.det(sigma))[:, None] * tau
    k_sigma = gauss_curvature(sigma_field, pts)
    ktilde = structure.curvature(pts)
    # the connection's own torsion satisfies ||tau~|| = ||d^sigma H||/... ;
    # against the supplied tau the identity is ||tau~|| = ||tau||_sigma / b
    tau_tilde = data.torsion_from_coefficients(pts)
    nt = np.sqrt(np.maximum(_quadratic(tau_tilde, data.third_form(pts), tau_tilde), 0.0))

    report = {
        "det_residual": float(np.max(np.abs(det + b))),
        "dnabla_residual": float(np.max(np.sqrt(_quadratic(diff, sigma, diff)))),
        "ktilde_identity_residual": float(np.max(np.abs(ktilde - (-k_sigma / b)))),
        "torsion_identity_residual": float(np.max(np.abs(nt - ntau / b))),
        "sup_tau": float(np.max(ntau)),
        "b_range": (float(np.min(b)), float(np.max(b))),
    }
    sup_k_sigma = float(np.max(k_sigma))
    if eps0 is None and sup_k_sigma < 0:
        eps0 = -sup_k_sigma
    if eps0 is not None:
        b_min, b_max = report["b_range"]
        report["eps0"] = float(eps0)
        report["hypothesis_bM_tau0sq_lt_4eps0_bm2"] = bool(
            b_max * report["sup_tau"] ** 2 < 4.0 * eps0 * b_min ** 2)
    return data, report


def dnabla_h(sigma_field, h_field, q):
    """(d^sigma H)(d1, d2) for the Levi-Civita connection of sigma, at one
    point q or at each point of a (..., 2) array; ``h_field`` maps (..., 2)
    points to (..., 2, 2) matrices."""
    q = np.asarray(q, dtype=float)
    dh = _fd.gradient(h_field, q, 1e-5)
    e1, e2 = np.eye(2)
    return dnabla(np.asarray(h_field(q), dtype=float), dh, christoffel(sigma_field, q), e1, e2)


def random_monge_ampere_field(sigma_field, seed):
    """A smooth random symmetric endomorphism field with det H = -1, built in
    the orthonormal frame of sigma as R(eta)^T diag(e^m, -e^-m) R(eta), where
    m and eta are sums of two random sine-cosine modes of amplitude <= 0.3.
    It maps one (2,) point or points of shape (..., 2) to (..., 2, 2)."""
    rng = np.random.default_rng(seed)
    am = 0.3 * (2 * rng.random(2) - 1)
    bm = 0.3 * (2 * rng.random(2) - 1)
    freq = rng.integers(1, 3, size=(2, 2))
    phase = 2 * np.pi * rng.random((2, 2))

    def scalar(coeffs, sin, cos):
        terms = coeffs * sin * cos
        return terms[..., 0] + terms[..., 1]

    def h(q):
        q = np.asarray(q, dtype=float)
        # the two modes sin(.) cos(.), shared by m and eta, on a last axis
        sin = np.sin(freq[:, 0] * q[..., :1] + phase[:, 0])
        cos = np.cos(freq[:, 1] * q[..., 1:] + phase[:, 1])
        m = scalar(am, sin, cos)
        eta = scalar(bm, sin, cos)
        frame = np.swapaxes(orthonormal_frame(sigma_field.matrix(q)), -1, -2)  # columns f1, f2
        c, s = np.cos(eta), np.sin(eta)
        a, b = np.exp(m), -np.exp(-m)
        # R(eta)^T diag(a, b) R(eta)
        core = _assemble([[c * a, s * b], [-s * a, c * b]], 2) @ _assemble([[c, -s], [s, c]], 2)
        return frame @ core @ np.linalg.inv(frame)

    return h

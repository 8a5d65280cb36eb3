"""Ready-made metrics, surface patches, and connections with closed-form
reference data, plus the virtual-third-form construction for hyperbolic
Monge-Ampere systems.

Every builder returns objects with exact derivatives, so verification
compares the full numerical pipeline against closed forms rather than
against itself.  The surface patches are surface text
(``immersion.surface_from_expressions``) and the metrics metric text
(``ambient.metric_from_expressions``), with parameters written by
``repr(float)`` so they parse back exactly: their exact jets are the
generated code of the text's derivative expressions, parsed once per text
in a process.  ``g_lambda(analytic=False)`` keeps only its text's matrix,
for the pure finite-difference verification.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _fd
from .ambient import (
    ChartBox,
    MetricField,
    _assemble,
    _first,
    _quadratic,
    christoffel,
    dnabla,
    gauss_curvature,
    metric_from_expressions,
    riemann_covariant,
    sectional_range,
)
from .connection import SurfaceConnectionData, orthonormal_frame
from .errors import ParameterOutOfRange, WrongSignDeterminant
from .expressions import Expression
from .immersion import surface_from_expressions

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
    """The identity metric on a cube chart."""
    entries = {f"g{i}{i}": "1" for i in range(1, dim + 1)}
    return _metric_text(ChartBox.cube(dim, half_width), name, **entries)


def euclidean3():
    return _flat(3, 10.0, "euclidean3")


def _conformal(dim, sign, box, name):
    """g = lam(x)^2 delta with lam = 2/(1 + sign*|x|^2): the round sphere
    (sign "+") or hyperbolic space (sign "-") in a conformal chart."""
    variables = ("u", "v", "w")[:dim]
    lam = f"(2/(1 {sign} ({' + '.join(f'{x}*{x}' for x in variables)})))"
    return _metric_text(box, name, **{f"g{i}{i}": f"{lam}*{lam}" for i in range(1, dim + 1)})


def _positive(name, value):
    """``value`` as a float, which must be finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterOutOfRange(f"{name} must be finite and > 0, got {value}")
    return float(value)


def sphere3(half_width=1.5):
    """Round unit 3-sphere, stereographic chart (curvature +1)."""
    return _conformal(3, "+", ChartBox.cube(3, _positive("half_width", half_width)), "sphere3")


def hyperbolic3():
    """Hyperbolic 3-space, conformal ball chart |x_i| <= 0.5 (curvature -1)."""
    return _conformal(3, "-", ChartBox.cube(3, 0.5), "hyperbolic3")


def g_lambda(lam, z_half=None, analytic=True, fd_step=1e-3):
    """The pinched slab metric

        (1 + 2 lam z) cosh^2(y) cosh^2(z) dx^2
        + (1 - 2 lam z) cosh^2(z) dy^2 + dz^2

    on |x|, |y| <= 2 and |z| <= min(0.2, 1/(4 lam)); hyperbolic for lam = 0.
    With ``analytic=True`` it is metric text with exact first and second
    partials; with ``analytic=False`` it keeps only the text's matrix leaf,
    and the whole derivative stack is central differences at ``fd_step``,
    which is what the sharpest verification exercises.
    """
    if not 0.0 <= lam < np.inf:
        raise ParameterOutOfRange(f"lambda must be finite and >= 0, got {lam}")
    z_half = (min(0.2, 1.0 / (4.0 * lam)) if lam > 0 else 0.2) if z_half is None \
        else _positive("z_half", z_half)
    if 2.0 * lam * z_half >= 1.0:
        raise ParameterOutOfRange(
            f"z-box {z_half} too wide: 1 - 2*lambda*z vanishes inside it")
    two_lam = f"2*{_number(lam)}"
    metric = _metric_text(ChartBox((-2.0, -2.0, -z_half), (2.0, 2.0, z_half)), f"g_lambda({lam})",
                          g11=f"(1 + {two_lam}*w)*(cosh(v)*cosh(v))*(cosh(w)*cosh(w))",
                          g22=f"(1 - {two_lam}*w)*(cosh(w)*cosh(w))", g33="1")
    if not analytic:
        metric = MetricField(3, metric.matrix, metric.box, name=metric.name)
    metric.fd_step = float(fd_step)
    return metric


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
    r_min <= r <= r_max, 0 < r_min < r_max finite, with |theta| <= 8."""
    if not (0.0 < r_min < r_max < math.inf):
        raise ParameterOutOfRange(
            f"the radii must be finite with 0 < r_min < r_max, got {r_min} and {r_max}")
    return _metric_text(ChartBox((r_min, -8.0), (r_max, 8.0)), "hyperbolic_polar",
                        g11="1", g22="sinh(u)*sinh(u)")


def abstract_sphere():
    """Round 2-sphere, stereographic chart |q_i| <= 2.5, zero torsion."""
    m = _conformal(2, "+", ChartBox.cube(2, 2.5), "sphere2_abstract")
    return SurfaceConnectionData.from_metric_and_torsion(m, lambda q: np.zeros(2),
                                                         name="sphere2_abstract")


def abstract_plane():
    m = _flat(2, 6.0, "plane2_abstract")
    return SurfaceConnectionData.from_metric_and_torsion(m, lambda q: np.zeros(2),
                                                         name="plane2_abstract")


def hyperbolic_deformed(t, profile="tanh"):
    """The hyperbolic plane with a rotationally invariant torsion field of
    exact norm t, on the polar chart 0.05 <= r <= 4.

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
    metric = hyperbolic_plane_polar(r_min=0.05, r_max=4.0)

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


def _on_box(parsed, box, name):
    """A copy of a parsed patch or metric with its own box and name; the
    copies of one text share its leaves, which are pure."""
    out = copy.copy(parsed)
    out.box, out.name = box, name
    return out


def _surface_text(box, name, *phi):
    """The patch of the texts of phi1, phi2 and phi3 in (u, v) on ``box``."""
    return _on_box(_parsed_surface(*phi), box, name)


@functools.lru_cache(maxsize=64)
def _parsed_surface(*phi):
    """The patch of surface text, parsed and differentiated once per text,
    since every example build reads it."""
    fields = {f"phi{i + 1}": Expression(text, ("u", "v")) for i, text in enumerate(phi)}
    return surface_from_expressions(fields, None)


def _metric_text(box, name, **entries):
    """The metric of the texts of ``entries`` (``g11=...``) on ``box``."""
    return _on_box(_parsed_metric(box.dim, *sorted(entries.items())), box, name)


@functools.lru_cache(maxsize=64)
def _parsed_metric(dim, *entries):
    """The metric of metric text in the first ``dim`` of u, v, w, parsed and
    differentiated once per text, as ``_parsed_surface`` does for patches."""
    variables = ("u", "v", "w")[:dim]
    fields = {key: Expression(text, variables) for key, text in entries}
    return metric_from_expressions(fields, ChartBox.cube(dim, 1.0))


def _number(x):
    """``x`` as expression text that parses back to the same float."""
    return f"({float(x)!r})"


def plane_patch():
    return _surface_text(ChartBox.cube(2, 2.0), "plane", "u", "v", "0")


def saddle_patch():
    return _surface_text(ChartBox.cube(2, 1.0), "saddle", "u", "v", "u*v")


def sphere2_patch(radius=1.0):
    """Round sphere of the given radius about the origin, spherical angles
    0.3 <= u <= 2.8 and |v| <= 3."""
    if not (math.isfinite(radius) and radius != 0.0):
        raise ParameterOutOfRange(f"radius must be finite and nonzero, got {radius}")
    r = _number(radius)
    return _surface_text(ChartBox((0.3, -3.0), (2.8, 3.0)), f"sphere2(r={radius})",
                         f"{r}*(sin(u)*cos(v))", f"{r}*(sin(u)*sin(v))", f"{r}*cos(u)")


def pseudosphere_patch(scale=1.0):
    """Tractroid scaled by ``scale`` on 0.5 <= u <= 2, |v| <= 1.5; constant
    curvature -1/scale^2."""
    a = _number(scale)
    return _surface_text(ChartBox((0.5, -1.5), (2.0, 1.5)), f"pseudosphere(a={scale})",
                         f"{a}*(cos(v)/cosh(u))", f"{a}*(sin(v)/cosh(u))",
                         f"{a}*(u - tanh(u))")


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
    """The square torus inside the round 3-sphere, stereographic chart."""
    k = _number(1.0 / math.sqrt(2.0))
    d = f"(1 + {k}*sin(v))"
    return _surface_text(ChartBox.cube(2, 3.2), "clifford_torus",
                         f"{k}*cos(u)/{d}", f"{k}*sin(u)/{d}", f"{k}*cos(v)/{d}")


def hyperbolic_slice(lam):
    """The totally geodesic-looking z = 0 plane |u|, |v| <= 1.8 inside the
    slab metric; its induced metric is the hyperbolic plane."""
    return _surface_text(ChartBox.cube(2, 1.8), f"hyperbolic_slice(lam={lam})", "u", "v", "0")


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
        q = np.column_stack([rs, np.full_like(rs, 0.4)])
        # the torsion recovered from the connection coefficients, in III-norm
        tn_err = np.max(np.abs(data.norm(q, data.torsion_from_coefficients(q)) - t))
        k_meas = data.curvature(q)
        tanh_err = np.max(np.abs(k_meas - case.references["curvature_tanh_form"](rs)))
        coth_err = np.max(np.abs(k_meas - case.references["curvature_coth_form"](rs)))
        tol_k = 1e-5
        fields.append(_field("torsion_norm", tn_err, 1e-8))
        # the form matching the built profile is gated; the other is reported
        # so the tanh/coth discrepancy of this example family stays visible
        fields.append(_field("curvature_tanh_form", tanh_err,
                             tol_k if profile == "tanh" else None))
        fields.append(_field("curvature_coth_form", coth_err,
                             tol_k if profile == "angular" else None))
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
        u, v = np.meshgrid(np.linspace(-3.0, 3.0, 7), np.linspace(-3.0, 3.0, 7))
        fd = data.fundamental(np.column_stack([u.ravel(), v.ravel()]))
        det_b = np.linalg.det(fd.shape_operator)
        ki = np.max(np.abs(fd.k_intrinsic))
        detb = np.max(np.abs(det_b + 1.0))
        ge = np.max(np.abs(det_b - fd.k_extrinsic))
        third = np.max(np.abs(fd.third - fd.first))
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
        fd = data.fundamental(mid + span * (2 * rng.random((9, 2)) - 1))
        if "k_intrinsic" in case.references:
            err = np.max(np.abs(fd.k_intrinsic - case.references["k_intrinsic"]))
            fields.append(_field("k_intrinsic", err, 1e-6))
        gerr = np.max(np.abs(np.linalg.det(fd.shape_operator) - fd.k_extrinsic))
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


def virtual_third_form(sigma_field, h_field, b_field, tau_field, sample_points=None):
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

    Where sup K_sigma < 0 on the samples, the report also carries ``eps0 =
    -sup K_sigma`` and the hypothesis ``b_M tau0^2 < 4 eps0 b_m^2``.
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
    bad = det >= 0
    if bad.any():
        k = _first(bad)
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
    eps0 = -float(np.max(k_sigma))
    if eps0 > 0:
        b_min, b_max = report["b_range"]
        report["eps0"] = eps0
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

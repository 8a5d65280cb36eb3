"""Command-line front end: every verification and trace as a reproducible,
scriptable run with JSON reports and CSV traces.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/configuration error.
Reports are deterministic: no timestamps, stable key order, and a digest of
the canonicalized inputs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import gallery
from .ambient import ChartBox, curvature_sample, metric_from_expressions
from .connection import SurfaceConnectionData, check_hypothesis
from .curves import (
    RegionSpec,
    boundary_holonomy_angle,
    gauss_bonnet_residual,
    integrate_geodesic,
    jacobi_field,
    parallel_transport,
)
from .errors import GeometryError
from .expressions import Expression, parse_assignments
from .immersion import surface_from_expressions
from .odelab import construct_edo7, solve_prop_edo, weak_inequality_residual


def write_csv(path, header, rows):
    """CSV with '.' decimal separator, ',' delimiter, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")


def config_digest(payload):
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# a check passes when ``value rel tolerance`` holds; ``slack`` widens the
# bound in the passing direction, to absorb rounding in the computed side
_RELATIONS = {
    "<": lambda v, t, s: v < t + s,
    "<=": lambda v, t, s: v <= t + s,
    ">=": lambda v, t, s: v >= t - s,
    "==": lambda v, t, s: v == t,
    "within": lambda v, t, s: v[0] >= t[0] - s and v[1] <= t[1] + s,
}


def _check(name, value, rel, tolerance, slack=0.0):
    """One report check; a ``tolerance`` of None marks an informational,
    ungated check, which passes."""
    ok = tolerance is None or _RELATIONS[rel](value, tolerance, slack)
    return {"name": name, "value": value, "tolerance": tolerance, "pass": ok}


def _left_patch(left):
    return _check("left_patch", left, "==", False)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _inputs(args, **parsed):
    """The digest payload: every parsed argument but the output-only
    ``--json`` and ``--csv``.  ``--param`` enters as its parsed dict, and a
    file input by its content: the text of a ``--metric FILE``, of an
    ``--example file:PATH`` and of the metric file its ``ambient`` line
    names, and ``parsed`` for the others."""
    payload = {k: v for k, v in vars(args).items() if k not in ("json", "csv", "fn")}
    if "param" in payload:
        payload["param"] = _parse_params(args.param)
    if "metric" in payload and args.metric not in gallery.builtin_names():
        payload["metric"] = _read(args.metric)
    if payload.get("example", "").startswith("file:"):
        payload["example"] = _read(args.example[5:])
        ambient = _split_ambient(payload["example"])[1]
        if ambient not in gallery.builtin_names():
            payload["ambient"] = _read(ambient)
    payload.update(parsed)
    return payload


def _report(command, payload, checks):
    ok = all(c["pass"] for c in checks)
    return {
        "command": command,
        "config_digest": config_digest(payload),
        "checks": checks,
        "status": "pass" if ok else "fail",
    }


def _finish(args, payload, checks, csv=None, **extras):
    """Build the report with ``extras``, write ``csv`` = (header, columns)
    to ``--csv`` when asked, print it, and return the exit code."""
    report = _report(args.report, payload, checks)
    report.update(extras)
    if csv is not None and args.csv:
        header, columns = csv
        write_csv(args.csv, header, np.column_stack(columns))
        report["csv"] = args.csv
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
        return
    # numpy values print as plain numbers, as in the JSON report
    report = json.loads(json.dumps(report, default=_json_default))
    print(f"# {report['command']}  [digest {report['config_digest']}]")
    for c in report.get("checks", []):
        mark = "PASS" if c["pass"] else "FAIL"
        extras = {k: v for k, v in c.items() if k not in ("name", "pass")}
        print(f"  {mark}  {c['name']}  {extras}")
    for k, v in report.items():
        if k not in ("command", "config_digest", "checks", "status"):
            print(f"  {k} = {v}")
    print(f"status: {report['status']}")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _parse_params(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError:
            out[k] = v
    return out


def _pair(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return np.array(parts)


def _connection_for(args):
    """Resolve ``--example`` (a built-in name or ``file:PATH``) with its
    ``--param`` values to a surface connection."""
    params = _parse_params(args.param)
    if args.example.startswith("file:"):
        return _surface_file_connection(args.example[5:])
    case = gallery.build_example(args.example, **params)
    if case.data is None:
        raise ValueError(f"example {args.example!r} has no surface connection attached")
    return case.data


def _surface_file_connection(path):
    """Immersion data from a surface expression file: lines ``phi1 = ...``,
    ``phi2``, ``phi3`` in (u, v), a ``box = lo hi lo hi`` line, and an
    optional ``ambient = <builtin metric or metric file>`` line (default
    euclidean3)."""
    text, ambient_name = _split_ambient(_read(path))
    patch = surface_from_expressions(*_file_fields(text, "surface", ("u", "v")), name=path)
    return SurfaceConnectionData.from_immersion(patch, _metric_for(ambient_name))


def _split_ambient(text):
    """A surface file's text without its ``ambient`` line, and the metric
    that line names (default euclidean3)."""
    ambient_name = "euclidean3"
    kept = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("ambient"):
            _, sep, value = stripped.partition("=")
            if not sep:
                raise ValueError(f"surface file line {stripped!r} needs 'ambient = <metric>'")
            ambient_name = value.strip()
        else:
            kept.append(line)
    return "\n".join(kept), ambient_name


def _metric_for(spec_text):
    if spec_text in gallery.builtin_names():
        case = gallery.build_example(spec_text)
        if case.metric is None:
            raise ValueError(f"{spec_text!r} is not an ambient metric")
        return case.metric
    return metric_from_expressions(*_file_fields(_read(spec_text), "metric", ("u", "v", "w")))


def _file_fields(text, kind, variables):
    """A ``kind`` file's Expressions in ``variables`` and its ``box`` line's ChartBox."""
    fields, box = parse_assignments(text, variables)
    if box is None or len(box) != 2 * len(variables):
        raise ValueError(f"{kind} file needs a 'box = {' '.join(['lo hi'] * len(variables))}' line")
    return fields, ChartBox(tuple(box[0::2]), tuple(box[1::2]))


def _region_counts(spec, *keys):
    """The counts ``spec`` sets among ``keys``, as ints; the region
    constructors check their ranges."""
    return {key: int(spec[key]) for key in keys if key in spec}


def region_from_json(data, spec):
    if not (isinstance(spec, dict) and "center" in spec and "radius" in spec):
        raise ValueError("region must be a JSON object with 'center' and 'radius' entries")
    radius = spec["radius"]
    if not isinstance(radius, (int, float)) or isinstance(radius, bool):
        raise ValueError(f"region 'radius' must be a number, got {radius!r}")
    kind = spec.get("kind")
    if kind == "coordinate_disk":
        return RegionSpec.coordinate_disk(
            spec["center"], radius, **_region_counts(spec, "n_boundary", "n_radial", "n_angular"))
    if kind == "geodesic_disk":
        return RegionSpec.geodesic_disk(data, spec["center"], radius,
                                        **_region_counts(spec, "n_rays", "n_radial"))
    raise ValueError(f"unknown region kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_hypothesis(args):
    verdict = check_hypothesis(args.k1, args.k2, args.k3)
    return _finish(args, _inputs(args), [], **verdict.to_json_dict())


def cmd_curvature_report(args):
    metric = _metric_for(args.metric)
    dims = [int(x) for x in args.grid.lower().split("x")]
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError("grid must look like 5x5x3, with at least one point per axis")
    lo = np.asarray(metric.box.lo)
    hi = np.asarray(metric.box.hi)
    pad = 0.15 * (hi - lo) + 2 * metric.fd_margin()
    axes = [np.linspace(lo[i] + pad[i], hi[i] - pad[i], dims[i]) for i in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    s = curvature_sample(metric, grid)
    worst = {k: float(np.max(v)) for k, v in s.symmetry_residuals.items()}
    tol = 1e-8 if metric.has_analytic_partials else 1e-4
    checks = [_check(f"riemann_{k}", v, "<", tol) for k, v in worst.items()]
    return _finish(args, _inputs(args), checks,
                   sectional_min=float(np.min(s.k_min)), sectional_max=float(np.max(s.k_max)))


def _geodesic_for(args):
    """The connection of ``--example`` and its geodesic from ``--start`` in
    the unit direction of ``--dir``."""
    data = _connection_for(args)
    start = _pair(args.start)
    v = data.unit(start, _pair(args.dir))
    return data, integrate_geodesic(data, start, v, args.length, args.step)


def cmd_geodesic(args):
    data, trace = _geodesic_for(args)
    drift = abs(data.norm(trace.points[-1], trace.velocities[-1]) - 1.0)
    checks = [_check("unit_speed_drift", drift, "<", 1e-8 * max(1.0, args.length)),
              _left_patch(trace.left_patch)]
    return _finish(args, _inputs(args), checks,
                   csv=(["s", "u", "v", "du", "dv"], [trace.s, trace.points, trace.velocities]),
                   endpoint=trace.points[-1].tolist(),
                   end_velocity=trace.velocities[-1].tolist())


def cmd_transport(args):
    data, trace = _geodesic_for(args)
    w0 = _pair(args.vector)
    w1 = parallel_transport(data, trace, w0)
    n0 = data.norm(trace.points[0], w0)
    n1 = data.norm(trace.points[-1], w1)
    # relative to the vector's norm once it exceeds 1
    checks = [_check("norm_preserved", abs(n1 - n0), "<", 1e-8 * max(1.0, n0)),
              _left_patch(trace.left_patch)]
    return _finish(args, _inputs(args), checks,
                   transported=w1.tolist())


def cmd_jacobi(args):
    data, base = _geodesic_for(args)
    x0, y0, xp0, yp0 = (float(t) for t in args.init.split(","))
    jt = jacobi_field(data, base, x0, y0, xp0, yp0, args.step)
    # x' = y tau_x fixes x0' from y0; a different value would be ignored
    implied = float(jt.xp[0])
    if not abs(xp0 - implied) <= 1e-12 * max(1.0, abs(implied)):
        raise ValueError(f"--init x0' = {xp0!r} contradicts x' = y tau_x, which fixes it at "
                         f"y0 * tau_x(0) = {implied!r}")
    resid = float(np.max(np.abs(jt.xp - jt.y * jt.tau_x)))
    # the field also stops short where the K~ stencil around a base point
    # no longer fits in the chart
    checks = [_check("x_prime_equals_y_tau_x", resid, "<", 1e-10),
              _left_patch(base.left_patch or jt.left_patch)]
    return _finish(args, _inputs(args), checks,
                   csv=(["t", "x", "y", "xp", "yp"], [jt.t, jt.x, jt.y, jt.xp, jt.yp]),
                   final={"x": jt.x[-1], "y": jt.y[-1], "xp": jt.xp[-1], "yp": jt.yp[-1]})


def cmd_gauss_bonnet(args):
    data = _connection_for(args)
    spec = json.loads(_read(args.region))
    region = region_from_json(data, spec)
    resid = gauss_bonnet_residual(data, region)
    holonomy = boundary_holonomy_angle(data, region)
    checks = [_check("gauss_bonnet_residual", resid, "<", float(args.tolerance))]
    return _finish(args, _inputs(args, region=spec), checks,
                   holonomy_angle=holonomy)


def cmd_asymptotic(args):
    from .asymptotics import trace_asymptotic

    data = _connection_for(args)
    tr = trace_asymptotic(data, _pair(args.start), args.which, args.length, args.step)
    return _finish(args, _inputs(args),
                   [_left_patch(tr.left_patch)],
                   csv=(["s", "u", "v", "theta", "delta_running", "sigma_running",
                         "defect_running"], [tr.s, tr.points, tr.thetas, *tr.running_columns()]),
                   delta=tr.delta, sigma=tr.sigma, quasi_defect=tr.quasi_defect)


def _profile_from(text):
    try:
        c = float(text)
        return lambda s: c
    except ValueError:
        expr = Expression(text, ("s",))
        return lambda s: expr(s=s)


def cmd_edo(args):
    sol = solve_prop_edo(_profile_from(args.u), args.eps, step=args.step)
    checks = [_check("s0_le_s1", sol.s0, "<=", sol.s1),
              _check("s1_le_pi_over_sqrt_eps", sol.s1, "<=", np.pi / np.sqrt(args.eps) + 1e-9)]
    return _finish(args, _inputs(args), checks,
                   csv=(["s", "y", "z"], [sol.s, sol.y, sol.z]),
                   epsilon=sol.eps, s0=sol.s0, s1=sol.s1, M0=sol.m0)


def cmd_edo7(args):
    u = _profile_from(args.u)
    bump = construct_edo7(u, args.eps, args.n1, step=args.step)
    lo, hi = bump.support
    m1 = bump.m1_prime
    floor = float(np.min(bump(np.linspace(-args.n1, args.n1, 501))))
    checks = [
        _check("support_in_window", [lo, hi], "within", [-args.n1 - m1, args.n1 + m1],
               slack=1e-9),
        _check("floor_ge_1_on_core", floor, ">=", 1.0, slack=1e-9),
        _check("lipschitz_le_m1", bump.lipschitz, "<=", m1, slack=1e-9),
        _check("weak_inequality", weak_inequality_residual(bump, u), ">=", -1e-6),
    ]
    return _finish(args, _inputs(args), checks,
                   support=[lo, hi], m1_prime=m1)


def cmd_example(args):
    rep = gallery.verify_example(args.name, _parse_params(args.param))
    checks = [_check(f["name"], f["max_abs_err"], "<", f["tolerance"]) for f in rep["fields"]]
    notes = {"notes": rep["notes"]} if "notes" in rep else {}
    return _finish(args, _inputs(args), checks, **notes)


def cmd_net_check(args):
    from .asymptotics import net_expansion_check

    data = _connection_for(args)
    rep = net_expansion_check(data, _pair(args.start), (args.lu, args.lv),
                              n_u=args.nu, n_v=args.nv)
    checks = []
    applies = not rep.get("trivial") and math.isfinite(rep["bound"])
    if not rep.get("trivial"):
        # slack: the rates are differences over the net's cells; where the
        # pinching gives no torsion bound (tau0 = inf) the rates are ungated
        tol = rep["bound"] + 0.05 if applies else None
        checks = [_check("sup_du_alpha_over_alpha_beta", rep["sup_dua_over_ab"], "<=", tol),
                  _check("sup_dv_beta_over_alpha_beta", rep["sup_dvb_over_ab"], "<=", tol)]
    # strict JSON has no Infinity: an infinite tau0 or bound is written as null
    extras = {key: None if rep[key] == math.inf else rep[key]
              for key in ("tau0", "tau1", "bound", "trivial") if key in rep}
    return _finish(args, _inputs(args), checks, bound_applies=applies, **extras)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="efimov-lab",
        description="Numerical laboratory for surface connections with torsion "
                    "in pinched-curvature 3-spaces.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, example=False, report=None, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn, report=report or name)
        if example:
            sp.add_argument("--example", required=True)
            sp.add_argument("--param", action="append")
        return sp

    sp = add("check-hypothesis", cmd_check_hypothesis,
             help="evaluate the exclusion inequalities")
    sp.add_argument("--k1", type=float, required=True)
    sp.add_argument("--k2", type=float, required=True)
    sp.add_argument("--k3", type=float, required=True)

    sp = add("curvature-report", cmd_curvature_report,
             help="Riemann symmetries and sectional range")
    sp.add_argument("--metric", required=True, help="builtin name or expression file")
    sp.add_argument("--grid", default="5x5x3")

    for name, fn in (("geodesic", cmd_geodesic), ("transport", cmd_transport),
                     ("jacobi", cmd_jacobi)):
        sp = add(name, fn, example=True)
        sp.add_argument("--start", required=True, help="u,v")
        sp.add_argument("--dir", required=True, help="a,b (normalized internally)")
        sp.add_argument("--length", type=float, required=True)
        sp.add_argument("--step", type=float, default=1e-3)
        if name == "transport":
            sp.add_argument("--vector", required=True, help="a,b")
        if name == "jacobi":
            sp.add_argument("--init", default="0,0,0,1",
                            help="x0,y0,xp0,yp0, where xp0 must equal y0 * tau_x(0)")
        if name in ("geodesic", "jacobi"):
            sp.add_argument("--csv")

    sp = add("gauss-bonnet", cmd_gauss_bonnet, example=True)
    sp.add_argument("--region", required=True, help="region JSON file")
    sp.add_argument("--tolerance", type=float, default=1e-4)

    sp = add("asymptotic", cmd_asymptotic, example=True)
    sp.add_argument("--which", choices=["U", "V"], default="U")
    sp.add_argument("--start", required=True)
    sp.add_argument("--length", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--csv")

    sp = add("edo", cmd_edo, help="single-bump solution")
    sp.add_argument("--u", default="0", help="constant or expression in s")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--csv")

    sp = add("edo7", cmd_edo7, help="piecewise bump profile")
    sp.add_argument("--u", default="0")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n1", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-3)

    sp = add("example", cmd_example, report="example-verify", help="example operations")
    sp.add_argument("action", choices=["verify"])
    sp.add_argument("name")
    sp.add_argument("--param", action="append")

    sp = add("net-check", cmd_net_check, example=True)
    sp.add_argument("--start", required=True)
    sp.add_argument("--lu", type=float, required=True)
    sp.add_argument("--lv", type=float, required=True)
    sp.add_argument("--nu", type=int, default=4)
    sp.add_argument("--nv", type=int, default=4)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return p


@functools.cache
def _parser():
    """The parser, built on the first call of ``main`` and then reused:
    ``parse_args`` returns a fresh namespace and leaves the parser as it is."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (GeometryError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

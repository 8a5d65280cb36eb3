"""Command-line front end: every verification and trace as a reproducible,
scriptable run with JSON reports and CSV traces.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/configuration error.
Reports are deterministic: no timestamps, stable key order, and a digest of
the canonicalized inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import gallery
from .ambient import ChartBox, curvature_sample, metric_from_expressions
from .connection import SurfaceConnectionData, check_hypothesis
from .curves import (
    CurveTrace,
    RegionSpec,
    boundary_holonomy_angle,
    gauss_bonnet_residual,
    integrate_geodesic,
    jacobi_field,
    parallel_transport,
)
from .errors import GeometryError
from .expressions import Expression, parse_assignments
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


def _report(command, payload, checks):
    ok = all(c["pass"] for c in checks) if checks else True
    return {
        "command": command,
        "config_digest": config_digest(payload),
        "checks": checks,
        "status": "pass" if ok else "fail",
    }


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2, default=_json_default))
        return
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


def _connection_for(name, params):
    """Resolve an example name (or ``file:PATH``) to SurfaceConnectionData."""
    if name.startswith("file:"):
        return _surface_file_connection(name[5:])
    if name == "abstract_sphere":
        return gallery.abstract_sphere()
    if name == "abstract_plane":
        return gallery.abstract_plane()
    case = gallery.build_example(name, **params)
    if case.data is None:
        raise ValueError(f"example {name!r} has no surface connection attached")
    return case.data


def _surface_file_connection(path):
    """Immersion data from a surface expression file: lines ``phi1 = ...``,
    ``phi2``, ``phi3`` in (u, v), a ``box = lo hi lo hi`` line, and an
    optional ``ambient = <builtin metric>`` line (default euclidean3)."""
    from .immersion import surface_from_expressions

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
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
    fields, box = parse_assignments("\n".join(kept), ("u", "v"))
    if box is None or len(box) != 4:
        raise ValueError("surface file needs a 'box = lo hi lo hi' line")
    chart = ChartBox((box[0], box[2]), (box[1], box[3]))
    patch = surface_from_expressions(fields, chart, name=path)
    metric = _metric_for(ambient_name)
    return SurfaceConnectionData.from_immersion(patch, metric)


def _metric_for(spec_text):
    if spec_text in gallery.builtin_names():
        case = gallery.build_example(spec_text)
        if case.metric is None:
            raise ValueError(f"{spec_text!r} is not an ambient metric")
        return case.metric
    with open(spec_text, "r", encoding="utf-8") as fh:
        fields, box = parse_assignments(fh.read(), ("u", "v", "w"))
    if box is None or len(box) != 6:
        raise ValueError("metric file needs a 'box = lo hi lo hi lo hi' line")
    chart = ChartBox((box[0], box[2], box[4]), (box[1], box[3], box[5]))
    return metric_from_expressions(fields, chart, dim=3)


def _region_counts(spec, *keys):
    """The counts ``spec`` sets among ``keys``, as ints; the region
    constructors check their ranges."""
    return {key: int(spec[key]) for key in keys if key in spec}


def region_from_json(data, spec):
    if not (isinstance(spec, dict) and "center" in spec and "radius" in spec):
        raise ValueError("region must be a JSON object with 'center' and 'radius' entries")
    radius = spec["radius"]
    if not (isinstance(radius, (int, float)) and not isinstance(radius, bool)
            and np.isfinite(radius) and radius > 0):
        raise ValueError(f"region 'radius' must be a finite positive number, got {radius!r}")
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
    payload = {"k1": args.k1, "k2": args.k2, "k3": args.k3}
    report = _report("check-hypothesis", payload, [])
    report.update(verdict.to_json_dict())
    _emit(report, args.json)
    return 0


def cmd_curvature_report(args):
    metric = _metric_for(args.metric)
    dims = [int(x) for x in args.grid.lower().split("x")]
    if len(dims) != 3:
        raise ValueError("grid must look like 5x5x3")
    lo = np.asarray(metric.box.lo)
    hi = np.asarray(metric.box.hi)
    pad = 0.15 * (hi - lo) + 2 * metric.fd_margin()
    axes = [np.linspace(lo[i] + pad[i], hi[i] - pad[i], dims[i]) for i in range(3)]
    worst = {"antisym_first_pair": 0.0, "antisym_second_pair": 0.0,
             "pair_swap": 0.0, "first_bianchi": 0.0}
    k_lo, k_hi = np.inf, -np.inf
    for x in axes[0]:
        for y in axes[1]:
            for z in axes[2]:
                s = curvature_sample(metric, np.array([x, y, z]))
                for k in worst:
                    worst[k] = max(worst[k], s.symmetry_residuals[k])
                k_lo = min(k_lo, s.k_min)
                k_hi = max(k_hi, s.k_max)
    tol = 1e-8 if metric.has_analytic_partials else 1e-4
    checks = [{"name": f"riemann_{k}", "value": v, "tolerance": tol, "pass": v < tol}
              for k, v in worst.items()]
    payload = {"metric": args.metric, "grid": args.grid}
    report = _report("curvature-report", payload, checks)
    report["sectional_min"] = k_lo
    report["sectional_max"] = k_hi
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_geodesic(args):
    data = _connection_for(args.example, _parse_params(args.param))
    start = _pair(args.start)
    v = data.unit(start, _pair(args.dir))
    trace = integrate_geodesic(data, start, v, args.length, args.step)
    drift = abs(data.norm(trace.points[-1], trace.velocities[-1]) - 1.0)
    checks = [{"name": "unit_speed_drift", "value": drift,
               "tolerance": 1e-8 * max(1.0, args.length), "pass":
               drift < 1e-8 * max(1.0, args.length)},
              {"name": "stayed_in_patch", "value": trace.left_patch,
               "tolerance": False, "pass": not trace.left_patch}]
    payload = {"example": args.example, "start": args.start, "dir": args.dir,
               "length": args.length, "step": args.step}
    report = _report("geodesic", payload, checks)
    report["endpoint"] = trace.points[-1].tolist()
    report["end_velocity"] = trace.velocities[-1].tolist()
    if args.csv:
        trace.to_csv(args.csv)
        report["csv"] = args.csv
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_transport(args):
    data = _connection_for(args.example, _parse_params(args.param))
    start = _pair(args.start)
    v = data.unit(start, _pair(args.dir))
    trace = integrate_geodesic(data, start, v, args.length, args.step)
    w0 = _pair(args.vector)
    w1 = parallel_transport(data, trace, w0)
    n0 = data.norm(trace.points[0], w0)
    n1 = data.norm(trace.points[-1], w1)
    drift = abs(n1 - n0)
    tol = 1e-8 * max(1.0, n0)  # relative to the vector's norm once it exceeds 1
    checks = [{"name": "norm_preserved", "value": drift, "tolerance": tol,
               "pass": drift < tol},
              {"name": "stayed_in_patch", "value": trace.left_patch,
               "tolerance": False, "pass": not trace.left_patch}]
    payload = {"example": args.example, "start": args.start, "dir": args.dir,
               "vector": args.vector, "length": args.length, "step": args.step}
    report = _report("transport", payload, checks)
    report["transported"] = w1.tolist()
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_jacobi(args):
    data = _connection_for(args.example, _parse_params(args.param))
    start = _pair(args.start)
    v = data.unit(start, _pair(args.dir))
    base = integrate_geodesic(data, start, v, args.length, args.step)
    x0, y0, xp0, yp0 = (float(t) for t in args.init.split(","))
    jt = jacobi_field(data, base, x0, y0, xp0, yp0, args.step)
    resid = float(np.max(np.abs(jt.xp - jt.y * jt.tau_x)))
    # the field also stops short where the K~ stencil around a base point
    # no longer fits in the chart
    left = base.left_patch or jt.left_patch
    checks = [{"name": "x_prime_equals_y_tau_x", "value": resid,
               "tolerance": 1e-10, "pass": resid < 1e-10},
              {"name": "stayed_in_patch", "value": left,
               "tolerance": False, "pass": not left}]
    payload = {"example": args.example, "start": args.start, "dir": args.dir,
               "length": args.length, "step": args.step, "init": args.init}
    report = _report("jacobi", payload, checks)
    report["final"] = {"x": jt.x[-1], "y": jt.y[-1], "xp": jt.xp[-1], "yp": jt.yp[-1]}
    if args.csv:
        jt.to_csv(args.csv)
        report["csv"] = args.csv
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_gauss_bonnet(args):
    data = _connection_for(args.example, _parse_params(args.param))
    with open(args.region, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    region = region_from_json(data, spec)
    resid = gauss_bonnet_residual(data, region)
    tol = float(args.tolerance)
    holonomy = boundary_holonomy_angle(data, region)
    checks = [{"name": "gauss_bonnet_residual", "value": resid, "tolerance": tol,
               "pass": resid < tol}]
    payload = {"example": args.example, "region": spec}
    report = _report("gauss-bonnet", payload, checks)
    report["holonomy_angle"] = holonomy
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_asymptotic(args):
    from .asymptotics import trace_asymptotic

    data = _connection_for(args.example, _parse_params(args.param))
    start = _pair(args.start)
    tr = trace_asymptotic(data, start, args.which, args.length, args.step)
    checks = [{"name": "stayed_in_patch", "value": tr.left_patch,
               "tolerance": False, "pass": not tr.left_patch}]
    payload = {"example": args.example, "which": args.which, "start": args.start,
               "length": args.length, "step": args.step}
    report = _report("asymptotic", payload, checks)
    report["delta"] = tr.delta
    report["sigma"] = tr.sigma
    report["quasi_defect"] = tr.quasi_defect
    if args.csv:
        tr.to_csv(args.csv)
        report["csv"] = args.csv
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def _profile_from(text):
    try:
        c = float(text)
        return lambda s: c
    except ValueError:
        expr = Expression(text, ("s",))
        return lambda s: expr(s=s)


def cmd_edo(args):
    u = _profile_from(args.u)
    sol = solve_prop_edo(u, args.eps, step=args.step)
    s1_cap = np.pi / np.sqrt(args.eps)
    checks = [
        {"name": "s0_le_s1", "value": sol.s0, "tolerance": sol.s1, "pass": sol.s0 <= sol.s1},
        {"name": "s1_le_pi_over_sqrt_eps", "value": sol.s1, "tolerance": s1_cap + 1e-9,
         "pass": sol.s1 <= s1_cap + 1e-9},
    ]
    payload = {"u": args.u, "eps": args.eps, "step": args.step}
    report = _report("edo", payload, checks)
    report.update(sol.header())
    if args.csv:
        sol.to_csv(args.csv)
        report["csv"] = args.csv
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_edo7(args):
    u = _profile_from(args.u)
    bump = construct_edo7(u, args.eps, args.n1, step=args.step)
    lo, hi = bump.support
    m1 = bump.m1_prime
    xs = np.linspace(-args.n1, args.n1, 501)
    floor = float(np.min(bump(xs)))
    weak = weak_inequality_residual(bump, u)
    checks = [
        {"name": "support_in_window", "value": [lo, hi],
         "tolerance": [-args.n1 - m1, args.n1 + m1],
         "pass": lo >= -args.n1 - m1 - 1e-9 and hi <= args.n1 + m1 + 1e-9},
        {"name": "floor_ge_1_on_core", "value": floor, "tolerance": 1.0,
         "pass": floor >= 1.0 - 1e-9},
        {"name": "lipschitz_le_m1", "value": bump.lipschitz, "tolerance": m1,
         "pass": bump.lipschitz <= m1 + 1e-9},
        {"name": "weak_inequality", "value": weak, "tolerance": -1e-6,
         "pass": weak >= -1e-6},
    ]
    payload = {"u": args.u, "eps": args.eps, "n1": args.n1, "step": args.step}
    report = _report("edo7", payload, checks)
    report["support"] = [lo, hi]
    report["m1_prime"] = m1
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_example(args):
    if args.action != "verify":
        raise ValueError(f"unknown example action {args.action!r}")
    rep = gallery.verify_example(args.name, _parse_params(args.param))
    checks = [{"name": f["name"], "value": f["max_abs_err"],
               "tolerance": f["tolerance"], "pass": f["pass"]} for f in rep["fields"]]
    payload = {"name": args.name, "param": sorted(args.param or [])}
    report = _report("example-verify", payload, checks)
    if "notes" in rep:
        report["notes"] = rep["notes"]
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


def cmd_net_check(args):
    from .asymptotics import net_expansion_check

    data = _connection_for(args.example, _parse_params(args.param))
    rep = net_expansion_check(data, _pair(args.start), (args.lu, args.lv),
                              n_u=args.nu, n_v=args.nv)
    checks = []
    if not rep.get("trivial"):
        bound = rep["bound"]
        tol = bound + args.slack
        checks = [
            {"name": "sup_du_alpha_over_alpha_beta", "value": rep["sup_dua_over_ab"],
             "tolerance": tol, "pass": rep["sup_dua_over_ab"] <= tol},
            {"name": "sup_dv_beta_over_alpha_beta", "value": rep["sup_dvb_over_ab"],
             "tolerance": tol, "pass": rep["sup_dvb_over_ab"] <= tol},
        ]
    payload = {"example": args.example, "start": args.start, "lu": args.lu,
               "lv": args.lv, "nu": args.nu, "nv": args.nv}
    report = _report("net-check", payload, checks)
    for key in ("tau0", "tau1", "bound"):
        if key in rep:
            report[key] = rep[key]
    if rep.get("trivial"):
        report["trivial"] = True
    _emit(report, args.json)
    return 0 if report["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# parser


def build_parser():
    p = argparse.ArgumentParser(
        prog="efimov-lab",
        description="Numerical laboratory for surface connections with torsion "
                    "in pinched-curvature 3-spaces.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("check-hypothesis", help="evaluate the exclusion inequalities")
    sp.add_argument("--k1", type=float, required=True)
    sp.add_argument("--k2", type=float, required=True)
    sp.add_argument("--k3", type=float, required=True)
    add_json(sp)
    sp.set_defaults(fn=cmd_check_hypothesis)

    sp = sub.add_parser("curvature-report", help="Riemann symmetries and sectional range")
    sp.add_argument("--metric", required=True, help="builtin name or expression file")
    sp.add_argument("--grid", default="5x5x3")
    add_json(sp)
    sp.set_defaults(fn=cmd_curvature_report)

    for name, fn in (("geodesic", cmd_geodesic), ("transport", cmd_transport),
                     ("jacobi", cmd_jacobi)):
        sp = sub.add_parser(name)
        sp.add_argument("--example", required=True)
        sp.add_argument("--param", action="append")
        sp.add_argument("--start", required=True, help="u,v")
        sp.add_argument("--dir", required=True, help="a,b (normalized internally)")
        sp.add_argument("--length", type=float, required=True)
        sp.add_argument("--step", type=float, default=1e-3)
        if name == "transport":
            sp.add_argument("--vector", required=True, help="a,b")
        if name == "jacobi":
            sp.add_argument("--init", default="0,0,0,1", help="x0,y0,xp0,yp0")
        if name in ("geodesic", "jacobi"):
            sp.add_argument("--csv")
        add_json(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("gauss-bonnet")
    sp.add_argument("--example", required=True)
    sp.add_argument("--param", action="append")
    sp.add_argument("--region", required=True, help="region JSON file")
    sp.add_argument("--tolerance", type=float, default=1e-4)
    add_json(sp)
    sp.set_defaults(fn=cmd_gauss_bonnet)

    sp = sub.add_parser("asymptotic")
    sp.add_argument("--example", required=True)
    sp.add_argument("--param", action="append")
    sp.add_argument("--which", choices=["U", "V"], default="U")
    sp.add_argument("--start", required=True)
    sp.add_argument("--length", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--csv")
    add_json(sp)
    sp.set_defaults(fn=cmd_asymptotic)

    sp = sub.add_parser("edo", help="single-bump solution")
    sp.add_argument("--u", default="0", help="constant or expression in s")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--csv")
    add_json(sp)
    sp.set_defaults(fn=cmd_edo)

    sp = sub.add_parser("edo7", help="piecewise bump profile")
    sp.add_argument("--u", default="0")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n1", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-3)
    add_json(sp)
    sp.set_defaults(fn=cmd_edo7)

    sp = sub.add_parser("example", help="example operations")
    sp.add_argument("action", choices=["verify"])
    sp.add_argument("name")
    sp.add_argument("--param", action="append")
    add_json(sp)
    sp.set_defaults(fn=cmd_example)

    sp = sub.add_parser("net-check")
    sp.add_argument("--example", required=True)
    sp.add_argument("--param", action="append")
    sp.add_argument("--start", required=True)
    sp.add_argument("--lu", type=float, required=True)
    sp.add_argument("--lv", type=float, required=True)
    sp.add_argument("--nu", type=int, default=4)
    sp.add_argument("--nv", type=int, default=4)
    sp.add_argument("--slack", type=float, default=0.05)
    add_json(sp)
    sp.set_defaults(fn=cmd_net_check)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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

import ast
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import efimov_lab
from efimov_lab.cli import main, write_csv


def run_cli(*argv):
    from io import StringIO
    import contextlib

    out = StringIO()
    err = StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_check_hypothesis_efimov():
    code, out, _ = run_cli("check-hypothesis", "--k1", "-1", "--k2", "0",
                           "--k3", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["excluded"] is True
    assert doc["margin"] == 16.0
    assert set(doc).issuperset({"regime", "lhs", "rhs", "margin", "excluded",
                                "sit_check", "th1_cond0", "th1_tau0"})


def test_check_hypothesis_invalid_exits_2():
    code, _, err = run_cli("check-hypothesis", "--k1", "1", "--k2", "2", "--k3", "3")
    assert code == 2
    assert "error" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli("check-hypothesis", "--k1", "-1", "--k2", "0",
                         "--k3", "0", "--frobnicate")
    capsys.readouterr()
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli("no-such-command")
    capsys.readouterr()
    assert code == 2


def test_one_parser_serves_every_call_of_a_process(monkeypatch):
    """main builds its parser once per process.  A usage error, appended
    --param values and a change of subcommand leave nothing behind: each call
    gives the exit code and JSON of the same call made first."""
    from efimov_lab import cli

    geodesic = ["geodesic", "--example", "hyperbolic_deformed", "--start", "1,0",
                "--dir", "1,0.3", "--length", "0.05", "--step", "1e-2", "--json"]
    calls = [
        ["check-hypothesis", "--k1", "-1", "--frobnicate"],
        ["check-hypothesis", "--k1", "-1", "--k2", "0", "--k3", "0", "--json"],
        [*geodesic, "--param", "t=1.5", "--param", "profile=tanh"],
        [*geodesic, "--param", "t=1"],
        ["edo", "--u", "0", "--eps", "1", "--step", "1e-3", "--json"],
        ["check-hypothesis", "--k1", "-2", "--k2", "-1", "--k3", "0", "--json"],
    ]
    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run_cli(*argv)[:2])
    assert [code for code, _ in first] == [2, 0, 0, 0, 0, 0]
    cli._parser.cache_clear()
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    assert [run_cli(*argv)[:2] for argv in calls] == first
    assert len(built) == 1


def test_edo_header_values():
    code, out, _ = run_cli("edo", "--u", "0", "--eps", "1", "--step", "1e-4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["s0"] - 2.651635327336065) < 1e-6
    assert abs(doc["s1"] - 2.896613990462929) < 1e-6
    assert abs(doc["M0"] - np.sqrt(17.0)) < 1e-6


def test_edo_expression_profile():
    code, out, _ = run_cli("edo", "--u", "0.2*sin(s)", "--eps", "1", "--step",
                           "1e-3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["s1"] <= np.pi + 1e-9


def test_edo7_contracts():
    code, out, _ = run_cli("edo7", "--u", "0", "--eps", "1", "--n1", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    names = {c["name"]: c["pass"] for c in doc["checks"]}
    assert all(names.values())


def test_determinism_byte_identical():
    _, out1, _ = run_cli("check-hypothesis", "--k1", "-1", "--k2", "-0.5",
                         "--k3", "-0.25", "--json")
    _, out2, _ = run_cli("check-hypothesis", "--k1", "-1", "--k2", "-0.5",
                         "--k3", "-0.25", "--json")
    assert out1 == out2
    _, e1, _ = run_cli("edo", "--u", "0", "--eps", "4", "--json")
    _, e2, _ = run_cli("edo", "--u", "0", "--eps", "4", "--json")
    assert e1 == e2


def test_geodesic_trace_and_csv(tmp_path):
    csv = tmp_path / "trace.csv"
    code, out, _ = run_cli("geodesic", "--example", "abstract_sphere", "--start",
                           "1,0", "--dir", "0,1", "--length", "6.283185307179586",
                           "--step", "1e-3", "--csv", str(csv), "--json")
    assert code == 0
    doc = json.loads(out)
    end = np.array(doc["endpoint"])
    assert np.linalg.norm(end - [1.0, 0.0]) < 1e-5
    lines = csv.read_text().splitlines()
    assert lines[0] == "s,u,v,du,dv"
    # 17 significant digits round-trip 64-bit floats exactly
    val = float(lines[1].split(",")[1])
    assert val == 1.0
    assert len(lines) == 6285 + 1


def test_transport_command():
    code, out, _ = run_cli("transport", "--example", "abstract_plane", "--start",
                           "0,0", "--dir", "1,0", "--length", "2", "--step", "1e-3",
                           "--vector", "0,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert np.max(np.abs(np.array(doc["transported"]) - [0.0, 1.0])) < 1e-12


def test_transport_command_reports_the_tolerance_it_applies():
    code, out, _ = run_cli("transport", "--example", "hyperbolic_deformed", "--param",
                           "t=1.5", "--start", "1.2,0.1", "--dir", "1,0.4", "--length", "1",
                           "--step", "1e-2", "--vector", "30,40", "--json")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["name"] == "norm_preserved"
    assert check["pass"] == (check["value"] < check["tolerance"])


def test_jacobi_command():
    code, out, _ = run_cli("jacobi", "--example", "abstract_sphere", "--start", "1,0",
                           "--dir", "0,1", "--length", "1.5", "--step", "1e-3",
                           "--init", "0,0,0,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["final"]["y"] - np.sin(1.5)) < 1e-5
    assert {c["name"]: c["pass"] for c in doc["checks"]}["left_patch"] is True


def test_jacobi_rejects_an_initial_x_prime_the_system_overrides():
    """x' = y tau_x fixes x0' from y0: a different --init x0' exits 2 with
    the implied value, which is accepted, as is 0,0,0,1."""
    argv = ("jacobi", "--example", "hyperbolic_deformed", "--param", "t=2", "--start", "1,0",
            "--dir", "0,1", "--length", "0.3", "--step", "0.01", "--json")
    code, out, err = run_cli(*argv, "--init", "0,1,5,1")
    assert code == 2 and out == ""
    implied = float(re.search(r"y0 \* tau_x\(0\) = (\S+)$", err.strip()).group(1))
    assert abs(implied - 0.5266) < 1e-4  # the x' the field's first row reports
    code, out, _ = run_cli(*argv, "--init", f"0,1,{implied!r},1")
    assert code == 0 and json.loads(out)["final"]["x"] != 0.0
    assert run_cli(*argv, "--init", "0,1,0,1")[0] == 2
    assert run_cli(*argv, "--init", "0,0,0,1")[0] == 0


def test_transport_command_reports_leaving_the_chart():
    code, out, _ = run_cli("transport", "--example", "saddle", "--start", "0.5,0.2",
                           "--dir", "1,0.3", "--length", "2", "--step", "1e-2",
                           "--vector", "0,1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    check = {c["name"]: c for c in doc["checks"]}["left_patch"]
    assert check["value"] is True and check["pass"] is False


def test_jacobi_command_reports_leaving_the_chart():
    for argv in (
        # the saddle's axis geodesic u = tan(s + atan 0.7) leaves the box
        # |u| <= 1 at s = pi/4 - atan 0.7 ~ 0.18, well short of the length
        ("--example", "saddle", "--start", "0.7,0", "--dir", "1,0", "--length", "0.5"),
        # the chart line v = 0 is a geodesic that runs into the edge u = 2.5;
        # the K~ stencil around its last points no longer fits in the chart
        ("--example", "abstract_sphere", "--start", "0,0", "--dir", "1,0",
         "--length", "3"),
        # a geodesic that grazes the edge r = 0.05 and turns back: every RK4
        # sample keeps r >= 0.051, but the closest approach r ~ 0.0508 falls
        # between two samples, where the field reads K~ and its stencil
        # reaches past the edge
        ("--example", "hyperbolic_deformed", "--param", "t=0", "--start", "0.9967,0",
         "--dir=-0.99906,0.037119", "--length", "1.99"),
    ):
        code, out, _ = run_cli("jacobi", *argv, "--step", "1e-2", "--init", "0,0,0,1",
                               "--json")
        assert code == 1, argv
        doc = json.loads(out)
        assert doc["status"] == "fail"
        check = {c["name"]: c for c in doc["checks"]}["left_patch"]
        assert check["value"] is True and check["pass"] is False


def test_gauss_bonnet_command(tmp_path):
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"kind": "coordinate_disk", "center": [0.0, 0.0],
                                  "radius": 0.57735, "n_boundary": 301,
                                  "n_radial": 16, "n_angular": 48}))
    code, out, _ = run_cli("gauss-bonnet", "--example", "abstract_sphere",
                           "--region", str(region), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["value"] < 1e-4


@pytest.mark.parametrize("spec", [
    {"kind": "coordinate_disk", "radius": 0.5},  # no center
    [{"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": 0.5}],  # an array
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": 0.5, "n_boundary": 0},
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": 0.5, "n_boundary": 1},
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": 0.5, "n_radial": 0},
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": 0.5, "n_angular": 0},
    {"kind": "geodesic_disk", "center": [0.0, 0.0], "radius": 0.5, "n_rays": 1},
    {"kind": "geodesic_disk", "center": [0.0, 0.0], "radius": 0.5, "n_radial": 0},
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": 0},
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": -0.5},
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": "0.5"},
    {"kind": "coordinate_disk", "center": [0.0, 0.0], "radius": float("inf")},
])
def test_gauss_bonnet_malformed_region_exits_2(tmp_path, spec):
    region = tmp_path / "region.json"
    region.write_text(json.dumps(spec))
    code, _, err = run_cli("gauss-bonnet", "--example", "abstract_sphere",
                           "--region", str(region))
    assert code == 2
    assert "region" in err


def _digest(out):
    """The digest of a text or a JSON report."""
    if out.startswith("{"):
        return json.loads(out)["config_digest"]
    return out.split("[digest ", 1)[1].split("]", 1)[0]


def test_digest_covers_every_input_but_the_output_options(tmp_path):
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"kind": "coordinate_disk", "center": [1.2, 0.3],
                                  "radius": 0.3, "n_boundary": 41, "n_radial": 4,
                                  "n_angular": 8}))
    argv = ("gauss-bonnet", "--example", "hyperbolic_deformed", "--region", str(region))
    digests = {t: _digest(run_cli(*argv, "--param", f"t={t}")[1]) for t in (2, 3)}
    assert digests[2] != digests[3]
    assert _digest(run_cli(*argv, "--param", "t=2", "--json")[1]) == digests[2]
    edo = ("edo", "--u", "0", "--eps", "1", "--step", "1e-3")
    plain = _digest(run_cli(*edo)[1])
    assert _digest(run_cli(*edo, "--json")[1]) == plain
    assert _digest(run_cli(*edo, "--csv", str(tmp_path / "edo.csv"))[1]) == plain
    # a metric or surface file is keyed by its text, not its path
    metric = tmp_path / "m.txt"
    surface = tmp_path / "s.txt"
    curvature = ("curvature-report", "--metric", str(metric), "--grid", "3x3x3")
    net = ("net-check", "--example", f"file:{surface}", "--start", "0,0",
           "--lu", "0.05", "--lv", "0.05", "--nu", "2", "--nv", "2")
    digests = []
    for g11, phi3 in (("cosh(v)^2", "u*v"), ("cosh(2*v)^2", "u*v + u^3")):
        metric.write_text(f"box = -1 1 -1 1 -0.2 0.2\ng11 = {g11}\ng22 = 1\ng33 = 1\n")
        surface.write_text(f"box = -1 1 -1 1\nphi1 = u\nphi2 = v\nphi3 = {phi3}\n")
        digests.append((_digest(run_cli(*curvature)[1]), _digest(run_cli(*net)[1])))
    assert digests[0][0] != digests[1][0] and digests[0][1] != digests[1][1]


def test_digest_keys_a_surface_files_metric_file_by_its_text(tmp_path):
    """A surface file's ``ambient = FILE`` line enters the digest by that
    metric file's text: rewriting the metric file changes the digest."""
    metric = tmp_path / "m.txt"
    surface = tmp_path / "s.txt"
    surface.write_text(f"ambient = {metric}\nbox = -0.5 0.5 -0.5 0.5\n"
                       "phi1 = u\nphi2 = v\nphi3 = u*v\n")
    geodesic = ("geodesic", "--example", f"file:{surface}", "--start", "0.1,0.1",
                "--dir", "1,0", "--length", "0.02", "--step", "0.01", "--json")
    digests = []
    for scale in ("1", "1.5"):
        metric.write_text(f"box = -1 1 -1 1 -1 1\ng11 = {scale}\ng22 = {scale}\ng33 = 1\n")
        code, out, err = run_cli(*geodesic)
        assert code in (0, 1), err  # a report, pass or fail
        digests.append(_digest(out))
    assert digests[0] != digests[1]
    assert _digest(run_cli(*geodesic)[1]) == digests[1]


@pytest.mark.parametrize("argv", [
    ("edo", "--u", "0", "--eps", "1"),
    ("jacobi", "--example", "abstract_sphere", "--start", "1,0", "--dir", "0,1",
     "--length", "1.5", "--init", "0,0,0,1"),
])
def test_text_report_prints_plain_numbers(argv):
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert "np." not in out


def test_package_imports_without_scipy():
    """The runtime is numpy-only: scipy is a test oracle, never imported by
    the package or its console script."""
    probe = ("import sys, efimov_lab, efimov_lab.cli\n"
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_asymptotic_command_csv(tmp_path):
    csv = tmp_path / "asym.csv"
    code, out, _ = run_cli("asymptotic", "--example", "saddle", "--which", "U",
                           "--start", "0,0", "--length", "0.1", "--step", "5e-3",
                           "--csv", str(csv), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] > 3.0
    header = csv.read_text().splitlines()[0]
    assert header == "s,u,v,theta,delta_running,sigma_running,defect_running"


def test_example_verify_pass_and_fail():
    code, out, _ = run_cli("example", "verify", "clifford_torus", "--json")
    assert code == 0
    # the slab entries of g_lambda are z=0 closed forms; full-grid check fails
    code, out, _ = run_cli("example", "verify", "g_lambda", "--param",
                           "lambda=1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"


def test_curvature_report_builtin():
    code, out, _ = run_cli("curvature-report", "--metric", "sphere3", "--grid",
                           "3x3x3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["sectional_min"] - 1.0) < 1e-6
    assert abs(doc["sectional_max"] - 1.0) < 1e-6


def test_curvature_report_expression_file(tmp_path):
    """Flat space in polar coordinates, K = 0, and dw^2 + e^{2cw}(du^2 + dv^2),
    K = -c^2: with exact derivatives a metric file's report meets K to
    1e-12, and its four symmetry checks are gated at 1e-8."""
    f = tmp_path / "metric.txt"
    for text, k in (("box = 0.5 3 -3 3 -1 1\ng11 = 1\ng22 = u^2\ng33 = 1\n", 0.0),
                    ("box = -1 1 -1 1 -0.5 0.5\ng11 = exp(2*0.8*w)\ng22 = exp(2*0.8*w)\n"
                     "g33 = 1\n", -0.64)):
        f.write_text(text)
        code, out, _ = run_cli("curvature-report", "--metric", str(f), "--grid", "9x9x5",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["sectional_min"] - k) < 1e-12 and abs(doc["sectional_max"] - k) < 1e-12
        checks = {c["name"]: c for c in doc["checks"]}
        assert sorted(checks) == sorted(f"riemann_{name}" for name in (
            "antisym_first_pair", "antisym_second_pair", "pair_swap", "first_bianchi"))
        assert all(c["pass"] and c["tolerance"] == 1e-8 for c in checks.values())


def test_bad_metric_file_exits_2(tmp_path):
    f = tmp_path / "metric.txt"
    f.write_text("g11 = 1\n")  # no box line
    code, _, err = run_cli("curvature-report", "--metric", str(f))
    assert code == 2


@pytest.mark.parametrize("g11,message", [
    ("(u-2)^0.5", "failed to evaluate '(u-2)^0.5' at {'u': "),
    ("ln(u)", "failed to evaluate 'ln(u)' at {'u': "),
    ("1/u", "failed to evaluate '1/u' at {'u': "),
    # finite values, up to e^700, whose exact second derivative overflows
    ("exp(1000*u)", "failed to evaluate 'd(d(exp(1000*u))/du)/du' at {'u': 0.7, "),
    # defined, with a first derivative undefined at u = 0
    ("1 + (u*u)^0.5", "failed to evaluate 'd(1 + (u*u)^0.5)/du' at {'u': 0.0, "),
])
def test_metric_file_undefined_inside_the_box_exits_2(tmp_path, g11, message):
    """An expression, or one of its exact derivatives, undefined at a grid
    point is a typed error naming the expression and the point, exit 2,
    and never a numpy warning."""
    f = tmp_path / "metric.txt"
    f.write_text(f"box = -1 1 -1 1 -0.5 0.5\ng11 = {g11}\ng22 = 1\ng33 = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("curvature-report", "--metric", str(f), "--grid", "3x3x3")
    assert code == 2 and out == ""
    assert message in err


NET = ("net-check", "--example", "saddle", "--start", "0,0")
NET_KEYS = {"command", "config_digest", "checks", "status", "tau0", "tau1", "bound",
            "bound_applies"}
RATES = ["sup_du_alpha_over_alpha_beta", "sup_dv_beta_over_alpha_beta"]


def strict_json(text):
    """The report parsed as strict JSON: a bare Infinity or NaN raises."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_net_check_command():
    """On the saddle the bound tau0 + 2 tau1 is finite and gates both rates."""
    code, out, _ = run_cli(*NET, "--lu", "0.08", "--lv", "0.08", "--nu", "3", "--nv", "3",
                           "--json")
    assert code == 0
    doc = strict_json(out)
    assert doc["status"] == "pass"
    assert set(doc) == NET_KEYS and doc["bound_applies"] is True
    assert 0.0 <= doc["tau0"] < math.inf and doc["bound"] == doc["tau0"] + 2 * doc["tau1"]
    assert [c["name"] for c in doc["checks"]] == RATES
    assert all(c["tolerance"] == doc["bound"] + 0.05 for c in doc["checks"])


def test_net_check_reports_its_rates_ungated_where_the_bound_is_infinite():
    """On the lambda = 0.6 slab slice from (0.1, 0.1) the measured pinching
    gives no torsion bound (tau0 = inf): the report says ``bound_applies:
    false``, writes tau0 and the bound as null and reports both rates
    ungated, in place of a pass against an infinite tolerance."""
    code, out, _ = run_cli("net-check", "--example", "hyperbolic_slice", "--param", "lambda=0.6",
                           "--start", "0.1,0.1", "--lu", "0.4", "--lv", "0.4", "--json")
    doc = strict_json(out)
    assert set(doc) == NET_KEYS and doc["bound_applies"] is False
    assert doc["tau0"] is None and doc["bound"] is None and doc["tau1"] > 0.0
    assert [c["name"] for c in doc["checks"]] == RATES
    assert all(c["tolerance"] is None for c in doc["checks"])
    assert code == 0 and doc["status"] == "pass"


@pytest.mark.parametrize("option", ["--nu", "--nv", "--lu", "--lv"])
def test_net_check_zero_side_is_trivial(option):
    """A zero count or a zero length on either side is a trivial net."""
    sides = {"--lu": "0.1", "--lv": "0.1", "--nu": "2", "--nv": "2", option: "0"}
    code, out, _ = run_cli(*NET, *(x for kv in sides.items() for x in kv), "--json")
    assert code == 0
    doc = strict_json(out)
    assert doc["trivial"] is True and doc["bound_applies"] is False and doc["checks"] == []


@pytest.mark.parametrize("option,value,message", [
    ("--nu", "-1", "n_u must be an integer >= 0, got -1"),
    ("--nv", "-2", "n_v must be an integer >= 0, got -2"),
    ("--lu", "-0.1", "L_u must be finite and >= 0, got -0.1"),
    ("--lv", "inf", "L_v must be finite and >= 0, got inf"),
    ("--lv", "nan", "L_v must be finite and >= 0, got nan"),
])
def test_net_check_bad_side_exits_2_naming_the_value(option, value, message):
    sides = {"--lu": "0.1", "--lv": "0.1", "--nu": "2", "--nv": "2", option: value}
    code, out, err = run_cli(*NET, *(x for kv in sides.items() for x in kv))
    assert code == 2 and out == ""
    assert message in err


def test_net_check_base_line_off_the_box_exits_2():
    """The base U-line of a net 2 long runs off the saddle's box: LeftPatch."""
    code, out, err = run_cli(*NET, "--lu", "2", "--lv", "0.1")
    assert code == 2 and out == ""
    assert "the trace leaves the chart" in err


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    rows = np.array([[np.pi, 1e-17], [1.0 / 3.0, -2.5]])
    write_csv(path, ["a", "b"], rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    back = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.all(back == rows)


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "efimov_lab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("check-hypothesis", "curvature-report", "geodesic", "transport",
                "jacobi", "gauss-bonnet", "asymptotic", "edo", "edo7", "example",
                "net-check"):
        assert sub in proc.stdout


def test_surface_expression_file(tmp_path):
    f = tmp_path / "surface.txt"
    f.write_text(
        "ambient = euclidean3\n"
        "box = -1 1 -1 1\n"
        "phi1 = u\n"
        "phi2 = v\n"
        "phi3 = u*v\n")
    code, out, _ = run_cli("geodesic", "--example", f"file:{f}", "--start", "0,0",
                           "--dir", "1,0", "--length", "0.2", "--step", "1e-2",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    # the axis geodesic of the saddle's compatible connection obeys
    # u = tan(arclength): third-form-unit speed stretches the coordinate
    assert abs(doc["endpoint"][0] - np.tan(0.2)) < 1e-6


@pytest.mark.parametrize("argv", [
    ("geodesic", "--start", "0,0", "--dir", "1,1", "--length", "0.5", "--step", "1e-2"),
    ("transport", "--start", "0.1,-0.2", "--dir", "0.6,0.8", "--length", "0.15",
     "--step", "0.01", "--vector", "0.3,-0.5"),
])
def test_surface_file_saddle_holds_the_builtin_gates(tmp_path, argv):
    """A file surface takes exact partials from its derivative expressions,
    so the saddle file meets the 1e-8 unit-speed and norm gates that the
    built-in saddle meets; with central-difference partials both failed
    (drifts 5.3e-6 and 4.6e-8)."""
    f = tmp_path / "surface.txt"
    f.write_text("box = -1 1 -1 1\nphi1 = u\nphi2 = v\nphi3 = u*v\n")
    code, out, _ = run_cli(argv[0], "--example", f"file:{f}", *argv[1:], "--json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_surface_file_ambient_line_without_value_exits_2(tmp_path):
    f = tmp_path / "surface.txt"
    f.write_text("ambient euclidean3\nbox = -1 1 -1 1\nphi1 = u\nphi2 = v\nphi3 = u*v\n")
    code, _, err = run_cli("geodesic", "--example", f"file:{f}", "--start", "0,0",
                           "--dir", "1,0", "--length", "0.2", "--step", "1e-2")
    assert code == 2
    assert "ambient" in err


SURFACE = "box = -1 1 -1 1\nphi1 = u\nphi2 = v\nphi3 = u*v\n"
METRIC = "box = -1 1 -1 1 -0.5 0.5\ng11 = 1 + 0.1*u*u\ng22 = 1\ng33 = 1\n"


@pytest.mark.parametrize("kind,extra,names", [
    ("metric", "g12 = 0.1\ng21 = 0.3\n", ["'g12' and 'g21'"]),
    ("metric", "g1 = 5\n", ["'g1'"]),
    ("metric", "phi1 = 2\n", ["'phi1'"]),
    ("surface", "phi4 = 7\n", ["'phi4'"]),
    ("surface", "foo = u\n", ["'foo'"]),
])
def test_stray_or_duplicate_file_names_exit_2(tmp_path, kind, extra, names):
    """A name that is no entry of a metric or surface file, or both names of
    one off-diagonal metric entry, exits 2 naming them, with no output and
    no warning."""
    f = tmp_path / f"{kind}.txt"
    f.write_text((METRIC if kind == "metric" else SURFACE) + extra)
    argv = (("curvature-report", "--metric", str(f), "--grid", "3x3x3") if kind == "metric"
            else ("geodesic", "--example", f"file:{f}", "--start", "0,0", "--dir", "1,0",
                  "--length", "0.1", "--step", "1e-2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert all(name in err for name in names), err


def test_lone_lower_triangle_metric_name_reads_as_its_entry(tmp_path):
    """``g21`` alone is the entry ``g12``: the report's curvature equals the
    one of the same file written with ``g12``."""
    reports = []
    for name in ("g12", "g21"):
        f = tmp_path / f"{name}.txt"
        f.write_text(METRIC + f"{name} = 0.1*v\n")
        code, out, _ = run_cli("curvature-report", "--metric", str(f), "--grid", "3x3x3",
                               "--json")
        assert code == 0
        reports.append(json.loads(out))
    for key in ("sectional_min", "sectional_max"):
        assert reports[0][key] == reports[1][key] and reports[0][key] != 0.0


def test_edo_csv_output(tmp_path):
    csv = tmp_path / "bump.csv"
    code, out, _ = run_cli("edo", "--u", "0", "--eps", "1", "--step", "1e-3",
                           "--csv", str(csv), "--json")
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "s,y,z"
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 4.0]


def test_jacobi_csv_output(tmp_path):
    csv = tmp_path / "jac.csv"
    code, _, _ = run_cli("jacobi", "--example", "abstract_sphere", "--start", "1,0",
                         "--dir", "0,1", "--length", "0.5", "--step", "1e-2",
                         "--init", "0,0,0,1", "--csv", str(csv))
    assert code == 0
    assert csv.read_text().splitlines()[0] == "t,x,y,xp,yp"


@pytest.mark.parametrize("argv", [
    ("asymptotic", "--example", "saddle", "--which", "U", "--start", "0,0", "--length", "-1"),
    ("geodesic", "--example", "abstract_plane", "--start", "0,0", "--dir", "1,0",
     "--length", "-1"),
])
def test_negative_length_exits_2(argv):
    code, out, err = run_cli(*argv, "--json")
    assert code == 2 and out == ""
    assert "length" in err


@pytest.mark.parametrize("argv, word", [
    (("geodesic", "--example", "hyperbolic_slice", "--param", "lamda=2"), "lamda"),
    (("geodesic", "--example", "saddle", "--param", "radius=3"), "radius"),
    (("jacobi", "--example", "hyperbolic_deformed", "--param", "t=2", "--init", "0,nan,0,1"),
     "finite"),
])
def test_unknown_parameter_or_non_finite_input_exits_2(argv, word):
    code, out, err = run_cli(*argv, "--start", "1,0", "--dir", "1,1", "--length", "0.1",
                             "--step", "0.01", "--json")
    assert code == 2 and out == ""
    assert word in err


def _imports_cli(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("cli", "efimov_lab.cli") or (
                    module in ("", "efimov_lab") and any(a.name == "cli" for a in node.names)):
                return True
        if isinstance(node, ast.Import) and any(a.name == "efimov_lab.cli" for a in node.names):
            return True
    return False


def test_only_the_cli_imports_the_cli():
    """The library never reaches back into its front end: report and CSV
    formatting live in cli.py alone."""
    package = pathlib.Path(efimov_lab.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "cli.py"
                 and _imports_cli(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


@pytest.mark.parametrize("argv", [
    ("check-hypothesis", "--k1", "-1", "--k2", "0", "--k3", "0"),
    ("curvature-report", "--metric", "sphere3", "--grid", "3x3x3"),
    ("geodesic", "--example", "abstract_plane", "--start", "0,0", "--dir", "1,0",
     "--length", "1", "--step", "1e-2"),
    ("geodesic", "--example", "saddle", "--start", "0.5,0.2", "--dir", "1,0.3",
     "--length", "2", "--step", "1e-2"),
    ("transport", "--example", "abstract_plane", "--start", "0,0", "--dir", "1,0",
     "--length", "2", "--step", "1e-2", "--vector", "0,1"),
    ("transport", "--example", "saddle", "--start", "0.5,0.2", "--dir", "1,0.3",
     "--length", "2", "--step", "1e-2", "--vector", "0,1"),
    ("jacobi", "--example", "abstract_sphere", "--start", "1,0", "--dir", "0,1",
     "--length", "0.5", "--step", "1e-2"),
    ("jacobi", "--example", "saddle", "--start", "0.7,0", "--dir", "1,0",
     "--length", "0.5", "--step", "1e-2"),
    ("asymptotic", "--example", "saddle", "--start", "0,0", "--length", "0.1",
     "--step", "5e-3"),
    ("asymptotic", "--example", "saddle", "--which", "V", "--start", "0.5,0.5",
     "--length", "3", "--step", "1e-2"),
    ("edo", "--u", "0", "--eps", "1", "--step", "1e-3"),
    ("edo7", "--u", "0", "--eps", "1", "--n1", "1"),
    ("edo7", "--u", "0.3", "--eps", "2", "--n1", "2"),
    ("example", "verify", "clifford_torus"),
    ("example", "verify", "hyperbolic_deformed", "--param", "t=2"),
    ("net-check", "--example", "saddle", "--start", "0,0", "--lu", "0.08", "--lv", "0.08",
     "--nu", "3", "--nv", "3"),
    ("gauss-bonnet", "--example", "abstract_sphere", "--region", "fine"),
    ("gauss-bonnet", "--example", "abstract_sphere", "--region", "coarse"),
])
def test_exit_code_follows_reported_status(tmp_path, argv):
    """Every subcommand exits 0 exactly when its report says pass, else 1."""
    if argv[0] == "gauss-bonnet":
        # a one-node interior quadrature misses the Gauss-Bonnet balance
        counts = {"fine": (101, 8, 24), "coarse": (5, 1, 1)}[argv[-1]]
        region = tmp_path / "region.json"
        region.write_text(json.dumps(dict(zip(("n_boundary", "n_radial", "n_angular"), counts),
                                          kind="coordinate_disk", center=[0.0, 0.0],
                                          radius=0.5)))
        argv = argv[:-1] + (str(region),)
    code, out, _ = run_cli(*argv, "--json")
    doc = json.loads(out)
    assert code == (0 if doc["status"] == "pass" else 1)
    assert doc["status"] == ("pass" if all(c["pass"] for c in doc["checks"]) else "fail")


@pytest.mark.parametrize("command", [("edo",), ("edo7", "--n1", "1")])
def test_undefined_edo_profile_exits_2_naming_the_point(command):
    """The profile is sampled on arrays; an expression undefined on the grid
    still raises ExpressionEvaluationError naming the first failing point."""
    code, out, err = run_cli(*command, "--u", "ln(s)", "--eps", "1", "--json")
    assert code == 2 and out == ""
    assert "failed to evaluate 'ln(s)' at {'s': " in err

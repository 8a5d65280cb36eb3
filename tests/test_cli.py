import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_jacobi_command():
    code, out, _ = run_cli("jacobi", "--example", "abstract_sphere", "--start", "1,0",
                           "--dir", "0,1", "--length", "1.5", "--step", "1e-3",
                           "--init", "0,0,0,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["final"]["y"] - np.sin(1.5)) < 1e-5
    assert {c["name"]: c["pass"] for c in doc["checks"]}["stayed_in_patch"] is True


def test_jacobi_command_reports_leaving_the_chart():
    # the saddle's axis geodesic u = tan(s + atan 0.7) leaves the box |u| <= 1
    # at s = pi/4 - atan 0.7 ~ 0.18, well short of the requested length
    code, out, _ = run_cli("jacobi", "--example", "saddle", "--start", "0.7,0",
                           "--dir", "1,0", "--length", "0.5", "--step", "1e-2",
                           "--init", "0,0,0,1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    check = {c["name"]: c for c in doc["checks"]}["stayed_in_patch"]
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
    f = tmp_path / "metric.txt"
    f.write_text(
        "box = 0.5 3 -3 3 -1 1\n"
        "g11 = 1\n"
        "g22 = u^2\n"
        "g33 = 1\n")
    code, out, _ = run_cli("curvature-report", "--metric", str(f), "--grid",
                           "3x3x3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["sectional_min"]) < 1e-4 and abs(doc["sectional_max"]) < 1e-4


def test_bad_metric_file_exits_2(tmp_path):
    f = tmp_path / "metric.txt"
    f.write_text("g11 = 1\n")  # no box line
    code, _, err = run_cli("curvature-report", "--metric", str(f))
    assert code == 2


def test_net_check_command():
    code, out, _ = run_cli("net-check", "--example", "saddle", "--start", "0,0",
                           "--lu", "0.08", "--lv", "0.08", "--nu", "3", "--nv", "3",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"


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

"""Smoke-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

For every workload: one short untraced run must emit every end-to-end metric
of BENCHMARK.json with its unit and fail no operation; two short traced runs
of the same seed must emit every per-layer metric with its unit and agree
exactly on every count.  Immersion work must stay inside immersed-surface,
where a saddle RK4 step costs about 36 fundamental_forms calls.  Exits 1 and
names the problem when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, spec):
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{workload}: {what}")

    def emitted(result, metrics):
        need(result["correct"] and result["failed"] == 0,
             f"{result['failed']} of {result['attempted']} operations failed")
        for m in metrics:
            got = result["metrics"].get(m["name"])
            need(got is not None and got["unit"] == m["unit"],
                 f"metric {m['name']} [{m['unit']}] missing or wrong unit: {got}")

    emitted(run(workload, 0), spec["end_to_end"])
    first, second = run(workload, 1), run(workload, 1)
    for result in (first, second):
        emitted(result, spec["per_layer"])
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "1/step")]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        need(a == b, f"{name} differs between traced runs: {a} vs {b}")
    calls = first["metrics"]["immersion.fundamental_forms.calls"]["value"]
    per_step = first["metrics"]["immersion.fundamental_forms.per_saddle_rk4_step"]["value"]
    if workload == "immersed-surface":
        need(35.0 <= per_step <= 37.0, f"{per_step} fundamental_forms calls per saddle RK4 step")
    else:
        need(calls == 0, f"{calls} fundamental_forms calls outside immersed-surface")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check(workload, spec)
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

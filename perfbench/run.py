"""efimov-lab benchmark: timed, checked runs of fixed verification workloads.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs one workload in a closed loop (one client,
operations in sequence) and repeats the workload's fixed operation set
("a pass") until ``--seconds`` are spent.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print the same metrics for people, with sample counts and the machine.

``--trace 0`` gives the end-to-end metrics: ``wall_s`` (median over passes),
``slowest_op_s`` (the largest per-operation median), ``peak_rss_mb`` of this
process and ``setup_s`` (median over fresh processes that import efimov_lab
and build the workload's examples).  ``failed_ops`` is
``failed / attempted``.  ``--trace 1`` alternates untraced and traced passes
and gives the per-layer metrics of tracer.PER_LAYER; the spans of the first
traced pass are written to ``perfbench/out/``.  ``--workload all`` runs every
workload, each in a fresh process.  See perfbench/README.md.

The speed of a shared virtual machine can drift by up to 2x within a
minute (seen on a 2-core VM), in CPU time as much as in wall time.  A
SpeedProbe therefore samples the machine's speed during every operation,
and operation times are scaled to the speed at which its kernel takes
PROBE_REF_S; the raw medians are printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"
WORKLOADS = ("immersed-surface", "abstract-connection", "closed-form-sweep")
SETUP_SAMPLES = 5
PROBE_PERIOD_S = 0.01
PROBE_REF_S = 0.0005


class NoProgram(Exception):
    """The checkout holds no efimov_lab sources to benchmark."""


def load_program():
    """Import efimov_lab from this checkout's src/ and the workload module."""
    if not (SRC / "efimov_lab" / "__init__.py").is_file():
        raise NoProgram(f"no efimov_lab sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import efimov_lab
    if Path(efimov_lab.__file__).resolve().parent != SRC / "efimov_lab":
        raise NoProgram(f"efimov_lab was imported from {efimov_lab.__file__}, not {SRC}")
    import workloads
    return workloads


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": git_sha(),
            "EFIMOV_LAB_THREADS": os.environ.get("EFIMOV_LAB_THREADS")}


# ---------------------------------------------------------------------------
# machine speed


class SpeedProbe:
    """Samples the machine's speed while operations run.

    Every PROBE_PERIOD_S a SIGALRM handler runs a fixed kernel of small numpy
    calls (einsum, solve, stack, det on 3x3 arrays) and interpreted
    arithmetic, no efimov_lab code, on the main thread.  The kernel's durations say how fast the machine is going during
    an operation; the time spent in the handler is taken out of the
    operation's time.
    """

    def __init__(self):
        import numpy
        self.np = numpy
        self.samples = []
        self.spent = 0.0

    def kernel(self):
        """CPU seconds of the kernel on this thread; thread CPU time leaves out
        waits for the interpreter lock while the program's worker threads run."""
        np = self.np
        start = time.thread_time()
        eye, cube = np.eye(3), np.ones((3, 3, 3))
        for i in range(12):
            g = eye + i * 1e-9
            np.einsum("ij,jkl->ikl", g, cube)
            np.linalg.solve(g, g[0])
            np.stack([g, g])
            np.linalg.det(g)
        total = 0
        for i in range(750):
            total += (i * 7) % 13
        return time.thread_time() - start

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload, seed):
    """Child process: time importing efimov_lab and building the examples,
    then sample the speed probe's kernel, which needs numpy imported."""
    start = time.perf_counter()
    workloads = load_program()
    _, build = workloads.make(workload, seed, str(WORK))
    build()
    elapsed = time.perf_counter() - start
    probe = SpeedProbe()
    speed = [probe.kernel() for _ in range(10)]
    print(json.dumps([elapsed, elapsed * PROBE_REF_S * len(speed) / sum(speed)]))


def measure_setup(workload, seed):
    """(raw, speed-scaled) set-up seconds of SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return [raw for raw, _ in samples], [scaled for _, scaled in samples]


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One run of the operation set: raw and speed-scaled seconds per operation."""

    def __init__(self):
        self.op_times = {}
        self.scaled = {}
        self.failures = {}

    @property
    def wall(self):
        return sum(self.op_times.values())

    @property
    def scaled_wall(self):
        return sum(self.scaled.values())


def run_pass(ops, tracer=None):
    gc.collect()
    rec = Pass()
    with SpeedProbe() as probe:
        for name, op in ops:
            first, spent = len(probe.samples), probe.spent
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    op()
                else:
                    with tracer.span("op." + name):
                        op()
            except Exception:  # noqa: BLE001 - every failed operation is counted, the run goes on
                rec.failures[name] = traceback.format_exc()
            rec.op_times[name] = time.perf_counter() - t0 - (probe.spent - spent)
            speed = probe.samples[first:] or [probe.kernel()]
            rec.scaled[name] = rec.op_times[name] * PROBE_REF_S * len(speed) / sum(speed)
    return rec


def run_workload(args):
    workloads = load_program()
    env = environment()
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    try:
        ops, _ = workloads.make(args.workload, args.seed, str(WORK))
        if args.trace:
            return env, setup, *traced_passes(ops, args)
        return env, setup, untraced_passes(ops, args), None
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def untraced_passes(ops, args):
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(ops))
        if time.perf_counter() - begin + passes[-1].wall > args.seconds:
            return passes


def traced_passes(ops, args):
    import tracer as tracing

    plain, traced, layers, counts = [], [], [], []
    begin = time.perf_counter()
    while True:
        plain.append(run_pass(ops))
        tr = tracing.Tracer()
        tr.install()
        try:
            traced.append(run_pass(ops, tr))
        finally:
            tr.uninstall()
        counts.append(tr.counts())
        # self times take the pass's speed scaling, like the end-to-end times
        speed = traced[-1].scaled_wall / traced[-1].wall
        layers.append({k: v * speed if k.endswith("self_s") else v
                       for k, v in tr.per_layer().items()})
        if len(traced) == 1:
            OUT.mkdir(exist_ok=True)
            tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        if time.perf_counter() - begin + plain[-1].wall + traced[-1].wall > args.seconds:
            break
    trace = {"layers": layers, "counts_repeat": all(c == counts[0] for c in counts),
             "overhead_s": statistics.median(p.scaled_wall for p in traced)
             - statistics.median(p.scaled_wall for p in plain)}
    return plain + traced, trace


# ---------------------------------------------------------------------------
# report


def report(args, env, setup, passes, trace):
    import tracer as tracing

    attempted = sum(len(p.op_times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for name in sorted({n for p in passes for n in p.failures}):
        first = next(p.failures[name] for p in passes if name in p.failures)
        print(f"operation {name} failed:\n{first}", file=sys.stderr)
    correct = failed == 0
    lines = [f"# efimov-lab benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "# env " + json.dumps(env)]
    if trace is None:
        n = len(passes)
        med = statistics.median
        scaled = {name: med(p.scaled[name] for p in passes) for name in passes[0].scaled}
        raw = {name: med(p.op_times[name] for p in passes) for name in passes[0].op_times}
        slowest = max(scaled, key=scaled.get)
        metrics = {
            "wall_s": (med(p.scaled_wall for p in passes), "s",
                       f"median of {n} passes, raw {med(p.wall for p in passes):.4f} s"),
            "slowest_op_s": (scaled[slowest], "s", f"{slowest}, median of {n} passes, "
                             f"raw {raw[slowest]:.4f} s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", "this process"),
            "setup_s": (med(setup[1]), "s", f"median of {len(setup[1])} fresh processes, "
                        f"raw {med(setup[0]):.4f} s"),
        }
        for name in scaled:
            lines.append(f"op {name:<28} {scaled[name]:10.4f} s  raw {raw[name]:.4f} s, "
                         f"median of {n} passes")
    else:
        counts_repeat = trace["counts_repeat"]
        if not counts_repeat:
            print("per-layer call counts differ between traced passes", file=sys.stderr)
        correct = correct and counts_repeat
        layers = trace["layers"]
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                metrics[name] = (trace["overhead_s"], unit,
                                 f"traced minus untraced median pass, {len(layers)} each")
            elif unit == "s":
                metrics[name] = (statistics.median(layer[name] for layer in layers), unit,
                                 f"median of {len(layers)} traced passes")
            else:
                metrics[name] = (layers[0][name], unit, "per pass")
    for name, (value, unit, note) in metrics.items():
        lines.append(f"{name:<50} {value:14.6g} {unit:<6} {note}")
    lines.append(f"{'failed_ops':<50} {failed / attempted:14.6g} {'share':<6} "
                 f"{failed} of {attempted} operations")
    print("\n".join(lines))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result), flush=True)


def run_all(args):
    """Every workload in a fresh process of its own."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180 + 2 * args.seconds)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        results[workload] = json.loads(out[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        env, setup, passes, trace = run_workload(args)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, env, setup, passes, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

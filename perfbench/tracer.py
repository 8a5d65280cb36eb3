"""Span tracer for the traced benchmark run.

Wraps public functions of the efimov_lab modules from outside the program:
each wrapper records a span (name, parent, start, end) and, for a few
layers, facts read from the call's arguments or result.  Wrappers are
installed at every module binding of the wrapped object, so a function that
other modules import by name (``christoffel`` is bound in four modules) is
counted whichever binding a caller uses.  Spans stay in memory; per-layer
statistics are computed after a pass and the spans can be written at exit.

Self time is a span's duration minus the union of its child spans.  Spans
made on a worker thread with nothing open on that thread take as parent the
span open on the installing thread (``gallery`` maps grid points through a
thread pool from inside ``verify_example``).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _geodesic_info(args, kwargs, result):
    return {"data": args[0].name, "steps": len(result.s) - 1}


def _steps_info(field):
    return lambda args, kwargs, result: {"steps": len(getattr(result, field)) - 1}


def _samples_info(args, kwargs, result):
    return {"steps": len(result) - 1}


def _fundamental_key(args, kwargs, result):
    patch, ambient, q = args
    return {"key": (id(patch), id(ambient), float(q[0]), float(q[1])),
            "objects": (patch, ambient)}


# (layer name, module, attribute path, info hook).  Methods are wrapped on
# the class that defines them.  The connection's gamma and third_form are
# wrapped on the providers: SurfaceConnectionData delegates to them, and its
# own methods (connection_form, torsion_vector, ...) call the provider
# directly, which a wrapper on SurfaceConnectionData.gamma would not see.
TARGETS = [
    ("fd.central", "efimov_lab._fd", "central", None),
    ("fd.second", "efimov_lab._fd", "second", None),
    ("fd.gradient", "efimov_lab._fd", "gradient", None),
    ("fd.derivative_along", "efimov_lab._fd", "derivative_along", None),
    ("ambient.christoffel", "efimov_lab.ambient", "christoffel", None),
    ("ambient.riemann_covariant", "efimov_lab.ambient", "riemann_covariant", None),
    ("ambient.sectional_range", "efimov_lab.ambient", "sectional_range", None),
    ("immersion.fundamental_forms", "efimov_lab.immersion", "fundamental_forms",
     _fundamental_key),
    ("connection.gamma", "efimov_lab.connection", "_TorsionProvider.gamma", None),
    ("connection.gamma", "efimov_lab.connection", "_OperatorProvider.gamma", None),
    ("connection.third_form", "efimov_lab.connection", "_TorsionProvider.third_form", None),
    ("connection.third_form", "efimov_lab.connection", "_OperatorProvider.third_form", None),
    ("connection.third_form", "efimov_lab.connection", "_ImmersionProvider.third_form", None),
    ("connection.curvature", "efimov_lab.connection", "SurfaceConnectionData.curvature", None),
    ("curves.integrate_geodesic", "efimov_lab.curves", "integrate_geodesic", _geodesic_info),
    ("curves.jacobi_field", "efimov_lab.curves", "integrate_jacobi", _steps_info("t")),
    ("curves.parallel_transport", "efimov_lab.curves", "parallel_transport", None),
    ("curves.parallel_transport", "efimov_lab.curves", "parallel_transport_samples",
     _samples_info),
    ("curves.jacobi_field", "efimov_lab.curves", "jacobi_field", None),
    ("curves.gauss_bonnet_residual", "efimov_lab.curves", "gauss_bonnet_residual", None),
    ("asymptotics.asymptotic_frame", "efimov_lab.asymptotics", "asymptotic_frame", None),
    ("asymptotics.trace_asymptotic", "efimov_lab.asymptotics", "trace_asymptotic", None),
    ("asymptotics.net_expansion_check", "efimov_lab.asymptotics", "net_expansion_check", None),
    ("odelab.solve_prop_edo", "efimov_lab.odelab", "solve_prop_edo", None),
    ("odelab.construct_edo7", "efimov_lab.odelab", "construct_edo7", None),
    ("odelab.weak_inequality_residual", "efimov_lab.odelab", "weak_inequality_residual", None),
    ("gallery.build_example", "efimov_lab.gallery", "build_example", None),
    ("gallery.verify_example", "efimov_lab.gallery", "verify_example", None),
    ("expressions.Expression", "efimov_lab.expressions", "Expression.__call__", None),
    ("cli.main", "efimov_lab.cli", "main", None),
]

# (metric name, unit); "<layer>.calls" and "<layer>.self_s" come straight
# from the spans of that layer, the rest are computed in Tracer.per_layer
PER_LAYER = [
    ("fd.central.calls", "count"),
    ("fd.second.calls", "count"),
    ("fd.self_s", "s"),
    ("ambient.christoffel.calls", "count"),
    ("ambient.christoffel.self_s", "s"),
    ("ambient.riemann_covariant.calls", "count"),
    ("ambient.riemann_covariant.self_s", "s"),
    ("ambient.sectional_range.self_s", "s"),
    ("immersion.fundamental_forms.calls", "count"),
    ("immersion.fundamental_forms.distinct_q", "count"),
    ("immersion.fundamental_forms.self_s", "s"),
    ("immersion.fundamental_forms.per_saddle_rk4_step", "1/step"),
    ("connection.gamma.calls", "count"),
    ("connection.gamma.self_s", "s"),
    ("connection.curvature.calls", "count"),
    ("connection.curvature.self_s", "s"),
    ("connection.third_form.calls", "count"),
    ("curves.rk4_steps", "count"),
    ("curves.integrate_geodesic.self_s", "s"),
    ("curves.parallel_transport.self_s", "s"),
    ("curves.jacobi_field.self_s", "s"),
    ("curves.gauss_bonnet_residual.self_s", "s"),
    ("asymptotics.asymptotic_frame.calls", "count"),
    ("asymptotics.trace_asymptotic.self_s", "s"),
    ("asymptotics.net_expansion_check.self_s", "s"),
    ("odelab.solve_prop_edo.self_s", "s"),
    ("odelab.construct_edo7.self_s", "s"),
    ("odelab.weak_inequality_residual.self_s", "s"),
    ("gallery.build_example.self_s", "s"),
    ("gallery.verify_example.self_s", "s"),
    ("expressions.Expression.calls", "count"),
    ("expressions.Expression.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _resolve(path):
    module, attr = path
    owner = sys.modules[module]
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Collects spans of one traced pass; install() and uninstall() bracket it."""

    def __init__(self):
        self.spans = []      # (span id, name, parent id, start, end)
        self.info = {}       # span id -> facts from the info hook
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = None
        self._patched = []   # (owner, attribute, original)
        self._keep = []      # objects whose id() is part of a key

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home
        return home[-1] if home else None

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as sid:
                result = fn(*args, **kwargs)
            if hook is not None:
                facts = hook(args, kwargs, result)
                tracer._keep.append(facts.pop("objects", None))
                tracer.info[sid] = facts
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block; yields the span id."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, start, end))

    def install(self):
        """Replace every efimov_lab binding of each target by its wrapper."""
        self._home = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "efimov_lab" or n.startswith("efimov_lab."))]
        for name, module, attr, hook in TARGETS:
            owner, key = _resolve((module, attr))
            original = owner.__dict__[key]
            wrapper = self.wrap(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, key, original, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        self._keep.clear()

    # -- statistics ---------------------------------------------------------

    def stats(self):
        """{name: [calls, self seconds]} over the recorded spans."""
        children = defaultdict(list)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: [0, 0.0])
        for sid, name, _, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += (end - start) - covered_length(children.get(sid, ()), start, end)
        return out

    def counts(self):
        return {name: row[0] for name, row in self.stats().items()}

    def per_layer(self):
        """Per-layer metrics of the recorded pass, named as in PER_LAYER
        (all but trace.overhead_s, which needs an untraced pass)."""
        st = self.stats()

        def calls(name):
            return st[name][0] if name in st else 0

        def self_s(name):
            return st[name][1] if name in st else 0.0

        names = {sid: name for sid, name, _, _, _ in self.spans}
        parents = {sid: parent for sid, _, parent, _, _ in self.spans}
        # a call that raised has a span but no facts
        distinct = {self.info[sid]["key"] for sid, n in names.items()
                    if n == "immersion.fundamental_forms" and sid in self.info}
        saddle_geodesics = {sid for sid, n in names.items() if n == "curves.integrate_geodesic"
                            and self.info.get(sid, {}).get("data") == "dual[saddle]"}
        in_saddle_geodesic = 0
        for sid, n in names.items():
            if n != "immersion.fundamental_forms":
                continue
            up = parents[sid]
            while up is not None and names.get(up) != "curves.integrate_geodesic":
                up = parents.get(up)
            in_saddle_geodesic += up in saddle_geodesics
        saddle_steps = sum(self.info[sid]["steps"] for sid in saddle_geodesics)
        rk4 = sum(facts.get("steps", 0) for facts in self.info.values())

        values = {
            "fd.central.calls": calls("fd.central"),
            "fd.second.calls": calls("fd.second"),
            "fd.self_s": sum(v[1] for k, v in st.items() if k.startswith("fd.")),
            "immersion.fundamental_forms.distinct_q": len(distinct),
            "immersion.fundamental_forms.per_saddle_rk4_step":
                in_saddle_geodesic / saddle_steps if saddle_steps else 0.0,
            "curves.rk4_steps": rk4,
        }
        for metric, _ in PER_LAYER:
            if metric in values or metric == "trace.overhead_s":
                continue
            layer, _, kind = metric.rpartition(".")
            values[metric] = calls(layer) if kind == "calls" else self_s(layer)
        return values

    def write(self, path):
        """Write the spans as gzip JSON lines, times in microseconds from the first."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, parent, start, end in self.spans:
                row = {"id": sid, "name": name, "parent": parent,
                       "start_us": round((start - t0) * 1e6, 1),
                       "end_us": round((end - t0) * 1e6, 1)}
                facts = self.info.get(sid)
                if facts:
                    row.update({k: v for k, v in facts.items() if k != "key"})
                fh.write(json.dumps(row) + "\n")


def covered_length(intervals, start, end):
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total

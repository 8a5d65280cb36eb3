"""Summarize a spans file written by a traced benchmark run.

    python3 perfbench/spans.py perfbench/out/spans-<workload>-seed<n>.jsonl.gz

Prints, per benchmark operation and layer: calls, total and self seconds,
mean milliseconds per call and, for layers that return traces, RK4 steps.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict

from tracer import covered_length


def summarize(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_us"], s["end_us"]))

    def operation(s):
        while s is not None and not s["name"].startswith("op."):
            s = by_id.get(s["parent"])
        return s["name"][3:] if s is not None else "-"

    rows = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for s in spans:
        if s["name"].startswith("op."):
            continue
        row = rows[(operation(s), s["name"])]
        total = s["end_us"] - s["start_us"]
        row[0] += 1
        row[1] += total
        row[2] += total - covered_length(children.get(s["id"], ()), s["start_us"], s["end_us"])
        row[3] += s.get("steps", 0)
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"{'operation':<28} {'layer':<36} {'calls':>8} {'total_s':>10} {'self_s':>10} "
          f"{'ms/call':>10} {'steps':>6}")
    for (op, name), (calls, total, own, steps) in sorted(summarize(argv[1]).items()):
        print(f"{op:<28} {name:<36} {calls:8d} {total / 1e6:10.4f} {own / 1e6:10.4f} "
              f"{total / calls / 1e3:10.4f} {steps:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Summarize the run records kept under .perfbench-results/.

Usage, from the root of a source checkout, after runs of run.py:

    python3 perfbench/summarize.py

Prints a Markdown table per metric: for each workload, the number of
untraced runs and the median and quartiles of each end-to-end metric,
raw (wall seconds) and scaled (reference seconds), with the spread
(quartile distance over median).  Then the kernel's own spread, the
tracing overhead from the traced runs, and the median of every per-layer
metric of the traced runs per workload, with its share of that
workload's traced cmd_s.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def row(label, values, fmt="%.3f", spread=True):
    """A table row: runs, median, quartiles and (Q3 - Q1) / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return "| %s | %d | %s | %s | %s | %s |" % (
        label, len(values), fmt % med, fmt % q1, fmt % q3,
        "%.3f" % ((q3 - q1) / med) if spread else "-")


def main():
    records = {}
    for path in sorted(glob.glob(os.path.join(ROOT, ".perfbench-results", "*.json"))):
        with open(path) as handle:
            rec = json.load(handle)
        records.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    print("| workload / metric | runs | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|")
    for (workload, trace), recs in sorted(records.items()):
        if trace:
            continue
        for name in ("cmd_s", "setup_s", "peak_rss_mb"):
            print(row("%s %s" % (workload, name), [r["metrics"][name] for r in recs]))
        for name in ("bench.cmd_raw_s", "bench.setup_raw_s"):
            print(row("%s %s (raw)" % (workload, name.split(".")[1]),
                      [r["audit"][name] for r in recs]))
        print(row("%s kernel" % workload, [r["audit"]["bench.kernel_s"] for r in recs],
                  "%.5f"))
    for (workload, trace), recs in sorted(records.items()):
        if trace:
            print(row("%s trace overhead" % workload,
                      [r["metrics"]["bench.trace_overhead_s"] for r in recs],
                      spread=False))
    print()
    layer_table(records)
    return 0


def layer_table(records):
    """Median per-layer metrics of the traced runs, one column per workload."""
    traced = {w: recs for (w, trace), recs in sorted(records.items()) if trace}
    names = sorted({n for recs in traced.values() for r in recs
                    for n in r["metrics"] if not n.startswith("import.")})
    print("| per-layer metric | " + " | ".join(traced) + " |")
    print("|---" * (len(traced) + 1) + "|")
    for name in names:
        cells = []
        for workload, recs in traced.items():
            med = statistics.median(r["metrics"].get(name, 0.0) for r in recs)
            cmd = statistics.median(r["traced_cmd_s"] for r in recs)
            if name.endswith(".s") and not name.startswith("bench.") and med:
                cells.append("%.3f (%.1f%%)" % (med, 100 * med / cmd))
            elif name.endswith((".calls", ".bytes")):
                cells.append("%d" % med)
            else:
                cells.append("%.3f" % med if med else "-")
        print("| `%s` | %s |" % (name, " | ".join(cells)))


if __name__ == "__main__":
    sys.exit(main())

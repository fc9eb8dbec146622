#!/usr/bin/env python3
"""Diffs two traced runs of the benchmark layer by layer.

    python3 perfbench/compare.py OLD.json NEW.json

OLD and NEW are trace files a traced run writes (by default
.bench_out/trace-<workload>-<seed>.json, schema krx-perfbench-trace/1).
Three tables are printed:

  layers    self time per layer (the span-name prefix before the first
            '.'), summed over its spans, per phase;
  spans     per span name and phase: calls, self time per call, p50;
  metrics   every per-layer metric and the traced run's end-to-end figures.

A row whose value moved by more than THRESHOLD (a share of the old value)
is marked with '!'. Compare runs of the same workload with the same
--seconds; a single pair of runs is one sample, so re-run before trusting
a small move.
"""

import argparse
import json
import sys

SCHEMA = "krx-perfbench-trace/1"
PHASES = {"1": "workload", "2": "probe"}
THRESHOLD = 0.10


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError("%s: not a %s file" % (path, SCHEMA))
    return doc


def split_key(key):
    name, _, phase = key.rpartition("@")
    return name, PHASES.get(phase, phase)


def layer_self_us(doc):
    out = {}
    for key, agg in doc["layers"].items():
        name, phase = split_key(key)
        layer = (name.split(".", 1)[0], phase)
        out[layer] = out.get(layer, 0.0) + agg["self_us"]
    return out


def span_rows(doc):
    out = {}
    for key, agg in doc["layers"].items():
        count = agg["count"]
        out[split_key(key)] = (count, agg["self_us"] / count if count else 0.0, agg["p50_us"])
    return out


def change(old, new):
    if old is None or new is None:
        return None
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / abs(old)


def fmt_change(c):
    if c is None:
        return "      n/a  "
    mark = "!" if abs(c) > THRESHOLD else " "
    return "%+9.1f%% %s" % (100 * c, mark)


def fmt(v):
    return "%14s" % ("-" if v is None else "%.6g" % v)


def print_table(title, header, rows):
    print("\n" + title)
    print("  %-44s %14s %14s %12s" % (header, "old", "new", "change"))
    moved = 0
    for label, old, new in rows:
        c = change(old, new)
        if c is not None and abs(c) > THRESHOLD:
            moved += 1
        print("  %-44s %s %s %s" % (label, fmt(old), fmt(new), fmt_change(c)))
    return moved


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args()
    try:
        old, new = load(args.old), load(args.new)
    except (OSError, ValueError) as e:
        print("compare: %s" % e, file=sys.stderr)
        return 2
    if old["workload"] != new["workload"]:
        print("note: comparing different workloads (%s vs %s)" % (old["workload"],
                                                                   new["workload"]))
    print("old: %s seed %s, %s s    new: %s seed %s, %s s" % (
        old["workload"], old["seed"], old["seconds"], new["workload"], new["seed"],
        new["seconds"]))

    lo, ln = layer_self_us(old), layer_self_us(new)
    rows = [("%s [%s]" % k, lo.get(k), ln.get(k)) for k in sorted(set(lo) | set(ln))]
    moved = print_table("layers: total self time (us)", "layer [phase]", rows)

    so, sn = span_rows(old), span_rows(new)
    rows = []
    for k in sorted(set(so) | set(sn)):
        o, n = so.get(k), sn.get(k)
        rows.append(("%s [%s] self/call" % k, o and o[1], n and n[1]))
    moved += print_table("spans: self time per call (us)", "span [phase]", rows)

    mo, mn = old["metrics"], new["metrics"]
    rows = [("%s (%s)" % (k, (mo.get(k) or mn.get(k))["unit"]),
             mo.get(k, {}).get("value"), mn.get(k, {}).get("value"))
            for k in list(mo) + [k for k in mn if k not in mo]]
    for side in ("untraced", "traced"):
        eo = old["end_to_end"][side]
        en = new["end_to_end"][side]
        rows += [("e2e %s %s (%s)" % (side, k, eo[k]["unit"]), eo[k]["value"],
                  en.get(k, {}).get("value")) for k in eo]
    moved += print_table("metrics", "metric", rows)
    print("\n%d row(s) moved by more than %.0f%%" % (moved, 100 * THRESHOLD))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of perfbench result records.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are record files written by perfbench/run.py, or
directories holding them (<build>/results). Each record carries the host
and build it was taken on. The comparison is refused (exit 3) when the
records differ in core count or build type: a 1-core capture compared
with a 4-core one says nothing about the code. It is refused too when
they differ in --seconds or in input size (grid, measurements), whose
metrics are not comparable either. Otherwise it prints, per
workload and metric, the median of each side, their ratio, and whether
HEAD is worse than BASE by more than the metric's bound in BENCHMARK.json.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".json") and not f.endswith(".spans.json"))
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    return records


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[1]), load(argv[2])
    if not base or not head:
        print("compare: no records found", file=sys.stderr)
        return 2
    hosts = {(r["host"]["nproc"], r["build"]["build_type"]) for r in base + head}
    if len(hosts) != 1:
        print("compare: refused, records mix core counts / build types: %s"
              % sorted(hosts), file=sys.stderr)
        return 3
    runs = {(r["args"]["seconds"], tuple(r["args"]["extra"]))
            for r in base + head}
    if len(runs) != 1:
        print("compare: refused, records mix run lengths / input sizes: %s"
              % sorted(runs), file=sys.stderr)
        return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def medians(records):
        out = {}
        for r in records:
            key = (r["args"]["workload"], r["args"]["trace"])
            for name, m in r["result"]["metrics"].items():
                out.setdefault(key, {}).setdefault(name, []).append(m["value"])
        return {k: {n: statistics.median(v) for n, v in d.items()}
                for k, d in out.items()}

    b, h = medians(base), medians(head)
    nproc, build_type = hosts.pop()
    print("host: %d cores, %s build" % (nproc, build_type))
    regressions = 0
    for key in sorted(set(b) & set(h)):
        print("%s (trace %d)" % key)
        for name in b[key]:
            if name not in h[key]:
                continue
            bv, hv = b[key][name], h[key][name]
            spec_m = metrics.get(name, {})
            ratio = hv / bv if bv else float("nan")
            verdict = ""
            if "bound" in spec_m and bv:
                worse = ratio - 1 if spec_m["better"] == "lower" else 1 - ratio
                if worse > spec_m["bound"]:
                    verdict = "WORSE beyond bound %.2f" % spec_m["bound"]
                    regressions += 1
            print("  %-34s %14.6g %14.6g  x%.3f %s" % (name, bv, hv, ratio,
                                                       verdict))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

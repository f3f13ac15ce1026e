#!/usr/bin/env python3
"""Diff two Google-Benchmark JSON artifacts and flag regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
                     [--metric real_time] [--strict] [--filter REGEX]
    bench_compare.py --baseline-file BENCH_solver.json CURRENT.json ...

Benchmarks are matched by name. A benchmark whose current time exceeds
the baseline by more than the threshold (default 15%) is flagged as a
regression; one that is faster by more than the threshold is reported as
an improvement. Output is a Markdown table (suitable for
$GITHUB_STEP_SUMMARY). Exit status is 0 unless --strict is given and at
least one regression was found.

The two artifacts must come from the same library_build_type and the
same num_cpus (both in the `context` block Google Benchmark records):
timings from a debug library are meaningless against a release library,
and a threaded benchmark's wall time depends on the cores it ran on
(perfbench/compare.py refuses records that mix core counts for the same
reason). A mismatch is reported as a warning — and, under --strict,
fails the comparison outright rather than gating on garbage ratios.

--filter restricts the comparison to benchmark names matching the given
regex (re.search semantics). CI uses it to run a BLOCKING pass over the
solver families only (BM_Solve*/BM_Pcg*/BM_BlockPcg/BM_Embed*/BM_SfSgl*,
generous threshold) while the full comparison stays advisory —
shared-runner timings are too noisy to gate every benchmark on.

--baseline-file names the baseline explicitly instead of the first
positional argument. It exists for the committed repo-root baseline
(BENCH_solver.json): when CI cannot download a benchmark artifact from a
previous run on main (fresh fork, expired artifacts), the blocking leg
falls back to the committed snapshot rather than failing open. A
baseline must come from exactly one of the two sources.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def load_benchmarks(
    path: str, metric: str
) -> tuple[dict[str, float], str, int | None]:
    """Returns ({benchmark name: metric value}, library_build_type,
    num_cpus), skipping aggregate rows. num_cpus is None when the
    context does not record it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        # Repetition aggregates (mean/median/stddev) would double-count.
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        value = bench.get(metric)
        if name is None or not isinstance(value, (int, float)):
            continue
        out[name] = float(value)
    context = doc.get("context", {})
    build_type = str(context.get("library_build_type", ""))
    num_cpus = context.get("num_cpus")
    return out, build_type, num_cpus if isinstance(num_cpus, int) else None


def format_time(value: float, unit: str) -> str:
    return f"{value:,.3f} {unit}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="baseline benchmark JSON (or use --baseline-file)",
    )
    parser.add_argument("current", help="current benchmark JSON")
    parser.add_argument(
        "--baseline-file",
        default=None,
        metavar="PATH",
        help="baseline benchmark JSON named by flag; exactly one of the "
        "positional baseline or this flag must be given (CI uses it for "
        "the committed repo-root BENCH_solver.json fallback)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative slowdown that counts as a regression (default 0.15)",
    )
    parser.add_argument(
        "--metric",
        default="real_time",
        choices=["real_time", "cpu_time"],
        help="which benchmark field to compare (default real_time)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when regressions are found (default: report only)",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="REGEX",
        help="only compare benchmarks whose name matches this regex",
    )
    args = parser.parse_args()

    if (args.baseline is None) == (args.baseline_file is None):
        parser.error(
            "give a baseline exactly once: either the positional argument "
            "or --baseline-file"
        )
    baseline_path = args.baseline or args.baseline_file

    try:
        base, base_build, base_cpus = load_benchmarks(baseline_path,
                                                      args.metric)
        curr, curr_build, curr_cpus = load_benchmarks(args.current,
                                                      args.metric)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: cannot read input: {exc}", file=sys.stderr)
        return 0 if not args.strict else 1

    build_mismatch = (
        bool(base_build) and bool(curr_build) and base_build != curr_build
    )
    cpus_mismatch = (
        base_cpus is not None and curr_cpus is not None
        and base_cpus != curr_cpus
    )

    if args.filter is not None:
        pattern = re.compile(args.filter)
        base = {k: v for k, v in base.items() if pattern.search(k)}
        curr = {k: v for k, v in curr.items() if pattern.search(k)}

    with open(args.current, "r", encoding="utf-8") as fh:
        unit = "ns"
        for bench in json.load(fh).get("benchmarks", []):
            unit = bench.get("time_unit", "ns")
            break

    shared = sorted(set(base) & set(curr))
    only_base = sorted(set(base) - set(curr))
    only_curr = sorted(set(curr) - set(base))

    regressions: list[str] = []
    improvements: list[str] = []
    rows: list[str] = []
    for name in shared:
        b = base[name]
        c = curr[name]
        if b <= 0.0:
            continue
        ratio = c / b
        delta = (ratio - 1.0) * 100.0
        marker = ""
        if ratio > 1.0 + args.threshold:
            marker = " ⚠️ regression"
            regressions.append(name)
        elif ratio < 1.0 - args.threshold:
            marker = " ✅ improvement"
            improvements.append(name)
        rows.append(
            f"| `{name}` | {format_time(b, unit)} | {format_time(c, unit)} "
            f"| {delta:+.1f}%{marker} |"
        )

    scope = f", filter `{args.filter}`" if args.filter else ""
    mode = ", strict" if args.strict else ""
    print(f"### Benchmark comparison ({args.metric}, threshold "
          f"{args.threshold:.0%}{scope}{mode})")
    print()
    if not shared:
        print("No overlapping benchmarks between the two artifacts.")
    else:
        print("| benchmark | baseline | current | delta |")
        print("|---|---:|---:|---:|")
        for row in rows:
            print(row)
    print()
    print(
        f"**{len(regressions)} regression(s), {len(improvements)} "
        f"improvement(s) across {len(shared)} shared benchmark(s).**"
    )
    if only_curr:
        print(f"\nNew benchmarks (no baseline): {len(only_curr)}")
        for name in only_curr:
            print(f"- `{name}`")
    if only_base:
        print(f"\nRemoved benchmarks (baseline only): {len(only_base)}")
        for name in only_base:
            print(f"- `{name}`")

    if build_mismatch:
        print(
            f"\n**⚠️ library_build_type mismatch: baseline is "
            f"`{base_build}`, current is `{curr_build}` — timings are not "
            f"comparable. Recapture the baseline with a matching build.**"
        )
        if args.strict:
            print("\n**FAIL (strict): build-type mismatch.**")
            return 1

    if cpus_mismatch:
        print(
            f"\n**⚠️ num_cpus mismatch: baseline ran on {base_cpus} "
            f"CPU(s), current on {curr_cpus} — timings are not comparable. "
            f"Recapture the baseline on a host with the same core count.**"
        )
        if args.strict:
            print("\n**FAIL (strict): num_cpus mismatch.**")
            return 1

    if args.strict and not shared:
        # A blocking pass that matches nothing gates nothing: renamed
        # benchmark families or an empty/corrupt artifact must fail
        # loudly, not fail open.
        print("\n**FAIL (strict): no overlapping benchmarks to compare.**")
        return 1
    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

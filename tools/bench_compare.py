#!/usr/bin/env python3
"""Compare a fresh BENCH-json run against a committed baseline.

The CI bench-regression job runs the short bench_nn_micro and
bench_datagen streams on every PR and feeds the resulting JSON through
this script against the baselines committed at the repo root. Serving
performance is gated by perfbench (BENCHMARK.json), not here. Policy
(documented in CONTRIBUTING.md):

  - Records are matched by name. A matched record FAILS when it regresses
    by more than --threshold (default 0.25, i.e. 25%): throughput
    ('samples_per_sec', preferred because it is stream-length independent)
    dropping below baseline/(1+t), or, when only wall time is available,
    'wall_seconds' exceeding baseline*(1+t).
  - A record with neither measurement on both sides is SKIP. That covers
    the value records (bench_datagen's *_speedup ratios write
    wall_seconds 0 and carry their number in 'value').
  - Records present only in the baseline (removed/renamed) or only in the
    current run (new) WARN but do not fail — refresh the baseline in the
    same PR instead.

Exit status: 1 if any matched record regressed, else 0.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.25]
"""

import argparse
import json
import sys


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    records = {}
    for record in doc.get("records", []):
        records[record["name"]] = record
    return records


def compare_record(name, base, cur, threshold):
    """Returns (status, detail) with status in OK/SLOW/FAST/SKIP."""
    base_sps = base.get("samples_per_sec", 0)
    cur_sps = cur.get("samples_per_sec", 0)
    if base_sps > 0 and cur_sps > 0:
        ratio = base_sps / cur_sps  # >1 means current is slower
        detail = (f"{base_sps:12.1f} -> {cur_sps:12.1f} samples/s "
                  f"(x{ratio:.2f} time)")
    elif base.get("wall_seconds", 0) > 0 and cur.get("wall_seconds", 0) > 0:
        ratio = cur["wall_seconds"] / base["wall_seconds"]
        detail = (f"{base['wall_seconds']:12.6f} -> "
                  f"{cur['wall_seconds']:12.6f} s (x{ratio:.2f} time)")
    else:
        return "SKIP", "no comparable measurement (zero baseline)"
    if ratio > 1 + threshold:
        return "SLOW", detail
    if ratio < 1 / (1 + threshold):
        return "FAST", detail
    return "OK", detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", metavar="BASELINE.json")
    parser.add_argument("current", metavar="CURRENT.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fail when slower by more than this fraction "
                             "(default 0.25)")
    args = parser.parse_args()

    baseline = load_records(args.baseline)
    current = load_records(args.current)

    regressions = []
    warnings = []
    print(f"comparing {args.current} against baseline {args.baseline} "
          f"(threshold {args.threshold:.0%})")
    for name in sorted(baseline):
        if name not in current:
            warnings.append(f"missing from current run: {name}")
            continue
        status, detail = compare_record(name, baseline[name], current[name],
                                        args.threshold)
        print(f"  [{status:4s}] {name}: {detail}")
        if status == "SLOW":
            regressions.append(name)
    for name in sorted(set(current) - set(baseline)):
        warnings.append(f"new record (not in baseline): {name}")

    for warning in warnings:
        print(f"  WARNING: {warning}", file=sys.stderr)
    if regressions:
        print(f"FAIL: {len(regressions)} record(s) regressed beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}",
              file=sys.stderr)
        print("If the slowdown is expected (e.g. intentional trade-off), "
              "refresh the committed baseline in this PR and explain why "
              "in the PR description.", file=sys.stderr)
        return 1
    print(f"PASS: {len(baseline)} baseline records checked, "
          f"{len(warnings)} warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

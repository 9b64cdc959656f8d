#!/usr/bin/env python3
"""Bench-regression guard: diff a freshly generated BENCH_*.json against the
committed baseline and fail on a throughput regression.

    check_bench_regression.py BASELINE FRESH [--metric units_per_sec]
                              [--threshold 0.25] [--group threads]
                              [--direction min|max]

Both files are either JSON-lines (one flat object per bench row, the schema
obs::write_bench_json emits) or a google-benchmark --benchmark_out file (a
single object with a "benchmarks" array; each entry is flattened into a row
keyed by "name", with its counters promoted to top-level fields — compare
with --group name --metric <counter>).  Rows are grouped by the --group key
fields and the metric is averaged within each group — single rows on a
loaded CI runner are too noisy to gate on, but a whole configuration's mean
dropping by more than --threshold (default 25%) is a real regression, and
the job fails.  --direction picks the bad side: "min" (default) fails when
the fresh mean falls below baseline (throughput metrics), "max" fails when
it rises above (cost metrics such as peak_rss_kb or bytes_per_node).

A group present in the fresh run but absent from the baseline is FATAL, not
a silent skip: an unguarded sweep point would pass forever, which is
exactly how a regression guard rots.  The failure message states the stage
to run — regenerate the baseline from the new bench and commit it.  Groups
only in the baseline stay non-fatal notes (a bench losing a sweep point is
visible in review as a baseline diff).

Exit codes: 0 clean, 1 regression found or baseline key missing, 2 unusable
input (missing file, no parseable rows, or no comparable groups — a guard
that silently compares nothing would pass forever).
"""

import argparse
import json
import sys


def flatten_google_benchmark(doc):
    """Rows from a --benchmark_out file: one per entry, counters promoted."""
    rows = []
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        row = {k: v for k, v in entry.items()
               if isinstance(v, (str, int, float))}
        for counter, value in entry.get("counters", {}).items():
            row.setdefault(counter, value)
        rows.append(row)
    return rows


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"check_bench_regression: cannot read {path}: {e.strerror}",
              file=sys.stderr)
        sys.exit(2)
    # google-benchmark emits one multi-line object holding a "benchmarks"
    # array; everything else here is JSON-lines.
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "benchmarks" in doc:
            return flatten_google_benchmark(doc)
    except json.JSONDecodeError:
        pass
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            print(f"check_bench_regression: {path}:{lineno}: unparseable row skipped",
                  file=sys.stderr)
    return rows


def group_means(rows, keys, metric):
    acc = {}
    for r in rows:
        if metric not in r:
            continue
        key = tuple((k, r.get(k)) for k in keys)
        acc.setdefault(key, []).append(float(r[metric]))
    return {k: sum(v) / len(v) for k, v in acc.items()}


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--metric", default="units_per_sec")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="fatal fractional drop, e.g. 0.25 = fail below 75%% of baseline")
    ap.add_argument("--group", default="threads",
                    help="comma-separated row fields that identify one configuration")
    ap.add_argument("--direction", choices=("min", "max"), default="min",
                    help="min: lower-is-worse (throughput); "
                         "max: higher-is-worse (memory/cost metrics)")
    args = ap.parse_args()
    keys = [k for k in args.group.split(",") if k]

    base_rows = load_rows(args.baseline)
    fresh_rows = load_rows(args.fresh)
    if not base_rows:
        print(f"check_bench_regression: {args.baseline} holds no rows", file=sys.stderr)
        return 2
    if not fresh_rows:
        print(f"check_bench_regression: {args.fresh} holds no rows", file=sys.stderr)
        return 2

    base = group_means(base_rows, keys, args.metric)
    fresh = group_means(fresh_rows, keys, args.metric)
    shared = sorted(set(base) & set(fresh))
    if not shared:
        print("check_bench_regression: no comparable groups "
              f"(group keys: {','.join(keys)}; metric: {args.metric}).\n"
              f"If {args.fresh} comes from a new bench, generate its baseline "
              f"on the reference machine and commit it as {args.baseline}.",
              file=sys.stderr)
        return 2
    for key in sorted(set(base) - set(fresh)):
        print(f"  note: group only in baseline: {fmt_key(key)}")
    unguarded = sorted(set(fresh) - set(base))
    for key in unguarded:
        print(f"  MISSING BASELINE: {fmt_key(key)}", file=sys.stderr)

    regressions = []
    for key in shared:
        b, f = base[key], fresh[key]
        ratio = f / b if b > 0 else 1.0
        if args.direction == "min":
            bad = ratio < 1.0 - args.threshold
        else:
            bad = ratio > 1.0 + args.threshold
        status = "REGRESSION" if bad else "ok"
        print(f"  {status:>10}  {fmt_key(key)}: {args.metric} {b:,.0f} -> {f:,.0f} "
              f"({(ratio - 1.0) * 100:+.1f}%)")
        if status == "REGRESSION":
            regressions.append(key)

    if regressions:
        moved = "dropped" if args.direction == "min" else "grew"
        print(f"check_bench_regression: {len(regressions)}/{len(shared)} groups {moved} "
              f">{args.threshold * 100:.0f}% on {args.metric}", file=sys.stderr)
        return 1
    if unguarded:
        print(f"check_bench_regression: {len(unguarded)} fresh group(s) have no "
              f"baseline entry in {args.baseline} — these sweep points are "
              "UNGUARDED and the guard refuses to pass them silently.\n"
              "To fix, regenerate and commit the baseline:\n"
              f"  1. build and run the bench that produced {args.fresh} on the "
              "reference machine\n"
              f"  2. copy its output over {args.baseline}\n"
              "  3. commit the updated baseline together with the change that "
              "added the sweep point", file=sys.stderr)
        return 1
    print(f"check_bench_regression: {len(shared)} groups within "
          f"{args.threshold * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

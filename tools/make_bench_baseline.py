#!/usr/bin/env python3
"""Condense google-benchmark JSON output into a committed BENCH_*.json baseline.

Usage:
  # Record a PR baseline: pre-PR binary vs post-PR binary on the same machine.
  python3 tools/make_bench_baseline.py \
      --baseline /tmp/pre.json --post /tmp/post.json --pr 2 --out BENCH_PR2.json

  # Several recordings per side (e.g. alternating pre/post runs on a shared
  # host): each benchmark's numbers are the per-field median over them.
  python3 tools/make_bench_baseline.py \
      --baseline pre1.json pre2.json pre3.json \
      --post post1.json post2.json post3.json --pr 2 --out BENCH_PR2.json

  # CI / one-shot: condense a single run (no speedups).
  python3 tools/make_bench_baseline.py --post bench_micro.json --pr ci-nightly \
      --out bench_summary.json

Input files are produced with:
  bench_micro --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
      --benchmark_out=<file> --benchmark_out_format=json

Only `_mean` aggregates (or plain entries when repetitions are off) are kept.
The output maps benchmark name -> {real_time_ns, items_per_second?} for the
"post" run and, when a baseline is given, the baseline numbers plus the
throughput speedup post/baseline. Future PRs regress against the committed
file by re-running the same command and comparing like for like.
"""

import argparse
import json
import statistics
import sys


# Multipliers normalizing google-benchmark's per-benchmark time_unit to ns.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def condense(path):
    with open(path) as fh:
        raw = json.load(fh)
    if "pr" in raw and "benchmarks" in raw:
        # Already a condensed BENCH_*.json: reuse its "post" run as the
        # baseline, so CI can compare a fresh run against the committed file.
        return {"context": raw.get("context", {}),
                "benchmarks": {name: row["post"]
                               for name, row in raw["benchmarks"].items()
                               if "post" in row}}
    out = {"context": {k: raw.get("context", {}).get(k) for k in
                       ("host_name", "num_cpus", "mhz_per_cpu", "library_build_type")},
           "benchmarks": {}}
    for bench in raw.get("benchmarks", []):
        name = bench["name"]
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") != "mean":
                continue
            name = bench.get("run_name", name.removesuffix("_mean"))
        scale = TIME_UNIT_NS[bench.get("time_unit", "ns")]
        entry = {"real_time_ns": bench["real_time"] * scale}
        if "items_per_second" in bench:
            entry["items_per_second"] = bench["items_per_second"]
        if "bytes_per_second" in bench:
            entry["bytes_per_second"] = bench["bytes_per_second"]
        # Machine-independent user counters (e.g. the thread-scaling runs'
        # model_speedup makespan ratio) ride along untouched.
        for key, value in bench.items():
            if key.startswith("model_"):
                entry[key] = value
        out["benchmarks"][name] = entry
    return out


def condense_all(paths):
    """condense() each recording; with several, take per-field medians.

    A benchmark's entry is the median of each of its fields over the
    recordings that contain it, which keeps one slow spell of a shared host
    out of the baseline.
    """
    runs = [condense(path) for path in paths]
    if len(runs) == 1:
        return runs[0]
    out = {"context": runs[0]["context"], "benchmarks": {}}
    names = sorted(set().union(*(run["benchmarks"] for run in runs)))
    for name in names:
        entries = [run["benchmarks"][name] for run in runs if name in run["benchmarks"]]
        keys = sorted(set().union(*entries))
        out["benchmarks"][name] = {
            key: statistics.median([e[key] for e in entries if key in e]) for key in keys}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", nargs="+",
                        help="pre-change benchmark JSON(s), raw google-benchmark "
                             "output or a committed BENCH_*.json (optional)")
    parser.add_argument("--post", nargs="+", required=True,
                        help="post-change benchmark JSON(s)")
    parser.add_argument("--pr", required=True, help="PR identifier for the record")
    parser.add_argument("--out", required=True, help="output file")
    args = parser.parse_args()

    post = condense_all(args.post)
    record = {
        "pr": args.pr,
        "benchmark_command": ("bench_micro --benchmark_repetitions=3 "
                              "--benchmark_report_aggregates_only=true "
                              "--benchmark_out=<file> --benchmark_out_format=json"),
        "recordings": {"baseline": len(args.baseline or []), "post": len(args.post)},
        "context": post["context"],
        "benchmarks": {},
    }

    baseline = condense_all(args.baseline) if args.baseline else None
    for name, entry in sorted(post["benchmarks"].items()):
        row = {"post": entry}
        if baseline and name in baseline["benchmarks"]:
            base = baseline["benchmarks"][name]
            row["baseline"] = base
            if "items_per_second" in entry and base.get("items_per_second"):
                row["speedup"] = round(
                    entry["items_per_second"] / base["items_per_second"], 3)
            elif base.get("real_time_ns"):
                row["speedup"] = round(
                    base["real_time_ns"] / entry["real_time_ns"], 3)
        record["benchmarks"][name] = row

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {args.out} ({len(record['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repo benchmark: builds perfbench from this checkout and runs it.

One run:

    python3 perfbench/run.py --workload payload10 --seed 1 --seconds 20 --trace 0

prints a metric table and the machine context, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones. --seed defaults to DEFAULT_SEED; HELD_OUT_SEED is kept for re-checking
a claim on a seed not used while writing it.

Steadiness self-check:

    python3 perfbench/run.py --steadiness --runs 5 [--workloads a,b] [--out f.json]

runs each workload in two interleaved sets of --runs runs (seeds
DEFAULT_SEED, DEFAULT_SEED+1, ... in both sets) and reports, per
end-to-end metric and workload, each set's median and quartile spread
(IQR / median, as statistics.quantiles gives the quartiles), whether the
two sets' medians agree within the metric's bound, and whether each set's
spread stays within a third of the bound (setup_s is exempt). Exits 1 when
any check fails.

Run from the root of the checkout. The build goes to .bench_build/perfbench.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench target; raises on failure."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_id():
    """The commit when the checkout is a git repository, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, commit, spans_out=None):
    """Runs the binary once; returns its parsed result (with context and checks)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def single(args):
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names}")
        return 2
    build()
    spans = BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    result = run_once(args.workload, args.seed, args.seconds, args.trace, source_id(), spans)
    metrics = result["metrics"]
    missing = [m["name"] for m in expected_metrics(spec, args.trace) if m["name"] not in metrics]
    if missing:
        log(f"perfbench did not report {missing}")
        return 1
    for m in expected_metrics(spec, args.trace):
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
            return 1
        print(f"{args.workload:20s} {m['name']:36s} {got['value']:>16.6g} {m['unit']}")
    print("context " + json.dumps(result["context"], sort_keys=True))
    for check in result["checks"]:
        print("check " + check)
    if spans:
        print(f"spans (name, count, total s, self s) written to {spans.relative_to(ROOT)}:")
        for line in spans.read_text().splitlines():
            row = json.loads(line)
            print(f"  span {row['name']:36s} {row['count']:>8d} {row['total_s']:>12.6f} "
                  f"{row['self_s']:>12.6f}")
    wanted = {m["name"]: metrics[m["name"]] for m in expected_metrics(spec, args.trace)}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": wanted}))
    return 0


def quartile_spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def steadiness(args):
    spec = contract()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    build()
    commit = source_id()
    report = {"seconds": args.seconds, "runs_per_set": args.runs, "commit": commit,
              "workloads": {}}
    ok = True
    for workload in workloads:
        sets = {"a": [], "b": []}
        context = None
        for i in range(args.runs):
            for name in ("a", "b"):
                result = run_once(workload, DEFAULT_SEED + i, args.seconds, 0, commit)
                if not result["correct"]:
                    log(f"{workload} seed {DEFAULT_SEED + i}: incorrect: {result['checks']}")
                    ok = False
                sets[name].append(result["metrics"])
                context = result["context"]
        rows = {}
        for m in spec["end_to_end"]:
            a = [r[m["name"]]["value"] for r in sets["a"]]
            b = [r[m["name"]]["value"] for r in sets["b"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) if m["better"] == "lower" else (med_a - med_b)
            spread = max(quartile_spread(a), quartile_spread(b))
            agree = med_a != 0 and worse / med_a <= m["bound"]
            # setup_s is exempt from the spread rule; everything else should
            # stay within a third of its bound to leave room for noise.
            steady = m["name"] == "setup_s" or spread <= m["bound"] / 3
            ok = ok and agree and steady
            rows[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "median_a": med_a, "median_b": med_b,
                "spread_a": quartile_spread(a), "spread_b": quartile_spread(b),
                "agree": agree, "steady": steady, "values_a": a, "values_b": b}
            print(f"{workload:20s} {m['name']:20s} a={med_a:<11.5g} b={med_b:<11.5g} "
                  f"spread a={quartile_spread(a):6.4f} b={quartile_spread(b):6.4f} "
                  f"bound={m['bound']:.2f} {'agree' if agree else 'DISAGREE'} "
                  f"{'steady' if steady else 'UNSTEADY'}", flush=True)
        report["workloads"][workload] = {"context": context, "metrics": rows}
        if args.out:
            with open(args.out, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workloads")
    p.add_argument("--out")
    args = p.parse_args()
    try:
        if args.seconds is None:
            args.seconds = contract()["run_seconds"]
        if args.steadiness:
            return steadiness(args)
        if not args.workload:
            p.error("--workload is required")
        return single(args)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Soak smoke for the overload-protection surface of the CLI, exercised the
# way an operator would hit it: injected sink I/O faults must be retried,
# injected per-bin stalls must trip the deadline ladder, SIGUSR1 must
# produce a mid-run metrics dump, and a checkpointed run must resume with
# --restore after the original process is gone.
#
# usage: robustness_smoke.sh <path-to-shedmon_cli>
set -euo pipefail

CLI=$(readlink -f "${1:?usage: robustness_smoke.sh <path-to-shedmon_cli>}")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$CLI" generate --preset cesca2 --duration 4 --seed 11 --out trace.smt >/dev/null

# Every bin stalls 50 ms of real wall-clock (the fault plan runs against the
# default SystemClock), so the 40-bin run lasts ~2 s — a deterministic window
# for the mid-run signal — and blows the 40 ms deadline budget in every bin.
# Checkpoints every 30 bins, so the last one (bin 30) leaves ten bins for
# the --restore leg below to replay.
"$CLI" run trace.smt --queries counter,flows --k 0.5 \
  --csv bins.csv --sink-retries 3 \
  --fault-plan "seed=7,sink_fail_n=2,stall_every=1:50000" \
  --deadline 0.4 \
  --checkpoint state.ckpt --checkpoint-every 30 --metrics-out metrics.prom \
  >run.out 2>run.err &
pid=$!

# The SIGUSR1 handler is installed just before the "running ..." banner;
# signaling earlier would hit the default action and kill the process.
for _ in $(seq 200); do
  grep -q '^running' run.out 2>/dev/null && break
  sleep 0.02
done
kill -USR1 "$pid" 2>/dev/null || true
wait "$pid"

grep -q 'SIGUSR1' run.err || {
  echo "FAIL: no mid-run metrics dump after SIGUSR1"; cat run.err; exit 1; }
[ -s bins.csv ] || { echo "FAIL: csv sink produced nothing"; exit 1; }
[ -s state.ckpt ] || { echo "FAIL: no checkpoint written"; exit 1; }
grep -q 'shedmon_rt_sink_retries_total{sink="csv"} [1-9]' metrics.prom || {
  echo "FAIL: injected sink faults were not retried"; cat metrics.prom; exit 1; }
grep -Eq 'shedmon_rt_deadline_miss_total\{rung="(boost|truncate|drop)"\} [1-9]' metrics.prom || {
  echo "FAIL: injected stalls did not trip the deadline ladder"; cat metrics.prom; exit 1; }
grep -Eq 'rt: [1-9][0-9]* deadline misses' run.out || {
  echo "FAIL: rt summary line missing from run output"; cat run.out; exit 1; }

# Crash recovery: a fresh process resumes from the surviving checkpoint and
# replays only the remaining bins (no stalls this time, so it is quick). The
# resumed run keeps the sink, its retry wrapper and the fault plan.
"$CLI" run trace.smt --queries counter,flows --k 0.5 \
  --checkpoint state.ckpt --restore \
  --csv resumed.csv --sink-retries 3 --fault-plan "seed=7,sink_fail_n=2" \
  --metrics-out resumed.prom >restore.out 2>restore.err
grep -q 'restored state.ckpt, resuming at bin' restore.err || {
  echo "FAIL: --restore did not resume from the checkpoint"; cat restore.err; exit 1; }
[ "$(wc -l <resumed.csv)" -gt 1 ] || {
  echo "FAIL: the resumed run's csv sink produced no rows"; cat resumed.csv; exit 1; }
grep -q 'shedmon_rt_sink_retries_total{sink="csv"} [1-9]' resumed.prom || {
  echo "FAIL: the resumed run's sink faults were not retried"; cat resumed.prom; exit 1; }

echo "robustness smoke: OK"

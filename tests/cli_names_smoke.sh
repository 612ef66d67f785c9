#!/usr/bin/env bash
# Setting names on the CLI are strict: both accepted spellings of a name
# (the flag's short one and the config file's long one) run the same
# pipeline, and an unknown name or flag exits 2 instead of silently falling
# back to a default.
#
# usage: cli_names_smoke.sh <path-to-shedmon_cli>
set -euo pipefail

CLI=$(readlink -f "${1:?usage: cli_names_smoke.sh <path-to-shedmon_cli>}")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$CLI" generate --preset cesca2 --duration 1 --seed 5 --out trace.smt >/dev/null

run() {
  "$CLI" run trace.smt --queries counter,flows --k 0.5 "$@" >run.out 2>run.err
}

# Both spellings of one setting give byte-identical results tables and
# per-bin CSVs.
same() {
  run --csv bins.csv "$1" "$2"
  mv run.out a.out
  mv bins.csv a.csv
  run --csv bins.csv "$1" "$3"
  cmp -s a.out run.out && cmp -s a.csv bins.csv || {
    echo "FAIL: $1 $2 and $1 $3 differ"; exit 1; }
}
same --strategy eq eq_srates
same --strategy cpu mmfs_cpu
same --strategy pkt mmfs_pkt
same --shedder none noshed

# A different setting must change the results table, or `same` proves
# nothing.
run --strategy cpu
mv run.out a.out
run --strategy pkt
cmp -s a.out run.out && { echo "FAIL: --strategy cpu and pkt give the same table"; exit 1; }

# Unknown names and unknown flags exit 2 instead of running the default.
rejected() {
  local status=0
  run "$@" || status=$?
  [ "$status" -eq 2 ] || { echo "FAIL: '$*' exited $status, want 2"; cat run.err; exit 1; }
}
rejected --strategy bogus
rejected --shedder reactve
rejected --oracle bogus
rejected --quries counter
# The open-bin ingest cap is gone (the capture slot ring bounds the open
# bin), so its old flags are unknown flags now, not silently ignored ones.
rejected --ingest-cap 100 --ingest-policy block
rejected --ingest-cap 100 --ingest-policy bogus

echo "cli names smoke: OK"

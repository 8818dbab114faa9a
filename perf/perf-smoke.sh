#!/usr/bin/env bash
# Perf smoke stage, for ci.sh to call: the smoke profile (2 000 records,
# ~1.5 s phases) through every workload, end to end against a real
# tasti_cli child and traced, in under 20 s; fails on any failed answer
# check. Compare against a recorded smoke run by passing it as $1.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(mktemp "${TMPDIR:-/tmp}/tasti-perf-smoke.XXXXXX.json")"
trap 'rm -f "$out"' EXIT
bash "$here/run.sh" run --seed 42 --profile smoke --out "$out"
if [ "${1:-}" != "" ]; then
  bash "$here/run.sh" compare "$1" "$out"
fi
echo "perf smoke OK"

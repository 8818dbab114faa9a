#!/usr/bin/env bash
# CI gate: formatting, lints, build, and the tier-1 test suite.
# Run from the repo root: ./ci.sh
#
#   ./ci.sh          full gate (fmt, clippy, allow-audit, doc-drift, doc-paths,
#                    build, tests, full-depth property tests)
#   ./ci.sh quick    same gate but property tests run at reduced case
#                    counts (the `quick-proptest` feature)
set -euo pipefail
cd "$(dirname "$0")"

PROFILE="${1:-full}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> audit: every #[allow(clippy::...)] / #[allow(unsafe_code)] carries a justification"
# Policy: a clippy or unsafe-code allow must be preceded by a comment
# explaining why the lint does not apply (grep for a comment line directly
# above the attribute). Unjustified allows fail CI.
unjustified=0
while IFS=: read -r file line _; do
  prev=$((line - 1))
  if ! sed -n "${prev}p" "$file" | grep -qE '^\s*(//|#!\[)'; then
    echo "UNJUSTIFIED allow at ${file}:${line} (add a comment above it)"
    unjustified=1
  fi
done < <(grep -rnE --include='*.rs' '#\[allow\((clippy::|unsafe_code)' crates src 2>/dev/null || true)
[ "$unjustified" -eq 0 ]

echo "==> doc-drift: README's rep-assignment knob table names only knobs the code has"
# Every `IvfParams::<field>` / `--<flag>` in the first column of README's
# "Rep-assignment knobs" table must be a `pub <field>:` in ann.rs / an entry
# of tasti_cli's BUILD_FLAGS. An empty extraction (table moved or renamed)
# fails too, so the guard cannot go quiet.
knobs=$(awk '/^### Rep-assignment knobs/{on=1;next} /^##/{on=0} on' README.md | awk -F'|' '/^\|/{print $2}')
build_flags=$(sed -n '/^const BUILD_FLAGS/,/^];/p' src/bin/tasti_cli.rs)
fields=$(grep -oE 'IvfParams::[a-z_]+' <<<"$knobs" | sed 's/.*:://' || true)
flags=$(grep -oE -- '`--[a-z][a-z-]*' <<<"$knobs" | sed 's/^`--//' || true)
drift=0
[ -n "$fields" ] && [ -n "$flags" ] || { echo "DOC DRIFT: knob table not found in README.md"; drift=1; }
for field in $fields; do
  grep -qE "^\s*pub ${field}:" crates/cluster/src/ann.rs ||
    { echo "DOC DRIFT: README names IvfParams::${field}; ann.rs has no such pub field"; drift=1; }
done
for flag in $flags; do
  grep -q "\"${flag}\"" <<<"$build_flags" ||
    { echo "DOC DRIFT: README names --${flag}; not in tasti_cli BUILD_FLAGS"; drift=1; }
done
[ "$drift" -eq 0 ]

echo "==> doc-paths: every source path README/DESIGN/EXPERIMENTS name in backticks exists"
# A backticked path under crates/, src/, examples/ or perf/ that ends in
# .rs/.sh/.md/.json/.toml must be a file in the tree, so deleting or moving
# a module cannot leave the docs pointing at nothing. An empty extraction
# fails too, like the guard above.
doc_paths=$(grep -ohE '`(crates|src|examples|perf)/[A-Za-z0-9_./-]+\.(rs|sh|md|json|toml)`' \
  README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u || true)
dangling=0
[ -n "$doc_paths" ] || { echo "DOC PATHS: no backticked source paths found in the docs"; dangling=1; }
for path in $doc_paths; do
  [ -e "$path" ] || { echo "DOC PATHS: ${path} is named in the docs but does not exist"; dangling=1; }
done
[ "$dangling" -eq 0 ]

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> tier-1: cargo test --doc"
cargo test -q --doc

echo "==> concurrency: MeteredLabeler stress suite (exactly-once, budget)"
cargo test -q -p tasti-labeler --test concurrency_stress

if [ "$PROFILE" = "quick" ]; then
  echo "==> property tests (quick profile: reduced case counts)"
  cargo test -q -p tasti-query --features quick-proptest \
    --test degenerate --test telemetry_audit
  cargo test -q -p tasti-core --features quick-proptest --test degenerate_ranking
  cargo test -q -p tasti-core --features quick-proptest --test persist_recovery
  cargo test -q -p tasti-ingest --features quick-proptest --test recovery
  cargo test -q -p tasti-ingest --features quick-proptest --test vfs_faults
else
  echo "==> property tests ran at full depth inside 'cargo test -q'"
fi

echo "==> ann-audit: IVF assignment recall bound + bit-identity differential"
# Always runs at the quick profile: the full-depth version already ran
# inside 'cargo test -q' on the full profile; this stage is the named gate
# that must pass even when someone only runs a targeted CI slice.
cargo test -q -p tasti-cluster --features quick-proptest \
  --test ann_recall --test differential

echo "==> serve smoke: build two indexes → one server, two tenants → probe every op → drain"
SMOKE=$(mktemp -d)
cleanup_smoke() {
  [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$SMOKE"
}
trap cleanup_smoke EXIT
CLI=target/release/tasti_cli
# start_server <log file> <who, for the failure message> <serve flags...>
# Launches `serve` in the background on an ephemeral port and waits for its
# log to show the bound address. Sets SERVE_PID (cleanup_smoke kills
# whatever is still running) and ADDR.
start_server() {
  local log="$SMOKE/$1" who="$2"
  shift 2
  "$CLI" serve "$@" --addr 127.0.0.1:0 --workers 4 > "$log" 2>&1 &
  SERVE_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(grep -oE '127\.0\.0\.1:[0-9]+' "$log" | head -1 || true)
    [ -n "$ADDR" ] && break
    sleep 0.2
  done
  if [ -z "$ADDR" ]; then
    echo "$who never printed its address"; cat "$log"; exit 1
  fi
}
"$CLI" build --dataset night-street --n 2000 --seed 7 \
  --train 100 --reps 200 --out "$SMOKE/idx.json"
# A second, cheaper index over the same dataset (TASTI-PT: no training)
# exercises the multi-index registry as a named co-tenant.
"$CLI" build --dataset night-street --n 2000 --seed 7 \
  --reps 150 --pretrained-only --out "$SMOKE/idx2.json"
start_server serve.log "serve smoke: server" \
  --index "$SMOKE/idx.json" --index "alt=$SMOKE/idx2.json" \
  --dataset night-street --n 2000 --seed 7 --snapshot "$SMOKE/snap.json"
# One query of each type against the default route, then the admin
# surface. probe exits non-zero on any error reply, so set -e turns a
# failed op into a failed gate.
for op in agg supg supg-precision limit predicate stats metrics snapshot; do
  "$CLI" probe "$op" --addr "$ADDR" --class car --seed 7
done
# The same query ops routed to the named co-tenant, plus the registry
# listing — one server answering for two indexes.
for op in agg limit stats; do
  "$CLI" probe "$op" --addr "$ADDR" --class car --seed 7 --index alt
done
"$CLI" probe index-list --addr "$ADDR" | grep -q '"name":"alt"' \
  || { echo "serve smoke: index-list is missing the named index"; exit 1; }
# Slow-writer probe: drip the request onto the socket in three chunks with
# pauses between them; the reactor must reassemble and answer it (a
# read_line-style reader loses the partial line on every empty read).
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}"
printf '{"id":77,"op":"ind' >&3
sleep 0.3
printf 'ex_' >&3
sleep 0.3
printf 'stats"}\n' >&3
IFS= read -r SLOW_REPLY <&3
exec 3>&- 3<&-
echo "$SLOW_REPLY" | grep -q '"ok":true' \
  || { echo "serve smoke: slow-writer probe got: $SLOW_REPLY"; exit 1; }
"$CLI" probe shutdown --addr "$ADDR"
wait "$SERVE_PID" # graceful drain must exit 0 (set -e enforces)
[ -s "$SMOKE/snap.json" ] || { echo "serve smoke: snapshot missing"; exit 1; }
# Back-compat: a server that never ingested must write a format-version-1
# snapshot, byte-loadable by pre-ingest builds.
grep -q '"version":1' "$SMOKE/snap.json" \
  || { echo "serve smoke: ingest-free snapshot must stay format version 1"; exit 1; }
SERVE_PID=""
echo "serve smoke OK (two indexes + slow writer served, drained cleanly, snapshot written)"

echo "==> build-determinism: the serve-smoke index is the same bytes on one core"
# "Bit-identical at any thread count", end to end and without a knob: the
# build resolves its worker count from available_parallelism, which under
# `taskset -c 0` is 1, so this second build runs every stage inline.
taskset -c 0 "$CLI" build --dataset night-street --n 2000 --seed 7 \
  --train 100 --reps 200 --out "$SMOKE/idx-1core.json"
cmp "$SMOKE/idx.json" "$SMOKE/idx-1core.json" \
  || { echo "build-determinism: index bytes depend on the core count"; exit 1; }

echo "==> ingest smoke: stream rows, kill -9, restart replays every acknowledged record"
# The server runs over a --n 2100 dataset slice but serves the 2000-record
# index: rows 2000..2039 are the ingest payload (and the oracle's ground
# truth for them once applied). The first server is SIGKILLed — no drain,
# no snapshot — so the segment log is the only copy of the ingested rows;
# the durability promise is that the restart replays all 40.
start_server ingest1.log "ingest smoke: server" \
  --index "$SMOKE/idx.json" --dataset night-street --n 2100 --seed 7 \
  --ingest-dir "$SMOKE/ingest-log"
"$CLI" probe ingest --addr "$ADDR" --dataset night-street --n 2100 --seed 7 \
  --offset 2000 --count 40
"$CLI" probe stats --addr "$ADDR" | grep -q '"records":2040' \
  || { echo "ingest smoke: live server does not report 2040 records"; exit 1; }
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
start_server ingest2.log "ingest smoke: restarted server" \
  --index "$SMOKE/idx.json" --dataset night-street --n 2100 --seed 7 \
  --ingest-dir "$SMOKE/ingest-log"
grep -q 'ingest log: replayed' "$SMOKE/ingest2.log" \
  || { echo "ingest smoke: restart did not replay the log"; cat "$SMOKE/ingest2.log"; exit 1; }
"$CLI" probe stats --addr "$ADDR" | grep -q '"records":2040' \
  || { echo "ingest smoke: replay lost acknowledged records"; exit 1; }
# The replayed records answer queries like any indexed record.
"$CLI" probe limit --addr "$ADDR" --class car --seed 7
"$CLI" probe shutdown --addr "$ADDR"
wait "$SERVE_PID"
SERVE_PID=""
echo "ingest smoke OK (40 streamed records survived kill -9 via log replay)"

echo "==> storage chaos: disk-fault suite, read-only degradation, corrupt-snapshot recovery"
# The dedicated suite: fsyncgate semantics over the wire, group commit,
# fault-free byte-identity, snapshot save backoff.
cargo test -q -p tasti-serve --test storage_chaos
# A serve run under a scripted disk fault: the 2nd log fsync fails, so the
# 2nd batch must come back as a typed storage rejection (never acked) and
# ingest degrades to read-only — while queries and the admin surface keep
# answering and the drain still exits 0.
start_server storage.log "storage smoke: server" \
  --index "$SMOKE/idx.json" --dataset night-street --n 2100 --seed 7 \
  --ingest-dir "$SMOKE/faulted-log" --storage-fault-script 'sync:2=eio'
# Batch 1 rides fsync #1: acknowledged.
"$CLI" probe ingest --addr "$ADDR" --dataset night-street --n 2100 --seed 7 \
  --offset 2000 --count 10
# Batch 2 hits the injected fsync failure: the probe must exit non-zero
# with a typed storage rejection on the wire.
if "$CLI" probe ingest --addr "$ADDR" --dataset night-street --n 2100 --seed 7 \
    --offset 2010 --count 10 > "$SMOKE/rejected.json" 2>/dev/null; then
  echo "storage smoke: faulted ingest was acknowledged"; exit 1
fi
grep -q '"kind":"ingest_rejected"' "$SMOKE/rejected.json" \
  || { echo "storage smoke: rejection not typed"; cat "$SMOKE/rejected.json"; exit 1; }
grep -q '"fault_class":"storage"' "$SMOKE/rejected.json" \
  || { echo "storage smoke: rejection missing fault class"; cat "$SMOKE/rejected.json"; exit 1; }
grep -q '"read_only":true' "$SMOKE/rejected.json" \
  || { echo "storage smoke: rejection missing read-only flag"; cat "$SMOKE/rejected.json"; exit 1; }
# Queries and the admin surface keep serving in read-only degradation,
# and metrics expose the storage section.
for op in agg limit health; do
  "$CLI" probe "$op" --addr "$ADDR" --class car --seed 7
done
"$CLI" probe metrics --addr "$ADDR" | grep -q '"storage":{"read_only":true' \
  || { echo "storage smoke: metrics missing the storage section"; exit 1; }
"$CLI" probe shutdown --addr "$ADDR"
wait "$SERVE_PID" # drain under a poisoned log must still exit 0
SERVE_PID=""
# Corrupt-snapshot-then-restart: snapshot saves rotate a last-good copy;
# a corrupted primary must fall back to it at startup with a visible
# notice, and the ingest log replays anything above its watermark.
start_server snapwriter.log "storage smoke: snapshot writer" \
  --index "$SMOKE/idx.json" --dataset night-street --n 2100 --seed 7 \
  --ingest-dir "$SMOKE/ingest-log" --snapshot "$SMOKE/snap-v3.json"
"$CLI" probe snapshot --addr "$ADDR"
"$CLI" probe ingest --addr "$ADDR" --dataset night-street --n 2100 --seed 7 \
  --offset 2040 --count 10
"$CLI" probe snapshot --addr "$ADDR" # rotates the first save to .prev
"$CLI" probe shutdown --addr "$ADDR"
wait "$SERVE_PID"
SERVE_PID=""
# A streamed index snapshots in the checksummed v3 envelope.
grep -q '"version":3' "$SMOKE/snap-v3.json" \
  || { echo "storage smoke: streamed snapshot must be format version 3"; exit 1; }
[ -s "$SMOKE/snap-v3.json.prev" ] \
  || { echo "storage smoke: snapshot save must rotate a last-good copy"; exit 1; }
# Smash four bytes mid-file: the checksum must catch it at load.
dd if=/dev/zero of="$SMOKE/snap-v3.json" bs=1 seek=64 count=4 conv=notrunc 2>/dev/null
start_server recover.log "storage smoke: recovery server" \
  --index "$SMOKE/snap-v3.json" --dataset night-street --n 2100 --seed 7 \
  --ingest-dir "$SMOKE/ingest-log"
grep -q 'recovered from last-good' "$SMOKE/recover.log" \
  || { echo "storage smoke: corrupt snapshot did not fall back"; cat "$SMOKE/recover.log"; exit 1; }
# The fallback is lossless: every acknowledged record is still served.
"$CLI" probe stats --addr "$ADDR" | grep -q '"records":2050' \
  || { echo "storage smoke: fallback + replay lost acknowledged records"; exit 1; }
"$CLI" probe metrics --addr "$ADDR" | grep -q '"snapshot_fallback_loads":1' \
  || { echo "storage smoke: fallback load not visible in metrics"; exit 1; }
"$CLI" probe shutdown --addr "$ADDR"
wait "$SERVE_PID"
SERVE_PID=""
echo "storage chaos OK (typed read-only degradation; corrupt snapshot recovered from last-good)"

echo "==> chaos: fault-injected suite + serve smoke under injected faults"
# The dedicated suite: 8-client storm, breaker lifecycle, degraded replies.
cargo test -q -p tasti-serve --test chaos
# A serve smoke with live fault injection behind the resilience stack:
# queries may answer degraded (probe still exits 0 on ok replies), health
# must answer, and the drain must still exit 0.
start_server chaos.log "chaos smoke: server" \
  --index "$SMOKE/idx.json" --dataset night-street --n 2000 --seed 7 \
  --fault-transient 0.3 --fault-fatal 0.1 --fault-seed 99
# Query ops may answer degraded (ok) or, if the breaker is open, a typed
# labeler_unavailable error — both are acceptable under injected faults;
# what must never happen is a hang or an untyped failure.
for op in agg limit; do
  "$CLI" probe "$op" --addr "$ADDR" --class car --seed 7 \
    || echo "chaos smoke: $op answered with a typed error (acceptable under faults)"
done
# The admin surface must stay up regardless of oracle health.
for op in health metrics; do
  "$CLI" probe "$op" --addr "$ADDR" --class car --seed 7
done
"$CLI" probe shutdown --addr "$ADDR"
wait "$SERVE_PID" # drain under faults must still exit 0
SERVE_PID=""
echo "chaos smoke OK (faulted server answered and drained cleanly)"

echo "==> perf-smoke: every benchmark workload at the smoke profile, answers checked"
bash perf/perf-smoke.sh

echo "CI OK"

#!/usr/bin/env bash
# The BENCHMARK.json command: builds the benchmark and the measured
# tasti_cli from source (offline: crates.io dependencies are patched to the
# stand-ins under perf/shims), then runs one workload.
#
#   bash perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Any other tasti-perf invocation passes through, e.g.
#   bash perf/run.sh run --seed 42
#   bash perf/run.sh compare perf/results/baseline.json perf/results/latest.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for the exec below alike.
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: the last stdout line is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/tasti-perf" "$@"

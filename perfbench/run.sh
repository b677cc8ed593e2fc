#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload in a fresh process.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr, so the last stdout
# line is the benchmark's result object. Outside a full checkout the build
# fails and the script exits non-zero without a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"

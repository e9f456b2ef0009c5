#!/usr/bin/env bash
# Builds the release `esvm` binary and this benchmark from source, then
# runs one benchmark pass. Run from the repository root:
#
#   bash e2ebench/run.sh --workload offline-100k --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries the report, ending with one
# JSON result line. Both packages build into CARGO_TARGET_DIR, or into
# target/ when it is unset.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet -p esvm-exper --bin esvm 1>&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml 1>&2
exec "$target/release/esvm-e2ebench" --esvm "$target/release/esvm" "$@"

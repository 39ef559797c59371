#!/usr/bin/env bash
# Builds the serving daemon and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash llmbench/run.sh --workload serve-short|serve-dse|paper-loop \
#       --seed N --seconds S --trace 0|1
#
# The last line of standard output is the JSON result; build output and a
# human-readable metric table go to standard error.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# Both packages build into one target directory, so the benchmark finds the
# daemon binary beside its own.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p llmulator-cli --bin llmulator >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/llmbench" "$@"

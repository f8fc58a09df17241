#!/usr/bin/env bash
# Builds the release `mcpat` binary and the benchmark harness from source,
# then runs the harness against that binary. Run from the repository root:
#
#   bash perfbench/run.sh --workload cli-oneshot --seed 1 --seconds 20 --trace 0
#
# Cargo's output goes to stderr so the last line of stdout stays the
# harness's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path Cargo.toml -p mcpat-serve --bin mcpat 1>&2
cargo build --release --offline --manifest-path perfbench/Cargo.toml 1>&2
"$CARGO_TARGET_DIR/release/perfbench" --mcpat "$CARGO_TARGET_DIR/release/mcpat" "$@"

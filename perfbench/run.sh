#!/usr/bin/env bash
# Builds the diagnosis server and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr, so the last line on stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/server ]]; then
    echo "perfbench: $root is not a checkout of the repository" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path Cargo.toml -p sdd-server 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/sdd-perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/sdd-server" "$@"

#!/usr/bin/env bash
# Builds the daemon and the benchmark from this checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash repobench/run.sh --workload cold-batch|edit-session|serve-open \
#        --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" \
    -p repro-serve --bin repro-serve >&2
cargo build --release --quiet --offline --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target/release/repobench" --serve-bin "$target/release/repro-serve" "$@"

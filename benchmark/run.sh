#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it; every argument goes
# to the program (see README.md). Run from anywhere:
#
#   benchmark/run.sh                      every workload, out/result.json
#   benchmark/run.sh --smoke              the same in under 15 s
#   benchmark/run.sh --repeat 2           twice, then compared
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload local_tcp --seed 7 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
export SKADI_BENCH_OUT="${SKADI_BENCH_OUT:-$here/out}"
exec "$target/release/skadi-benchmark" "$@"

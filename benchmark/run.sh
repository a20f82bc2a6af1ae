#!/usr/bin/env bash
# The repo benchmark's one command. Run it from the repository root.
#
#   benchmark/run.sh [--seed N | --seeds A,B] [--traced] [--seconds S] [--workload W]
#       builds release, runs every workload, checks outputs and prints every
#       metric by name with its unit; exits non-zero on any failed check, on
#       a missing metric, or on a virtual mismatch between repetitions.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       the driver's form (BENCHMARK.json): one workload, one JSON result
#       line as the last line of standard output.
#   benchmark/run.sh compare PARENT.json CHANGE.json…
#
# Nothing is read or written outside the checkout: the build goes to
# $CARGO_TARGET_DIR (default benchmark/target), results to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last stdout line must be the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/benchmark"

if [ "${1:-}" = "compare" ]; then
    shift
    exec "$bin" compare "$@"
fi

driver_form=0
for arg in "$@"; do
    [ "$arg" = "--trace" ] && driver_form=1
done
if [ "$driver_form" = 1 ]; then
    exec "$bin" run --out-dir "$here/out" "$@"
fi
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$bin" suite --out-dir "$here/out" --commit "$commit" "$@"

#!/usr/bin/env bash
# The one command of the hsc benchmark: builds the harness, runs it,
# verifies every rep, prints every metric by name with its unit.
#
#   benchmark/run.sh [--seed N] [--rounds N] [--quick] [--out FILE]
#       The suite: all seven workloads in interleaved rounds, then the
#       traced runs and the per-layer testbenches. Writes FILE (default
#       benchmark/results.json) for `compare`, and benchmark/trace.json.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       The driver's contract (BENCHMARK.json): one workload for a fixed
#       time; the last line of stdout is one JSON object holding the
#       end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#
# README.md defines the metrics. Exit status: 0 on success, 1 when a rep
# failed or the build broke, 2 on a usage error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# cargo resolves a relative CARGO_TARGET_DIR against the directory it runs
# in; pin it so the binaries are where this script looks for them.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

contract=0 # --seconds given: the driver's one-workload mode
traced=""  # operand of --trace, if given
out=0
prev=""
for arg in "$@"; do
    case "$prev" in --trace) traced="$arg" ;; esac
    case "$arg" in --seconds) contract=1 ;; --out) out=1 ;; esac
    prev="$arg"
done
# hsc-e2e's own defaults: a suite run is traced, a --seconds run is not.
[ -n "$traced" ] || traced=$((1 - contract))

build() {
    cargo build --release --offline --manifest-path "$here/Cargo.toml" "$@" >&2
}

# hsc-e2e first and on its own: it uses only the narrow run-a-workload API,
# so a change to a layer's interface cannot take the end-to-end numbers down
# with the layer ones.
build --bin hsc-e2e --bin compare

args=("$@")
if [ "$traced" = 1 ]; then
    if build --bin hsc-layers; then
        args+=(--layers-bin "$target/release/hsc-layers")
    else
        echo "run.sh: hsc-layers did not build; its metrics will be missing" >&2
    fi
    args+=(--trace-out "$here/trace.json")
fi
if [ "$contract" = 0 ] && [ "$out" = 0 ]; then
    args+=(--out "$here/results.json")
fi

exec "$target/release/hsc-e2e" "${args[@]}"

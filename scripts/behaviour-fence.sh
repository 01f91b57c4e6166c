#!/usr/bin/env bash
# Behaviour fence: writes what "same behaviour" means for this simulator
# into one directory, one file per output, so two builds compare with
# `diff -r`. Twelve `hsc` runs cover the model checker, every figure and
# campaign that a refactor or an optimisation must not move, and four run
# reports. Each stdout is kept (stderr holds only wall-clock timing), and
# each report's `git` field is masked.
#
#   bash scripts/behaviour-fence.sh target/release/hsc /tmp/fence.head
#   bash scripts/behaviour-fence.sh ../base/target/release/hsc /tmp/fence.base
#   diff -r /tmp/fence.base /tmp/fence.head && echo "same behaviour"
#
# A run that exits non-zero keeps its stdout and gets an "exit status N"
# line, so a command that starts failing shows in the diff instead of
# stopping the fence. About 5 s for a release build on two cores.
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 <hsc binary> <output directory>" >&2
    exit 2
fi
hsc=$(realpath "$1")
mkdir -p "$2"
# Reports are written by relative name, so a stdout line that names one
# reads the same in every output directory.
cd "$2"

# fence NAME ARGS...: runs `hsc ARGS...` with stdout into NAME.txt.
fence() {
    local name=$1
    shift
    local status=0
    "$hsc" "$@" >"$name.txt" 2>/dev/null || status=$?
    if [ "$status" -ne 0 ]; then
        echo "exit status $status" >>"$name.txt"
    fi
}

fence check check --jobs 2
fence repro repro --quick --jobs 1 --report repro.json
fence faults faults --jobs 2 --report faults.json
fence characterize characterize --report characterize.json
fence characterize-atomics characterize --trace-gen atomics --report characterize-atomics.json
fence extension extension --jobs 2
fence fig4 fig 4 --jobs 2
fence fig5 fig 5 --jobs 2
fence fig6 fig 6 --jobs 2
fence fig7 fig 7 --jobs 2
fence analyze report analyze
fence ablation ablation --jobs 2

for report in *.json; do
    sed -i 's/"git":"[^"]*"/"git":"(masked)"/' "$report"
done

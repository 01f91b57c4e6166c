#!/usr/bin/env bash
# Source-shape lints: grep/awk ratchets over the sources, each with the
# reason it exists. CI runs this script in its lint job; run it locally
# the same way, from anywhere in the checkout:
#
#   bash scripts/lint-source-shape.sh
#
# Every rule runs, in a subshell of its own; one that fails prints what
# matched and why. Exits 0 when every rule holds and 1 when any fails.
set -o pipefail
cd "$(dirname "$0")/.." || exit 2

failed=0

# rule NAME FUNCTION: runs FUNCTION and records a failure under NAME.
rule() {
    if ! ( "$2" ); then
        echo "source-shape lint failed: $1" >&2
        failed=1
    fi
}

# Ratchet: a bounded per-line in-flight table goes on hsc_mem::LineMap
# (no allocation once warm), so no controller declares a BTreeMap or
# BTreeSet field keyed by line. The one exemption is DmaEngine's
# read_data, an unbounded store of every line a DMA read returned.
per_line_tables_stay_on_linemap() {
    if grep -rnE '^\s*(pub(\([a-z]+\))?\s+)?[a-z_0-9]+:\s*BTree(Map<LineAddr|Set<LineAddr|Set<\(LineAddr)' \
         crates/mem/src crates/noc/src crates/cluster/src crates/core/src \
       | grep -v '^crates/cluster/src/dma.rs:[0-9]*: *read_data:'; then
      echo "a per-line BTreeMap/BTreeSet field: use hsc_mem::LineMap" >&2
      exit 1
    fi
}

# Ratchet: a controller counts in plain u64 fields and transition
# matrix cells and names its keys only in stats(), so the state the
# model checker clones on every branch holds no map of interned name
# strings and no histogram; distributions live in hsc-obs.
counter_names_stay_out_of_controller_state() {
    if grep -rnE '^\s*(pub(\([a-z]+\))?\s+)?[a-z_0-9]+:\s*(std::collections::)?(BTreeMap|HashMap)<String' \
         crates/mem/src crates/noc/src crates/cluster/src crates/core/src; then
      echo "a String-keyed map field: count in plain fields, name keys in stats()" >&2
      exit 1
    fi
    if grep -rnE '^\s*(pub(\([a-z]+\))?\s+)?[a-z_0-9]+:\s*(hsc_sim::)?Histogram\b' \
         crates/mem/src crates/noc/src crates/cluster/src crates/core/src; then
      echo "a Histogram field in a controller: keep count/total/max fields, distributions in hsc-obs" >&2
      exit 1
    fi
}

# Ratchet: a run report holds one record per run, so the observer's
# data has no cross-run merge; a new analytics section adds no
# merge or absorb for it either.
runs_are_reported_not_merged() {
    if grep -rnE 'fn (merge|absorb)\b' crates/obs/src; then
      echo "a cross-run merge in hsc-obs: report each run as its own record" >&2
      exit 1
    fi
}

# Ratchet: nothing is scheduled behind the last event handled, so
# the event queue has the ring and one heap (`far`) and no home for
# past events; and the model checker's choice mode is a zero-latency
# LatencyMap, not a flag the network checks on every send.
one_queue_contract_no_network_mode() {
    heaps=$(grep -cE '^\s*(pub(\([a-z]+\))?\s+)?[a-z_0-9]+:\s*(std::collections::)?BinaryHeap<' \
              crates/sim/src/wheel.rs || true)
    if [ "$heaps" -gt 1 ]; then
      echo "WheelQueue declares $heaps BinaryHeap fields: far is the only one" >&2
      exit 1
    fi
    if grep -nE '^\s*(pub(\([a-z]+\))?\s+)?[a-z_0-9]+:\s*bool\b' crates/noc/src/network.rs; then
      echo "a bool field in Network: make the mode data (a LatencyMap, a FaultPlan), not a flag" >&2
      exit 1
    fi
}

# Ratchet: the directory decides "this transaction is done" and builds
# every reply to a requester in one place, try_complete, behind its
# probe-round check (a handler that finished a transaction itself
# released an early-answered line while probe acks were still in
# flight); and it matches every probe ack, memory reply and unblock
# to its transaction in one place, on_message, which alone counts
# what no transaction is waiting for.
the_directory_answers_in_try_complete_and_matches_in_on_message() {
    if awk '/^#\[cfg\(test\)\]/ { exit }
            /^    (pub(\([a-z]+\))? )?fn / { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
            /self\.finish_txn\(|MsgKind::(Resp|DmaRdResp) \{/ && fn != "try_complete" { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
            /self\.n\.stale_(probe_acks|mem_resps|unblocks) \+=/ && fn != "on_message" { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
            END { exit !bad }' crates/core/src/directory.rs; then
      echo "a transaction finished or a reply built outside try_complete, or a stale input counted outside on_message" >&2
      exit 1
    fi
}

# Ratchet: a seeded protocol bug is a value a System is built with
# (SystemBuilder::with_mutant), not a switch every system in the
# process reads, so no crate keeps process-global mutable state and
# any two tests, or two explorations, may share a process.
no_process_global_mutable_state() {
    if grep -rnE '\bstatic\s+mut\b|\bstatic\s+[A-Z_0-9]+\s*:\s*([a-z_:]+::)?(Atomic[A-Za-z0-9]*|Mutex|RwLock|OnceLock)\b|\bthread_local!' \
         crates/*/src; then
      echo "process-global mutable state: make it a value the System is built with" >&2
      exit 1
    fi
}

# Ratchet: the model checker's choice is a pending event, stepped by
# its seq, not an index into a freshly sorted snapshot; a built
# System already has its initial wake-ups queued, so it keeps no
# start flag; and a counterexample is read off the explored state,
# not rebuilt by replaying a path.
the_checker_steps_events() {
    if grep -nE 'fn choice_count\b|fn step_choice\([^)]*usize|^\s*(pub(\([a-z]+\))?\s+)?started\s*:' \
         crates/core/src/system.rs; then
      echo "a choice is a &PendingEvent: no choice_count, no index step_choice, no start flag" >&2
      exit 1
    fi
    if grep -rnE 'fn render_path\b' crates/check/src; then
      echo "a counterexample comes from the explored state: no render_path replay" >&2
      exit 1
    fi
}

# Ratchet: a workload runs through run_workload_observed (with
# run_workload_on its one panicking shorthand) and a run is read
# through the Metrics it returns, so System and MemoryController
# keep no second reader of what metrics() and memory() give.
a_workload_runs_one_way() {
    if grep -rnE 'pub fn run_workload\(|pub fn try_run_workload_on\b|pub struct RunResult\b' \
         crates/*/src; then
      echo "one runner: run_workload_observed, or run_workload_on to panic on failure" >&2
      exit 1
    fi
    if grep -nE 'fn (config|events_processed|faults_injected)\(&self' crates/core/src/system.rs; then
      echo "read a run through System::metrics(), not a second accessor" >&2
      exit 1
    fi
    if grep -nE 'fn (read_line|memory_mut)\b' crates/core/src/memctl.rs; then
      echo "memory is read through MemoryController::memory() and written by MemWr" >&2
      exit 1
    fi
}

# Ratchet: a requester reacts to the wakes and messages it is handed;
# the event loops that drive one live with the tests, which answer
# through the one stub directory in crates/cluster/tests/requesters.
requester_code_owns_no_event_queue() {
    if grep -rn 'WheelQueue' crates/cluster/src; then
      echo "drive a requester from crates/cluster/tests/requesters (stub::pump), not from src" >&2
      exit 1
    fi
}

# Ratchet: the DMA engine pulls its commands from one DmaProgram, set
# through SystemBuilder::with_dma, instead of holding a copied list.
a_dma_engine_runs_one_program() {
    status=0
    if grep -n 'fn add_dma' crates/core/src/system.rs; then status=1; fi
    if grep -n 'VecDeque<DmaCommand>' crates/cluster/src/dma.rs; then status=1; fi
    if [ "$status" -ne 0 ]; then
      echo "give the DMA engine a DmaProgram (SystemBuilder::with_dma, DmaScript), not a command list" >&2
    fi
    exit "$status"
}

# Ratchet: a wavefront waits on one Wait (Ready, Fill(n), SlcAtomic,
# Release { flush }, Done) that only block and unblock write, so the
# runnable set is "bit set iff Ready"; and a workload splits its work
# through util::share, not a copy of the div_ceil/min arithmetic.
a_wavefront_waits_on_one_value() {
    status=0
    if grep -nE '\b(pending_fills|flush_pending|BlockKind)\b' crates/cluster/src/gpu.rs; then status=1; fi
    if ! awk '/^#\[cfg\(test\)\]/ { exit }
              /^ *(pub(\([a-z]+\))? )?fn / { match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
              /\.wait = / && fn != "block" && fn != "unblock" { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
              END { exit bad }' crates/cluster/src/gpu.rs; then status=1; fi
    if grep -rn 'div_ceil(' crates/workloads/src | grep -v '^crates/workloads/src/util.rs:'; then status=1; fi
    if [ "$status" -ne 0 ]; then
      echo "a wavefront's wait is one Wait written by block/unblock; split work with util::share" >&2
    fi
    exit "$status"
}

# Ratchet: a core waits on one Wait (Ready, Miss(line), Done) and a
# directory transaction's reply is one Reply (Owed, Early, Awaiting,
# Unblocked), so an early-answered CPU read ends like every other CPU
# read; a memory access ends its thread's step, so it returns no
# flag; and a TCC fill's MSHR entry is its waiter list.
a_core_and_a_directory_transaction_wait_on_one_value() {
    status=0
    if grep -nE '\bblocked_line\b|\bdone: bool\b' crates/cluster/src/corepair.rs; then status=1; fi
    if grep -nE '\benum Unblock\b|\bresponded *:|\.responded\b' crates/core/src/directory.rs; then status=1; fi
    for f in crates/cluster/src/*.rs; do
      if ! awk '/fn (access_[a-z_0-9]*|begin_release)\(/ { sig = 1; at = FILENAME ":" FNR }
                sig && /-> bool/ { print at ": returns bool"; bad = 1 }
                sig && /\{ *$/ { sig = 0 }
                END { exit bad }' "$f"; then status=1; fi
    done
    if grep -rn 'struct TccTxn' crates/cluster/src; then status=1; fi
    if [ "$status" -ne 0 ]; then
      echo "a core waits on one Wait, a directory reply is one Reply, an access returns nothing, a TCC fill lists its waiters" >&2
    fi
    exit "$status"
}

rule "Per-line tables stay on LineMap" per_line_tables_stay_on_linemap
rule "Counter names stay out of controller state" counter_names_stay_out_of_controller_state
rule "Runs are reported, not merged" runs_are_reported_not_merged
rule "One queue contract, no network mode" one_queue_contract_no_network_mode
rule "The directory answers in try_complete and matches in on_message" the_directory_answers_in_try_complete_and_matches_in_on_message
rule "No process-global mutable state" no_process_global_mutable_state
rule "The checker steps events" the_checker_steps_events
rule "A workload runs one way" a_workload_runs_one_way
rule "Requester code owns no event queue" requester_code_owns_no_event_queue
rule "A DMA engine runs one program" a_dma_engine_runs_one_program
rule "A wavefront waits on one value" a_wavefront_waits_on_one_value
rule "A core and a directory transaction wait on one value" a_core_and_a_directory_transaction_wait_on_one_value

exit "$failed"

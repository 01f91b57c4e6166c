//! Differential fuzz of the generator → serialize → parse pipeline.
//!
//! For 32 seeds (with the generator knobs varied alongside the seed so
//! the corpus covers stream mixes, skews, and sharing degrees), the
//! in-memory program, its canonical text, and the re-parsed program must
//! agree exactly — and re-serializing must reproduce the text
//! byte-for-byte. This is the contract that lets `hsc trace-gen` corpora be
//! checked into CI and replayed with byte-identity guarantees: the file
//! *is* the program.

use hsc_workloads::trace::{Expectation, TraceProgram, TrafficSpec};

/// A spec that varies every knob with the seed, staying inside the
/// evaluation system's capacity (≤ 8 CPU streams).
fn spec_for(seed: u64) -> TrafficSpec {
    let spec = format!(
        "seed={seed},cpu={cpu},gpu={gpu},dma={dma},ops={ops},lines={lines},zipf={zipf},reads={reads},writes={writes},atomics={atomics},shared={shared},pingpong={pingpong}",
        cpu = 1 + seed % 8,
        gpu = seed % 5,
        dma = seed % 3,
        ops = 16 + seed * 3,
        lines = 16 << (seed % 4),
        zipf = (seed % 7) as f64 * 0.25,
        reads = 1 + seed % 80,
        writes = seed % 40,
        atomics = seed % 25,
        shared = seed % 101,
        pingpong = (seed * 13) % 101,
    );
    TrafficSpec::parse(&spec).unwrap_or_else(|e| panic!("seed {seed}: bad spec ({e})"))
}

#[test]
fn thirty_two_seeds_round_trip_identically() {
    for seed in 0..32u64 {
        let program = spec_for(seed).generate();
        let text = program.to_text();
        let parsed = TraceProgram::parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: generated trace does not parse: {e}"));
        assert_eq!(parsed, program, "seed {seed}: parsed program differs from the in-memory one");
        assert_eq!(parsed.to_text(), text, "seed {seed}: re-serialization is not byte-identical");
    }
}

#[test]
fn same_seed_emits_identical_bytes_and_nearby_seeds_differ() {
    let a = spec_for(7).generate().to_text();
    let b = spec_for(7).generate().to_text();
    assert_eq!(a, b, "generation is a pure function of the spec");
    let c = spec_for(8).generate().to_text();
    assert_ne!(a, c, "the seed (and knobs derived from it) select the trace");
}

/// The generator's verifiability-by-construction discipline holds across
/// the whole fuzz corpus, not just the presets: no generated word may
/// land in the `Unconstrained` bucket that `verify()` would skip.
#[test]
fn fuzzed_traces_stay_fully_verifiable() {
    for seed in 0..32u64 {
        let program = spec_for(seed).generate();
        let unconstrained =
            program.expected_final().values().filter(|e| **e == Expectation::Unconstrained).count();
        assert_eq!(unconstrained, 0, "seed {seed} generated unverifiable words");
    }
}

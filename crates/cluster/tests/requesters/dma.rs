//! The DMA engine against the stub directory.

use hsc_cluster::{DmaCommand, DmaEngine};
use hsc_mem::{Addr, MainMemory};
use hsc_noc::{Action, Outbox};
use hsc_sim::Tick;

use crate::stub::pump;

#[test]
fn write_then_read_round_trips() {
    let words: Vec<u64> = (0..20).collect();
    let mut dma = DmaEngine::new(
        vec![
            DmaCommand::Write { base: Addr(0x1000), words: words.clone(), at: Tick(0) },
            DmaCommand::Read { base: Addr(0x1000), lines: 3, at: Tick(100) },
        ],
        4,
    );
    let mem = pump(&mut dma, MainMemory::new(), 10_000).mem;
    assert!(dma.is_done());
    for (i, w) in words.iter().enumerate() {
        assert_eq!(mem.read_word(Addr(0x1000 + (i as u64) * 8)), *w);
    }
    // 20 words = 3 lines (8+8+4).
    assert_eq!(dma.stats().get("dma.writes"), 3);
    assert_eq!(dma.stats().get("dma.reads"), 3);
    let first = dma.read_data().get(&Addr(0x1000).line()).unwrap();
    assert_eq!(first.word(0), 0);
    assert_eq!(first.word(7), 7);
}

#[test]
fn unaligned_start_uses_partial_masks() {
    // Start mid-line: 4 words into line 0.
    let mut dma = DmaEngine::new(
        vec![DmaCommand::Write { base: Addr(0x1020), words: vec![9, 9, 9, 9, 9, 9], at: Tick(0) }],
        8,
    );
    let mut mem = MainMemory::new();
    mem.write_word(Addr(0x1000), 77); // must survive the partial write
    let mem = pump(&mut dma, mem, 10_000).mem;
    assert!(dma.is_done());
    assert_eq!(mem.read_word(Addr(0x1000)), 77, "unwritten words preserved");
    assert_eq!(mem.read_word(Addr(0x1020)), 9);
    assert_eq!(mem.read_word(Addr(0x1048)), 9);
    assert_eq!(dma.stats().get("dma.writes"), 2, "spans two lines");
}

#[test]
fn window_limits_in_flight_requests() {
    let mut dma =
        DmaEngine::new(vec![DmaCommand::Read { base: Addr(0), lines: 10, at: Tick(0) }], 2);
    let mut out = Outbox::new(Tick(0));
    dma.on_wake(Tick(0), &mut out);
    let sends = out.actions().iter().filter(|a| matches!(a, Action::Send(_))).count();
    assert_eq!(sends, 2, "window of 2 caps the initial burst");
    assert!(!dma.is_done());
}

#[test]
fn commands_wait_for_their_issue_time() {
    let mut dma =
        DmaEngine::new(vec![DmaCommand::Read { base: Addr(0), lines: 1, at: Tick(500) }], 4);
    let mut out = Outbox::new(Tick(0));
    dma.on_wake(Tick(0), &mut out);
    assert!(
        out.actions().iter().all(|a| matches!(a, Action::Wake(Tick(500)))),
        "nothing issued before the command time; wake scheduled instead"
    );
}

#[test]
fn empty_engine_is_done() {
    let dma = DmaEngine::new(vec![], 4);
    assert!(dma.is_done());
}

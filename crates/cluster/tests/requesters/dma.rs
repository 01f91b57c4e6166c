//! The DMA engine against the stub directory.

use std::cell::Cell;
use std::rc::Rc;

use hsc_cluster::{DmaCommand, DmaEngine, DmaProgram, DmaScript};
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

#[test]
#[should_panic(expected = "8-byte aligned")]
fn unaligned_write_base_is_rejected() {
    let _ =
        DmaScript::new(vec![DmaCommand::Write { base: Addr(0x1004), words: vec![1], at: Tick(0) }]);
}

/// Reads one line per command, 100 ticks apart, counting every command it
/// is asked for.
#[derive(Debug, Clone)]
struct CountingReads {
    left: u64,
    pulls: Rc<Cell<u64>>,
}

impl DmaProgram for CountingReads {
    fn next_command(&mut self) -> Option<DmaCommand> {
        self.pulls.set(self.pulls.get() + 1);
        let i = self.left.checked_sub(1)?;
        self.left = i;
        Some(DmaCommand::Read { base: Addr(0x40 * i), lines: 1, at: Tick(100 * (4 - i)) })
    }
}

#[test]
fn the_engine_reads_its_program_one_command_ahead() {
    let pulls = Rc::new(Cell::new(0));
    let program = CountingReads { left: 4, pulls: Rc::clone(&pulls) };
    let mut dma = DmaEngine::from_program(Box::new(program), 4);
    assert_eq!(pulls.get(), 1, "the engine holds the first command before it starts");
    let mut out = Outbox::new(Tick(0));
    dma.on_wake(Tick(0), &mut out);
    assert!(out.actions().iter().all(|a| matches!(a, Action::Wake(Tick(100)))));
    assert_eq!(pulls.get(), 1, "a command not yet due is not taken");
    let mut out = Outbox::new(Tick(100));
    dma.on_wake(Tick(100), &mut out);
    assert_eq!(pulls.get(), 2, "taking a command pulls exactly the next one");

    let pulls = Rc::new(Cell::new(0));
    let program = CountingReads { left: 4, pulls: Rc::clone(&pulls) };
    let mut dma = DmaEngine::from_program(Box::new(program), 4);
    let _ = pump(&mut dma, MainMemory::new(), 10_000);
    assert!(dma.is_done());
    assert_eq!(dma.stats().get("dma.reads"), 4);
    assert_eq!(pulls.get(), 5, "four commands, then the one `None` that ends the program");
}

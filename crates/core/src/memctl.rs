use hsc_mem::MainMemory;
use hsc_noc::{AgentId, Message, MsgKind, Outbox};
use hsc_sim::{StatSet, Tick};

/// The main-memory controller behind the directory's ordered memory port.
///
/// Models a single in-order, *pipelined* channel: each access occupies
/// the channel for `occupancy_ticks` (the bandwidth term — 64 B at DDR4
/// rates), while a read's data returns `access_ticks` after it is issued
/// (the latency term). Writes are posted (fire-and-forget, which is why
/// the paper's write-back LLC costs so little performance — §III-C
/// "writes or write-backs to the memory are non-blocking since the only
/// interface from the LLC to the memory … is ordered").
#[derive(Debug, Clone)]
pub struct MemoryController {
    mem: MainMemory,
    access_ticks: u64,
    occupancy_ticks: u64,
    busy_until: Tick,
    n: MemCounts,
}

/// Every count the memory controller keeps; [`MemoryController::stats`]
/// names them.
#[derive(Debug, Clone, Copy, Default)]
struct MemCounts {
    reads: u64,
    writes: u64,
}

impl MemoryController {
    /// Creates a controller over `mem` with the given access latency and
    /// per-access channel occupancy.
    #[must_use]
    pub fn new(mem: MainMemory, access_ticks: u64, occupancy_ticks: u64) -> Self {
        MemoryController {
            mem,
            access_ticks,
            occupancy_ticks,
            busy_until: Tick::ZERO,
            n: MemCounts::default(),
        }
    }

    /// The NoC endpoint.
    #[must_use]
    pub fn agent(&self) -> AgentId {
        AgentId::Memory
    }

    /// Access to the functional backing store (workload initialization and
    /// end-of-run verification).
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Controller statistics (`mem.reads`, `mem.writes`,
    /// `mem.busy_ticks`), exported for reports. Every access holds the
    /// channel for `occupancy_ticks`, so busy time is derived from the
    /// access count rather than counted.
    #[must_use]
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("mem.reads", self.n.reads);
        s.set("mem.writes", self.n.writes);
        s.set("mem.busy_ticks", (self.n.reads + self.n.writes) * self.occupancy_ticks);
        s
    }

    /// Handles a memory request from the directory.
    pub fn on_message(&mut self, now: Tick, msg: &Message, out: &mut Outbox) {
        let start = self.busy_until.max(now);
        let finish = start + self.access_ticks;
        self.busy_until = start + self.occupancy_ticks;
        match msg.kind {
            MsgKind::MemRd => {
                self.n.reads += 1;
                let data = self.mem.read_line(msg.line);
                out.send_after(
                    finish.delta_since(now),
                    Message::new(
                        AgentId::Memory,
                        AgentId::Directory,
                        msg.line,
                        MsgKind::MemRdResp { data },
                    ),
                );
            }
            MsgKind::MemWr { ref data, mask } => {
                self.n.writes += 1;
                mask.apply(self.mem.line_mut(msg.line), data);
                // Posted write: no response.
            }
            ref other => panic!("memory controller got {}", other.class_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsc_mem::{Addr, LineAddr, LineData};
    use hsc_noc::Action;

    fn rd(la: u64) -> Message {
        Message::new(AgentId::Directory, AgentId::Memory, LineAddr(la), MsgKind::MemRd)
    }

    #[test]
    fn read_responds_after_access_latency() {
        let mut mc = MemoryController::new(MainMemory::new(), 100, 20);
        let mut out = Outbox::new(Tick(50));
        mc.on_message(Tick(50), &rd(1), &mut out);
        match out.actions()[0] {
            Action::SendLater(t, ref m) => {
                assert_eq!(t, Tick(150));
                assert!(matches!(m.kind, MsgKind::MemRdResp { .. }));
            }
            ref other => panic!("expected delayed response, got {other:?}"),
        }
        assert_eq!(mc.stats().get("mem.reads"), 1);
    }

    #[test]
    fn channel_pipelines_by_occupancy_not_latency() {
        let mut mc = MemoryController::new(MainMemory::new(), 100, 20);
        let mut out = Outbox::new(Tick(0));
        mc.on_message(Tick(0), &rd(1), &mut out);
        mc.on_message(Tick(0), &rd(2), &mut out);
        mc.on_message(Tick(0), &rd(3), &mut out);
        let times: Vec<Tick> = out
            .actions()
            .iter()
            .map(|a| match a {
                Action::SendLater(t, _) => *t,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            times,
            [Tick(100), Tick(120), Tick(140)],
            "accesses pipeline at the bandwidth term, each with full latency"
        );
        assert_eq!(mc.stats().get("mem.busy_ticks"), 3 * 20, "each access holds the channel");
    }

    #[test]
    fn writes_are_posted_and_update_memory() {
        let mut mc = MemoryController::new(MainMemory::new(), 10, 5);
        let mut data = LineData::zeroed();
        data.set_word(0, 7);
        let mut out = Outbox::new(Tick(0));
        mc.on_message(
            Tick(0),
            &Message::new(
                AgentId::Directory,
                AgentId::Memory,
                LineAddr(3),
                MsgKind::MemWr { data, mask: hsc_noc::WordMask::full() },
            ),
            &mut out,
        );
        assert!(out.is_empty(), "posted writes produce no response");
        assert_eq!(mc.memory().read_line(LineAddr(3)).word(0), 7);
        assert_eq!(mc.memory().read_word(Addr(3 * 64)), 7);
        assert_eq!(mc.stats().get("mem.writes"), 1);
        assert_eq!(mc.stats().get("mem.busy_ticks"), 5, "a posted write holds the channel too");
    }
}

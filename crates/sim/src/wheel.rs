//! Timing ring: the O(1) event queue behind the run loop.
//!
//! See [`WheelQueue`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Tick;

/// Ticks the ring spans, one slot each. Every fixed latency in the default
/// system config — NoC hop 700 ticks, directory→memory 140, DRAM 2310, LLC
/// pipeline 700, core stepping 11/35 — lands inside the window with room
/// for occupancy-backlog slip; on the benchmark workloads at most 0.05 %
/// of schedules reach the `far` heap.
const RING: usize = 1 << 13;
/// `tick & MASK` is a ring event's slot.
const MASK: u64 = RING as u64 - 1;
const OCC_WORDS: usize = RING / 64;
/// Null link in the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// A timing ring with the delivery order of a queue kept sorted by
/// `(tick, schedule order)`: earliest tick first, FIFO within a tick.
///
/// Nearly every event the simulator schedules lands a small fixed delta
/// ahead of now (NoC per-hop latency, memory latency, retry backoff) —
/// the regime where a timing wheel's O(1) insert and pop beat O(log n)
/// heap sifts. The queue has three homes for an event:
///
/// * the **ring**: one FIFO slot per tick of the window
///   `[base, base + 8192)`, slot `tick & 8191`, and an occupancy bitmap
///   (one bit per slot) that finds the next non-empty slot with a few word
///   scans;
/// * the **`far` heap**: ticks at or beyond `base + 8192`;
/// * the **`past` heap**: ticks below `base` (the queue does not enforce
///   monotonicity — the run loop does).
///
/// The structure is data-oriented: slot membership is an intrusive linked
/// list threaded through a contiguous `meta` array of 24-byte
/// `(tick, seq, next)` records, while event payloads live in a parallel
/// slab that only `schedule` and the removals touch.
///
/// Delivery order holds by construction (and against a sorted-`Vec`
/// oracle in this module's differential fuzz tests):
///
/// * a slot holds a single tick, and events append to it in `seq` order;
/// * `base` only advances to the earliest pending tick, and whenever it
///   moves, every `far` event the new window covers is pulled into the
///   ring before the queue is used again. A `far` event at tick T was
///   scheduled while T lay beyond the window, so every ring event at T is
///   younger and is appended after it;
/// * both heaps order by `(tick, seq)`.
///
/// `snapshot`/`unlink_seq`/`remove_seq` — the model checker's choice-set
/// view — walk the occupied slots (found through the occupancy bitmap)
/// and both heaps, so they cost O(128 + n) rather than a pass over every
/// slot: the exhaustive explorer calls them on every explored edge, and
/// the simulation hot path never calls them.
///
/// Every removal is an unlink: [`unlink_next`](Self::unlink_next) (the
/// earliest event) or [`unlink_seq`](Self::unlink_seq) (a chosen one)
/// takes the event out of the ordering structure and hands back a
/// [`Held`] slot. The run loop reads the payload there and frees it;
/// [`pop`](Self::pop) and [`remove_seq`](Self::remove_seq) are the same
/// unlinks followed by a move out of the slot.
///
/// # Examples
///
/// ```
/// use hsc_sim::{Tick, WheelQueue};
///
/// let mut q = WheelQueue::new();
/// q.schedule(Tick(2), 'b');
/// q.schedule(Tick(2), 'c'); // same tick: FIFO after 'b'
/// q.schedule(Tick(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct WheelQueue<E> {
    /// The ring's slot list heads/tails, one per tick of the window.
    slots: Box<[Slot; RING]>,
    /// One bit per slot: set iff the slot's list is non-empty.
    occupancy: Box<[u64; OCC_WORDS]>,
    /// Start of the ring's window. Every ring event has a tick in
    /// `[base, base + RING)`, every `far` event one at or past
    /// `base + RING`, every `past` event one below `base`.
    base: u64,
    /// Total pending events, across the ring and both heaps.
    len: usize,
    next_seq: u64,
    /// Events scheduled before `base` (rare; the driver never does this).
    past: BinaryHeap<HeapEntry>,
    /// Events at or beyond the end of the ring's window.
    far: BinaryHeap<HeapEntry>,
    /// Ordering metadata, contiguous: all the pop loops touch.
    meta: Vec<Meta>,
    /// Event payloads, parallel to `meta`; only `schedule` writes them and
    /// only `get`/`take` read them.
    payload: Vec<Option<E>>,
    /// Free slab indices for reuse. A [`Held`] slot is in no list and not
    /// here either, which is what keeps `schedule` off it.
    free: Vec<u32>,
}

/// An event that [`WheelQueue::unlink_next`] or
/// [`WheelQueue::unlink_seq`] took out of the queue and whose payload is
/// still in its slab slot. Neither `Copy` nor `Clone`: the one handle is
/// spent by [`WheelQueue::free`]. A handle that is dropped instead only
/// leaves its slot unused.
#[derive(Debug)]
#[must_use = "an unlinked event keeps its slab slot until it is freed"]
pub struct Held(u32);

#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot { head: NIL, tail: NIL };

#[derive(Debug, Clone, Copy)]
struct Meta {
    tick: u64,
    seq: u64,
    next: u32,
}

#[derive(Debug, Clone)]
struct HeapEntry {
    tick: u64,
    seq: u64,
    idx: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (tick, seq) wins.
        (other.tick, other.seq).cmp(&(self.tick, self.seq))
    }
}

impl<E> WheelQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        WheelQueue {
            slots: vec![EMPTY_SLOT; RING].into_boxed_slice().try_into().expect("RING slots"),
            occupancy: Box::new([0; OCC_WORDS]),
            base: 0,
            len: 0,
            next_seq: 0,
            past: BinaryHeap::new(),
            far: BinaryHeap::new(),
            meta: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The slot of `base`, where the next ring event is popped from.
    #[inline]
    fn cursor(&self) -> usize {
        (self.base & MASK) as usize
    }

    /// Whether `tick` lies in the ring's window `[base, base + RING)`.
    #[inline]
    fn in_ring(&self, tick: u64) -> bool {
        tick.checked_sub(self.base).is_some_and(|ahead| ahead < RING as u64)
    }

    /// Schedules `event` for delivery at `tick`.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` events are pending at once.
    #[inline]
    pub fn schedule(&mut self, tick: Tick, event: E) {
        // The common case, in line: a recycled slab slot and a tick inside
        // the window.
        if self.in_ring(tick.0) {
            if let Some(idx) = self.free.pop() {
                self.fill(idx, tick.0, event);
                self.append(tick.0, idx);
                return;
            }
        }
        self.schedule_cold(tick.0, event);
    }

    /// The rest of [`schedule`](Self::schedule): slab growth, the
    /// empty-queue snap of `base`, and the two heaps.
    #[inline(never)]
    fn schedule_cold(&mut self, tick: u64, event: E) {
        let idx = self.free.pop().unwrap_or_else(|| {
            let idx = u32::try_from(self.meta.len()).expect("event queue slab overflow");
            self.meta.push(Meta { tick, seq: 0, next: NIL });
            self.payload.push(None);
            idx
        });
        if self.len == 0 {
            // Empty queue: snap the window to the new event so it lands in
            // the ring however far the last pop left `base` from it. An
            // event already inside the window takes the in-line path and
            // leaves `base` where it is, so the nearer sends that often
            // follow from the same handler do not land in `past`.
            self.base = tick;
        }
        let seq = self.fill(idx, tick, event);
        if tick < self.base {
            self.past.push(HeapEntry { tick, seq, idx });
        } else if self.in_ring(tick) {
            self.append(tick, idx);
        } else {
            self.far.push(HeapEntry { tick, seq, idx });
        }
    }

    /// Writes a new pending event into slab entry `idx` and returns its
    /// `seq`; the caller links it into the ring or a heap.
    #[inline]
    fn fill(&mut self, idx: u32, tick: u64, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.meta[idx as usize] = Meta { tick, seq, next: NIL };
        self.payload[idx as usize] = Some(event);
        self.len += 1;
        seq
    }

    /// Appends slab entry `idx`, whose `next` is `NIL`, to the list of
    /// ring tick `tick` (FIFO: appends keep `seq` order).
    #[inline]
    fn append(&mut self, tick: u64, idx: u32) {
        let slot = (tick & MASK) as usize;
        let s = &mut self.slots[slot];
        if s.tail == NIL {
            s.head = idx;
            s.tail = idx;
            self.occupancy[slot / 64] |= 1u64 << (slot % 64);
        } else {
            let tail = s.tail;
            s.tail = idx;
            self.meta[tail as usize].next = idx;
        }
    }

    /// The earliest tick in the ring, if it holds any event: a cyclic scan
    /// of the occupancy bitmap from the cursor.
    fn ring_next(&self) -> Option<u64> {
        let c = self.cursor();
        let mut w = c / 64;
        let mut word = self.occupancy[w] & (!0u64 << (c % 64));
        // The cursor's word is visited twice: first its bits from the
        // cursor on, last (after wrapping) the bits before it.
        for _ in 0..=OCC_WORDS {
            if word != 0 {
                let s = w * 64 + word.trailing_zeros() as usize;
                return Some(self.base + (s.wrapping_sub(c) & MASK as usize) as u64);
            }
            w = (w + 1) % OCC_WORDS;
            word = self.occupancy[w];
        }
        None
    }

    /// Moves `base` to the earliest pending ring or `far` tick.
    /// Precondition: `past` is empty and the ring or `far` is not.
    #[inline(never)]
    fn advance(&mut self) {
        let next = match self.ring_next() {
            Some(tick) => tick,
            None => self.far.peek().expect("advance called on an empty queue").tick,
        };
        self.move_base(next);
    }

    /// Moves the window to start at `base` and pulls every `far` event it
    /// now covers into the ring. Same-tick events leave the heap in `seq`
    /// order, ahead of any later schedule at their tick, so FIFO survives.
    #[inline]
    fn move_base(&mut self, base: u64) {
        self.base = base;
        if !self.far.is_empty() {
            self.pull_far();
        }
    }

    #[inline(never)]
    fn pull_far(&mut self) {
        while self.far.peek().is_some_and(|e| self.in_ring(e.tick)) {
            let e = self.far.pop().expect("peeked entry must pop");
            self.append(e.tick, e.idx);
        }
    }

    /// Unlinks the earliest event and returns its tick and a handle to its
    /// slab slot, or `None` if empty. The payload stays where `schedule`
    /// put it: read it with [`get`](Self::get), then hand the handle to
    /// [`free`](Self::free). Until then the event is out of the queue —
    /// `len`, `peek_tick`, `snapshot` and `remove_seq` no longer see it —
    /// and `schedule` cannot reuse its slot, so a handler may be given
    /// `&E` while the driver keeps scheduling.
    ///
    /// This is the run loop's removal: a 120-byte event is read in place
    /// instead of being moved out through a return slot and again into
    /// the handler's frame. [`pop`](Self::pop) is this plus a take.
    #[inline]
    pub fn unlink_next(&mut self) -> Option<(Tick, Held)> {
        if self.len == 0 {
            return None;
        }
        // Past events (tick < base) precede everything in the ring.
        if !self.past.is_empty() {
            let e = self.past.pop().expect("checked non-empty");
            return Some(self.hold(e.tick, e.idx));
        }
        let mut c = self.cursor();
        if self.slots[c].head == NIL {
            // The cursor's tick has drained; the next one is most often
            // later in the same occupancy word.
            let later = self.occupancy[c / 64] & (!0u64 << (c % 64));
            if later == 0 {
                self.advance();
            } else {
                let s = (c & !63) | later.trailing_zeros() as usize;
                self.move_base(self.base + (s - c) as u64);
            }
            c = self.cursor();
        }
        let s = &mut self.slots[c];
        let idx = s.head;
        debug_assert_ne!(idx, NIL, "the cursor must land on a non-empty slot");
        s.head = self.meta[idx as usize].next;
        if s.head == NIL {
            s.tail = NIL;
            self.occupancy[c / 64] &= !(1u64 << (c % 64));
        }
        debug_assert_eq!(self.meta[idx as usize].tick, self.base, "a slot holds one tick");
        Some(self.hold(self.base, idx))
    }

    /// Removes and returns the earliest event, or `None` if empty.
    // Out of line, the event goes back through a return slot on every call
    // (cedd.base +3 %, measured when `System::run` still popped).
    #[inline]
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        let (tick, held) = self.unlink_next()?;
        Some((tick, self.take(held)))
    }

    /// The last step of every unlink: slab entry `idx` is out of its list
    /// or heap, so it stops counting as pending.
    #[inline]
    fn hold(&mut self, tick: u64, idx: u32) -> (Tick, Held) {
        self.len -= 1;
        (Tick(tick), Held(idx))
    }

    /// The payload of an unlinked event, read in its slab slot.
    #[inline]
    #[must_use]
    pub fn get(&self, held: &Held) -> &E {
        self.payload[held.0 as usize].as_ref().expect("held slab slot vacated early")
    }

    /// Drops an unlinked event's payload and returns its slot to the slab.
    #[inline]
    pub fn free(&mut self, held: Held) {
        drop(self.take(held));
    }

    /// Moves an unlinked event's payload out and returns its slot to the slab.
    #[inline]
    fn take(&mut self, held: Held) -> E {
        let event = self.payload[held.0 as usize].take().expect("held slab slot vacated early");
        self.free.push(held.0);
        event
    }

    /// The tick of the earliest pending event, if any.
    #[must_use]
    pub fn peek_tick(&self) -> Option<Tick> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.past.peek() {
            return Some(Tick(e.tick));
        }
        self.ring_next().or_else(|| self.far.peek().map(|e| e.tick)).map(Tick)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ring slots whose lists are non-empty, in slot order: a walk of
    /// the occupancy bitmap that visits its 128 words and the occupied
    /// slots, not all 8192 slot heads.
    fn occupied_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupancy.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    slot
                })
            })
        })
    }

    /// Every live slab index, in no particular order.
    fn live_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        for slot in self.occupied_slots() {
            let mut idx = self.slots[slot].head;
            while idx != NIL {
                out.push(idx);
                idx = self.meta[idx as usize].next;
            }
        }
        out.extend(self.past.iter().map(|e| e.idx));
        out.extend(self.far.iter().map(|e| e.idx));
        out
    }

    /// All pending events in delivery order, without removing them.
    ///
    /// Returns `(tick, seq, &event)` triples sorted exactly the way
    /// [`pop`](Self::pop) would drain them. This is the "pending choice
    /// set" view the model checker explores: each `seq` is a stable handle
    /// that [`remove_seq`](Self::remove_seq) accepts.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(Tick, u64, &E)> {
        let mut entries: Vec<(u64, u64, u32)> = self
            .live_indices()
            .into_iter()
            .map(|idx| {
                let m = &self.meta[idx as usize];
                (m.tick, m.seq, idx)
            })
            .collect();
        entries.sort_unstable_by_key(|&(tick, seq, _)| (tick, seq));
        entries
            .into_iter()
            .map(|(tick, seq, idx)| {
                let ev = self.payload[idx as usize].as_ref().expect("slab slot vacated early");
                (Tick(tick), seq, ev)
            })
            .collect()
    }

    /// Unlinks the pending event with sequence number `seq`, if present,
    /// leaving its payload in the slab like [`unlink_next`](Self::unlink_next).
    ///
    /// This is how an explorer delivers events out of timestamp order:
    /// pick any entry from [`snapshot`](Self::snapshot) and pull it by its
    /// `seq`. Costs an O(n) structure walk, which is fine for the tiny
    /// queues model checking operates on; the simulation hot path never
    /// calls this.
    pub fn unlink_seq(&mut self, seq: u64) -> Option<(Tick, Held)> {
        // Slot lists first (the common home of a pending event): find the
        // entry and its predecessor, then unlink it.
        let found = self.occupied_slots().find_map(|si| {
            let mut prev = NIL;
            let mut idx = self.slots[si].head;
            while idx != NIL {
                if self.meta[idx as usize].seq == seq {
                    return Some((si, prev, idx));
                }
                prev = idx;
                idx = self.meta[idx as usize].next;
            }
            None
        });
        if let Some((si, prev, idx)) = found {
            let m = self.meta[idx as usize];
            if prev == NIL {
                self.slots[si].head = m.next;
            } else {
                self.meta[prev as usize].next = m.next;
            }
            if m.next == NIL {
                self.slots[si].tail = prev;
            }
            if self.slots[si].head == NIL {
                self.occupancy[si / 64] &= !(1u64 << (si % 64));
            }
            return Some(self.hold(m.tick, idx));
        }
        for heap in [true, false] {
            let h = if heap { &self.past } else { &self.far };
            if h.iter().any(|e| e.seq == seq) {
                let h = if heap { &mut self.past } else { &mut self.far };
                let mut entries = std::mem::take(h).into_vec();
                let pos = entries.iter().position(|e| e.seq == seq).expect("entry vanished");
                let e = entries.swap_remove(pos);
                *h = BinaryHeap::from(entries);
                return Some(self.hold(e.tick, e.idx));
            }
        }
        None
    }

    /// Removes and returns the pending event with sequence number `seq`,
    /// if present.
    pub fn remove_seq(&mut self, seq: u64) -> Option<(Tick, E)> {
        let (tick, held) = self.unlink_seq(seq)?;
        Some((tick, self.take(held)))
    }
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        WheelQueue::new()
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    /// The differential fuzz's oracle: every pending `(tick, seq, event)`
    /// in one `Vec` kept in delivery order. `seq` only grows, so a new
    /// event goes after the last entry whose tick is not later.
    #[derive(Default)]
    struct SortedOracle {
        pending: Vec<(Tick, u64, u64)>,
        next_seq: u64,
    }

    impl SortedOracle {
        fn schedule(&mut self, tick: Tick, event: u64) {
            let at = self.pending.partition_point(|&(t, _, _)| t <= tick);
            self.pending.insert(at, (tick, self.next_seq, event));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(Tick, u64)> {
            if self.pending.is_empty() {
                return None;
            }
            let (tick, _, event) = self.pending.remove(0);
            Some((tick, event))
        }

        fn peek_tick(&self) -> Option<Tick> {
            self.pending.first().map(|&(tick, _, _)| tick)
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(10), 1);
        q.schedule(Tick(3), 2);
        q.schedule(Tick(7), 3);
        assert_eq!(q.pop(), Some((Tick(3), 2)));
        assert_eq!(q.pop(), Some((Tick(7), 3)));
        assert_eq!(q.pop(), Some((Tick(10), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_a_tick() {
        let mut q = WheelQueue::new();
        for i in 0..100 {
            q.schedule(Tick(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Tick(5), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(1), "a");
        q.schedule(Tick(4), "d");
        assert_eq!(q.pop(), Some((Tick(1), "a")));
        q.schedule(Tick(2), "b");
        q.schedule(Tick(3), "c");
        assert_eq!(q.pop(), Some((Tick(2), "b")));
        assert_eq!(q.pop(), Some((Tick(3), "c")));
        assert_eq!(q.pop(), Some((Tick(4), "d")));
    }

    #[test]
    fn peek_and_len_report_pending_state() {
        let mut q = WheelQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_tick(), None);
        q.schedule(Tick(9), ());
        q.schedule(Tick(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_tick(), Some(Tick(2)));
        assert!(!q.is_empty());
    }

    #[test]
    fn default_is_empty() {
        let q: WheelQueue<u8> = WheelQueue::default();
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_orders_like_pop_and_leaves_queue_intact() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(9), 'c');
        q.schedule(Tick(1), 'a');
        q.schedule(Tick(1), 'b'); // same tick: FIFO after 'a'
        let snap: Vec<(Tick, char)> = q.snapshot().iter().map(|&(t, _, &e)| (t, e)).collect();
        assert_eq!(snap, [(Tick(1), 'a'), (Tick(1), 'b'), (Tick(9), 'c')]);
        assert_eq!(q.len(), 3, "snapshot must not consume events");
        assert_eq!(q.pop(), Some((Tick(1), 'a')));
    }

    #[test]
    fn remove_seq_pulls_an_arbitrary_event() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(1), 'a'); // base snaps to 1
        q.schedule(Tick(2), 'b');
        q.schedule(Tick(3), 'c');
        q.schedule(Tick(1 << 40), 'o'); // beyond the ring: far heap
        q.schedule(Tick(0), 'p'); // behind base: past heap
        let snap = q.snapshot();
        let (seq_p, seq_b, seq_o) = (snap[0].1, snap[2].1, snap[4].1);
        assert_eq!(q.remove_seq(seq_b), Some((Tick(2), 'b')));
        assert_eq!(q.remove_seq(seq_b), None, "already removed");
        assert_eq!(q.remove_seq(seq_o), Some((Tick(1 << 40), 'o')));
        assert_eq!(q.remove_seq(seq_p), Some((Tick(0), 'p')));
        assert_eq!(q.remove_seq(999), None, "unknown seq is a no-op");
        // Remaining events still drain in order, and the slab slot is reused.
        q.schedule(Tick(0), 'z');
        assert_eq!(q.pop(), Some((Tick(0), 'z')));
        assert_eq!(q.pop(), Some((Tick(1), 'a')));
        assert_eq!(q.pop(), Some((Tick(3), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn events_in_the_past_are_still_popped_in_order() {
        // The queue itself does not enforce monotonicity (the driver does);
        // it must still order whatever it is given.
        let mut q = WheelQueue::new();
        q.schedule(Tick(5), 'x');
        assert_eq!(q.pop(), Some((Tick(5), 'x')));
        q.schedule(Tick(1), 'y');
        assert_eq!(q.pop(), Some((Tick(1), 'y')));
    }

    #[test]
    fn past_events_precede_wheel_events() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(1000), 'w'); // base snaps to 1000
        assert_eq!(q.pop(), Some((Tick(1000), 'w')));
        q.schedule(Tick(2000), 'a'); // base snaps to 2000
        q.schedule(Tick(50), 'p'); // behind base: past heap
        q.schedule(Tick(70), 'q');
        q.schedule(Tick(50), 'r'); // same past tick: FIFO after 'p'
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['p', 'r', 'q', 'a']);
    }

    #[test]
    fn peeks_and_pops_in_order_at_every_distance() {
        // Two events in the ring and three in the far heap, the last beyond
        // 2^32 ticks: once the ring drains, each pop jumps the window to
        // the far frontier.
        let mut q = WheelQueue::new();
        q.schedule(Tick(0), 0u32); // pin base at 0
        let ticks = [3u64, 300, 70_000, 17_000_000, 5_000_000_000];
        for (i, &t) in ticks.iter().enumerate() {
            q.schedule(Tick(t), i as u32 + 1);
        }
        assert_eq!(q.pop(), Some((Tick(0), 0)));
        for (i, &t) in ticks.iter().enumerate() {
            assert_eq!(q.peek_tick(), Some(Tick(t)));
            assert_eq!(q.pop(), Some((Tick(t), i as u32 + 1)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_overflow_keeps_fifo_within_a_tick() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(0), 0u32);
        let far = 1u64 << 40;
        q.schedule(Tick(far), 1);
        q.schedule(Tick(far), 2);
        q.schedule(Tick(far + 1), 3);
        q.schedule(Tick(far), 4);
        assert_eq!(q.pop(), Some((Tick(0), 0)));
        assert_eq!(q.pop(), Some((Tick(far), 1)));
        assert_eq!(q.pop(), Some((Tick(far), 2)));
        assert_eq!(q.pop(), Some((Tick(far), 4)));
        assert_eq!(q.pop(), Some((Tick(far + 1), 3)));
    }

    #[test]
    fn huge_tick_values_do_not_overflow() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(u64::MAX), 'z');
        q.schedule(Tick(0), 'a');
        q.schedule(Tick(u64::MAX - 1), 'y');
        assert_eq!(q.pop(), Some((Tick(0), 'a')));
        assert_eq!(q.pop(), Some((Tick(u64::MAX - 1), 'y')));
        assert_eq!(q.pop(), Some((Tick(u64::MAX), 'z')));
    }

    #[test]
    fn a_far_event_precedes_a_later_schedule_at_its_tick() {
        // The far event must enter the ring as soon as the window covers
        // it; pulled only once the ring drains, it would pop after 'fresh'.
        let mut q = WheelQueue::new();
        q.schedule(Tick(0), "pin"); // base = 0
        let t = RING as u64 + 5;
        q.schedule(Tick(t), "far");
        q.schedule(Tick(10), "near");
        assert_eq!(q.pop(), Some((Tick(0), "pin")));
        assert_eq!(q.pop(), Some((Tick(10), "near"))); // window now covers t
        q.schedule(Tick(t), "fresh");
        assert_eq!(q.pop(), Some((Tick(t), "far")));
        assert_eq!(q.pop(), Some((Tick(t), "fresh")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn the_ring_boundary_keeps_tick_then_seq_order() {
        // base + 8191 is the ring's last slot, base + 8192 the first far
        // tick; each gets same-tick companions before and after the move.
        let mut q = WheelQueue::new();
        q.schedule(Tick(0), 0); // base = 0
        let (last, first_far) = (MASK, MASK + 1);
        q.schedule(Tick(first_far), 10);
        q.schedule(Tick(last), 1);
        q.schedule(Tick(first_far), 11);
        q.schedule(Tick(last), 2);
        assert_eq!(q.pop(), Some((Tick(0), 0)));
        assert_eq!(q.pop(), Some((Tick(last), 1))); // window moves to `last`
        q.schedule(Tick(last), 3);
        q.schedule(Tick(first_far), 12);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [(last, 2), (last, 3), (first_far, 10), (first_far, 11), (first_far, 12)];
        assert_eq!(rest, want.map(|(t, e)| (Tick(t), e)));
    }

    #[test]
    fn peek_with_an_empty_ring_reports_the_far_frontier() {
        let mut q = WheelQueue::new();
        q.schedule(Tick(0), 'p'); // base = 0
        q.schedule(Tick(100_000), 'b');
        q.schedule(Tick(50_000), 'a');
        assert_eq!(q.pop(), Some((Tick(0), 'p')));
        let peeked = q.peek_tick();
        let (t, held) = q.unlink_next().expect("two far events pending");
        assert_eq!(peeked, Some(t));
        assert_eq!((t, *q.get(&held)), (Tick(50_000), 'a'));
        q.free(held);
    }

    /// One seeded differential step sequence: drives the queue and the
    /// sorted-`Vec` oracle through an identical random mix of schedules
    /// (same-tick bursts, small deltas, ticks on either side of the ring's
    /// edge, the tick of a pending far event, far-future ticks, occasional
    /// past ticks), pops, in-place deliveries (unlink, read, schedule
    /// while the slot is held, free — what `System::step` does) and
    /// `remove_seq`/`unlink_seq` cancellations, and asserts identical
    /// observable behaviour throughout. Once `max_depth` events are
    /// pending, schedules give way to pops, so a long run keeps moving the
    /// window instead of piling up events.
    fn differential_run(seed: u64, ops: usize, max_depth: usize) {
        let mut rng = DetRng::new(seed);
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut oracle = SortedOracle::default();
        let mut now = 0u64;
        let mut payload = 0u64;
        let snapshot_of = |wheel: &WheelQueue<u64>| -> Vec<(Tick, u64, u64)> {
            wheel.snapshot().into_iter().map(|(t, s, &e)| (t, s, e)).collect()
        };
        for op in 0..ops {
            let mut pick = rng.next_below(20);
            if pick <= 11 && oracle.pending.len() >= max_depth {
                pick = 12;
            }
            match pick {
                // Schedule (60%): deltas weighted toward the small fixed
                // offsets the simulator actually uses.
                0..=11 => {
                    let tick = match rng.next_below(13) {
                        0..=5 => now + rng.next_below(64),       // near
                        6..=7 => now,                            // equal-tick burst
                        8 => now + rng.next_below(100_000),      // mid
                        9 => now + MASK - 1 + rng.next_below(4), // the ring's edge
                        10 => {
                            // The tick of a pending event beyond the ring.
                            let beyond = oracle.pending.partition_point(|p| p.0 .0 <= now + MASK);
                            match oracle.pending.len() - beyond {
                                0 => now,
                                n => {
                                    oracle.pending[beyond + rng.next_below(n as u64) as usize].0 .0
                                }
                            }
                        }
                        11 => now + (1 << 40) + rng.next_below(10), // far future
                        _ => now.saturating_sub(rng.next_below(300)), // past
                    };
                    let burst = 1 + rng.next_below(3);
                    for _ in 0..burst {
                        payload += 1;
                        wheel.schedule(Tick(tick), payload);
                        oracle.schedule(Tick(tick), payload);
                    }
                }
                // Pop (15%).
                12..=14 => {
                    let got = wheel.pop();
                    assert_eq!(got, oracle.pop(), "pop diverged at op {op} (seed {seed})");
                    if let Some((t, _)) = got {
                        now = now.max(t.0);
                    }
                }
                // In-place delivery (15%): the earliest event is read in
                // its slot while the queue keeps working around it.
                15..=17 => {
                    let want = oracle.pop();
                    let Some((t, held)) = wheel.unlink_next() else {
                        assert_eq!(
                            want, None,
                            "unlink_next came up empty at op {op} (seed {seed})"
                        );
                        continue;
                    };
                    let event = *wheel.get(&held);
                    assert_eq!(Some((t, event)), want, "unlink diverged at op {op} (seed {seed})");
                    assert_eq!(wheel.len(), oracle.pending.len(), "len counts the held event");
                    now = now.max(t.0);
                    // One schedule per home (wheel, past heap, overflow
                    // heap): none may land in the held slot, although it
                    // is the most recently vacated one.
                    for tick in [now + rng.next_below(64), now.saturating_sub(7), now + (1 << 40)] {
                        payload += 1;
                        wheel.schedule(Tick(tick), payload);
                        oracle.schedule(Tick(tick), payload);
                    }
                    assert_eq!(*wheel.get(&held), event, "a schedule reused the held slot");
                    // (An O(n log n) check; sampled to keep the long run short.)
                    if rng.chance(1, 32) {
                        assert_eq!(snapshot_of(&wheel), oracle.pending, "snapshot, held slot");
                    }
                    let i = rng.next_below(oracle.pending.len() as u64) as usize;
                    let (tick, pick, other) = oracle.pending.remove(i);
                    assert_eq!(
                        wheel.remove_seq(pick),
                        Some((tick, other)),
                        "remove_seq, held slot"
                    );
                    assert_eq!(*wheel.get(&held), event, "remove_seq disturbed the held slot");
                    wheel.free(held);
                }
                // Cancel a random pending event by its seq handle (10%),
                // moved out or read in place.
                _ => {
                    if oracle.pending.is_empty() {
                        continue;
                    }
                    let i = rng.next_below(oracle.pending.len() as u64) as usize;
                    let (tick, pick, event) = oracle.pending.remove(i);
                    let got = if rng.chance(1, 2) {
                        wheel.remove_seq(pick)
                    } else {
                        wheel.unlink_seq(pick).map(|(t, held)| {
                            let e = *wheel.get(&held);
                            wheel.free(held);
                            (t, e)
                        })
                    };
                    assert_eq!(
                        got,
                        Some((tick, event)),
                        "removal of seq {pick} diverged at op {op} (seed {seed})"
                    );
                }
            }
            assert_eq!(wheel.len(), oracle.pending.len(), "len diverged at op {op} (seed {seed})");
            assert_eq!(
                wheel.peek_tick(),
                oracle.peek_tick(),
                "peek diverged at op {op} (seed {seed})"
            );
            if op % 64 == 0 {
                assert_eq!(
                    snapshot_of(&wheel),
                    oracle.pending,
                    "snapshot diverged at op {op} (seed {seed})"
                );
            }
        }
        // Drain both completely: every remaining event must match.
        loop {
            let got = wheel.pop();
            assert_eq!(got, oracle.pop(), "drain diverged (seed {seed})");
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn differential_fuzz_vs_sorted_vec_oracle() {
        for seed in 0..32 {
            differential_run(0xC0FFEE ^ seed, 2_000, usize::MAX);
        }
    }

    #[test]
    fn differential_fuzz_long_run() {
        differential_run(0xD15EA5E, 40_000, usize::MAX);
    }

    /// The long soak CI runs in release (`cargo test --release -p hsc-sim
    /// -- --ignored`): the whole simulator's determinism rests on this
    /// queue. At a bounded depth the window keeps moving, so far pulls and
    /// ring-edge crossings happen throughout the run.
    #[test]
    #[ignore = "3.2M ops: run in release with --ignored"]
    fn differential_fuzz_release_soak() {
        for seed in 0..16 {
            differential_run(0x50A4 ^ seed, 200_000, 256);
        }
    }
}

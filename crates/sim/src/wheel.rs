//! Hierarchical timing wheel: the O(1) event queue behind the run loop.
//!
//! See [`WheelQueue`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Tick;

/// Per-level slot-index bit widths. Level 0 is deliberately wide (8192
/// slots of one-tick granularity): every fixed latency in the default
/// system config — NoC hop 700 ticks, directory→memory 140, DRAM 2310,
/// LLC pipeline 700, core stepping 11/35 — lands inside it with room
/// for occupancy-backlog slip, so the overwhelming majority of events
/// never touch a coarser level and never cascade. Levels 1..3 add
/// 8 bits each, for a wheel horizon of `2^37` ticks; beyond that, the
/// overflow heap.
const BITS: [u32; LEVELS] = [13, 8, 8, 8];
/// Bit position where each level's slot index starts.
const SHIFT: [u32; LEVELS] = [0, 13, 21, 29];
/// Slots per level.
const SIZE: [usize; LEVELS] = [1 << BITS[0], 1 << BITS[1], 1 << BITS[2], 1 << BITS[3]];
/// Offset of each level's slots in the flat slot array.
const SLOT_OFF: [usize; LEVELS] = [0, SIZE[0], SIZE[0] + SIZE[1], SIZE[0] + SIZE[1] + SIZE[2]];
const SLOT_COUNT: usize = SIZE[0] + SIZE[1] + SIZE[2] + SIZE[3];
/// Offset of each level's words in the flat occupancy bitmap.
const OCC_OFF: [usize; LEVELS] =
    [0, SIZE[0] / 64, (SIZE[0] + SIZE[1]) / 64, (SIZE[0] + SIZE[1] + SIZE[2]) / 64];
const OCC_WORDS: usize = SLOT_COUNT / 64;
/// Wheel levels.
const LEVELS: usize = 4;
/// Ticks past `base` the wheel can hold; farther events overflow.
const HORIZON_BITS: u32 = SHIFT[LEVELS - 1] + BITS[LEVELS - 1];
/// Null link in the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// The wheel level owning a tick whose highest bit differing from `base`
/// is the index, or `LEVELS` for the overflow heap.
const LEVEL_OF_BIT: [u8; 64] = {
    let mut t = [0u8; 64];
    let mut b = 0;
    while b < 64 {
        t[b] = if b < SHIFT[1] as usize {
            0
        } else if b < SHIFT[2] as usize {
            1
        } else if b < SHIFT[3] as usize {
            2
        } else if b < HORIZON_BITS as usize {
            3
        } else {
            LEVELS as u8
        };
        b += 1;
    }
    t
};

/// A hierarchical timing wheel with the delivery order of a queue kept
/// sorted by `(tick, schedule order)`: earliest tick first, FIFO within a
/// tick.
///
/// Nearly every event the simulator schedules lands a small fixed delta
/// ahead of now (NoC per-hop latency, memory latency, retry backoff) —
/// the regime where a timing wheel's O(1) insert and pop beat O(log n)
/// heap sifts. The structure is data-oriented: slot membership is an
/// intrusive linked list threaded through a contiguous `meta` array of
/// 24-byte `(tick, seq, next)` records, while event payloads live in a
/// parallel slab that only `schedule` and the removals touch. Cascades
/// (moving a higher-level slot's events down when the wheel turns)
/// therefore never move or even read a payload, and a flat occupancy
/// bitmap finds the next non-empty slot with a handful of word scans.
///
/// Two small heaps handle the uncommon regimes: `overflow` holds events
/// scheduled further than the wheel's horizon ahead, and `past` holds
/// events scheduled before the wheel's current position (the queue does
/// not enforce monotonicity — the driver does).
///
/// Delivery order holds by construction (and against a sorted-`Vec`
/// oracle in this module's differential fuzz tests):
///
/// * within a slot, events append in `seq` order and cascades preserve
///   list order, so same-tick FIFO never breaks;
/// * level-0 slots have one-tick granularity and the wheel's position
///   only advances to the earliest pending tick, so tick-major order
///   never breaks;
/// * both heaps order by `(tick, seq)`.
///
/// `snapshot`/`unlink_seq`/`remove_seq` — the model checker's choice-set
/// view — are O(n) walks: the exhaustive explorer runs on tiny queues and
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
#[derive(Debug)]
pub struct WheelQueue<E> {
    /// All levels' slot list heads/tails, flat, level-major (`SLOT_OFF`).
    slots: Vec<Slot>,
    /// One bit per slot: set iff the slot's list is non-empty.
    occupancy: Vec<u64>,
    /// The wheel's current position: no event in the wheel (levels or
    /// overflow) has a tick below this, and the level-0 slot for `base`
    /// itself is where `pop` drains from.
    base: u64,
    /// Total pending events, across the wheel and both heaps.
    len: usize,
    next_seq: u64,
    /// Events scheduled before `base` (rare; the driver never does this).
    past: BinaryHeap<HeapEntry>,
    /// Events more than the wheel horizon ahead of `base`.
    overflow: BinaryHeap<HeapEntry>,
    /// Ordering metadata, contiguous: all the pop/cascade loops touch.
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

#[derive(Debug)]
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

/// The wheel level and slot index for `tick` relative to `base`, or
/// `None` when `tick` is beyond the wheel horizon (overflow). Requires
/// `tick >= base`. The level is the one owning the highest bit in which
/// the two differ, so an event always sits at the coarsest level that
/// still separates it from the current position — the classic
/// hierarchical wheel placement that makes each event cascade at most
/// `LEVELS - 1` times over its lifetime (and, with the wide level 0,
/// almost always zero times).
#[inline]
fn level_and_slot(base: u64, tick: u64) -> Option<(usize, usize)> {
    // `| 1` maps the xor==0 case (tick == base) to bit 0, i.e. level 0.
    let bit = 63 ^ ((base ^ tick) | 1).leading_zeros();
    let level = LEVEL_OF_BIT[bit as usize] as usize;
    if level >= LEVELS {
        return None;
    }
    Some((level, ((tick >> SHIFT[level]) & (SIZE[level] as u64 - 1)) as usize))
}

/// First set bit at index `>= from` in a level's occupancy words.
#[inline]
fn find_from(words: &[u64], from: usize) -> Option<usize> {
    let size = words.len() * 64;
    if from >= size {
        return None;
    }
    let (w0, b0) = (from / 64, from % 64);
    let masked = words[w0] & (!0u64 << b0);
    if masked != 0 {
        return Some(w0 * 64 + masked.trailing_zeros() as usize);
    }
    for (w, &word) in words.iter().enumerate().skip(w0 + 1) {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

impl<E> WheelQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        WheelQueue {
            slots: vec![EMPTY_SLOT; SLOT_COUNT],
            occupancy: vec![0u64; OCC_WORDS],
            base: 0,
            len: 0,
            next_seq: 0,
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            meta: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A level's occupancy words.
    #[inline]
    fn occ(&self, level: usize) -> &[u64] {
        &self.occupancy[OCC_OFF[level]..OCC_OFF[level] + SIZE[level] / 64]
    }

    #[inline]
    fn occ_set(&mut self, level: usize, slot: usize) {
        self.occupancy[OCC_OFF[level] + slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn occ_clear(&mut self, level: usize, slot: usize) {
        self.occupancy[OCC_OFF[level] + slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Schedules `event` for delivery at `tick`.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` events are pending at once.
    pub fn schedule(&mut self, tick: Tick, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.meta[idx as usize] = Meta { tick: tick.0, seq, next: NIL };
                self.payload[idx as usize] = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.meta.len()).expect("event queue slab overflow");
                self.meta.push(Meta { tick: tick.0, seq, next: NIL });
                self.payload.push(Some(event));
                idx
            }
        };
        if self.len == 0 {
            // Empty queue: snap the wheel to the new event so it lands in
            // level 0 regardless of how far the last pop left `base` behind.
            self.base = tick.0;
        }
        self.len += 1;
        if tick.0 < self.base {
            self.past.push(HeapEntry { tick: tick.0, seq, idx });
            return;
        }
        match level_and_slot(self.base, tick.0) {
            Some((level, slot)) => self.append(level, slot, idx),
            None => self.overflow.push(HeapEntry { tick: tick.0, seq, idx }),
        }
    }

    /// Appends slab entry `idx` to a slot list (FIFO: appends keep `seq`
    /// order because `seq` is monotonic and cascades preserve list order).
    #[inline]
    fn append(&mut self, level: usize, slot: usize, idx: u32) {
        let s = &mut self.slots[SLOT_OFF[level] + slot];
        if s.tail == NIL {
            s.head = idx;
            s.tail = idx;
            self.occ_set(level, slot);
        } else {
            let tail = s.tail;
            s.tail = idx;
            self.meta[tail as usize].next = idx;
        }
    }

    /// Moves `base` to the earliest pending wheel tick, cascading
    /// higher-level slots down as needed. Precondition: the wheel or the
    /// overflow heap is non-empty (`len > past.len()`).
    fn advance(&mut self) {
        loop {
            // Fast path: a pending level-0 slot at or after the cursor.
            // Its events carry exactly the tick the slot index encodes.
            let c0 = (self.base & (SIZE[0] as u64 - 1)) as usize;
            if let Some(s) = find_from(self.occ(0), c0) {
                self.base = (self.base & !(SIZE[0] as u64 - 1)) | s as u64;
                return;
            }
            // Level 0 exhausted: cascade the earliest non-empty slot of
            // the lowest non-empty level. Slots at or before the cursor
            // are empty by the placement invariant (an event at level L
            // has slot bits strictly greater than base's).
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = SHIFT[level];
                let cursor = ((self.base >> shift) & (SIZE[level] as u64 - 1)) as usize;
                let Some(s) = find_from(self.occ(level), cursor + 1) else {
                    continue;
                };
                // Rebase to the slot's range start, then redistribute its
                // list (in order, preserving per-slot FIFO) to levels < L.
                let span_mask = (1u64 << (shift + BITS[level])) - 1;
                self.base = (self.base & !span_mask) | ((s as u64) << shift);
                let list = &mut self.slots[SLOT_OFF[level] + s];
                let mut idx = list.head;
                *list = EMPTY_SLOT;
                self.occ_clear(level, s);
                while idx != NIL {
                    let m = self.meta[idx as usize];
                    self.meta[idx as usize].next = NIL;
                    let (l, slot) = level_and_slot(self.base, m.tick)
                        .expect("cascaded event cannot leave the wheel");
                    debug_assert!(l < level, "cascade must move events to a lower level");
                    self.append(l, slot, idx);
                    idx = m.next;
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Whole wheel empty: jump to the overflow frontier and pull
            // in everything within the horizon of the new base. Same-tick
            // events leave the heap in seq order, so FIFO survives.
            let top = self.overflow.peek().expect("advance called on an empty wheel");
            self.base = top.tick;
            while let Some(top) = self.overflow.peek() {
                let Some((level, slot)) = level_and_slot(self.base, top.tick) else {
                    break;
                };
                let e = self.overflow.pop().expect("peeked entry must pop");
                self.meta[e.idx as usize].next = NIL;
                self.append(level, slot, e.idx);
            }
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
    /// This is the run loop's removal: a 128-byte event is read in place
    /// instead of being moved out through a return slot and again into
    /// the handler's frame. [`pop`](Self::pop) is this plus a take.
    #[inline]
    pub fn unlink_next(&mut self) -> Option<(Tick, Held)> {
        if self.len == 0 {
            return None;
        }
        // Past events (tick < base) always precede everything in the wheel.
        if let Some(e) = self.past.pop() {
            return Some(self.hold(e.tick, e.idx));
        }
        self.advance();
        let c0 = (self.base & (SIZE[0] as u64 - 1)) as usize;
        let s = &mut self.slots[c0];
        let idx = s.head;
        debug_assert_ne!(idx, NIL, "advance must land on a non-empty slot");
        let m = self.meta[idx as usize];
        s.head = m.next;
        if s.head == NIL {
            s.tail = NIL;
            self.occ_clear(0, c0);
        }
        debug_assert_eq!(m.tick, self.base, "level-0 slot holds exactly one tick");
        Some(self.hold(m.tick, idx))
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
        let c0 = (self.base & (SIZE[0] as u64 - 1)) as usize;
        if let Some(s) = find_from(self.occ(0), c0) {
            return Some(Tick((self.base & !(SIZE[0] as u64 - 1)) | s as u64));
        }
        for level in 1..LEVELS {
            let shift = SHIFT[level];
            let cursor = ((self.base >> shift) & (SIZE[level] as u64 - 1)) as usize;
            let Some(s) = find_from(self.occ(level), cursor + 1) else {
                continue;
            };
            // A coarse slot mixes ticks; scan its list for the minimum.
            let mut idx = self.slots[SLOT_OFF[level] + s].head;
            let mut min = u64::MAX;
            while idx != NIL {
                let m = &self.meta[idx as usize];
                min = min.min(m.tick);
                idx = m.next;
            }
            return Some(Tick(min));
        }
        self.overflow.peek().map(|e| Tick(e.tick))
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

    /// Every live slab index, in no particular order.
    fn live_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        for slot in &self.slots {
            let mut idx = slot.head;
            while idx != NIL {
                out.push(idx);
                idx = self.meta[idx as usize].next;
            }
        }
        out.extend(self.past.iter().map(|e| e.idx));
        out.extend(self.overflow.iter().map(|e| e.idx));
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
        // Slot lists first (the common home of a pending event).
        for si in 0..self.slots.len() {
            let mut prev = NIL;
            let mut idx = self.slots[si].head;
            while idx != NIL {
                let m = self.meta[idx as usize];
                if m.seq == seq {
                    if prev == NIL {
                        self.slots[si].head = m.next;
                    } else {
                        self.meta[prev as usize].next = m.next;
                    }
                    if m.next == NIL {
                        self.slots[si].tail = prev;
                    }
                    if self.slots[si].head == NIL {
                        let level = (1..LEVELS).rev().find(|&l| si >= SLOT_OFF[l]).unwrap_or(0);
                        self.occ_clear(level, si - SLOT_OFF[level]);
                    }
                    return Some(self.hold(m.tick, idx));
                }
                prev = idx;
                idx = m.next;
            }
        }
        for heap in [true, false] {
            let h = if heap { &self.past } else { &self.overflow };
            if h.iter().any(|e| e.seq == seq) {
                let h = if heap { &mut self.past } else { &mut self.overflow };
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
        q.schedule(Tick(1), 'a');
        q.schedule(Tick(2), 'b');
        q.schedule(Tick(3), 'c');
        q.schedule(Tick(1 << 40), 'o'); // beyond the wheel: overflow heap
        let snap = q.snapshot();
        let (seq_b, seq_o) = (snap[1].1, snap[3].1);
        assert_eq!(q.remove_seq(seq_b), Some((Tick(2), 'b')));
        assert_eq!(q.remove_seq(seq_b), None, "already removed");
        assert_eq!(q.remove_seq(seq_o), Some((Tick(1 << 40), 'o')));
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
    fn cascades_across_every_level() {
        // One event per level, ticks chosen so each pop forces a cascade
        // chain from a different level.
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
        let far = 1u64 << 40; // beyond the 2^36 wheel horizon
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

    /// One seeded differential step sequence: drives the wheel and the
    /// sorted-`Vec` oracle through an identical random mix of schedules
    /// (same-tick bursts, small deltas, far-future overflow, occasional
    /// past ticks), pops, in-place deliveries (unlink, read, schedule
    /// while the slot is held, free — what `System::step` does) and
    /// `remove_seq`/`unlink_seq` cancellations, and asserts identical
    /// observable behaviour throughout.
    fn differential_run(seed: u64, ops: usize) {
        let mut rng = DetRng::new(seed);
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut oracle = SortedOracle::default();
        let mut now = 0u64;
        let mut payload = 0u64;
        let snapshot_of = |wheel: &WheelQueue<u64>| -> Vec<(Tick, u64, u64)> {
            wheel.snapshot().into_iter().map(|(t, s, &e)| (t, s, e)).collect()
        };
        for op in 0..ops {
            match rng.next_below(20) {
                // Schedule (60%): deltas weighted toward the small fixed
                // offsets the simulator actually uses.
                0..=11 => {
                    let tick = match rng.next_below(12) {
                        0..=5 => now + rng.next_below(64),            // near
                        6..=7 => now,                                 // equal-tick burst
                        8 => now + rng.next_below(100_000),           // mid
                        9 => now + (1 << 33) + rng.next_below(1000),  // wheel horizon
                        10 => now + (1 << 40) + rng.next_below(10),   // overflow
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
            differential_run(0xC0FFEE ^ seed, 2_000);
        }
    }

    #[test]
    fn differential_fuzz_long_run() {
        differential_run(0xD15EA5E, 40_000);
    }
}

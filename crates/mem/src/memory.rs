use std::collections::BTreeMap;

use crate::{Addr, LineAddr, LineData};

/// Lines per [`Page`]: 64 lines = 4 KiB of data, and one `u64` holds the
/// page's written-bitmap.
const PAGE_LINES: u64 = 64;

/// `PAGE_LINES` consecutive lines and which of them were ever written.
/// A line whose bit is clear holds zeros, so the derived `==` compares
/// exactly "same lines written, same contents".
#[derive(Debug, Clone, PartialEq, Eq)]
struct Page {
    written: u64,
    lines: [LineData; PAGE_LINES as usize],
}

impl Page {
    fn unwritten() -> Box<Page> {
        Box::new(Page { written: 0, lines: [LineData::zeroed(); PAGE_LINES as usize] })
    }
}

/// The functional backing store: a sparse, paged map from line address to
/// data.
///
/// Unwritten lines read as zero, like freshly mapped anonymous memory.
/// Timing is *not* modelled here — the directory's memory port schedules
/// latency; this type only answers "what bytes live at this line".
///
/// Lines live in fixed-size pages keyed by page number in an ordered map,
/// so a lookup walks a tree 64× smaller than one entry per line would
/// need and neighbouring lines share a node; a page remembers which of
/// its lines were written, which keeps "touched" distinct from "zero".
///
/// # Examples
///
/// ```
/// use hsc_mem::{Addr, MainMemory};
///
/// let mut mem = MainMemory::new();
/// mem.write_word(Addr(0x100), 42);
/// assert_eq!(mem.read_word(Addr(0x100)), 42);
/// assert_eq!(mem.read_word(Addr(0x9999998)), 0, "untouched memory is zero");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MainMemory {
    pages: BTreeMap<u64, Box<Page>>,
}

impl MainMemory {
    /// Creates an all-zero memory.
    #[must_use]
    pub fn new() -> Self {
        MainMemory::default()
    }

    /// Reads a whole line (zero if never written).
    #[must_use]
    pub fn read_line(&self, la: LineAddr) -> LineData {
        match self.pages.get(&(la.0 / PAGE_LINES)) {
            Some(page) => page.lines[(la.0 % PAGE_LINES) as usize],
            None => LineData::zeroed(),
        }
    }

    /// The stored line `la` for writing in place, marked written (a
    /// never-written line starts as zeros). Every one-line write comes here.
    pub fn line_mut(&mut self, la: LineAddr) -> &mut LineData {
        let page = self.pages.entry(la.0 / PAGE_LINES).or_insert_with(Page::unwritten);
        let i = la.0 % PAGE_LINES;
        page.written |= 1 << i;
        &mut page.lines[i as usize]
    }

    /// Writes a whole line.
    pub fn write_line(&mut self, la: LineAddr, data: LineData) {
        *self.line_mut(la) = data;
    }

    /// Reads the 64-bit word at byte address `a`.
    #[must_use]
    pub fn read_word(&self, a: Addr) -> u64 {
        self.read_line(a.line()).word_at(a)
    }

    /// Writes the 64-bit word at byte address `a`.
    ///
    /// Used by tests to set up or inspect memory around a controller;
    /// workloads initialise memory through [`MainMemory::write_words`], and
    /// during simulation all traffic goes through the coherence protocol.
    pub fn write_word(&mut self, a: Addr, value: u64) {
        self.line_mut(a.line()).set_word_at(a, value);
    }

    /// Writes each `(address, value)` word in order, so a later write to
    /// the same word wins, exactly as the same [`MainMemory::write_word`]
    /// calls would. Searches the page map once per run of consecutive
    /// words on the same page, not once per word.
    pub fn write_words(&mut self, words: impl IntoIterator<Item = (Addr, u64)>) {
        let mut words = words.into_iter().peekable();
        while let Some(&(first, _)) = words.peek() {
            let number = first.line().0 / PAGE_LINES;
            let page = self.pages.entry(number).or_insert_with(Page::unwritten);
            while let Some((a, value)) = words.next_if(|(a, _)| a.line().0 / PAGE_LINES == number) {
                let i = a.line().0 % PAGE_LINES;
                page.written |= 1 << i;
                page.lines[i as usize].set_word_at(a, value);
            }
        }
    }

    /// Number of lines ever written.
    #[must_use]
    pub fn touched_lines(&self) -> usize {
        self.pages.values().map(|p| p.written.count_ones() as usize).sum()
    }

    /// All written lines in address order (for state fingerprints and
    /// memory-wide coherence checks). Never-written lines are implicitly
    /// zero and not iterated.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &LineData)> + '_ {
        self.pages.iter().flat_map(|(&number, page)| {
            (0..PAGE_LINES)
                .filter(|i| page.written >> i & 1 != 0)
                .map(move |i| (LineAddr(number * PAGE_LINES + i), &page.lines[i as usize]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsc_sim::DetRng;

    #[test]
    fn unwritten_memory_is_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_line(LineAddr(123)), LineData::zeroed());
        assert_eq!(mem.read_word(Addr(0xABCDE8)), 0);
    }

    #[test]
    fn word_writes_do_not_clobber_neighbours() {
        let mut mem = MainMemory::new();
        mem.write_word(Addr(0x100), 1);
        mem.write_word(Addr(0x108), 2);
        assert_eq!(mem.read_word(Addr(0x100)), 1);
        assert_eq!(mem.read_word(Addr(0x108)), 2);
        assert_eq!(mem.touched_lines(), 1, "both words share a line");
    }

    #[test]
    fn line_writes_round_trip() {
        let mut mem = MainMemory::new();
        let mut d = LineData::zeroed();
        d.set_word(7, 77);
        mem.write_line(LineAddr(4), d);
        assert_eq!(mem.read_line(LineAddr(4)).word(7), 77);
        assert_eq!(mem.read_word(LineAddr(4).word_addr(7)), 77);
    }

    /// Writes `words` into one copy of `before` with `write_words` and
    /// into another with one `write_word` per word, and checks that the
    /// two copies agree by `==`, `touched_lines()` and `iter()`.
    fn assert_bulk_matches_word_by_word(before: &MainMemory, words: &[(Addr, u64)]) -> MainMemory {
        let mut bulk = before.clone();
        bulk.write_words(words.iter().copied());
        let mut one_by_one = before.clone();
        for &(a, value) in words {
            one_by_one.write_word(a, value);
        }
        assert!(
            bulk == one_by_one,
            "write_words differs from write_word for {} words",
            words.len()
        );
        assert_eq!(bulk.touched_lines(), one_by_one.touched_lines());
        assert!(bulk.iter().eq(one_by_one.iter()), "iter() differs");
        bulk
    }

    #[test]
    fn bulk_writes_equal_word_by_word_writes_in_the_edge_cases() {
        let last_of_page = LineAddr(63).word_addr(7);
        let first_of_next = LineAddr(64).word_addr(0);
        let (page_a, page_b) = (LineAddr(5 * PAGE_LINES), LineAddr(9 * PAGE_LINES + 3));
        let empty = MainMemory::new();

        // Up across the boundary, then back down.
        let across = [(last_of_page, 1), (first_of_next, 2), (last_of_page, 3)];
        let mem = assert_bulk_matches_word_by_word(&empty, &across);
        assert_eq!((mem.read_word(last_of_page), mem.read_word(first_of_next)), (3, 2));
        assert_eq!(mem.pages.len(), 2, "lines 63 and 64 sit on two pages");

        let interleaved =
            [(page_a.word_addr(0), 3), (page_b.word_addr(1), 4), (page_a.word_addr(2), 5)];
        let mem = assert_bulk_matches_word_by_word(&empty, &interleaved);
        assert_eq!(mem.read_word(page_a.word_addr(2)), 5);

        let twice = [(page_a.word_addr(4), 6), (page_a.word_addr(5), 7), (page_a.word_addr(4), 8)];
        let mem = assert_bulk_matches_word_by_word(&empty, &twice);
        assert_eq!(mem.read_word(page_a.word_addr(4)), 8, "the later write wins");

        assert_eq!(assert_bulk_matches_word_by_word(&empty, &[]), empty);

        let mut existing = MainMemory::new();
        existing.write_word(page_a.word_addr(1), 9);
        existing.write_word(LineAddr(page_a.0 + 1).word_addr(0), 0);
        let into = [(page_a.word_addr(2), 10), (LineAddr(page_a.0 + 2).word_addr(3), 11)];
        let mem = assert_bulk_matches_word_by_word(&existing, &into);
        assert_eq!((mem.read_word(page_a.word_addr(1)), mem.touched_lines()), (9, 3));
    }

    /// A seeded batch of `n` words on `pages` pages: runs of consecutive
    /// words that cross page boundaries (the shape of a workload's input
    /// array), scattered words, two pages taken in turn, and repeats of
    /// a word already in the batch.
    fn random_words(rng: &mut DetRng, pages: u64, n: usize) -> Vec<(Addr, u64)> {
        const FIRST_PAGE: u64 = 0x40;
        let page_words = PAGE_LINES * 8;
        let word = |w: u64| Addr((FIRST_PAGE * page_words + w) * 8);
        let mut words = Vec::with_capacity(n);
        while words.len() < n {
            let len = rng.range(1, 1 + page_words * 2).min((n - words.len()) as u64);
            match rng.next_below(4) {
                0 => {
                    let start = rng.next_below(pages * page_words);
                    let end = (start + len).min(pages * page_words);
                    words.extend((start..end).map(|w| (word(w), rng.next_u64())));
                }
                1 => words.extend(
                    (0..len).map(|_| (word(rng.next_below(pages * page_words)), rng.next_u64())),
                ),
                2 => {
                    let (p, q) = (rng.next_below(pages), rng.next_below(pages));
                    words.extend((0..len).map(|i| {
                        let page = if i % 2 == 0 { p } else { q };
                        (word(page * page_words + rng.next_below(page_words)), rng.next_u64())
                    }));
                }
                _ => {
                    for _ in 0..len.min(words.len() as u64) {
                        let (a, _) = words[rng.next_below(words.len() as u64) as usize];
                        words.push((a, rng.next_u64()));
                    }
                }
            }
        }
        words
    }

    /// Feeds seeded batches of 0 to 511 words into one memory that keeps
    /// growing, so later batches write into pages that already exist.
    fn bulk_soak(seed: u64, pages: u64, total_words: usize) {
        let mut rng = DetRng::new(seed);
        let mut mem = MainMemory::new();
        let mut written = 0;
        while written < total_words {
            let n = rng.next_below(PAGE_LINES * 8) as usize;
            let words = random_words(&mut rng, pages, n);
            mem = assert_bulk_matches_word_by_word(&mem, &words);
            written += words.len();
        }
        assert!(mem.pages.len() as u64 > pages / 2, "{} of {pages} pages touched", mem.pages.len());
    }

    #[test]
    fn bulk_writes_equal_word_by_word_writes() {
        bulk_soak(0xB01C, 8, 40_000);
    }

    /// `cargo test --release -p hsc-mem -- --ignored`: about a million
    /// words over 64 pages.
    #[test]
    #[ignore = "soak: about 1 M words, run with --release -- --ignored"]
    fn bulk_writes_equal_word_by_word_writes_soak() {
        bulk_soak(0x50A4, 64, 1_000_000);
    }

    /// Drives `MainMemory` in lock-step with the `BTreeMap<LineAddr,
    /// LineData>` it replaced. The address pool mixes the first and last
    /// lines of neighbouring pages, a few dense windows, and the top of
    /// the address space; a third of the writes store the value already
    /// there, which is a no-op on a written line and a zero-valued first
    /// write — "touched" — on a fresh one.
    #[test]
    fn paged_store_matches_the_per_line_map_it_replaced() {
        const TOP: u64 = u64::MAX / 64; // the line holding Addr(u64::MAX)
        let mut pool: Vec<u64> = vec![0, 1, 62, 63, 64, 65, 127, 128, 4095, 4096];
        pool.extend([TOP, TOP - 1, TOP - 62, TOP - 63, TOP - 64, TOP - 65]);
        pool.extend((0..48).map(|i| 0x4000 + i * 3));
        pool.extend((0..48).map(|i| 0x7_0000_0000 + i * 61));

        let mut rng = DetRng::new(0x9A6E);
        let mut mem = MainMemory::new();
        let mut reference: BTreeMap<LineAddr, LineData> = BTreeMap::new();
        let (mut mem_then, mut reference_then) = (mem.clone(), reference.clone());
        const OPS: u32 = 20_000;
        let (mut equal_seen, mut zero_first_writes) = (0, 0);
        for op in 0..OPS {
            let la = LineAddr(pool[rng.next_below(pool.len() as u64) as usize]);
            let a = la.word_addr(rng.next_below(8) as usize);
            let old = reference.get(&la).copied().unwrap_or_default();
            match rng.next_below(6) {
                0 => assert_eq!(mem.read_line(la), old, "read_line({la}) at op {op}"),
                1 => assert_eq!(mem.read_word(a), old.word_at(a), "read_word({a}) at op {op}"),
                kind => {
                    let keep = rng.chance(1, 3);
                    zero_first_writes += u32::from(keep && !reference.contains_key(&la));
                    if kind < 4 {
                        let value = if keep { old.word_at(a) } else { rng.next_below(4) };
                        mem.write_word(a, value);
                        reference.entry(la).or_default().set_word_at(a, value);
                    } else {
                        let mut data = old;
                        if !keep {
                            data.set_word(rng.next_below(8) as usize, rng.next_u64());
                        }
                        mem.write_line(la, data);
                        reference.insert(la, data);
                    }
                }
            }
            assert_eq!(mem.touched_lines(), reference.len(), "touched_lines at op {op}");
            // `==` must agree with the map's: same written set, same data.
            let equal = reference == reference_then;
            assert_eq!(mem == mem_then, equal, "== against the op-{} clone at op {op}", op & !7);
            equal_seen += u32::from(equal);
            if op % 8 == 7 {
                (mem_then, reference_then) = (mem.clone(), reference.clone());
                assert_eq!(mem_then, mem, "a clone equals its source");
            }
            if op % 256 == 0 {
                let lines: Vec<(LineAddr, LineData)> = mem.iter().map(|(la, d)| (la, *d)).collect();
                let want: Vec<(LineAddr, LineData)> =
                    reference.iter().map(|(&la, &d)| (la, d)).collect();
                assert_eq!(lines, want, "iter() at op {op}");
            }
        }
        assert_eq!(reference.len(), pool.len(), "the run touched every pool line");
        assert!(
            (1000..OPS - 1000).contains(&equal_seen),
            "`==` must be seen both ways: true at {equal_seen} of {OPS} ops"
        );
        assert!(zero_first_writes > 10, "{zero_first_writes} zero-valued first writes");
    }
}

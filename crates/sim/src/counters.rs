//! Interned counter storage: the one way the simulator counts.
//!
//! [`StatSet`] is the right shape at report time — string keys, sorted
//! iteration, cheap merging — but a terrible one per event: a
//! string-keyed bump walks a `BTreeMap<String, u64>` comparing strings,
//! and per-class keys (`net.msg.RdBlk`, …) would have to be built with
//! `format!` on every message. So nothing counts through a `StatSet`;
//! [`Counters`] owns every count and a `StatSet` is only what it exports:
//!
//! * **Construction time** — each controller interns its key names once
//!   via [`Counters::register`] / [`Counters::register_hidden`], getting
//!   back a copyable [`CounterId`] per key. A `register`ed key appears in
//!   exports even at zero, a `register_hidden` one only once it fires.
//! * **Hot path** — [`Counters::bump`] / [`Counters::add`] are a
//!   bounds-checked add into a dense `Vec<u64>` slot. No hashing, no
//!   string comparison, no allocation.
//! * **Report time** — [`Counters::export`] materializes a [`StatSet`] in
//!   sorted key order; every stdout table and `RunReport` JSON is built
//!   from those (pinned by the golden fixtures in
//!   `crates/bench/tests/golden_counters.rs`).
//!
//! # Examples
//!
//! ```
//! use hsc_sim::Counters;
//!
//! let mut c = Counters::new();
//! let probes = c.register("dir.probes_sent"); // visible at zero
//! let stale = c.register_hidden("dir.stale_unblocks"); // visible once nonzero
//! c.bump(probes);
//! c.add(probes, 2);
//! assert_eq!(c.get(probes), 3);
//! assert_eq!(c.get(stale), 0);
//! let set = c.export();
//! assert_eq!(set.get("dir.probes_sent"), 3);
//! assert_eq!(set.len(), 1); // the hidden key never fired
//! ```

use std::collections::BTreeMap;

use crate::stats::StatSet;

/// A dense handle to one interned counter slot of a [`Counters`] store.
///
/// Ids are only meaningful against the store that issued them; using an
/// id from another store is either an out-of-bounds panic or a silent
/// bump of an unrelated slot, so controllers keep their ids private next
/// to the store they index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Interned-name counter registry with dense `u64` slots.
///
/// Registration happens at controller construction, the hot path bumps
/// by [`CounterId`], and [`Counters::export`] rebuilds the string-keyed
/// [`StatSet`] at report time (see the comment at the top of this file
/// for the full rationale). The store is `Clone` so controllers that
/// are cloned wholesale
/// (e.g. the network inside builder snapshots) keep working.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Slot values, indexed by `CounterId`.
    values: Vec<u64>,
    /// Whether the slot exports even at zero.
    visible: Vec<bool>,
    /// Interned name → slot. Only walked at registration and export.
    index: BTreeMap<String, u32>,
}

impl Counters {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Counters::default()
    }

    /// Interns `name` and returns its id, marking it **visible**: the key
    /// appears in [`Counters::export`] even while its value is 0.
    /// Registering an existing name returns the same id (and upgrades a
    /// hidden slot to visible).
    pub fn register(&mut self, name: &str) -> CounterId {
        let id = self.intern(name);
        self.visible[id.0 as usize] = true;
        id
    }

    /// Interns `name` and returns its id, leaving it **hidden**: the key
    /// appears in [`Counters::export`] only once its value is nonzero.
    /// Registering an existing name returns the same id (a visible slot
    /// stays visible).
    pub fn register_hidden(&mut self, name: &str) -> CounterId {
        self.intern(name)
    }

    fn intern(&mut self, name: &str) -> CounterId {
        if let Some(&slot) = self.index.get(name) {
            return CounterId(slot);
        }
        let slot = u32::try_from(self.values.len()).expect("more than u32::MAX counters interned");
        self.index.insert(name.to_owned(), slot);
        self.values.push(0);
        self.visible.push(false);
        CounterId(slot)
    }

    /// Increments the slot by one.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different store (out of bounds).
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.values[id.0 as usize] += 1;
    }

    /// Increments the slot by `amount`. Adding 0 changes nothing: whether
    /// the slot exports at zero is decided by how it was registered.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different store (out of bounds).
    #[inline]
    pub fn add(&mut self, id: CounterId, amount: u64) {
        self.values[id.0 as usize] += amount;
    }

    /// Current value of the slot.
    #[must_use]
    #[inline]
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Current value of `name` (0 if never registered) — the report/test
    /// convenience lookup; hot code holds [`CounterId`]s instead.
    #[must_use]
    pub fn value(&self, name: &str) -> u64 {
        self.index.get(name).map_or(0, |&slot| self.values[slot as usize])
    }

    /// Number of interned slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing was ever registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Materializes the report-time [`StatSet`]: every visible slot plus
    /// every hidden slot that fired, in sorted key order.
    #[must_use]
    pub fn export(&self) -> StatSet {
        let mut out = StatSet::new();
        for (name, &slot) in &self.index {
            let v = self.values[slot as usize];
            if v != 0 || self.visible[slot as usize] {
                out.set(name, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_interns_each_name_once() {
        let mut c = Counters::new();
        let a = c.register("x");
        let b = c.register("x");
        let h = c.register_hidden("x");
        assert_eq!(a, b);
        assert_eq!(a, h);
        assert_eq!(c.len(), 1);
        c.bump(a);
        c.bump(b);
        assert_eq!(c.get(a), 2);
        assert_eq!(c.value("x"), 2);
        assert_eq!(c.value("never"), 0);
    }

    #[test]
    fn hidden_slots_export_only_once_nonzero() {
        let mut c = Counters::new();
        let vis = c.register("a.visible");
        let hid = c.register_hidden("a.hidden");
        let set = c.export();
        assert_eq!(set.len(), 1);
        assert_eq!(set.get("a.visible"), 0);
        c.bump(hid);
        c.add(vis, 0); // zero add must not unhide anything or drop the key
        let set = c.export();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("a.hidden"), 1);
        assert_eq!(set.get("a.visible"), 0);
    }

    #[test]
    fn visible_registration_wins_over_hidden() {
        let mut c = Counters::new();
        c.register_hidden("k");
        c.register("k"); // upgrade: now exports at zero
        assert_eq!(c.export().get("k"), 0);
        assert_eq!(c.export().len(), 1);
        let mut c = Counters::new();
        c.register("k");
        c.register_hidden("k"); // no downgrade
        assert_eq!(c.export().len(), 1);
    }

    /// The export is exactly the visible and the fired slots at their
    /// values — sorted keys, zero-valued visible keys included —
    /// regardless of registration order.
    #[test]
    fn export_matches_equivalent_statset_byte_for_byte() {
        let mut c = Counters::new();
        let zebra = c.register("zebra");
        let alpha = c.register("alpha");
        let mid = c.register_hidden("mid.fired");
        let _never = c.register_hidden("mid.never");
        c.add(zebra, 7);
        c.bump(mid);
        c.add(alpha, 0);

        let mut s = StatSet::new();
        s.set("zebra", 7);
        s.set("mid.fired", 1);
        s.set("alpha", 0);

        assert_eq!(c.export(), s);
        assert_eq!(c.export().to_string(), s.to_string());
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["alpha", "mid.fired", "zebra"]);
    }

    #[test]
    #[should_panic]
    fn foreign_id_out_of_bounds_panics() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        let id = b.register("only.in.b");
        let _ = b;
        a.bump(id);
    }
}

//! Class-indexed arrays of interned counter ids.
//!
//! Per-class counters (`net.msg.{class}`, `dir.requests.{class}`, …) used
//! to be built with `format!("prefix.{}", kind.class_name())` on every
//! message — a heap allocation plus a string-keyed map walk on the
//! hottest path in the simulator. A [`ClassCounters`] interns all
//! [`MsgKind::NUM_CLASSES`] keys once at construction; per message the
//! lookup is an array index by [`MsgKind::class_index`].

use hsc_sim::{CounterId, Counters};

use crate::MsgKind;

/// One interned counter id per message class, under a common key prefix.
///
/// # Examples
///
/// ```
/// use hsc_noc::{ClassCounters, MsgKind};
/// use hsc_sim::Counters;
///
/// let mut c = Counters::new();
/// let by_class = ClassCounters::register_hidden(&mut c, "net.msg");
/// c.bump(by_class.id(&MsgKind::RdBlk));
/// assert_eq!(c.export().get("net.msg.RdBlk"), 1);
/// assert_eq!(c.export().len(), 1); // hidden classes that never fired stay absent
/// ```
#[derive(Debug, Clone)]
pub struct ClassCounters {
    ids: [CounterId; MsgKind::NUM_CLASSES],
}

impl ClassCounters {
    /// Interns `prefix.{class}` for every class as **hidden** keys: a
    /// class appears in exports only once a message of that class was
    /// counted — matching the old on-demand `format!`-key behavior.
    pub fn register_hidden(counters: &mut Counters, prefix: &str) -> Self {
        ClassCounters {
            ids: std::array::from_fn(|i| {
                counters.register_hidden(&format!("{prefix}.{}", MsgKind::CLASS_NAMES[i]))
            }),
        }
    }

    /// Interns `prefix.{class}` for every class, marking the classes
    /// named in `visible` as export-at-zero and the rest hidden.
    ///
    /// # Panics
    ///
    /// Panics if `visible` names an unknown class — a typo here would
    /// silently change report contents.
    pub fn register(counters: &mut Counters, prefix: &str, visible: &[&str]) -> Self {
        for class in visible {
            assert!(
                MsgKind::CLASS_NAMES.contains(class),
                "unknown message class {class:?} in visible set for {prefix:?}"
            );
        }
        ClassCounters {
            ids: std::array::from_fn(|i| {
                let name = format!("{prefix}.{}", MsgKind::CLASS_NAMES[i]);
                if visible.contains(&MsgKind::CLASS_NAMES[i]) {
                    counters.register(&name)
                } else {
                    counters.register_hidden(&name)
                }
            }),
        }
    }

    /// The interned id for `kind`'s class.
    #[must_use]
    #[inline]
    pub fn id(&self, kind: &MsgKind) -> CounterId {
        self.ids[kind.class_index()]
    }

    /// Sum of all class slots — the dense-array equivalent of
    /// `StatSet::sum_prefix("prefix.")`.
    #[must_use]
    pub fn total(&self, counters: &Counters) -> u64 {
        self.ids.iter().map(|&id| counters.get(id)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visible_classes_export_at_zero_hidden_ones_do_not() {
        let mut c = Counters::new();
        let arr = ClassCounters::register(&mut c, "dir.requests", &["RdBlk", "WT"]);
        let set = c.export();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("dir.requests.RdBlk"), 0);
        assert_eq!(set.get("dir.requests.WT"), 0);
        c.bump(arr.id(&MsgKind::Unblock));
        assert_eq!(c.export().get("dir.requests.Unblock"), 1);
        assert_eq!(c.export().len(), 3);
    }

    #[test]
    fn total_sums_every_class_slot() {
        let mut c = Counters::new();
        let arr = ClassCounters::register_hidden(&mut c, "net.msg");
        c.bump(arr.id(&MsgKind::RdBlk));
        c.bump(arr.id(&MsgKind::MemRd));
        c.add(arr.id(&MsgKind::Unblock), 3);
        assert_eq!(arr.total(&c), 5);
    }

    #[test]
    #[should_panic(expected = "unknown message class")]
    fn typoed_visible_class_panics_at_construction() {
        let mut c = Counters::new();
        let _ = ClassCounters::register(&mut c, "x", &["RdBlq"]);
    }
}

//! Cache structures for the HSC reproduction.
//!
//! Everything in this crate is *mechanism*, not *policy*: set-associative
//! tag arrays with pluggable replacement, line data with word-level atomics,
//! MSHR files, write-back victim buffers, the flat per-line table they
//! are built on ([`LineMap`]) and a functional main memory. The
//! coherence protocols that use these structures live in `hsc-cluster`
//! (MOESI CorePairs, VIPER GPU caches) and `hsc-core` (system-level
//! directory and LLC).
//!
//! The unusual part compared to a classical cache model is that every line
//! carries functional data ([`LineData`], 8×64-bit words = 64 B). Workloads
//! compute real results through the coherence protocol, so a protocol bug
//! shows up as a wrong histogram or a failed verification instead of a
//! silently skewed counter.
//!
//! # Examples
//!
//! ```
//! use hsc_mem::{Addr, CacheArray, CacheGeometry};
//!
//! let geom = CacheGeometry::new(4 * 1024, 4); // 4 KiB, 4-way, 64 B lines
//! let mut tags: CacheArray<char> = CacheArray::new(geom);
//! let line = Addr(0x1000).line();
//! tags.insert(line, 'S');
//! assert_eq!(tags.get(line), Some(&'S'));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod array;
mod data;
mod linemap;
mod memory;
mod mshr;
mod repl;
mod victim;

pub use addr::{Addr, LineAddr, BLOCK_BYTES, WORDS_PER_LINE};
pub use array::{tag_fingerprint, CacheArray, CacheGeometry, Eviction, InsertOutcome, Way};
pub use data::{AtomicKind, LineData};
pub use linemap::LineMap;
pub use memory::MainMemory;
pub use mshr::{Mshr, MshrFullError};
pub use repl::TreePlru;
pub use victim::{VictimBuffer, VictimEntry};

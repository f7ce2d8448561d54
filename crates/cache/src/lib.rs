//! # popk-cache — cache substrate with partial tag matching
//!
//! Set-associative caches with true-LRU replacement, plus the *partial tag
//! matching* mechanism of the paper's §5.2/Fig. 3: once the low 16 bits of
//! an effective address are known, the cache index is complete and a few
//! low-order tag bits are available; probing with those partial tags either
//! rules out every way (an early, non-speculative miss), identifies a
//! unique candidate, or leaves several candidates for an MRU way-predictor
//! to choose among.
//!
//! * [`CacheConfig`] / [`Cache`] — one level of set-associative cache.
//! * [`Cache::partial_probe`] — the Fig. 4 classification for a probe with
//!   `t` known tag bits; [`Cache::partial_probe_widths`] classifies every
//!   width in one pass.
//! * [`Hierarchy`] — L1I/L1D/L2/memory with the Table 2 latencies.
//!
//! ```
//! use popk_cache::{Cache, CacheConfig};
//!
//! // The paper's L1 D-cache: 64 KB, 4-way, 64 B lines.
//! let mut c = Cache::new(CacheConfig::new(64 * 1024, 64, 4));
//! assert!(!c.access(0x1000_0040).hit);  // cold miss
//! assert!(c.access(0x1000_0040).hit);   // now resident
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod hierarchy;
mod set_assoc;

pub use config::CacheConfig;
pub use hierarchy::{Hierarchy, HierarchyConfig, MemAccess};
pub use set_assoc::{AccessResult, Cache, CacheStats, PartialOutcome, MAX_WAYS};

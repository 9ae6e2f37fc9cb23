//! # dangle-core — the paper's contribution
//!
//! Run-time detection of **all** dangling pointer uses (reads, writes and
//! frees of freed heap memory) with production-level overhead, reproducing
//! Dhurjati & Adve, *"Efficiently Detecting All Dangling Pointer Uses in
//! Production Servers"* (DSN 2006).
//!
//! Two insights, two types:
//!
//! * [`ShadowHeap`] — **Insight 1**: give every allocation a fresh *virtual*
//!   page mapped to the *same physical page* the underlying `malloc` used;
//!   protect it on `free`; let the MMU check every access for free. Works
//!   over any allocator, needs no source code, adds one word per object.
//! * [`ShadowPool`] — **Insight 2**: run the same mechanism inside the pools
//!   of the Automatic Pool Allocation transform (`dangle-apa`), whose escape
//!   analysis bounds pool lifetimes; at `pooldestroy` every canonical and
//!   shadow page of the pool returns to a shared free list, so virtual
//!   address consumption is bounded by the *live* pools.
//!
//! Both run one page-aliasing engine (a crate-private module): the
//! detectors differ only in where canonical memory and recycled shadow
//! pages come from.
//!
//! Supporting modules:
//!
//! * [`diag`] — site-tagged object registry; turns MMU traps into
//!   `"dangling write at 0x… allocated at `g:malloc`, freed at
//!   `free_all_but_head`"` reports.
//! * [`exhaustion`] — the §3.4 address-space lifetime analysis (the 9-hour
//!   calculation) and the threshold recycling policy (solution 1).
//! * [`gc`] — the §3.4 conservative pool GC (solution 2), guided by the
//!   dynamic pool points-to graph.
//! * [`sampling`] — GWP-ASan-style budget-aware 1-in-N sampled protection
//!   (off by default; `N = 1` is an identity with the full detector).
//! * `os` (feature `os`) — a real Linux backend demonstrating Insight 1
//!   with actual `memfd`/`mmap`/`mprotect` and SIGSEGV.

pub mod diag;
mod engine;
pub mod exhaustion;
pub mod gc;
pub mod pool_shadow;
pub mod sampling;
pub mod shadow;
pub mod sharded;

#[cfg(feature = "os")]
pub mod os;

pub use diag::{DanglingKind, DanglingReport, ObjectRecord, ObjectState, SiteId, SiteTable};
pub use engine::Detector;
pub use gc::GcReport;
pub use pool_shadow::{FreedSpan, ShadowPool, ShadowPoolConfig};
pub use sampling::{SampleDecision, SamplingConfig, SamplingPolicy};
pub use shadow::{BatchConfig, ShadowConfig, ShadowHeap, SHADOW_WORD};
pub use sharded::{EpochFreeList, ShardedShadowPool};

#[cfg(test)]
mod batch_proptests;

//! # dangle-vmm — simulated virtual memory for dangling-pointer detection
//!
//! This crate is the hardware/OS substrate of the `dangle` workspace. It
//! models, deterministically and in user space, exactly the machinery the
//! DSN 2006 paper *"Efficiently Detecting All Dangling Pointer Uses in
//! Production Servers"* relies on:
//!
//! * a 64-bit **virtual address space** with 4 KiB pages and per-page
//!   protection bits ([`Protection`]),
//! * **physical frames** that may be mapped by *multiple* virtual pages at
//!   once (the paper's Insight 1: shadow pages aliased onto canonical
//!   pages), with reference counting ([`machine::Machine`]),
//! * the system calls the detector needs: [`Machine::mmap`],
//!   [`Machine::mremap_alias`] (the paper's `mremap(old, 0, len)` trick),
//!   [`Machine::mprotect`] and [`Machine::munmap`], plus the `MAP_FIXED`
//!   re-mappings [`Machine::mmap_fixed`] and [`Machine::alias_fixed`].
//!   Each range-taking call has one implementation over a slice of
//!   `(addr, pages)` ranges: a one-range call is the paper's plain
//!   syscall, and a call with k ≥ 2 ranges is one vectored crossing that
//!   adds a per-range charge. Arguments are checked before anything is
//!   charged, so a failed call leaves the machine unchanged,
//! * an **MMU check on every access**: loads and stores through
//!   [`Machine::load`]/[`Machine::store`] verify the protection bits and
//!   return a [`Trap`] on violation — the simulator-friendly equivalent of a
//!   SIGSEGV,
//! * a **TLB model** ([`tlb::Tlb`]) and a physically-indexed **L1 data cache
//!   model** ([`cache::L1Cache`]), because the paper attributes its residual
//!   overhead to extra TLB misses while arguing cache behaviour is
//!   *unchanged* (objects keep their physical layout),
//! * a **cycle-accurate cost model** ([`cost::CostModel`]) charging for
//!   memory accesses, TLB/L1 misses and system calls, so the Table 1–3
//!   overhead decompositions are reproducible and deterministic.
//!
//! Nothing in this crate knows about allocators, pools or the detector; it is
//! purely the machine.
//!
//! ## Example
//!
//! ```rust
//! use dangle_vmm::{Machine, Protection, PAGE_SIZE};
//!
//! # fn main() -> Result<(), dangle_vmm::Trap> {
//! let mut m = Machine::new();
//! // Map two fresh pages, write through them.
//! let a = m.mmap(2)?;
//! m.store_u64(a, 0xdead_beef)?;
//!
//! // Create a *shadow* view aliased to the same physical frames.
//! let shadow = m.mremap_alias(&[(a, 2)])?;
//! assert_eq!(m.load_u64(shadow)?, 0xdead_beef);
//!
//! // Protect the shadow view: accesses through it now trap, while the
//! // canonical view still works — this is the core mechanism of the paper.
//! m.mprotect(&[(shadow, 2)], Protection::None)?;
//! assert!(m.load_u64(shadow).is_err());
//! assert_eq!(m.load_u64(a)?, 0xdead_beef);
//!
//! // Three one-page aliases in one vectored crossing: one contiguous run.
//! let run = m.mremap_alias(&[(a, 1), (a, 1), (a, 1)])?;
//! assert_eq!(m.load_u64(run.add(2 * PAGE_SIZE as u64))?, 0xdead_beef);
//! assert_eq!(m.stats().ranges_batched, 3);
//!
//! // Malformed arguments are errors, never panics, and cost nothing.
//! let clock = m.clock();
//! assert!(m.mremap_alias(&[(a, 0)]).is_err());
//! assert_eq!(m.clock(), clock);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod cache;
pub mod cost;
pub mod machine;
pub mod pagetable;
#[cfg(test)]
mod proptests;
pub mod stats;
pub mod tlb;
pub mod trap;

pub use addr::{PageNum, VirtAddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
pub use cache::{CacheConfig, L1Cache};
pub use cost::CostModel;
pub use machine::{AccessKind, CoreReport, Machine, MachineConfig, Protection};
pub use pagetable::PageTableImpl;
pub use stats::MachineStats;
pub use tlb::{Tlb, TlbConfig};
pub use trap::Trap;

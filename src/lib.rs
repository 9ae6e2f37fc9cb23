//! # dangle — detecting all dangling pointer uses at production cost
//!
//! A Rust reproduction of **Dhurjati & Adve, "Efficiently Detecting All
//! Dangling Pointer Uses in Production Servers" (DSN 2006)**: use-after-free,
//! write-after-free and double-free detection built from two ideas —
//!
//! 1. **Page aliasing**: every heap allocation gets its own fresh *virtual*
//!    page mapped to the *same physical page* the underlying allocator
//!    used; `free` protects the virtual page and the MMU catches every
//!    later use, at zero per-access software cost and (nearly) zero extra
//!    physical memory ([`ShadowHeap`]).
//! 2. **Automatic Pool Allocation**: a compiler transform
//!    ([`apa::pool_allocate`]) bounds the lifetimes of heap partitions, so
//!    at `pooldestroy` all of a pool's virtual pages — canonical and shadow
//!    — can be recycled ([`ShadowPool`]).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`vmm`] — the simulated MMU (page tables, aliased frames, protection
//!   traps, TLB/L1/cost models);
//! * [`heap`] — the `malloc`-style system allocator underneath everything;
//! * [`pool`] — the pool runtime with the shared page free list;
//! * [`apa`] — the MiniC frontend and the pool-allocation transform;
//! * [`interp`] — the MiniC execution engines (AST reference interpreter
//!   and the register-bytecode compiler + VM) and the per-scheme
//!   [`Backend`]s;
//! * [`core`] — **the paper's contribution**: [`ShadowHeap`],
//!   [`ShadowPool`], diagnostics, the §3.4 mitigations;
//! * [`baselines`] — Electric Fence, Valgrind-style, and capability-store
//!   comparators;
//! * [`workloads`] — the calibrated evaluation programs of Tables 1–3;
//! * [`telemetry`] — the event ring, metrics registry, structured trap
//!   reports, and the span tracer's cycle attribution.
//!
//! ## Quick start
//!
//! ```rust
//! use dangle::core::ShadowHeap;
//! use dangle::heap::{Allocator, SysHeap};
//! use dangle::vmm::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new();
//! let mut heap = ShadowHeap::new(SysHeap::new());
//!
//! let p = heap.alloc(&mut machine, 24)?;
//! machine.store_u64(p, 42)?;
//! heap.free(&mut machine, p)?;
//!
//! // The dangling read is caught by the (simulated) MMU:
//! let trap = machine.load_u64(p).unwrap_err();
//! let report = heap.explain(&trap).expect("attributed to the freed object");
//! println!("{}", report.render(heap.sites()));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `cargo run --release -p
//! dangle-bench --bin ledger` for the paper's evaluation tables (written to
//! `perf/ledger.json`).

pub use dangle_apa as apa;
pub use dangle_baselines as baselines;
pub use dangle_core as core;
pub use dangle_heap as heap;
pub use dangle_interp as interp;
pub use dangle_pool as pool;
pub use dangle_telemetry as telemetry;
pub use dangle_vmm as vmm;
pub use dangle_workloads as workloads;

pub use dangle_core::{DanglingKind, DanglingReport, ShadowHeap, ShadowPool};
pub use dangle_interp::{
    compile, run, run_compiled, run_with, Backend, BackendError, BcProgram, Engine, RunError,
    RunOutcome,
};
pub use dangle_vmm::{Machine, Protection, Trap, VirtAddr};

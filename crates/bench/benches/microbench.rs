//! Microbenchmarks of the detector's primitive operations: the
//! per-allocation cost (underlying malloc + `mremap` alias + header word),
//! the per-free cost (`mprotect` + underlying free), the checked access
//! path, and the pool create/destroy cycle. These measure *host* time of
//! the simulator — useful for tracking regressions in the implementation
//! itself (the paper-facing numbers are the simulated cycles printed by the
//! table binaries).
//!
//! Plain `std::time::Instant` harness (`harness = false`): each case is
//! warmed up, then timed over enough iterations to smooth scheduler noise.

use dangle_core::{ShadowHeap, ShadowPool};
use dangle_heap::{Allocator, SysHeap};
use dangle_vmm::Machine;
use std::hint::black_box;
use std::time::Instant;

const WARMUP_ITERS: u32 = 2_000;
const TIMED_ITERS: u32 = 20_000;

/// Runs `f` WARMUP_ITERS times untimed, then TIMED_ITERS times timed, and
/// prints the mean per-iteration nanoseconds.
fn bench(name: &str, mut f: impl FnMut()) {
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let start = Instant::now();
    for _ in 0..TIMED_ITERS {
        f();
    }
    let elapsed = start.elapsed();
    println!("{name:<40} {:>10.1} ns/iter", elapsed.as_nanos() as f64 / TIMED_ITERS as f64);
}

fn main() {
    println!("microbench: host-time cost of the simulator's primitives\n");

    {
        let mut m = Machine::new();
        let mut h = SysHeap::new();
        bench("alloc_free_pair/sys_heap", || {
            let p = h.alloc(&mut m, 64).unwrap();
            h.free(&mut m, black_box(p)).unwrap();
        });
    }
    {
        let mut m = Machine::new();
        let mut h = ShadowHeap::new(SysHeap::new());
        bench("alloc_free_pair/shadow_heap", || {
            let p = h.alloc(&mut m, 64).unwrap();
            h.free(&mut m, black_box(p)).unwrap();
        });
    }
    {
        let mut m = Machine::new();
        let mut sp = ShadowPool::new();
        let pool = sp.create(64);
        bench("alloc_free_pair/shadow_pool", || {
            let p = sp.alloc(&mut m, pool, 64).unwrap();
            sp.free(&mut m, pool, black_box(p)).unwrap();
        });
    }
    {
        let mut m = Machine::new();
        let p = m.mmap(1).unwrap();
        bench("access/load_store_u64", || {
            m.store_u64(p, 42).unwrap();
            black_box(m.load_u64(p).unwrap());
        });
    }
    {
        let mut m = Machine::new();
        let mut h = ShadowHeap::new(SysHeap::new());
        let p = h.alloc(&mut m, 64).unwrap();
        m.store_u64(p, 7).unwrap();
        bench("access/load_through_shadow", || {
            black_box(m.load_u64(black_box(p)).unwrap());
        });
    }
    {
        let mut m = Machine::new();
        let mut sp = ShadowPool::new();
        bench("pool_lifecycle/create_alloc_destroy", || {
            let pool = sp.create(16);
            for _ in 0..8 {
                black_box(sp.alloc(&mut m, pool, 16).unwrap());
            }
            sp.destroy(&mut m, pool).unwrap();
        });
    }
    {
        let mut m = Machine::new();
        let p = m.mmap(1).unwrap();
        bench("remap/mremap_alias_page", || {
            black_box(m.mremap_alias(&[(black_box(p), 1)]).unwrap());
        });
    }
}

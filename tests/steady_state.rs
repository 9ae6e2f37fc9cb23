//! Host memory in steady state: a long-running pooled server must not grow
//! the simulator's own heap with every connection it has ever served.
//!
//! The paper's §4.3 shows that one connection's address-space wastage is not
//! carried over to the next. This test asks the same of host memory. It
//! runs a churn of short sessions through the 4-shard detector on a 4-core
//! machine. Each session creates a pool, allocates a mix of small,
//! mid-sized and multi-page objects, frees some of them and destroys the
//! pool. Once warmed up, the live host bytes may only grow by the few
//! bytes per session that pool ids cost: ids are never reused, so each
//! one keeps a handle and a one-word tombstone.
//!
//! A counting global allocator measures the live bytes. The file holds a
//! single test, so no other test thread allocates while it measures.

use dangle_core::{Detector, ShardedShadowPool};
use dangle_vmm::{Machine, MachineConfig, PAGE_SIZE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through the global allocator.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on an atomic counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CORES: usize = 4;
const WARMUP_SESSIONS: usize = 2_000;
const MEASURED_SESSIONS: usize = 20_000;
/// Allowed live-byte growth per session after warm-up.
const MAX_BYTES_PER_SESSION: isize = 64;

/// One connection: switch core, create a pool, allocate four objects (one
/// spanning several pages), free two, destroy the pool.
fn session(machine: &mut Machine, detector: &mut ShardedShadowPool, i: usize) {
    machine.switch_core(i % CORES);
    let pool = detector.create(machine, 16);
    let small = detector.alloc(machine, pool, 32, true).unwrap();
    let mid = detector.alloc(machine, pool, 2_000, true).unwrap();
    let word = detector.alloc(machine, pool, 64, true).unwrap();
    let big = detector.alloc(machine, pool, 3 * PAGE_SIZE, true).unwrap();
    for obj in [mid, word, big.add(2 * PAGE_SIZE as u64)] {
        machine.store_u64(obj, i as u64).unwrap();
    }
    detector.free(machine, pool, small, true).unwrap();
    detector.free(machine, pool, big, true).unwrap();
    assert!(machine.load_u64(small).is_err(), "a dangling use still traps");
    detector.destroy(machine, pool).unwrap();
}

#[test]
fn host_heap_stays_flat_across_pooled_sessions() {
    let mut machine =
        Machine::with_config(MachineConfig { cores: CORES, ..MachineConfig::default() });
    let mut detector = ShardedShadowPool::new(CORES);
    for i in 0..WARMUP_SESSIONS {
        session(&mut machine, &mut detector, i);
    }
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for i in WARMUP_SESSIONS..WARMUP_SESSIONS + MEASURED_SESSIONS {
        session(&mut machine, &mut detector, i);
    }
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        growth <= MAX_BYTES_PER_SESSION * MEASURED_SESSIONS as isize,
        "live host bytes grew {growth} B over {MEASURED_SESSIONS} sessions ({} B/session, \
         limit {MAX_BYTES_PER_SESSION})",
        growth / MEASURED_SESSIONS as isize,
    );
}

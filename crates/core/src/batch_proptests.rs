//! Differential tests for the batched protection path.
//!
//! Random allocation/free/pooldestroy traces are driven through the legacy
//! (one syscall per event) and batched (vectored syscalls + shadow
//! extents) detectors in lockstep, asserting observable equivalence:
//! identical operation outcomes, identical trap and double-free
//! detections, identical per-object liveness/registry state — and that
//! batching never costs more simulated cycles on the allocation-heavy
//! traces it is built for (bursts of same-class objects per pool, the
//! shape the paper's server workloads exhibit).
//!
//! The boundary behaviour of the vectored syscalls themselves (empty,
//! adjacent, overlapping batches) is pinned by `dangle-vmm`'s unit and
//! differential tests.

use crate::shadow::{BatchConfig, ShadowConfig, ShadowHeap};
use crate::{ShadowPool, ShadowPoolConfig};
use dangle_heap::{Allocator, SysHeap};
use dangle_vmm::{CostModel, Machine, MachineConfig, VirtAddr};

use dangle_testkit::SeededRng as TestRng;

/// Calibrated costs minus the cache/TLB components: the two runs place
/// shadow pages at different virtual addresses, so set-index noise would
/// blur the cycle comparison. What batching changes — and what the
/// assertion isolates — is the syscall economy.
fn machine() -> Machine {
    Machine::with_config(MachineConfig {
        cost: CostModel { tlb_miss: 0, l1_miss: 0, ..CostModel::calibrated() },
        ..MachineConfig::default()
    })
}

fn batched_pool() -> ShadowPool {
    let batch = BatchConfig { enabled: true, ..BatchConfig::default() };
    ShadowPool::with_config(ShadowPoolConfig { batch, ..ShadowPoolConfig::default() })
}

/// One tracked object: its address in the legacy run, in the batched run,
/// and whether the trace freed it.
#[derive(Clone, Copy)]
struct Obj {
    legacy: VirtAddr,
    batched: VirtAddr,
    freed: bool,
}

#[test]
fn shadow_pool_batched_matches_legacy() {
    for case in 0..24u64 {
        let mut rng = TestRng::new(0xb17c_0de5 ^ (case.wrapping_mul(0x9e37_79b9)));
        let mut ml = machine();
        let mut sl = ShadowPool::new();
        let mut mb = machine();
        let mut sb = batched_pool();

        let mut pools = vec![(sl.create(16), sb.create(16))];
        let mut destroyed = vec![false];
        let mut objs: Vec<Vec<Obj>> = vec![Vec::new()];

        for _ in 0..40 {
            match rng.below(12) {
                0 => {
                    pools.push((sl.create(16), sb.create(16)));
                    destroyed.push(false);
                    objs.push(Vec::new());
                }
                1..=5 => {
                    // Burst of same-class allocations — the shape extents
                    // amortise over (see module docs).
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] {
                        continue;
                    }
                    let size = [16usize, 32, 64, 6000][rng.below(4) as usize];
                    let count = 4 + rng.below(12) as usize;
                    for _ in 0..count {
                        let al = sl.alloc(&mut ml, pools[pi].0, size).unwrap();
                        let ab = sb.alloc(&mut mb, pools[pi].1, size).unwrap();
                        ml.store_u64(al, al.raw()).unwrap();
                        mb.store_u64(ab, al.raw()).unwrap();
                        objs[pi].push(Obj { legacy: al, batched: ab, freed: false });
                    }
                }
                6..=8 => {
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] || objs[pi].is_empty() {
                        continue;
                    }
                    let oi = rng.below(objs[pi].len() as u64) as usize;
                    let o = objs[pi][oi];
                    let rl = sl.free(&mut ml, pools[pi].0, o.legacy);
                    let rb = sb.free(&mut mb, pools[pi].1, o.batched);
                    assert_eq!(rl.is_ok(), rb.is_ok(), "case {case}: free outcome");
                    if o.freed {
                        // A double free must be detected by both, as the
                        // same kind of report.
                        assert!(rl.is_err(), "case {case}: double free undetected");
                        assert_eq!(
                            sl.last_report().map(|r| r.kind),
                            sb.last_report().map(|r| r.kind),
                            "case {case}"
                        );
                    } else {
                        objs[pi][oi].freed = true;
                    }
                }
                9 | 10 => {
                    // Probe a random object: liveness must agree, and a
                    // trapped probe must be attributed identically.
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] || objs[pi].is_empty() {
                        continue;
                    }
                    let o = objs[pi][rng.below(objs[pi].len() as u64) as usize];
                    let rl = ml.load_u64(o.legacy);
                    let rb = mb.load_u64(o.batched);
                    assert_eq!(rl.is_ok(), rb.is_ok(), "case {case}: probe liveness");
                    if let (Err(tl), Err(tb)) = (rl, rb) {
                        assert_eq!(
                            sl.explain(&tl).map(|r| r.kind),
                            sb.explain(&tb).map(|r| r.kind),
                            "case {case}: trap attribution"
                        );
                    }
                }
                _ => {
                    let pi = rng.below(pools.len() as u64) as usize;
                    if destroyed[pi] {
                        continue;
                    }
                    sl.destroy(&mut ml, pools[pi].0).unwrap();
                    sb.destroy(&mut mb, pools[pi].1).unwrap();
                    destroyed[pi] = true;
                    objs[pi].clear();
                }
            }
        }

        // Final sweep: every tracked object of every live pool has the
        // same liveness, the same registry state, and freed objects trap
        // in both runs.
        for (pi, list) in objs.iter().enumerate() {
            if destroyed[pi] {
                continue;
            }
            for o in list {
                let rl = ml.load_u64(o.legacy);
                let rb = mb.load_u64(o.batched);
                assert_eq!(rl.is_ok(), rb.is_ok(), "case {case}: final sweep");
                assert_eq!(rl.is_ok(), !o.freed, "case {case}: protection map");
                let recl = sl.object_at(o.legacy).expect("tracked in legacy registry");
                let recb = sb.object_at(o.batched).expect("tracked in batched registry");
                assert_eq!(recl.size, recb.size, "case {case}");
                assert_eq!(recl.state, recb.state, "case {case}");
            }
        }
        assert_eq!(ml.stats().traps, mb.stats().traps, "case {case}: trap totals");
        assert!(
            mb.clock() <= ml.clock(),
            "case {case}: batched ({}) must not cost more than legacy ({})",
            mb.clock(),
            ml.clock()
        );
    }
}

#[test]
fn shadow_heap_batched_matches_legacy() {
    for case in 0..16u64 {
        let mut rng = TestRng::new(0x5ead_0001 + case * 0x9e37_79b9);
        // Threshold recycling is off for the differential trace: the two
        // runs consume virtual pages at different rates (extents pre-alias
        // ahead of demand), so a VA threshold fires at different trace
        // points and legitimately diverges. Batched recycling itself is
        // pinned by `shadow::tests::batched_recycling_reuses_runs`.
        let mut ml = machine();
        let mut hl = ShadowHeap::with_config(SysHeap::new(), ShadowConfig::default());
        let mut mb = machine();
        let mut hb = ShadowHeap::with_config(
            SysHeap::new(),
            ShadowConfig {
                batch: BatchConfig { enabled: true, ..BatchConfig::default() },
                ..ShadowConfig::default()
            },
        );

        let mut objs: Vec<Obj> = Vec::new();
        for _ in 0..30 {
            match rng.below(8) {
                0..=4 => {
                    let size = [16usize, 32, 64][rng.below(3) as usize];
                    let count = 4 + rng.below(8) as usize;
                    for _ in 0..count {
                        let al = hl.alloc(&mut ml, size).unwrap();
                        let ab = hb.alloc(&mut mb, size).unwrap();
                        ml.store_u64(al, 0xd1ff).unwrap();
                        mb.store_u64(ab, 0xd1ff).unwrap();
                        objs.push(Obj { legacy: al, batched: ab, freed: false });
                    }
                }
                5 | 6 => {
                    if objs.is_empty() {
                        continue;
                    }
                    let oi = rng.below(objs.len() as u64) as usize;
                    let o = objs[oi];
                    let rl = hl.free(&mut ml, o.legacy);
                    let rb = hb.free(&mut mb, o.batched);
                    assert_eq!(rl.is_ok(), rb.is_ok(), "case {case}: free outcome");
                    if o.freed {
                        assert!(rl.is_err(), "case {case}: double free undetected");
                        assert_eq!(
                            hl.last_report().map(|r| r.kind),
                            hb.last_report().map(|r| r.kind),
                            "case {case}"
                        );
                    } else {
                        objs[oi].freed = true;
                    }
                }
                _ => {
                    if objs.is_empty() {
                        continue;
                    }
                    let o = objs[rng.below(objs.len() as u64) as usize];
                    let rl = ml.load_u64(o.legacy);
                    let rb = mb.load_u64(o.batched);
                    assert_eq!(rl.is_ok(), rb.is_ok(), "case {case}: probe liveness");
                }
            }
        }
        for o in &objs {
            let rl = ml.load_u64(o.legacy);
            let rb = mb.load_u64(o.batched);
            assert_eq!(rl.is_ok(), rb.is_ok(), "case {case}: final sweep");
        }
        assert_eq!(ml.stats().traps, mb.stats().traps, "case {case}");
        assert!(
            mb.clock() <= ml.clock(),
            "case {case}: batched ({}) vs legacy ({})",
            mb.clock(),
            ml.clock()
        );
    }
}

/// Epoch mode trades the detection window for fewer crossings; after a
/// final flush its protection map must match the legacy map exactly, and
/// it must be strictly cheaper than eager batching on free-heavy traces.
#[test]
fn epoch_mode_converges_to_legacy_protection_map() {
    for case in 0..8u64 {
        let mut rng = TestRng::new(0xe70c_0001 + case * 0x9e37_79b9);
        let mut ml = machine();
        let mut sl = ShadowPool::new();
        let mut mb = machine();
        let batch =
            BatchConfig { enabled: true, protect_epoch: Some(8), ..BatchConfig::default() };
        let mut sb =
            ShadowPool::with_config(ShadowPoolConfig { batch, ..ShadowPoolConfig::default() });
        let pl = sl.create(16);
        let pb = sb.create(16);

        let mut objs: Vec<Obj> = Vec::new();
        for _ in 0..6 {
            for _ in 0..12 {
                let al = sl.alloc(&mut ml, pl, 16).unwrap();
                let ab = sb.alloc(&mut mb, pb, 16).unwrap();
                objs.push(Obj { legacy: al, batched: ab, freed: false });
            }
            // Free a random half of everything still live.
            for o in objs.iter_mut() {
                if !o.freed && rng.below(2) == 0 {
                    sl.free(&mut ml, pl, o.legacy).unwrap();
                    sb.free(&mut mb, pb, o.batched).unwrap();
                    o.freed = true;
                }
            }
        }
        sb.flush_protects(&mut mb).unwrap();
        for o in &objs {
            assert_eq!(
                ml.load_u64(o.legacy).is_ok(),
                mb.load_u64(o.batched).is_ok(),
                "case {case}: protection maps diverge after flush"
            );
        }
        assert!(
            mb.clock() < ml.clock(),
            "case {case}: epoch batching must be strictly cheaper, {} vs {}",
            mb.clock(),
            ml.clock()
        );
        assert!(mb.stats().mprotect_batch_calls > 0, "case {case}: vectored flushes used");
    }
}

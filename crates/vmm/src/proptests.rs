//! Randomized model tests for the machine's core invariants: aliasing
//! coherence, protection monotonicity, frame refcounting, and VA non-reuse.
//!
//! Uses a small deterministic xorshift generator instead of an external
//! property-testing crate — the build environment is offline, and
//! reproducibility matters more than shrinking here (every failure prints
//! its case seed).

#![cfg(test)]

use crate::machine::{Machine, Protection};
use crate::VirtAddr;
use dangle_telemetry::EventKind;

use dangle_testkit::SeededRng as TestRng;

#[derive(Clone, Debug)]
enum Op {
    Mmap { pages: usize },
    Alias { of: usize },
    Protect { of: usize, prot: u8 },
    Unmap { of: usize },
    Store { of: usize, offset: usize, value: u64 },
    Load { of: usize, offset: usize },
}

/// Mirrors the old proptest weighting: 2:2:2:1:3:3.
fn random_op(rng: &mut TestRng) -> Op {
    match rng.below(13) {
        0 | 1 => Op::Mmap { pages: 1 + rng.below(3) as usize },
        2 | 3 => Op::Alias { of: rng.next() as usize },
        4 | 5 => Op::Protect { of: rng.next() as usize, prot: rng.below(3) as u8 },
        6 => Op::Unmap { of: rng.next() as usize },
        7..=9 => Op::Store {
            of: rng.next() as usize,
            offset: rng.below(4000) as usize,
            value: rng.next(),
        },
        _ => Op::Load { of: rng.next() as usize, offset: rng.below(4000) as usize },
    }
}

/// Host-side model of one mapped page-run.
#[derive(Clone, Debug)]
struct Region {
    base: VirtAddr,
    pages: usize,
    prot: Protection,
    /// Frame-sharing group this region belongs to (index into `group_data`).
    alias_group: usize,
    live: bool,
}

/// Model-based test: the machine agrees with a simple host-side model of
/// mappings, aliasing and protection under arbitrary syscall and access
/// sequences.
#[test]
fn machine_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = TestRng::new(0x6d6d_7531 + case * 0x9e37_79b9);
        let nops = 1 + rng.below(59) as usize;
        run_case(&mut rng, nops, case);
    }
}

fn run_case(rng: &mut TestRng, nops: usize, case: u64) {
    let mut m = Machine::free_running();
    let mut regions: Vec<Region> = Vec::new();
    // Model of memory contents per alias group: group -> bytes.
    let mut group_data: Vec<Vec<u8>> = Vec::new();

    for _ in 0..nops {
        match random_op(rng) {
            Op::Mmap { pages } => {
                let base = m.mmap(pages).unwrap();
                // Fresh VA: must not overlap any previous region.
                for r in &regions {
                    let disjoint = base.raw() >= r.base.raw() + (r.pages * 4096) as u64
                        || r.base.raw() >= base.raw() + (pages * 4096) as u64;
                    assert!(disjoint, "case {case}: mmap must never reuse VA");
                }
                let group = group_data.len();
                group_data.push(vec![0u8; pages * 4096]);
                regions.push(Region {
                    base,
                    pages,
                    prot: Protection::ReadWrite,
                    alias_group: group,
                    live: true,
                });
            }
            Op::Alias { of } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                if !regions[i].live {
                    continue;
                }
                let (src, pages, group) =
                    (regions[i].base, regions[i].pages, regions[i].alias_group);
                let alias = m.mremap_alias(&[(src, pages)]).unwrap();
                regions.push(Region {
                    base: alias,
                    pages,
                    prot: Protection::ReadWrite,
                    alias_group: group,
                    live: true,
                });
            }
            Op::Protect { of, prot } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                if !regions[i].live {
                    continue;
                }
                let p = match prot {
                    0 => Protection::None,
                    1 => Protection::Read,
                    _ => Protection::ReadWrite,
                };
                m.mprotect(&[(regions[i].base, regions[i].pages)], p).unwrap();
                regions[i].prot = p;
            }
            Op::Unmap { of } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                if !regions[i].live {
                    continue;
                }
                m.munmap(&[(regions[i].base, regions[i].pages)]).unwrap();
                regions[i].live = false;
            }
            Op::Store { of, offset, value } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                let r = regions[i].clone();
                let offset = offset % (r.pages * 4096 - 7);
                let res = m.store_u64(r.base.add(offset as u64), value);
                if r.live && r.prot == Protection::ReadWrite {
                    assert!(res.is_ok(), "case {case}: store should succeed");
                    group_data[r.alias_group][offset..offset + 8]
                        .copy_from_slice(&value.to_le_bytes());
                } else {
                    assert!(res.is_err(), "case {case}: store must fail on {:?}", r.prot);
                }
            }
            Op::Load { of, offset } => {
                if regions.is_empty() {
                    continue;
                }
                let i = of % regions.len();
                let r = regions[i].clone();
                let offset = offset % (r.pages * 4096 - 7);
                let res = m.load_u64(r.base.add(offset as u64));
                if r.live && r.prot != Protection::None {
                    let expect = u64::from_le_bytes(
                        group_data[r.alias_group][offset..offset + 8].try_into().unwrap(),
                    );
                    assert_eq!(res.unwrap(), expect, "case {case}: aliases must stay coherent");
                } else {
                    assert!(res.is_err(), "case {case}: load must fail on {:?}", r.prot);
                }
            }
        }
    }
    // Frame accounting: number of frames in use equals the number of alias
    // groups with at least one live region (frames are per page, so weight
    // by pages).
    let mut live_group_pages = std::collections::HashMap::new();
    for r in &regions {
        if r.live {
            live_group_pages.insert(r.alias_group, r.pages as u64);
        }
    }
    let expected: u64 = live_group_pages.values().sum();
    assert_eq!(m.stats().phys_frames_in_use, expected, "case {case}: frame refcounting");
}

/// Differential test for the page-table implementations: a `Reference`
/// (flat `HashMap`, no last-translation cache) machine and a `Radix`
/// machine driven through identical randomized syscall/access sequences
/// must produce identical results — every `Ok`/`Trap`, the simulated
/// clock, the full `MachineStats`, and the TLB counters. This is the
/// guarantee that lets `simperf` call its speedup "free".
#[test]
fn radix_machine_is_bit_identical_to_reference() {
    use crate::cache::CacheConfig;
    use crate::cost::CostModel;
    use crate::machine::MachineConfig;
    use crate::pagetable::PageTableImpl;
    use crate::tlb::TlbConfig;
    use dangle_telemetry::TelemetryConfig;

    for case in 0..48u64 {
        let config = MachineConfig {
            cost: CostModel::calibrated(),
            tlb: TlbConfig::default(),
            cache: CacheConfig::default(),
            phys_frames: 64, // small, so exhaustion traps are exercised too
            virt_pages: 1 << 20,
            telemetry: TelemetryConfig::default(),
            page_table: PageTableImpl::Reference,
            cores: 1,
        };
        let mut reference = Machine::with_config(config);
        let mut radix =
            Machine::with_config(MachineConfig { page_table: PageTableImpl::Radix, ..config });
        let mut rng = TestRng::new(0xd1ff_0001 + case * 0x9e37_79b9);
        let mut regions: Vec<(VirtAddr, usize)> = Vec::new();

        for step in 0..300 {
            let tag = format!("case {case} step {step}");
            match rng.below(20) {
                0 | 1 => {
                    let pages = 1 + rng.below(3) as usize;
                    let (a, b) = (reference.mmap(pages), radix.mmap(pages));
                    assert_eq!(a, b, "{tag}: mmap");
                    if let Ok(base) = a {
                        regions.push((base, pages));
                    }
                }
                2 if !regions.is_empty() => {
                    let (a, p) = regions[rng.below(regions.len() as u64) as usize];
                    assert_eq!(
                        reference.mmap_fixed(&[(a, p)]),
                        radix.mmap_fixed(&[(a, p)]),
                        "{tag}: mmap_fixed"
                    );
                }
                3 if !regions.is_empty() => {
                    let (a, p) = regions[rng.below(regions.len() as u64) as usize];
                    let (x, y) = (reference.mremap_alias(&[(a, p)]), radix.mremap_alias(&[(a, p)]));
                    assert_eq!(x, y, "{tag}: mremap_alias");
                    if let Ok(alias) = x {
                        regions.push((alias, p));
                    }
                }
                4 if regions.len() >= 2 => {
                    let (src, sp) = regions[rng.below(regions.len() as u64) as usize];
                    let (dst, dp) = regions[rng.below(regions.len() as u64) as usize];
                    let p = sp.min(dp);
                    assert_eq!(
                        reference.alias_fixed(&[(src, dst, p)]),
                        radix.alias_fixed(&[(src, dst, p)]),
                        "{tag}: alias_fixed"
                    );
                }
                5 | 6 if !regions.is_empty() => {
                    let (a, p) = regions[rng.below(regions.len() as u64) as usize];
                    let prot = match rng.below(3) {
                        0 => Protection::None,
                        1 => Protection::Read,
                        _ => Protection::ReadWrite,
                    };
                    assert_eq!(
                        reference.mprotect(&[(a, p)], prot),
                        radix.mprotect(&[(a, p)], prot),
                        "{tag}: mprotect"
                    );
                }
                7 if !regions.is_empty() => {
                    let i = rng.below(regions.len() as u64) as usize;
                    let (a, p) = regions[i];
                    let (x, y) = (reference.munmap(&[(a, p)]), radix.munmap(&[(a, p)]));
                    assert_eq!(x, y, "{tag}: munmap");
                    // Keep the region so later ops hit unmapped pages too.
                }
                8..=10 if !regions.is_empty() => {
                    let (a, p) = regions[rng.below(regions.len() as u64) as usize];
                    let off = rng.below((p * 4096 - 8) as u64);
                    let v = rng.next();
                    assert_eq!(
                        reference.store_u64(a.add(off), v),
                        radix.store_u64(a.add(off), v),
                        "{tag}: store"
                    );
                }
                11..=13 if !regions.is_empty() => {
                    let (a, p) = regions[rng.below(regions.len() as u64) as usize];
                    let off = rng.below((p * 4096 - 8) as u64);
                    assert_eq!(
                        reference.load_u64(a.add(off)),
                        radix.load_u64(a.add(off)),
                        "{tag}: load"
                    );
                }
                14 if !regions.is_empty() => {
                    let (a, p) = regions[rng.below(regions.len() as u64) as usize];
                    let len = 1 + rng.below((p * 4096) as u64 / 2) as usize;
                    let off = rng.below((p * 4096 - len) as u64 + 1);
                    let byte = rng.next() as u8;
                    assert_eq!(
                        reference.memset(a.add(off), byte, len),
                        radix.memset(a.add(off), byte, len),
                        "{tag}: memset"
                    );
                    let mut b1 = vec![0u8; len];
                    let mut b2 = vec![0u8; len];
                    let r1 = reference.read_bytes(a.add(off), &mut b1);
                    let r2 = radix.read_bytes(a.add(off), &mut b2);
                    assert_eq!(r1, r2, "{tag}: read_bytes");
                    if r1.is_ok() {
                        assert_eq!(b1, b2, "{tag}: read_bytes contents");
                    }
                }
                15 if regions.len() >= 2 => {
                    let (src, sp) = regions[rng.below(regions.len() as u64) as usize];
                    let (dst, dp) = regions[rng.below(regions.len() as u64) as usize];
                    let len = 1 + rng.below(4096.min((sp.min(dp) * 4096) as u64 / 2)) as usize;
                    assert_eq!(
                        reference.copy(dst, src, len),
                        radix.copy(dst, src, len),
                        "{tag}: copy"
                    );
                }
                // Vectored syscalls: random range sets, which sometimes
                // overlap or hit unmapped pages — error paths must agree
                // bit-for-bit too.
                16 if !regions.is_empty() => {
                    let n = 1 + rng.below(3) as usize;
                    let batch: Vec<_> = (0..n)
                        .map(|_| regions[rng.below(regions.len() as u64) as usize])
                        .collect();
                    let prot = match rng.below(3) {
                        0 => Protection::None,
                        1 => Protection::Read,
                        _ => Protection::ReadWrite,
                    };
                    assert_eq!(
                        reference.mprotect(&batch, prot),
                        radix.mprotect(&batch, prot),
                        "{tag}: vectored mprotect"
                    );
                }
                17 if !regions.is_empty() => {
                    let n = 1 + rng.below(3) as usize;
                    let batch: Vec<_> = (0..n)
                        .map(|_| regions[rng.below(regions.len() as u64) as usize])
                        .collect();
                    let (x, y) = (reference.mremap_alias(&batch), radix.mremap_alias(&batch));
                    assert_eq!(x, y, "{tag}: vectored mremap_alias");
                    if let Ok(mut alias) = x {
                        for (_, p) in batch {
                            regions.push((alias, p));
                            alias = alias.add((p * 4096) as u64);
                        }
                    }
                }
                18 if !regions.is_empty() => {
                    let n = 1 + rng.below(3) as usize;
                    let batch: Vec<_> = (0..n)
                        .map(|_| regions[rng.below(regions.len() as u64) as usize])
                        .collect();
                    assert_eq!(
                        reference.mmap_fixed(&batch),
                        radix.mmap_fixed(&batch),
                        "{tag}: vectored mmap_fixed"
                    );
                }
                19 if regions.len() >= 2 => {
                    let n = 1 + rng.below(2) as usize;
                    let batch: Vec<_> = (0..n)
                        .map(|_| {
                            let (src, sp) = regions[rng.below(regions.len() as u64) as usize];
                            let (dst, dp) = regions[rng.below(regions.len() as u64) as usize];
                            (src, dst, sp.min(dp))
                        })
                        .collect();
                    assert_eq!(
                        reference.alias_fixed(&batch),
                        radix.alias_fixed(&batch),
                        "{tag}: vectored alias_fixed"
                    );
                }
                _ => {
                    reference.dummy_syscall();
                    radix.dummy_syscall();
                }
            }
        }

        assert_eq!(reference.clock(), radix.clock(), "case {case}: clock");
        assert_eq!(reference.stats(), radix.stats(), "case {case}: stats");
        assert_eq!(reference.tlb().hits(), radix.tlb().hits(), "case {case}: tlb hits");
        assert_eq!(reference.tlb().misses(), radix.tlb().misses(), "case {case}: tlb misses");
        assert_eq!(reference.cache().hits(), radix.cache().hits(), "case {case}: l1 hits");
        assert_eq!(
            reference.cache().misses(),
            radix.cache().misses(),
            "case {case}: l1 misses"
        );
    }
}

/// Telemetry accuracy: the registry's per-kind event counters must agree
/// with `MachineStats` for arbitrary syscall sequences.
#[test]
fn telemetry_counters_match_stats_under_random_syscalls() {
    for case in 0..16u64 {
        let mut rng = TestRng::new(0x7e1e_0001 + case);
        let mut m = Machine::free_running();
        let mut live: Vec<(VirtAddr, usize)> = Vec::new();
        for _ in 0..200 {
            match rng.below(7) {
                0 => {
                    let pages = 1 + rng.below(3) as usize;
                    let a = m.mmap(pages).unwrap();
                    live.push((a, pages));
                }
                1 if !live.is_empty() => {
                    let (a, p) = live[rng.below(live.len() as u64) as usize];
                    let alias = m.mremap_alias(&[(a, p)]).unwrap();
                    live.push((alias, p));
                }
                2 if !live.is_empty() => {
                    let (a, p) = live[rng.below(live.len() as u64) as usize];
                    m.mprotect(&[(a, p)], Protection::Read).unwrap();
                    m.mprotect(&[(a, p)], Protection::ReadWrite).unwrap();
                }
                3 if !live.is_empty() => {
                    let i = rng.below(live.len() as u64) as usize;
                    let (a, p) = live.swap_remove(i);
                    m.munmap(&[(a, p)]).unwrap();
                }
                // A vectored mprotect is ONE crossing: one family counter
                // bump and one ring event, however many ranges it carries.
                4 if live.len() >= 2 => {
                    let i = rng.below(live.len() as u64) as usize;
                    let mut j = rng.below(live.len() as u64) as usize;
                    if i == j {
                        j = (j + 1) % live.len();
                    }
                    let batch = [live[i], live[j]];
                    m.mprotect(&batch, Protection::Read).unwrap();
                    m.mprotect(&batch, Protection::ReadWrite).unwrap();
                }
                5 if !live.is_empty() => {
                    let (a, p) = live[rng.below(live.len() as u64) as usize];
                    let alias = m.mremap_alias(&[(a, p), (a, p)]).unwrap();
                    live.push((alias, p));
                    live.push((alias.add((p * 4096) as u64), p));
                }
                _ => m.dummy_syscall(),
            }
        }
        let t = m.telemetry();
        let s = m.stats();
        assert_eq!(t.counter("event.mmap"), s.mmap_calls, "case {case}");
        assert_eq!(t.counter("event.mremap"), s.mremap_calls, "case {case}");
        assert_eq!(t.counter("event.mprotect"), s.mprotect_calls, "case {case}");
        assert_eq!(t.counter("event.munmap"), s.munmap_calls, "case {case}");
        assert_eq!(t.counter("event.dummy_syscall"), s.dummy_calls, "case {case}");
        // Every syscall event was recorded in the ring too.
        assert_eq!(m.telemetry().ring().total_recorded(), s.total_syscalls());
    }
}

/// A directed sequence with known counts, including trap events, plus the
/// machine-derived snapshot gauges.
#[test]
fn telemetry_counters_match_known_sequence() {
    let mut m = Machine::free_running();
    let a = m.mmap(2).unwrap(); // 1 mmap
    let b = m.mremap_alias(&[(a, 2)]).unwrap(); // 1 mremap
    m.store_u64(a, 7).unwrap();
    m.mprotect(&[(b, 2)], Protection::None).unwrap(); // 1 mprotect
    assert!(m.load_u64(b).is_err()); // 1 trap
    m.dummy_syscall(); // 1 dummy
    m.munmap(&[(a, 2)]).unwrap(); // 1 munmap
    let t = m.telemetry();
    assert_eq!(t.counter("event.mmap"), 1);
    assert_eq!(t.counter("event.mremap"), 1);
    assert_eq!(t.counter("event.mprotect"), 1);
    assert_eq!(t.counter("event.munmap"), 1);
    assert_eq!(t.counter("event.dummy_syscall"), 1);
    assert_eq!(t.counter("event.trap"), 1);
    let snap = m.metrics_snapshot();
    assert_eq!(snap.counter("vmm.traps"), 1);
    assert_eq!(snap.counter("vmm.loads"), m.stats().loads);
    assert_eq!(snap.counter("vmm.virt_pages_consumed"), m.virt_pages_consumed());
    // The ring saw the trap last-but-two (dummy + munmap follow).
    let tail = m.telemetry().tail(3);
    assert!(matches!(tail[0].kind, EventKind::Trap));
}

/// A disabled sink records nothing and costs nothing observable.
#[test]
fn disabled_telemetry_is_silent() {
    use crate::machine::MachineConfig;
    use dangle_telemetry::TelemetryConfig;
    let mut m = Machine::with_config(MachineConfig {
        telemetry: TelemetryConfig::disabled(),
        ..MachineConfig::default()
    });
    let a = m.mmap(1).unwrap();
    m.store_u64(a, 1).unwrap();
    m.dummy_syscall();
    assert_eq!(m.telemetry().ring().len(), 0);
    assert_eq!(m.telemetry().counter("event.mmap"), 0);
    assert_eq!(m.stats().mmap_calls, 1, "stats still work");
}

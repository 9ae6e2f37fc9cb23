//! The contract every mapping syscall of the simulated machine keeps.
//!
//! `mmap_fixed`, `mremap_alias`, `alias_fixed`, `mprotect` and `munmap`
//! each take a slice of ranges and apply it in one kernel crossing. A
//! one-range call is the paper's plain syscall: it costs
//! `base + per_page·pages` and is not counted as batched. A call with
//! k ≥ 2 ranges adds `per_range·k`. Either way the call is one crossing and
//! one ring event. A call that fails on its arguments or on virtual-address
//! exhaustion must leave the clock, the counters, the event ring and the
//! page table exactly as they were.

use dangle::telemetry::EventKind;
use dangle::vmm::{
    CostModel, Machine, MachineConfig, MachineStats, PageNum, Protection, Trap, VirtAddr, PAGE_SIZE,
};

/// The five range-taking syscall families.
#[derive(Clone, Copy, Debug)]
enum Family {
    MmapFixed,
    MremapAlias,
    AliasFixed,
    Mprotect,
    Munmap,
}

const FAMILIES: [Family; 5] =
    [Family::MmapFixed, Family::MremapAlias, Family::AliasFixed, Family::Mprotect, Family::Munmap];

impl Family {
    /// Issues the call over `ranges`. `alias_fixed` aliases each range to
    /// the first pages of `canon`.
    fn call(
        self,
        m: &mut Machine,
        canon: VirtAddr,
        ranges: &[(VirtAddr, usize)],
    ) -> Result<(), Trap> {
        match self {
            Family::MmapFixed => m.mmap_fixed(ranges),
            Family::MremapAlias => m.mremap_alias(ranges).map(drop),
            Family::AliasFixed => {
                let entries: Vec<_> = ranges.iter().map(|&(dst, p)| (canon, dst, p)).collect();
                m.alias_fixed(&entries)
            }
            Family::Mprotect => m.mprotect(ranges, Protection::Read),
            Family::Munmap => m.munmap(ranges),
        }
    }

    /// The kernel-entry charge of the family.
    fn base(self, c: &CostModel) -> u64 {
        match self {
            Family::MmapFixed | Family::AliasFixed => c.syscall_mmap,
            Family::MremapAlias => c.syscall_mremap,
            Family::Mprotect => c.syscall_mprotect,
            Family::Munmap => c.syscall_munmap,
        }
    }

    /// Cycles charged on top of the crossing: `mmap_fixed` zeroes one
    /// fresh frame per page.
    fn extra(self, c: &CostModel, pages: usize) -> u64 {
        match self {
            Family::MmapFixed => c.page_zero * pages as u64,
            _ => 0,
        }
    }

    /// The family's crossing counter.
    fn calls(self, s: &MachineStats) -> u64 {
        match self {
            Family::MmapFixed | Family::AliasFixed => s.mmap_calls,
            Family::MremapAlias => s.mremap_calls,
            Family::Mprotect => s.mprotect_calls,
            Family::Munmap => s.munmap_calls,
        }
    }

    /// The ring event one call of `pages` pages records.
    fn event(self, pages: usize) -> EventKind {
        let pages = pages as u32;
        match self {
            Family::MmapFixed | Family::AliasFixed => EventKind::Mmap { pages },
            Family::MremapAlias => EventKind::Mremap { pages },
            Family::Mprotect => EventKind::Mprotect { pages },
            Family::Munmap => EventKind::Munmap { pages },
        }
    }
}

/// A calibrated single-core machine holding a 4-page canonical region, a
/// 4-page shadow alias of it, and one page that was mapped and unmapped
/// again.
struct Fixture {
    m: Machine,
    canon: VirtAddr,
    shadow: VirtAddr,
    gone: VirtAddr,
}

impl Fixture {
    /// `virt_pages` is the VA budget; the fixture itself uses 9 pages.
    fn new(virt_pages: u64) -> Fixture {
        let mut m = Machine::with_config(MachineConfig { virt_pages, ..MachineConfig::default() });
        let canon = m.mmap(4).unwrap();
        let shadow = m.mremap_alias(&[(canon, 4)]).unwrap();
        let gone = m.mmap(1).unwrap();
        m.munmap(&[(gone, 1)]).unwrap();
        Fixture { m, canon, shadow, gone }
    }

    /// Page `i` of the shadow region.
    fn shadow_page(&self, i: u64) -> VirtAddr {
        self.shadow.add(i * PAGE_SIZE as u64)
    }
}

/// Everything a failing call must leave untouched.
#[derive(Debug, PartialEq)]
struct Snapshot {
    clock: u64,
    stats: MachineStats,
    events: u64,
    pages: Vec<(Option<Protection>, Option<u32>)>,
}

fn snapshot(f: &Fixture) -> Snapshot {
    let first = f.canon.page().raw();
    let pages = (first..first + f.m.virt_pages_consumed() + 1)
        .map(|vpn| {
            let a = PageNum(vpn).base();
            (f.m.protection(a), f.m.frame_of(a))
        })
        .collect();
    Snapshot {
        clock: f.m.clock(),
        stats: *f.m.stats(),
        events: f.m.telemetry().ring().total_recorded(),
        pages,
    }
}

/// Runs one successful call over the fixture's `ranges` and checks its
/// cost, counters and ring event.
fn check_success(family: Family, ranges: fn(&Fixture) -> Vec<(VirtAddr, usize)>) {
    let mut f = Fixture::new(1 << 35);
    let ranges = &ranges(&f);
    let c = f.m.config().cost;
    let before = *f.m.stats();
    let (clock, events) = (f.m.clock(), f.m.telemetry().ring().total_recorded());
    let canon = f.canon;
    family.call(&mut f.m, canon, ranges).unwrap_or_else(|e| panic!("{family:?}: {e}"));

    let k = ranges.len();
    let pages: usize = ranges.iter().map(|&(_, p)| p).sum();
    let per_range = if k >= 2 { c.syscall_per_range * k as u64 } else { 0 };
    let cost = family.base(&c) + per_range + c.syscall_per_page * pages as u64;
    let after = *f.m.stats();
    assert_eq!(f.m.clock() - clock, cost + family.extra(&c, pages), "{family:?} x{k}: cost");
    assert_eq!(family.calls(&after), family.calls(&before) + 1, "{family:?} x{k}: one crossing");
    assert_eq!(after.total_syscalls(), before.total_syscalls() + 1, "{family:?} x{k}");
    let batched = if k >= 2 { k as u64 } else { 0 };
    assert_eq!(after.ranges_batched, before.ranges_batched + batched, "{family:?} x{k}");
    let vectored_protect = u64::from(k >= 2 && matches!(family, Family::Mprotect));
    assert_eq!(
        after.mprotect_batch_calls,
        before.mprotect_batch_calls + vectored_protect,
        "{family:?} x{k}: mprotect_batch_calls"
    );
    let ring = f.m.telemetry().ring();
    assert_eq!(ring.total_recorded(), events + 1, "{family:?} x{k}: one ring event");
    let last = ring.iter().last().expect("an event");
    assert_eq!(last.kind, family.event(pages), "{family:?} x{k}: event kind");
    assert_eq!(last.clock, f.m.clock(), "{family:?} x{k}: event stamped after the charge");
}

#[test]
fn one_range_call_is_a_plain_crossing() {
    for family in FAMILIES {
        check_success(family, |f| vec![(f.shadow_page(1), 2)]);
    }
}

#[test]
fn three_range_call_is_one_vectored_crossing() {
    for family in FAMILIES {
        check_success(family, |f| {
            vec![(f.shadow_page(0), 1), (f.shadow_page(1), 1), (f.shadow_page(3), 1)]
        });
    }
}

#[test]
fn empty_call_is_a_silent_noop() {
    for family in FAMILIES {
        let mut f = Fixture::new(1 << 35);
        let before = snapshot(&f);
        let canon = f.canon;
        family.call(&mut f.m, canon, &[]).unwrap();
        assert_eq!(snapshot(&f), before, "{family:?}");
    }
}

/// Issues a call that must fail with `expected` and leave no trace.
fn check_failure(f: &mut Fixture, family: Family, ranges: &[(VirtAddr, usize)], expected: Trap) {
    let before = snapshot(f);
    let canon = f.canon;
    let err = family.call(&mut f.m, canon, ranges).expect_err("the call must fail");
    assert_eq!(err, expected, "{family:?} {ranges:?}");
    assert_eq!(snapshot(f), before, "{family:?} {ranges:?}: a failed call leaves no trace");
}

fn bad(addr: VirtAddr) -> Trap {
    Trap::BadSyscallArgument { addr }
}

#[test]
fn zero_page_range_fails_without_side_effects() {
    for family in FAMILIES {
        let mut f = Fixture::new(1 << 35);
        let s = f.shadow;
        check_failure(&mut f, family, &[(s, 0)], bad(s));
        let s2 = f.shadow_page(2);
        check_failure(&mut f, family, &[(s, 1), (s2, 0)], bad(s2));
    }
}

#[test]
fn range_beyond_the_address_space_fails_without_side_effects() {
    for family in FAMILIES {
        let mut f = Fixture::new(1 << 35);
        let s = f.shadow;
        check_failure(&mut f, family, &[(s, usize::MAX)], bad(s));
        check_failure(&mut f, family, &[(s, 1 << 36)], bad(s));
    }
}

#[test]
fn overlapping_ranges_fail_without_side_effects() {
    // `mremap_alias` only reads its ranges, so its sources may overlap.
    for family in [Family::MmapFixed, Family::AliasFixed, Family::Mprotect, Family::Munmap] {
        let mut f = Fixture::new(1 << 35);
        let (s0, s1) = (f.shadow_page(0), f.shadow_page(1));
        check_failure(&mut f, family, &[(s0, 2), (s1, 2)], bad(s1));
        check_failure(&mut f, family, &[(s1, 1), (s0, 3)], bad(s1));
    }
}

#[test]
fn unmapped_source_fails_without_side_effects() {
    let mut f = Fixture::new(1 << 35);
    let (gone, s) = (f.gone, f.shadow);
    check_failure(&mut f, Family::MremapAlias, &[(gone, 1)], bad(gone));
    check_failure(&mut f, Family::MremapAlias, &[(s, 1), (gone, 1)], bad(gone));
    check_failure(&mut f, Family::Mprotect, &[(gone, 1)], bad(gone));
    check_failure(&mut f, Family::Mprotect, &[(s, 1), (gone, 1)], bad(gone));
    // A range running off the end of the shadow run into the unmapped page.
    let s3 = f.shadow_page(3);
    check_failure(&mut f, Family::Mprotect, &[(s3, 2)], bad(gone));
    for entries in [vec![(gone, s, 1)], vec![(f.canon, s, 1), (gone, f.shadow_page(1), 1)]] {
        let before = snapshot(&f);
        assert_eq!(f.m.alias_fixed(&entries), Err(bad(gone)), "alias_fixed {entries:?}");
        assert_eq!(snapshot(&f), before, "alias_fixed {entries:?}: a failed call leaves no trace");
    }
}

#[test]
fn destination_outside_handed_out_pages_fails_without_side_effects() {
    for family in [Family::MmapFixed, Family::AliasFixed] {
        let mut f = Fixture::new(1 << 35);
        let never = PageNum(1 << 30).base();
        check_failure(&mut f, family, &[(never, 1)], bad(never));
        let unaligned = f.shadow.add(8);
        check_failure(&mut f, family, &[(unaligned, 1)], bad(unaligned));
    }
}

#[test]
fn virtual_address_exhaustion_fails_without_side_effects() {
    // The fixture uses exactly its 9-page budget.
    let mut f = Fixture::new(9);
    let s = f.shadow;
    check_failure(&mut f, Family::MremapAlias, &[(s, 1)], Trap::OutOfVirtualMemory);
    check_failure(&mut f, Family::MremapAlias, &[(s, 1), (s, 1)], Trap::OutOfVirtualMemory);
}

//! Diagnostics: turning raw MMU traps into actionable dangling-pointer
//! reports.
//!
//! The real system catches SIGSEGV and maps the faulting address back to an
//! object. The simulator does the same: the detector keeps a registry from
//! shadow pages to object records (allocation site, free site, extent), and
//! [`explain`](crate::ShadowHeap::explain) converts a [`Trap`] into a
//! [`DanglingReport`].

use dangle_telemetry::TrapReport;
use dangle_vmm::{AccessKind, Machine, PageNum, Trap, VirtAddr};
use std::collections::HashMap;
use std::fmt;

/// An interned source location ("site"): a `malloc`/`free` call site, a
/// function name, a line — whatever granularity the embedder wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The anonymous site used when the caller does not tag operations.
    pub const UNKNOWN: SiteId = SiteId(0);
}

/// Interns human-readable site labels.
#[derive(Debug, Clone)]
pub struct SiteTable {
    names: Vec<String>,
}

impl SiteTable {
    /// Creates a table containing only the `<unknown>` site.
    pub fn new() -> SiteTable {
        SiteTable { names: vec!["<unknown>".to_string()] }
    }

    /// Interns `name`, returning its id (existing id if already interned).
    pub fn intern(&mut self, name: &str) -> SiteId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return SiteId(i as u32);
        }
        self.names.push(name.to_string());
        SiteId(self.names.len() as u32 - 1)
    }

    /// The label of `site`.
    pub fn name(&self, site: SiteId) -> &str {
        self.names.get(site.0 as usize).map_or("<invalid site>", String::as_str)
    }
}

impl Default for SiteTable {
    fn default() -> SiteTable {
        SiteTable::new()
    }
}

/// Lifecycle state of a tracked object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectState {
    /// Allocated, not yet freed.
    Live,
    /// Freed; its shadow pages are protected.
    Freed {
        /// Where the free happened.
        free_site: SiteId,
    },
}

/// What the detector knows about one allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectRecord {
    /// The (shadow) address handed to the program.
    pub base: VirtAddr,
    /// Requested size in bytes.
    pub size: usize,
    /// Where the allocation happened.
    pub alloc_site: SiteId,
    /// Live or freed.
    pub state: ObjectState,
    /// Whether this object was protected by a *probabilistic* sampling
    /// draw (1 < N < ∞). Deterministic protection — sampling off, or
    /// N = 1 — leaves this `false`, which is what makes the N = 1 trap
    /// reports byte-identical to the unsampled detector's.
    pub sampled: bool,
}

/// The kind of dangling use detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DanglingKind {
    /// A load through a pointer to freed memory.
    Read,
    /// A store through a pointer to freed memory.
    Write,
    /// A second `free` of the same object.
    DoubleFree,
}

impl fmt::Display for DanglingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DanglingKind::Read => write!(f, "dangling read"),
            DanglingKind::Write => write!(f, "dangling write"),
            DanglingKind::DoubleFree => write!(f, "double free"),
        }
    }
}

/// A fully attributed dangling-pointer diagnosis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DanglingReport {
    /// The kind of misuse.
    pub kind: DanglingKind,
    /// The faulting address.
    pub fault_addr: VirtAddr,
    /// The object the fault landed in.
    pub object: ObjectRecord,
}

impl DanglingReport {
    /// Renders the report with site names from `sites`.
    pub fn render(&self, sites: &SiteTable) -> String {
        let free_site = match self.object.state {
            ObjectState::Freed { free_site } => sites.name(free_site).to_string(),
            ObjectState::Live => "<not freed>".to_string(),
        };
        format!(
            "{} at {} (offset {} into {}-byte object allocated at `{}`, freed at `{}`)",
            self.kind,
            self.fault_addr,
            self.fault_addr.raw().saturating_sub(self.object.base.raw()),
            self.object.size,
            sites.name(self.object.alloc_site),
            free_site,
        )
    }

    /// Builds the structured, JSON-serializable [`TrapReport`] for this
    /// diagnosis: site names resolved through `sites`, the machine's clock
    /// as the trap time, and the last `context_events` entries of the
    /// machine's event ring as trailing context (GWP-ASan style).
    pub fn to_telemetry(
        &self,
        sites: &SiteTable,
        machine: &Machine,
        use_site: &str,
        context_events: usize,
        registry: &ObjectRegistry,
    ) -> TrapReport {
        let free_site = match self.object.state {
            ObjectState::Freed { free_site } => Some(sites.name(free_site).to_string()),
            ObjectState::Live => None,
        };
        let (alloc_stack, free_stack) = registry
            .stacks(self.object.base)
            .map(|(a, f)| (a.to_vec(), f.to_vec()))
            .unwrap_or_default();
        let ring = machine.telemetry().ring();
        TrapReport {
            kind: self.kind.to_string(),
            fault_addr: self.fault_addr.raw(),
            clock: machine.clock(),
            object_base: self.object.base.raw(),
            object_size: self.object.size as u64,
            sampled: self.object.sampled,
            alloc_site: sites.name(self.object.alloc_site).to_string(),
            alloc_stack,
            free_site,
            free_stack,
            use_site: use_site.to_string(),
            use_stack: machine.telemetry().call_stack().to_vec(),
            ring_capacity: ring.capacity() as u64,
            ring_dropped: ring.dropped(),
            events: machine.telemetry().tail(context_events),
        }
    }
}

/// Registry from shadow pages to object records.
///
/// One record per tracked allocation; multi-page objects register every
/// page. Each record counts the page entries pointing at it, and when the
/// last one is forgotten — `pooldestroy` dropping the pool's pages, or the
/// §3.4 GC/threshold recycling reclaiming a freed span — the record's slot
/// and its call stacks go back to a free list for the next insert. Host
/// memory therefore tracks the pages still mapped to objects, not every
/// allocation ever made. The heap detector's records persist until §3.4
/// recycling reclaims their pages; without recycling they persist forever,
/// because those shadow pages are never reused.
#[derive(Debug, Default)]
pub struct ObjectRegistry {
    slots: Vec<Slot>,
    /// Slots whose last page entry was forgotten, reused LIFO by inserts.
    free_slots: Vec<usize>,
    by_page: HashMap<PageNum, usize>,
    /// Slot of the most recent insert: the target of
    /// [`ObjectRegistry::note_alloc_stack`] and
    /// [`ObjectRegistry::note_sampled`].
    newest: Option<usize>,
}

/// One registry slot: a record, the number of `by_page` entries naming it,
/// and its call stacks. The stacks live here rather than in
/// [`ObjectRecord`] so the record stays `Copy`; they are empty when the
/// program did not run under the interpreter's shadow call stack.
#[derive(Debug)]
struct Slot {
    record: ObjectRecord,
    pages: usize,
    /// Full call stack at allocation time.
    alloc_stack: Vec<String>,
    /// Full call stack at free time (empty while the object is live).
    free_stack: Vec<String>,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> ObjectRegistry {
        ObjectRegistry::default()
    }

    /// Registers a new live object whose payload starts at `base` (shadow
    /// address) and spans `size` bytes; `span` lists the shadow pages,
    /// starting with the page containing the detector's hidden word.
    pub fn insert(&mut self, base: VirtAddr, size: usize, alloc_site: SiteId, span: &[PageNum]) {
        let idx = self.new_slot(base, size, alloc_site);
        for &p in span {
            self.attach(p, idx);
        }
        self.drop_if_unreferenced(idx);
    }

    /// [`ObjectRegistry::insert`] for a *contiguous* run of shadow pages
    /// (`start`, `start+1`, ..). Shadow spans are always contiguous, so the
    /// hot alloc paths use this to avoid materializing a page list.
    pub fn insert_range(
        &mut self,
        base: VirtAddr,
        size: usize,
        alloc_site: SiteId,
        start: PageNum,
        span: usize,
    ) {
        let idx = self.new_slot(base, size, alloc_site);
        for i in 0..span as u64 {
            self.attach(start.add(i), idx);
        }
        self.drop_if_unreferenced(idx);
    }

    /// A slot holding a fresh live record with no pages and empty stacks,
    /// recycled from the free list when one is available.
    fn new_slot(&mut self, base: VirtAddr, size: usize, alloc_site: SiteId) -> usize {
        let record =
            ObjectRecord { base, size, alloc_site, state: ObjectState::Live, sampled: false };
        let idx = match self.free_slots.pop() {
            Some(idx) => {
                self.slots[idx].record = record;
                idx
            }
            None => {
                let slot =
                    Slot { record, pages: 0, alloc_stack: Vec::new(), free_stack: Vec::new() };
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.newest = Some(idx);
        idx
    }

    /// Points `page` at slot `idx`, releasing whatever record owned it.
    fn attach(&mut self, page: PageNum, idx: usize) {
        let old = self.by_page.insert(page, idx);
        if old != Some(idx) {
            self.slots[idx].pages += 1;
            if let Some(old) = old {
                self.detach(old);
            }
        }
    }

    /// Drops one page reference from slot `idx`, freeing the slot with its
    /// stacks when none is left.
    fn detach(&mut self, idx: usize) {
        self.slots[idx].pages -= 1;
        self.drop_if_unreferenced(idx);
    }

    /// Returns slot `idx` to the free list, dropping its stacks, once no
    /// page entry names it.
    fn drop_if_unreferenced(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if slot.pages == 0 {
            slot.alloc_stack = Vec::new();
            slot.free_stack = Vec::new();
            self.free_slots.push(idx);
            if self.newest == Some(idx) {
                self.newest = None;
            }
        }
    }

    /// Attaches the full call stack at allocation time to the most
    /// recently inserted object. Detector alloc paths call this right
    /// after `insert`/`insert_range` when a shadow call stack is live.
    pub fn note_alloc_stack(&mut self, stack: &[String]) {
        if let Some(idx) = self.newest {
            let slot = &mut self.slots[idx].alloc_stack;
            slot.clear();
            slot.extend_from_slice(stack);
        }
    }

    /// Marks the most recently inserted object as probabilistically
    /// sampled (see [`ObjectRecord::sampled`]). Detector alloc paths call
    /// this right after `insert`/`insert_range` when the sampling policy's
    /// draw — not a deterministic rule — chose protection.
    pub fn note_sampled(&mut self, sampled: bool) {
        if let Some(idx) = self.newest {
            self.slots[idx].record.sampled = sampled;
        }
    }

    /// Marks the object at `base` freed.
    pub fn mark_freed(&mut self, base: VirtAddr, free_site: SiteId) {
        if let Some(&idx) = self.by_page.get(&base.page()) {
            self.slots[idx].record.state = ObjectState::Freed { free_site };
        }
    }

    /// [`ObjectRegistry::mark_freed`], also recording the full call stack
    /// at free time.
    pub fn mark_freed_traced(&mut self, base: VirtAddr, free_site: SiteId, stack: &[String]) {
        if let Some(&idx) = self.by_page.get(&base.page()) {
            let slot = &mut self.slots[idx];
            slot.record.state = ObjectState::Freed { free_site };
            slot.free_stack.clear();
            slot.free_stack.extend_from_slice(stack);
        }
    }

    /// Looks up the object owning `addr`, if any.
    pub fn lookup(&self, addr: VirtAddr) -> Option<&ObjectRecord> {
        self.by_page.get(&addr.page()).map(|&i| &self.slots[i].record)
    }

    /// The (alloc, free) call stacks of the object owning `addr`, if
    /// tracked. Either side is empty when no shadow call stack was live at
    /// the corresponding operation.
    pub fn stacks(&self, addr: VirtAddr) -> Option<(&[String], &[String])> {
        self.by_page.get(&addr.page()).map(|&i| {
            let slot = &self.slots[i];
            (slot.alloc_stack.as_slice(), slot.free_stack.as_slice())
        })
    }

    /// Drops the page entries for `pages` (pool destroy); untracked pages
    /// are ignored. A record whose last page goes frees its slot.
    pub fn forget_pages(&mut self, pages: &[PageNum]) {
        for p in pages {
            self.forget(*p);
        }
    }

    /// [`ObjectRegistry::forget_pages`] for a contiguous run starting at
    /// `start` — the recycling/GC paths drop whole spans at once.
    pub fn forget_range(&mut self, start: PageNum, span: usize) {
        for i in 0..span as u64 {
            self.forget(start.add(i));
        }
    }

    fn forget(&mut self, page: PageNum) {
        if let Some(idx) = self.by_page.remove(&page) {
            self.detach(idx);
        }
    }

    /// Number of page entries currently tracked.
    pub fn tracked_pages(&self) -> usize {
        self.by_page.len()
    }

    /// Number of records still reachable from some page entry (the slots
    /// not on the free list).
    #[cfg(test)]
    fn tracked_records(&self) -> usize {
        self.slots.len() - self.free_slots.len()
    }

    /// Iterates over records that are still reachable from some page entry.
    pub fn live_records(&self) -> impl Iterator<Item = &ObjectRecord> {
        let mut seen: Vec<usize> = self.by_page.values().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        seen.into_iter().map(|i| &self.slots[i].record).collect::<Vec<_>>().into_iter()
    }

    /// Builds a [`DanglingReport`] for `trap` if it falls in a tracked
    /// object. `double_free` forces the kind (used by `free` paths, where
    /// the faulting access is the detector's own header read).
    pub fn explain(&self, trap: &Trap, double_free: bool) -> Option<DanglingReport> {
        let addr = trap.addr()?;
        if !trap.is_access_violation() {
            return None;
        }
        let object = *self.lookup(addr)?;
        let kind = if double_free {
            DanglingKind::DoubleFree
        } else {
            match trap {
                Trap::Protection { access: AccessKind::Write, .. }
                | Trap::Unmapped { access: AccessKind::Write, .. } => DanglingKind::Write,
                _ => DanglingKind::Read,
            }
        };
        Some(DanglingReport { kind, fault_addr: addr, object })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_vmm::Protection;

    #[test]
    fn site_table_interns_and_dedups() {
        let mut t = SiteTable::new();
        let a = t.intern("f");
        let b = t.intern("g");
        assert_eq!(t.intern("f"), a);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "f");
        assert_eq!(t.name(SiteId::UNKNOWN), "<unknown>");
        assert_eq!(t.name(SiteId(999)), "<invalid site>");
    }

    #[test]
    fn registry_lookup_by_any_page_of_span() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(10).base().add(100);
        r.insert(base, 8000, SiteId(1), &[PageNum(10), PageNum(11)]);
        assert!(r.lookup(PageNum(10).base().add(4000)).is_some());
        assert!(r.lookup(PageNum(11).base()).is_some());
        assert!(r.lookup(PageNum(12).base()).is_none());
    }

    #[test]
    fn explain_classifies_kinds() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(5).base().add(8);
        r.insert(base, 16, SiteId(2), &[PageNum(5)]);
        r.mark_freed(base, SiteId(3));

        let read_trap = Trap::Protection {
            addr: base,
            prot: Protection::None,
            access: AccessKind::Read,
        };
        let rep = r.explain(&read_trap, false).unwrap();
        assert_eq!(rep.kind, DanglingKind::Read);
        assert_eq!(rep.object.state, ObjectState::Freed { free_site: SiteId(3) });

        let write_trap = Trap::Protection {
            addr: base.add(4),
            prot: Protection::None,
            access: AccessKind::Write,
        };
        assert_eq!(r.explain(&write_trap, false).unwrap().kind, DanglingKind::Write);
        assert_eq!(r.explain(&write_trap, true).unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn explain_ignores_untracked_and_non_access_traps() {
        let r = ObjectRegistry::new();
        let t = Trap::Protection {
            addr: VirtAddr(0x9000),
            prot: Protection::None,
            access: AccessKind::Read,
        };
        assert!(r.explain(&t, false).is_none());
        assert!(r.explain(&Trap::OutOfPhysicalMemory, false).is_none());
    }

    #[test]
    fn forget_pages_removes_entries() {
        let mut r = ObjectRegistry::new();
        r.insert(PageNum(1).base(), 8, SiteId(0), &[PageNum(1)]);
        r.insert(PageNum(2).base(), 8, SiteId(0), &[PageNum(2)]);
        assert_eq!(r.tracked_pages(), 2);
        r.forget_pages(&[PageNum(1)]);
        assert_eq!(r.tracked_pages(), 1);
        assert!(r.lookup(PageNum(1).base()).is_none());
    }

    #[test]
    fn range_apis_match_slice_apis() {
        let mut by_slice = ObjectRegistry::new();
        let mut by_range = ObjectRegistry::new();
        let base = PageNum(20).base().add(8);
        by_slice.insert(base, 9000, SiteId(4), &[PageNum(20), PageNum(21), PageNum(22)]);
        by_range.insert_range(base, 9000, SiteId(4), PageNum(20), 3);
        for pg in 20..23 {
            assert_eq!(
                by_slice.lookup(PageNum(pg).base()),
                by_range.lookup(PageNum(pg).base())
            );
        }
        assert_eq!(by_slice.tracked_pages(), by_range.tracked_pages());

        by_slice.forget_pages(&[PageNum(20), PageNum(21)]);
        by_range.forget_range(PageNum(20), 2);
        assert_eq!(by_slice.tracked_pages(), by_range.tracked_pages());
        assert!(by_range.lookup(PageNum(20).base()).is_none());
        assert!(by_range.lookup(PageNum(22).base()).is_some());
    }

    #[test]
    fn stack_side_tables_follow_the_object() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(7).base().add(8);
        r.insert_range(base, 32, SiteId(1), PageNum(7), 1);
        r.note_alloc_stack(&["main".to_string(), "make_node".to_string()]);
        // A second object without stacks must not disturb the first.
        r.insert_range(PageNum(8).base(), 8, SiteId(2), PageNum(8), 1);
        r.mark_freed_traced(base, SiteId(3), &["main".to_string(), "drop_node".to_string()]);
        let (alloc, free) = r.stacks(base).unwrap();
        assert_eq!(alloc, ["main", "make_node"]);
        assert_eq!(free, ["main", "drop_node"]);
        let (alloc2, free2) = r.stacks(PageNum(8).base()).unwrap();
        assert!(alloc2.is_empty());
        assert!(free2.is_empty());
    }

    #[test]
    fn multi_page_slot_freed_only_after_last_page() {
        let mut r = ObjectRegistry::new();
        let base = PageNum(30).base().add(8);
        r.insert_range(base, 9000, SiteId(1), PageNum(30), 3);
        r.forget_range(PageNum(30), 2);
        assert_eq!(r.tracked_records(), 1, "one page still names the record");
        assert_eq!(r.lookup(PageNum(32).base()).unwrap().base, base);
        // A new object cannot take the slot while a page still names it.
        r.insert_range(PageNum(40).base(), 8, SiteId(2), PageNum(40), 1);
        assert_eq!(r.tracked_records(), 2);
        assert_eq!(r.lookup(PageNum(32).base()).unwrap().alloc_site, SiteId(1));
        r.forget_pages(&[PageNum(32)]);
        assert_eq!(r.tracked_records(), 1);
        // Forgetting untracked pages is a no-op.
        r.forget_range(PageNum(30), 3);
        assert_eq!(r.tracked_records(), 1);
    }

    #[test]
    fn reused_slot_starts_with_empty_stacks() {
        let mut r = ObjectRegistry::new();
        let old = PageNum(7).base().add(8);
        r.insert_range(old, 32, SiteId(1), PageNum(7), 1);
        r.note_alloc_stack(&["main".to_string(), "make_node".to_string()]);
        r.mark_freed_traced(old, SiteId(3), &["main".to_string(), "drop_node".to_string()]);
        r.forget_range(PageNum(7), 1);
        assert_eq!(r.tracked_records(), 0);

        let new = PageNum(9).base().add(8);
        r.insert_range(new, 16, SiteId(4), PageNum(9), 1);
        assert_eq!(r.tracked_records(), 1, "the freed slot was reused");
        let (alloc, free) = r.stacks(new).unwrap();
        assert!(alloc.is_empty() && free.is_empty(), "{alloc:?} {free:?}");
        let rec = r.lookup(new).unwrap();
        assert_eq!((rec.size, rec.alloc_site, rec.state), (16, SiteId(4), ObjectState::Live));
        assert!(!rec.sampled);
    }

    #[test]
    fn notes_target_the_reused_slot() {
        let mut r = ObjectRegistry::new();
        // Three objects; free the middle slot, then insert into it while
        // a later-pushed slot is still live.
        for pg in [1u64, 2, 3] {
            r.insert_range(PageNum(pg).base().add(8), 8, SiteId(pg as u32), PageNum(pg), 1);
        }
        r.forget_range(PageNum(2), 1);
        let base = PageNum(5).base().add(8);
        r.insert_range(base, 8, SiteId(5), PageNum(5), 1);
        assert_eq!(r.tracked_records(), 3, "slot reused, not appended");
        r.note_sampled(true);
        r.note_alloc_stack(&["reuse".to_string()]);
        assert!(r.lookup(base).unwrap().sampled);
        assert_eq!(r.stacks(base).unwrap().0, ["reuse"]);
        for pg in [1u64, 3] {
            let at = PageNum(pg).base();
            assert!(!r.lookup(at).unwrap().sampled, "page {pg} untouched");
            assert!(r.stacks(at).unwrap().0.is_empty(), "page {pg} untouched");
        }
    }

    #[test]
    fn explain_after_reuse_names_the_new_object() {
        let mut r = ObjectRegistry::new();
        let old = PageNum(11).base().add(8);
        r.insert_range(old, 64, SiteId(1), PageNum(11), 1);
        r.mark_freed(old, SiteId(2));
        r.forget_range(PageNum(11), 1);
        // The page is recycled for a new object, which is then freed.
        let new = PageNum(11).base().add(24);
        r.insert_range(new, 40, SiteId(3), PageNum(11), 1);
        r.mark_freed(new, SiteId(4));
        let trap = Trap::Protection {
            addr: new.add(8),
            prot: Protection::None,
            access: AccessKind::Read,
        };
        let rep = r.explain(&trap, false).unwrap();
        assert_eq!(rep.object.base, new);
        assert_eq!(rep.object.size, 40);
        assert_eq!(rep.object.alloc_site, SiteId(3));
        assert_eq!(rep.object.state, ObjectState::Freed { free_site: SiteId(4) });
        // A live object on another reused slot still reads as live.
        r.forget_range(PageNum(11), 1);
        r.insert_range(PageNum(12).base().add(8), 8, SiteId(5), PageNum(12), 1);
        let live = Trap::Protection {
            addr: PageNum(12).base().add(8),
            prot: Protection::None,
            access: AccessKind::Write,
        };
        let rep = r.explain(&live, false).unwrap();
        assert_eq!(rep.object.state, ObjectState::Live);
        assert_eq!(rep.object.alloc_site, SiteId(5));
    }

    #[test]
    fn reinserting_a_tracked_page_releases_the_old_record() {
        let mut r = ObjectRegistry::new();
        r.insert_range(PageNum(50).base(), 8, SiteId(1), PageNum(50), 1);
        r.insert_range(PageNum(50).base(), 8, SiteId(2), PageNum(50), 1);
        assert_eq!(r.tracked_records(), 1, "the displaced record's slot was freed");
        assert_eq!(r.lookup(PageNum(50).base()).unwrap().alloc_site, SiteId(2));
        // Duplicate pages in one span count once.
        r.insert(PageNum(60).base(), 8, SiteId(3), &[PageNum(60), PageNum(60)]);
        r.forget_pages(&[PageNum(60)]);
        assert_eq!(r.tracked_records(), 1);
    }

    #[test]
    fn report_renders_sites() {
        let mut sites = SiteTable::new();
        let a = sites.intern("create_list");
        let f = sites.intern("free_all_but_head");
        let rep = DanglingReport {
            kind: DanglingKind::Read,
            fault_addr: VirtAddr(0x5010),
            object: ObjectRecord {
                base: VirtAddr(0x5008),
                size: 24,
                alloc_site: a,
                state: ObjectState::Freed { free_site: f },
                sampled: false,
            },
        };
        let s = rep.render(&sites);
        assert!(s.contains("dangling read"), "{s}");
        assert!(s.contains("create_list"), "{s}");
        assert!(s.contains("free_all_but_head"), "{s}");
        assert!(s.contains("24-byte"), "{s}");
    }
}

//! The page-aliasing engine behind both detectors.
//!
//! §3.2 describes one mechanism over an arbitrary `malloc`; §3.3 runs the
//! very same steps inside each Automatic Pool Allocation pool. This module
//! is that one mechanism, written once:
//!
//! * **allocation** — the sampling decision, the canonical allocation
//!   (size plus one hidden word), the shadow alias (a recycled run, a
//!   batched extent page or a fresh `mremap`), the hidden-word write, the
//!   registry insert and the allocation stack;
//! * **deallocation** — the null guard, provenance routing of unsampled
//!   objects, the pre-flush of pending protections, the hidden-word read
//!   that traps on a double free, and the eager or deferred `PROT_NONE`;
//! * **diagnosis** — trap attribution and structured trap reports.
//!
//! What differs between the two detectors is only where canonical memory
//! and recycled shadow pages come from, which is the [`PageSource`] trait:
//! any [`dangle_heap::Allocator`] plus the §3.4 recycled runs for
//! [`crate::ShadowHeap`], a [`dangle_pool::PoolSet`] for
//! [`crate::ShadowPool`].
//!
//! [`Detector`] is the other direction: the one interface a program runner
//! drives all three detectors through.

use crate::diag::{DanglingReport, ObjectRegistry, SiteId, SiteTable};
use crate::sampling::{self, SampleDecision, SamplingConfig, SamplingPolicy};
use dangle_heap::{header, AllocError, AllocStats};
use dangle_pool::{PoolError, PoolId};
use dangle_telemetry::Category;
use dangle_vmm::{Machine, PageNum, Protection, Trap, VirtAddr, PAGE_MASK};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// The hidden word prepended to every allocation (`sizeof(addr_t)`).
pub const SHADOW_WORD: usize = 8;

/// How many trailing ring events a [`dangle_telemetry::TrapReport`] carries
/// as context.
pub const TRAP_CONTEXT_EVENTS: usize = 16;

/// The vectored-syscall (batched) protection path, shared by
/// [`crate::ShadowHeap`] and [`crate::ShadowPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchConfig {
    /// One `mremap` per allocation and one `mprotect` per free: the
    /// paper's §3.2 presentation, and the reference the differential tests
    /// compare against.
    #[default]
    Off,
    /// Single-page objects take their shadow page from a shadow extent,
    /// and the protection of every free is flushed at the end of that very
    /// `free` call, leaving the §3.2 detection window unchanged.
    Eager,
    /// As [`BatchConfig::Eager`], but with a §3.4-style bounded window:
    /// protections are coalesced across up to `n` frees and applied in one
    /// vectored `mprotect`. A dangling use between a free and its flush
    /// goes undetected (double frees are still caught — the detector
    /// flushes before touching a hidden word on a pending page).
    Epoch(usize),
}

/// Upper bound on the pages a single shadow extent pre-aliases. Extents
/// grow demand-proven (2, 4, 8, ... up to this cap), so a canonical page
/// that only ever hosts one object never pays for an extent at all.
const EXTENT_PAGES: usize = 16;

/// A bump extent of shadow pages pre-aliased to one canonical page:
/// objects packed into the same canonical page receive adjacent shadow
/// pages at zero syscall cost. `left == 0` with a matching `canon` records
/// *proven demand* without any pre-paid pages — the first allocation on a
/// canonical page always goes through the plain single-alias path, and an
/// extent is only built once a second allocation shows the page is being
/// packed.
#[derive(Clone, Copy, Debug)]
struct Extent {
    /// Canonical page every page of this extent aliases.
    canon: PageNum,
    /// Next unconsumed shadow page.
    next: PageNum,
    /// Unconsumed pages remaining.
    left: usize,
    /// Size of the next extent built for `canon`: starts at 2 and doubles
    /// each time an extent is fully consumed, capped at [`EXTENT_PAGES`].
    grow: usize,
}

/// A run of pages: its first page and its length.
pub(crate) type Run = (PageNum, usize);

/// Inserts the run `(base, len)` into `runs` — kept sorted by base and
/// fully coalesced — merging with both neighbours when adjacent.
pub(crate) fn merge_run(runs: &mut Vec<Run>, base: PageNum, len: usize) {
    if len == 0 {
        return;
    }
    let i = runs.partition_point(|&(b, _)| b < base);
    let merges_prev = i > 0 && runs[i - 1].0.add(runs[i - 1].1 as u64) == base;
    let merges_next = i < runs.len() && base.add(len as u64) == runs[i].0;
    match (merges_prev, merges_next) {
        (true, true) => {
            runs[i - 1].1 += len + runs[i].1;
            runs.remove(i);
        }
        (true, false) => runs[i - 1].1 += len,
        (false, true) => {
            runs[i].0 = base;
            runs[i].1 += len;
        }
        (false, false) => runs.insert(i, (base, len)),
    }
}

/// Whether `[base, base + len)` intersects any run of a sorted, disjoint
/// run list. Disjointness makes checking the last run starting below the
/// query's end sufficient.
pub(crate) fn runs_overlap(runs: &[Run], base: PageNum, len: usize) -> bool {
    let end = base.add(len as u64);
    let i = runs.partition_point(|&(b, _)| b < end);
    i > 0 && runs[i - 1].0.add(runs[i - 1].1 as u64) > base
}

/// The three shadow-page detectors — [`crate::ShadowHeap`],
/// [`crate::ShadowPool`] and [`crate::ShardedShadowPool`] — behind one
/// interface, as a program runner drives them. Pool ids are the
/// detector's own; a detector without pools ignores them.
pub trait Detector {
    /// Scheme name for reports.
    const NAME: &'static str;
    /// Whether the detector runs real pools.
    const POOLED: bool;

    /// `poolinit` on the calling core.
    fn create(&mut self, machine: &Machine, elem_hint: usize) -> PoolId;

    /// `pooldestroy`.
    ///
    /// # Errors
    /// As for [`dangle_pool::PoolSet::destroy`].
    fn destroy(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError>;

    /// Allocates `size` bytes in `pool`, shadow-protected — or, with
    /// `checked == false`, for a site dangle-lint proved `ProvablySafe`:
    /// straight from canonical memory, with no alias, no hidden word and
    /// no registry entry.
    ///
    /// # Errors
    /// Exhaustion, oversized requests and bad pool ids.
    fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
        checked: bool,
    ) -> Result<VirtAddr, PoolError>;

    /// Frees `addr`, allocated by [`Detector::alloc`] with the same
    /// `checked`.
    ///
    /// # Errors
    /// A double free of a checked object traps on the hidden-word read
    /// (see [`Detector::render_last_report`]); a wild pointer is an
    /// invalid free.
    fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        checked: bool,
    ) -> Result<(), PoolError>;

    /// Attributes a program-level trap to the freed object it hit,
    /// rendered with the detector's site names.
    fn explain_rendered(&self, trap: &Trap) -> Option<String>;

    /// The most recent detector-internal report (a double free), rendered.
    fn render_last_report(&self) -> Option<String>;
}

/// Where a [`ShadowEngine`] gets canonical memory and recycled shadow
/// pages from.
pub(crate) trait PageSource: Sized {
    /// What an allocation belongs to: nothing for a plain allocator, the
    /// pool for APA pools. Extents are kept per scope and size class.
    type Scope: Copy + Eq + Hash + Debug;
    /// The front door's error type.
    type Error: From<AllocError> + From<Trap>;
    /// Span names of the alloc, free and flush paths (`shadow.*` for the
    /// heap, `pool.*` for pools).
    const SPANS: [&'static str; 3];

    /// Allocates `size` canonical bytes.
    fn alloc(
        &mut self,
        machine: &mut Machine,
        scope: Self::Scope,
        size: usize,
    ) -> Result<VirtAddr, Self::Error>;

    /// Frees the canonical block at `addr`.
    fn free(
        &mut self,
        machine: &mut Machine,
        scope: Self::Scope,
        addr: VirtAddr,
    ) -> Result<(), Self::Error>;

    /// Size of the canonical block at `addr`.
    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, Self::Error>;

    /// Takes recycled shadow pages: exactly `pages` contiguous pages when
    /// `exact`, otherwise any non-empty run of at most `pages` pages.
    fn take_run(&mut self, pages: usize, exact: bool) -> Option<Run>;

    /// Telemetry for a shadow run of `pages` pages at `base`, recycled or
    /// freshly aliased.
    fn note_run(&mut self, machine: &mut Machine, base: VirtAddr, pages: usize, recycled: bool);

    /// Ties a new shadow run to `scope` (pools release it at
    /// `pooldestroy`).
    fn register(
        &mut self,
        _scope: Self::Scope,
        _base: PageNum,
        _pages: usize,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Runs before every protected allocation, after the sampling
    /// decision (the heap's §3.4 threshold recycling).
    fn before_alloc(
        _engine: &mut ShadowEngine<Self>,
        _machine: &mut Machine,
    ) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The diagnosis surface both front doors share — site table, trap
/// attribution and reports, object lookup and the protection flush —
/// expanded inside each front door's `impl` block and delegated to its
/// `engine` field.
macro_rules! front_door_methods {
    () => {
        /// The site table, for interning allocation/free site labels.
        pub fn sites_mut(&mut self) -> &mut $crate::diag::SiteTable {
            &mut self.engine.sites
        }

        /// The site table.
        pub fn sites(&self) -> &$crate::diag::SiteTable {
            &self.engine.sites
        }

        /// The most recent dangling-use report produced by a
        /// detector-internal fault (i.e. a double free caught while
        /// freeing).
        pub fn last_report(&self) -> Option<&$crate::diag::DanglingReport> {
            self.engine.last_report.as_ref()
        }

        /// Attributes an MMU trap (from any load/store the program
        /// performed) to the freed object it landed in, if the detector
        /// owns that page.
        pub fn explain(
            &self,
            trap: &dangle_vmm::Trap,
        ) -> Option<$crate::diag::DanglingReport> {
            self.engine.registry.explain(trap, false)
        }

        /// [`Self::explain`], but producing the structured JSON-ready
        /// [`TrapReport`] with the machine's trailing event-ring context.
        ///
        /// [`TrapReport`]: dangle_telemetry::TrapReport
        pub fn trap_report(
            &self,
            machine: &dangle_vmm::Machine,
            trap: &dangle_vmm::Trap,
            use_site: &str,
        ) -> Option<dangle_telemetry::TrapReport> {
            let e = &self.engine;
            let report = self.explain(trap)?;
            let events = $crate::engine::TRAP_CONTEXT_EVENTS;
            Some(report.to_telemetry(&e.sites, machine, use_site, events, &e.registry))
        }

        /// The object record owning `addr`, if tracked (live or freed).
        /// Used by the combined spatial checker: each object sits alone on
        /// its shadow pages, so an address on a tracked page that falls
        /// outside the object's extent is an out-of-bounds access.
        pub fn object_at(
            &self,
            addr: dangle_vmm::VirtAddr,
        ) -> Option<&$crate::diag::ObjectRecord> {
            self.engine.registry.lookup(addr)
        }

        /// Applies every pending deferred protection (see
        /// [`BatchConfig::Epoch`]) in one `mprotect` call. A no-op when
        /// nothing is pending; eager mode calls this at the end of every
        /// free, and `pooldestroy` always flushes first.
        ///
        /// [`BatchConfig::Epoch`]: crate::BatchConfig::Epoch
        pub fn flush_protects(
            &mut self,
            machine: &mut dangle_vmm::Machine,
        ) -> Result<(), dangle_vmm::Trap> {
            self.engine.flush_protects(machine)
        }
    };
}
pub(crate) use front_door_methods;

/// The shadow-page mechanism over one [`PageSource`]. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct ShadowEngine<S: PageSource> {
    pub(crate) source: S,
    pub(crate) registry: ObjectRegistry,
    pub(crate) sites: SiteTable,
    pub(crate) stats: AllocStats,
    pub(crate) batch: BatchConfig,
    /// Sampled-protection decision engine (inert unless enabled).
    sampling: SamplingPolicy,
    /// Bump extents of pre-aliased shadow pages, keyed by scope and size
    /// class (batched mode only). Size classes carve canonical memory from
    /// distinct pages, so interleaved allocations of different classes
    /// advance different canonical pages — one extent per class keeps each
    /// stream amortising instead of thrashing.
    extents: HashMap<(S::Scope, usize), Extent>,
    /// Protection runs deferred by [`BatchConfig::Epoch`], sorted
    /// and coalesced (batched mode only; empty between frees in the
    /// default eager mode). Global across scopes: `mprotect` ranges are
    /// pure VA.
    pub(crate) pending_protect: Vec<Run>,
    /// Frees accumulated since the last protection flush.
    pending_frees: usize,
    /// The report of the last double free caught on the free path.
    pub(crate) last_report: Option<DanglingReport>,
}

impl<S: PageSource> ShadowEngine<S> {
    pub(crate) fn new(source: S, batch: BatchConfig, sampling: SamplingConfig) -> ShadowEngine<S> {
        ShadowEngine {
            source,
            registry: ObjectRegistry::new(),
            sites: SiteTable::new(),
            stats: AllocStats::default(),
            batch,
            sampling: SamplingPolicy::new(sampling),
            extents: HashMap::new(),
            pending_protect: Vec::new(),
            pending_frees: 0,
            last_report: None,
        }
    }

    /// Allocates `size` bytes in `scope`. Returns the user address and,
    /// for a protected object, its shadow run `(first page, pages)`;
    /// `None` when sampling routed the object to the unchecked fast path.
    pub(crate) fn alloc(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        size: usize,
        site: SiteId,
    ) -> Result<(VirtAddr, Option<Run>), S::Error> {
        machine.span_enter(S::SPANS[0], Category::DetectorMetadata);
        let r = self.alloc_inner(machine, scope, size, site);
        machine.span_exit();
        r
    }

    fn alloc_inner(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        size: usize,
        site: SiteId,
    ) -> Result<(VirtAddr, Option<Run>), S::Error> {
        // Sampled protection (inert by default). The decision is host-side
        // only — no simulated cycles — so with N = 1 the run is
        // byte-identical to the unsampled detector. Counters track
        // *allocation decisions*; the free path routes silently.
        let sampled = if self.sampling.enabled() {
            let class = header::class_index(size).unwrap_or(usize::MAX);
            match self.sampling.decide(site, class) {
                SampleDecision::Protect { sampled } => {
                    machine.telemetry_mut().counter_add(sampling::COUNTER_PROTECTED, 1);
                    sampled
                }
                SampleDecision::Skip { budget_exhausted } => {
                    let t = machine.telemetry_mut();
                    t.counter_add(sampling::COUNTER_SKIPPED, 1);
                    if budget_exhausted {
                        t.counter_add(sampling::COUNTER_BUDGET_EXHAUSTED, 1);
                    }
                    return Ok((self.source.alloc(machine, scope, size)?, None));
                }
            }
        } else {
            false
        };
        S::before_alloc(self, machine)?;
        let total = size.checked_add(SHADOW_WORD).ok_or(AllocError::TooLarge { size })?;
        let canon = self.source.alloc(machine, scope, total)?;
        let span = canon.span_pages(total);
        let canon_page = canon.page();
        // Batched mode serves single-page objects from per-class extents;
        // everything else takes one alias, recycled when possible.
        let shadow = if self.batch != BatchConfig::Off && span == 1 {
            let class = header::class_index(total).unwrap_or(usize::MAX);
            self.extent_page(machine, scope, canon_page, class)?
        } else {
            self.alias(machine, scope, canon_page, span)?
        };
        let shadow_hidden = shadow.base().add(canon.offset() as u64);
        machine.store_u64(shadow_hidden, canon_page.base().raw())?;
        let user = shadow_hidden.add(SHADOW_WORD as u64);
        self.registry.insert_range(user, size, site, shadow, span);
        if sampled {
            self.registry.note_sampled(true);
        }
        if !machine.telemetry().call_stack().is_empty() {
            let stack = machine.telemetry().call_stack().to_vec();
            self.registry.note_alloc_stack(&stack);
        }
        self.stats.note_alloc(size);
        Ok((user, Some((shadow, span))))
    }

    /// The one-syscall shadow alias of §3.2/§3.3: a recycled run when the
    /// source has one of exactly `span` pages, a fresh `mremap` otherwise.
    fn alias(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        canon: PageNum,
        span: usize,
    ) -> Result<PageNum, S::Error> {
        let base = match self.source.take_run(span, true) {
            Some((pg, _)) => {
                machine.alias_fixed(&[(canon.base(), pg.base(), span)])?;
                self.source.note_run(machine, pg.base(), span, true);
                pg
            }
            None => {
                let base = machine.mremap_alias(&[(canon.base(), span)])?;
                self.source.note_run(machine, base, span, false);
                base.page()
            }
        };
        self.source.register(scope, base, span)?;
        Ok(base)
    }

    /// Batched-mode shadow page for a single-page object on `canon`:
    /// consumes the scope's extent for this size class when it matches,
    /// re-points a stale leftover run in one `alias_fixed` call, builds a new
    /// extent once demand on `canon` is proven, and otherwise falls back
    /// to a plain single alias at exactly the legacy cost.
    fn extent_page(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        canon: PageNum,
        class: usize,
    ) -> Result<PageNum, S::Error> {
        let key = (scope, class);
        let (page, ext) = match self.extents.get(&key).copied() {
            // Hit: a pre-aliased page, zero syscalls.
            Some(mut ext) if ext.canon == canon && ext.left > 0 => {
                let page = ext.next;
                ext.next = ext.next.add(1);
                ext.left -= 1;
                if ext.left == 0 {
                    ext.grow = (ext.grow * 2).min(EXTENT_PAGES);
                }
                machine.telemetry_mut().counter_add("shadow.extent_hits", 1);
                (page, ext)
            }
            // Demand proven: a second allocation landed on `canon`.
            Some(ext) if ext.canon == canon => {
                let want = ext.grow.clamp(2, EXTENT_PAGES);
                let (base, got) = self.build_extent(machine, scope, canon, want)?;
                (base, Extent { canon, next: base.add(1), left: got - 1, grow: ext.grow })
            }
            // Stale leftover from another canonical page of this class:
            // re-point the whole run at `canon` — the pages are already
            // ours (and registered), so this recovers their VA for one
            // crossing.
            Some(ext) if ext.left > 0 => {
                machine.alias_fixed(&extent_entries(canon, ext.next, ext.left))?;
                machine.telemetry_mut().counter_add("shadow.extent_repoints", 1);
                let rest = Extent { next: ext.next.add(1), left: ext.left - 1, canon, ..ext };
                (ext.next, rest)
            }
            // First touch of `canon`: plain alias at legacy cost, plus a
            // zero-page demand marker.
            other => {
                let grow = other.map_or(2, |e| e.grow);
                let base = self.alias(machine, scope, canon, 1)?;
                (base, Extent { canon, next: PageNum(0), left: 0, grow })
            }
        };
        self.extents.insert(key, ext);
        Ok(page)
    }

    /// Builds a `want`-page extent aliasing `canon`: a recycled run is
    /// re-pointed with one `alias_fixed` call, otherwise fresh contiguous
    /// aliases come from one `mremap` call. Returns the first page and the
    /// number of pages actually built.
    fn build_extent(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        canon: PageNum,
        want: usize,
    ) -> Result<Run, S::Error> {
        let (base, got) = match self.source.take_run(want, false) {
            Some((base, got)) => {
                machine.alias_fixed(&extent_entries(canon, base, got))?;
                self.source.note_run(machine, base.base(), got, true);
                (base, got)
            }
            None => {
                let base = machine.mremap_alias(&vec![(canon.base(), 1); want])?;
                self.source.note_run(machine, base, want, false);
                (base.page(), want)
            }
        };
        self.source.register(scope, base, got)?;
        Ok((base, got))
    }

    /// Frees the object at `addr` in `scope`. Returns its protected shadow
    /// run, or `None` when sampling routed it through the fast path.
    ///
    /// A double free surfaces as a trap on the hidden-word read, with the
    /// report kept for [`ShadowEngine::last_report`].
    pub(crate) fn free(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<Option<Run>, S::Error> {
        machine.span_enter(S::SPANS[1], Category::DetectorMetadata);
        let r = self.free_inner(machine, scope, addr, site);
        machine.span_exit();
        r
    }

    fn free_inner(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<Option<Run>, S::Error> {
        if addr.raw() < SHADOW_WORD as u64 {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        // Sampled mode routes frees by provenance: protected objects live
        // at registered shadow addresses, unsampled ones at canonical
        // addresses the registry has never seen — a miss is the unchecked
        // fast path (the source's own header check still catches double
        // frees of unsampled objects as `InvalidFree`). The null guard
        // above runs first so degenerate frees cost the same cycles as in
        // the unsampled detector.
        if self.sampling.enabled() && self.registry.lookup(addr).is_none() {
            self.source.free(machine, scope, addr)?;
            return Ok(None);
        }
        let hidden = addr.sub(SHADOW_WORD as u64);
        // An epoch-deferred protection makes the hidden word of an
        // already-freed object readable again; flushing first restores the
        // §3.2 guarantee that the read below traps on a double free.
        if runs_overlap(&self.pending_protect, hidden.page(), 1) {
            self.flush_protects(machine)?;
        }
        // §3.2: "this read operation will cause a run-time error if the
        // object has already been freed".
        let canon_page = match machine.load_u64(hidden) {
            Ok(w) => w,
            Err(trap) => {
                self.last_report = self.registry.explain(&trap, true);
                return Err(trap.into());
            }
        };
        if canon_page & PAGE_MASK != 0 || canon_page == 0 {
            return Err(AllocError::InvalidFree { addr }.into());
        }
        let canon_hidden = VirtAddr(canon_page + hidden.offset() as u64);
        let total = self.source.size_of(machine, canon_hidden)?;
        let span = hidden.span_pages(total);
        if self.batch == BatchConfig::Off {
            machine.mprotect(&[(hidden.page().base(), span)], Protection::None)?;
        } else {
            merge_run(&mut self.pending_protect, hidden.page(), span);
            self.pending_frees += 1;
            let epoch = if let BatchConfig::Epoch(n) = self.batch { n } else { 1 };
            if self.pending_frees >= epoch {
                self.flush_protects(machine)?;
            }
        }
        machine.telemetry_mut().counter_add("core.pages_protected", span as u64);
        self.source.free(machine, scope, canon_hidden)?;
        let stack = machine.telemetry().call_stack().to_vec();
        self.registry.mark_freed_traced(addr, site, &stack);
        self.stats.note_free(total - SHADOW_WORD);
        Ok(Some((hidden.page(), span)))
    }

    /// Allocates without shadow protection, for a site dangle-lint proved
    /// `ProvablySafe`: the canonical address, no alias, no hidden word, no
    /// registry entry.
    pub(crate) fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        size: usize,
    ) -> Result<VirtAddr, S::Error> {
        machine.telemetry_mut().counter_add("shadow.elided", 1);
        self.source.alloc(machine, scope, size)
    }

    /// Frees an [`ShadowEngine::alloc_unchecked`] object straight to the
    /// source: no `mprotect`, no registry update.
    pub(crate) fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        scope: S::Scope,
        addr: VirtAddr,
    ) -> Result<(), S::Error> {
        machine.telemetry_mut().counter_add("shadow.elided", 1);
        self.source.free(machine, scope, addr)
    }

    /// Drops the extents of `scope` (its pages go with the scope).
    pub(crate) fn forget_extents(&mut self, scope: S::Scope) {
        self.extents.retain(|&(s, _), _| s != scope);
    }

    /// Applies every pending deferred protection (see
    /// [`BatchConfig::Epoch`]) in one `mprotect` call. A no-op when nothing
    /// is pending; eager mode calls this at the end of every free.
    pub(crate) fn flush_protects(&mut self, machine: &mut Machine) -> Result<(), Trap> {
        self.pending_frees = 0;
        if self.pending_protect.is_empty() {
            return Ok(());
        }
        machine.span_enter(S::SPANS[2], Category::DetectorMetadata);
        let r = self.flush_protects_inner(machine);
        machine.span_exit();
        r
    }

    fn flush_protects_inner(&mut self, machine: &mut Machine) -> Result<(), Trap> {
        let runs = std::mem::take(&mut self.pending_protect);
        let ranges: Vec<_> = runs.iter().map(|&(b, s)| (b.base(), s)).collect();
        machine.mprotect(&ranges, Protection::None)?;
        let t = machine.telemetry_mut();
        t.counter_add("shadow.protect_runs", runs.len() as u64);
        for &(_, s) in &runs {
            t.observe("shadow.run_len", s as u64);
        }
        Ok(())
    }
}

/// The `alias_fixed` entries pointing the `n` shadow pages from `base` at
/// the canonical page `canon`.
fn extent_entries(canon: PageNum, base: PageNum, n: usize) -> Vec<(VirtAddr, VirtAddr, usize)> {
    (0..n as u64).map(|i| (canon.base(), base.add(i).base(), 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_spans_stay_sorted_and_coalesced() {
        let mut runs: Vec<(PageNum, usize)> = Vec::new();
        merge_run(&mut runs, PageNum(10), 2);
        merge_run(&mut runs, PageNum(20), 1);
        merge_run(&mut runs, PageNum(12), 3); // merges below
        merge_run(&mut runs, PageNum(15), 5); // bridges to 20
        assert_eq!(runs, vec![(PageNum(10), 11)]);
        assert!(runs_overlap(&runs, PageNum(20), 1));
        assert!(!runs_overlap(&runs, PageNum(21), 4));
        assert!(!runs_overlap(&runs, PageNum(5), 5));
        assert!(runs_overlap(&runs, PageNum(5), 6));
    }
}

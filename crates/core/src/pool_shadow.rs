//! `ShadowPool`: Insights 1 **and** 2 — the paper's full approach.
//!
//! The shadow-page mechanism of [`crate::ShadowHeap`] applied *within each
//! pool* created by the Automatic Pool Allocation transform (§3.3):
//!
//! * `poolalloc` allocates from the pool's canonical pages and remaps a
//!   fresh shadow view per object;
//! * `poolfree` protects the object's shadow pages and returns the
//!   canonical block to the pool;
//! * `pooldestroy` releases **all** canonical and shadow pages of the pool
//!   to the shared free list — the compiler has proved no pointer into the
//!   pool survives, so recycling those virtual pages cannot mask a dangling
//!   use.
//!
//! This turns the basic scheme's unbounded virtual-address growth into
//! growth proportional to the *live* pools only, which the paper's §4.3
//! measurements show is tiny for real servers. The mechanism is the shared
//! page-aliasing engine's, run over a [`PoolSet`]; this module adds pool
//! lifetimes and the per-pool bookkeeping of the §3.4 GC.

use crate::diag::SiteId;
use crate::engine::{front_door_methods, runs_overlap, BatchConfig, PageSource, Run, ShadowEngine};
use crate::sampling::SamplingConfig;
use dangle_heap::AllocStats;
use dangle_pool::{PoolConfig, PoolError, PoolId, PoolSet};
use dangle_telemetry::Category;
use dangle_vmm::{Machine, PageNum, Trap, VirtAddr};
use std::collections::HashMap;

/// One freed object's shadow span, kept per pool for the §3.4 GC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreedSpan {
    /// First shadow page of the span.
    pub base: PageNum,
    /// Number of pages.
    pub span: usize,
}

/// The §3.4 GC's bookkeeping for one live pool: created by `poolinit`,
/// dropped whole by `pooldestroy`.
#[derive(Debug, Default)]
struct PoolBook {
    /// Freed-object shadow spans (GC candidates).
    freed: Vec<FreedSpan>,
    /// Live objects: user address -> size. Scanned by the GC.
    live: HashMap<VirtAddr, usize>,
}

/// Configuration of a [`ShadowPool`] (and of every shard of a
/// [`crate::ShardedShadowPool`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShadowPoolConfig {
    /// The pool runtime's configuration (e.g. VA reuse off, for ablations).
    pub pool: PoolConfig,
    /// Vectored-syscall batching (see [`BatchConfig`]).
    pub batch: BatchConfig,
    /// Sampled protection (see [`SamplingConfig`]).
    pub sampling: SamplingConfig,
}

/// Canonical memory from the pools' size-class pages; recycled shadow
/// pages from the shared page free list, registered with their pool so
/// `pooldestroy` releases them.
impl PageSource for PoolSet {
    type Scope = PoolId;
    type Error = PoolError;
    const SPANS: [&'static str; 3] = ["pool.alloc", "pool.free", "pool.flush"];

    fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        PoolSet::alloc(self, machine, pool, size)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        PoolSet::free(self, machine, pool, addr)
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, PoolError> {
        PoolSet::size_of(self, machine, addr)
    }

    fn take_run(&mut self, pages: usize, exact: bool) -> Option<Run> {
        if exact {
            self.take_free_run(pages).map(|base| (base, pages))
        } else {
            self.take_free_run_capped(pages)
        }
    }

    fn note_run(&mut self, machine: &mut Machine, base: VirtAddr, pages: usize, recycled: bool) {
        PoolSet::note_run(self, machine, base, pages, recycled);
    }

    fn register(&mut self, pool: PoolId, base: PageNum, pages: usize) -> Result<(), PoolError> {
        self.register_extra_run(pool, base, pages)
    }
}

/// The pool-based shadow-page detector (the paper's production
/// configuration). See the [module docs](self).
///
/// ```rust
/// use dangle_core::ShadowPool;
/// use dangle_vmm::Machine;
///
/// # fn main() -> Result<(), dangle_pool::PoolError> {
/// let mut m = Machine::new();
/// let mut sp = ShadowPool::new();
/// let pp = sp.create(16);
/// let node = sp.alloc(&mut m, pp, 16)?;
/// m.store_u64(node, 1)?;
/// sp.free(&mut m, pp, node)?;
/// assert!(m.load_u64(node).is_err(), "dangling use trapped");
/// sp.destroy(&mut m, pp)?; // every page becomes reusable
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShadowPool {
    engine: ShadowEngine<PoolSet>,
    /// Per-pool GC bookkeeping, one entry per live pool.
    books: HashMap<PoolId, PoolBook>,
}

impl Default for ShadowPool {
    fn default() -> ShadowPool {
        ShadowPool::new()
    }
}

impl ShadowPool {
    /// Creates a detector with the default configuration.
    pub fn new() -> ShadowPool {
        ShadowPool::with_config(ShadowPoolConfig::default())
    }

    /// Creates a detector with explicit pool, batching and sampling
    /// configurations.
    pub fn with_config(config: ShadowPoolConfig) -> ShadowPool {
        let pools = PoolSet::with_config(config.pool);
        ShadowPool {
            engine: ShadowEngine::new(pools, config.batch, config.sampling),
            books: HashMap::new(),
        }
    }

    front_door_methods!();

    /// `poolinit`. See [`PoolSet::create`].
    pub fn create(&mut self, elem_hint: usize) -> PoolId {
        let id = self.engine.source.create(elem_hint);
        self.books.insert(id, PoolBook::default());
        id
    }

    /// `poolalloc` + shadow remap, tagged with an allocation site.
    ///
    /// # Errors
    /// As for [`PoolSet::alloc`].
    pub fn alloc_at(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
        site: SiteId,
    ) -> Result<VirtAddr, PoolError> {
        let (user, shadow) = self.engine.alloc(machine, pool, size, site)?;
        if shadow.is_some() {
            self.books.entry(pool).or_default().live.insert(user, size);
        }
        Ok(user)
    }

    /// `poolalloc` + shadow remap (untagged).
    ///
    /// # Errors
    /// As for [`PoolSet::alloc`].
    pub fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
    ) -> Result<VirtAddr, PoolError> {
        self.alloc_at(machine, pool, size, SiteId::UNKNOWN)
    }

    /// `poolfree` + shadow protect, tagged with a free site.
    ///
    /// # Errors
    /// A double free surfaces as a trap on the hidden-word read (see
    /// [`ShadowPool::last_report`]); a wild pointer as
    /// [`dangle_heap::AllocError::InvalidFree`].
    pub fn free_at(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        site: SiteId,
    ) -> Result<(), PoolError> {
        if let Some((base, span)) = self.engine.free(machine, pool, addr, site)? {
            let book = self.books.entry(pool).or_default();
            book.freed.push(FreedSpan { base, span });
            book.live.remove(&addr);
        }
        Ok(())
    }

    /// `poolfree` + shadow protect (untagged).
    ///
    /// # Errors
    /// See [`ShadowPool::free_at`].
    pub fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
    ) -> Result<(), PoolError> {
        self.free_at(machine, pool, addr, SiteId::UNKNOWN)
    }

    /// `pooldestroy`: recycles every canonical and shadow page of the pool
    /// through the shared free list and drops its diagnostics (no pointer
    /// into the pool can fault any more — the APA contract).
    ///
    /// # Errors
    /// As for [`PoolSet::destroy`].
    pub fn destroy(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        machine.span_enter("pool.destroy", Category::PoolRecycling);
        let r = self.destroy_inner(machine, pool);
        machine.span_exit();
        r
    }

    fn destroy_inner(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        if self.engine.batch.enabled {
            // Deferred protections must land before the pages they cover
            // can be released and re-mapped to live storage.
            self.engine.flush_protects(machine)?;
            // Leftover extent pages were registered at build time, so the
            // release below already covers them.
            self.engine.forget_extents(pool);
        }
        // Every shadow page the registry knows for this pool was registered
        // with it, so the pages `pooldestroy` releases are the ones to drop.
        let released = self.engine.source.destroy(machine, pool)?;
        self.engine.registry.forget_pages(&released);
        self.books.remove(&pool);
        Ok(())
    }

    /// The underlying pool runtime (read-only).
    pub fn pools(&self) -> &PoolSet {
        &self.engine.source
    }

    /// The underlying pool runtime, for the sharded composition to move
    /// recycled runs between shards' free lists.
    pub(crate) fn pools_mut(&mut self) -> &mut PoolSet {
        &mut self.engine.source
    }

    /// Records a dynamic pool points-to edge (see
    /// [`PoolSet::note_pool_edge`]).
    pub fn note_pool_edge(&mut self, from: PoolId, to: PoolId) {
        self.engine.source.note_pool_edge(from, to);
    }

    /// Live objects of `pool` (user address and size), for the GC scan.
    pub fn live_objects(&self, pool: PoolId) -> Vec<(VirtAddr, usize)> {
        self.books
            .get(&pool)
            .map(|b| b.live.iter().map(|(&a, &s)| (a, s)).collect())
            .unwrap_or_default()
    }

    /// Freed shadow spans of `pool` — GC candidates.
    pub fn freed_spans(&self, pool: PoolId) -> Vec<FreedSpan> {
        self.books.get(&pool).map(|b| b.freed.clone()).unwrap_or_default()
    }

    /// Reclaims a freed shadow span of `pool` after the GC proved it
    /// unreferenced: removes diagnostics, unregisters the pages from the
    /// pool, and donates them to the shared free list. Returns the number of
    /// pages reclaimed (0 if the span was not a candidate).
    pub fn reclaim_span(&mut self, pool: PoolId, span: FreedSpan) -> usize {
        // A span whose protection is still pending (epoch mode) is not
        // reclaimable yet: donating it could re-map the pages to live
        // storage before the deferred mprotect lands.
        if runs_overlap(&self.engine.pending_protect, span.base, span.span) {
            return 0;
        }
        let Some(book) = self.books.get_mut(&pool) else { return 0 };
        let Some(pos) = book.freed.iter().position(|&s| s == span) else { return 0 };
        book.freed.remove(pos);
        self.engine.registry.forget_range(span.base, span.span);
        let pools = &mut self.engine.source;
        for i in 0..span.span as u64 {
            let pg = span.base.add(i);
            let _ = pools.take_extra_page(pool, pg);
            pools.donate_page(pg);
        }
        span.span
    }

    /// Aggregate allocation counters (user sizes).
    pub fn stats(&self) -> AllocStats {
        self.engine.stats
    }
}

impl crate::Detector for ShadowPool {
    const NAME: &'static str = "shadow-pool";
    const POOLED: bool = true;

    fn create(&mut self, _machine: &Machine, elem_hint: usize) -> PoolId {
        ShadowPool::create(self, elem_hint)
    }

    fn destroy(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        ShadowPool::destroy(self, machine, pool)
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
        checked: bool,
    ) -> Result<VirtAddr, PoolError> {
        if checked {
            self.alloc_at(machine, pool, size, SiteId::UNKNOWN)
        } else {
            self.engine.alloc_unchecked(machine, pool, size)
        }
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        checked: bool,
    ) -> Result<(), PoolError> {
        if checked {
            self.free_at(machine, pool, addr, SiteId::UNKNOWN)
        } else {
            self.engine.free_unchecked(machine, pool, addr)
        }
    }

    fn explain_rendered(&self, trap: &Trap) -> Option<String> {
        self.explain(trap).map(|r| r.render(self.sites()))
    }

    fn render_last_report(&self) -> Option<String> {
        self.last_report().map(|r| r.render(self.sites()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DanglingKind;
    use dangle_heap::AllocError;

    fn setup() -> (Machine, ShadowPool) {
        (Machine::free_running(), ShadowPool::new())
    }

    #[test]
    fn detects_use_after_free_within_pool() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(p, 3).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        let trap = m.load_u64(p).unwrap_err();
        assert_eq!(sp.explain(&trap).unwrap().kind, DanglingKind::Read);
    }

    #[test]
    fn double_free_detected() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        assert!(sp.free(&mut m, pp, p).is_err());
        assert_eq!(sp.last_report().unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn destroy_recycles_shadow_and_canonical_pages() {
        let (mut m, mut sp) = setup();
        let p1 = sp.create(16);
        // 3 allocations: 1 canonical page + 3 shadow pages.
        for _ in 0..3 {
            sp.alloc(&mut m, p1, 16).unwrap();
        }
        sp.destroy(&mut m, p1).unwrap();
        assert_eq!(sp.pools().free_page_count(), 4);

        // A new pool reuses those pages; after warm-up no fresh VA needed.
        let consumed = m.virt_pages_consumed();
        let p2 = sp.create(16);
        for _ in 0..3 {
            sp.alloc(&mut m, p2, 16).unwrap();
        }
        sp.destroy(&mut m, p2).unwrap();
        assert_eq!(m.virt_pages_consumed(), consumed, "full VA reuse");
    }

    #[test]
    fn figure_1_running_example() {
        // f() creates a pool, g() builds a 10-node list, frees all but the
        // head, and f() then dereferences p->next — the paper's Figure 1
        // dangling error, caught by the MMU.
        let (mut m, mut sp) = setup();
        let site_g = {
            let s = sp.sites_mut();
            s.intern("g:malloc")
        };
        let site_free = sp.sites_mut().intern("free_all_but_head");

        let pp = sp.create(16); // poolinit in f()
        // create_10_node_list: node = { next: u64, val: u64 }
        let mut nodes = Vec::new();
        for _ in 0..10 {
            nodes.push(sp.alloc_at(&mut m, pp, 16, site_g).unwrap());
        }
        for w in nodes.windows(2) {
            m.store_u64(w[0], w[1].raw()).unwrap(); // p->next
        }
        m.store_u64(nodes[9], 0).unwrap();
        // free_all_but_head
        for &n in &nodes[1..] {
            sp.free_at(&mut m, pp, n, site_free).unwrap();
        }
        // p->next->val = ...  (dangling!)
        let next = m.load_u64(nodes[0]).unwrap();
        let trap = m.store_u64(VirtAddr(next).add(8), 42).unwrap_err();
        let report = sp.explain(&trap).unwrap();
        assert_eq!(report.kind, DanglingKind::Write);
        assert!(report.render(sp.sites()).contains("free_all_but_head"));

        // pooldestroy in f(): all pages recycled.
        sp.destroy(&mut m, pp).unwrap();
        assert!(sp.pools().free_page_count() >= 11);
    }

    #[test]
    fn pools_isolated_from_each_other() {
        let (mut m, mut sp) = setup();
        let p1 = sp.create(16);
        let p2 = sp.create(16);
        let a = sp.alloc(&mut m, p1, 16).unwrap();
        let b = sp.alloc(&mut m, p2, 16).unwrap();
        sp.free(&mut m, p1, a).unwrap();
        // b unaffected by a's free.
        m.store_u64(b, 9).unwrap();
        assert_eq!(m.load_u64(b).unwrap(), 9);
        sp.destroy(&mut m, p1).unwrap();
        assert_eq!(m.load_u64(b).unwrap(), 9, "destroying p1 leaves p2 intact");
    }

    #[test]
    fn live_and_freed_bookkeeping() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 24).unwrap();
        let b = sp.alloc(&mut m, pp, 24).unwrap();
        assert_eq!(sp.live_objects(pp).len(), 2);
        sp.free(&mut m, pp, a).unwrap();
        assert_eq!(sp.live_objects(pp), vec![(b, 24)]);
        assert_eq!(sp.freed_spans(pp).len(), 1);
    }

    #[test]
    fn reclaim_span_donates_pages() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        let a = sp.alloc(&mut m, pp, 16).unwrap();
        sp.free(&mut m, pp, a).unwrap();
        let span = sp.freed_spans(pp)[0];
        let before = sp.pools().free_page_count();
        assert_eq!(sp.reclaim_span(pp, span), 1);
        assert_eq!(sp.pools().free_page_count(), before + 1);
        assert!(sp.freed_spans(pp).is_empty());
        // Reclaiming again is a no-op.
        assert_eq!(sp.reclaim_span(pp, span), 0);
        // Destroying the pool afterwards must not double-release the page.
        let count_before_destroy = sp.pools().free_page_count();
        sp.destroy(&mut m, pp).unwrap();
        // canonical page released exactly once:
        assert_eq!(sp.pools().free_page_count(), count_before_destroy + 1);
    }

    #[test]
    fn alloc_on_destroyed_pool_fails() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(16);
        sp.destroy(&mut m, pp).unwrap();
        assert!(matches!(sp.alloc(&mut m, pp, 8), Err(PoolError::Destroyed(_))));
    }

    fn batched_config() -> ShadowPoolConfig {
        let batch = BatchConfig { enabled: true, ..BatchConfig::default() };
        ShadowPoolConfig { batch, ..ShadowPoolConfig::default() }
    }

    fn batched() -> (Machine, ShadowPool) {
        (Machine::free_running(), ShadowPool::with_config(batched_config()))
    }

    #[test]
    fn batched_pool_detects_like_legacy() {
        let (mut m, mut sp) = batched();
        let pp = sp.create(16);
        let mut ptrs = Vec::new();
        for _ in 0..12 {
            let p = sp.alloc(&mut m, pp, 16).unwrap();
            m.store_u64(p, 5).unwrap();
            ptrs.push(p);
        }
        for &p in &ptrs[1..] {
            sp.free(&mut m, pp, p).unwrap();
        }
        for &p in &ptrs[1..] {
            let trap = m.load_u64(p).unwrap_err();
            assert_eq!(sp.explain(&trap).unwrap().kind, DanglingKind::Read);
        }
        assert_eq!(m.load_u64(ptrs[0]).unwrap(), 5, "live object untouched");
        // Double free still caught by the hidden-word read.
        assert!(sp.free(&mut m, pp, ptrs[1]).is_err());
        assert_eq!(sp.last_report().unwrap().kind, DanglingKind::DoubleFree);
    }

    #[test]
    fn batched_pool_extents_cut_crossings_and_cycles() {
        let n = 64;
        let mut m_legacy = Machine::new();
        let mut legacy = ShadowPool::new();
        let p_legacy = legacy.create(16);
        let mut m_batch = Machine::new();
        let mut batch = ShadowPool::with_config(batched_config());
        let p_batch = batch.create(16);
        for _ in 0..n {
            let a = legacy.alloc(&mut m_legacy, p_legacy, 16).unwrap();
            m_legacy.store_u64(a, 1).unwrap();
            let b = batch.alloc(&mut m_batch, p_batch, 16).unwrap();
            m_batch.store_u64(b, 1).unwrap();
        }
        let sl = m_legacy.stats();
        let sb = m_batch.stats();
        assert!(
            (sb.mremap_calls + sb.mmap_calls) * 2 < sl.mremap_calls + sl.mmap_calls,
            "extents must at least halve alias crossings: {} vs {}",
            sb.mremap_calls + sb.mmap_calls,
            sl.mremap_calls + sl.mmap_calls
        );
        assert!(sb.ranges_batched > 0);
        assert!(
            m_batch.clock() <= m_legacy.clock(),
            "batched {} must not exceed legacy {} cycles",
            m_batch.clock(),
            m_legacy.clock()
        );
        assert!(m_batch.telemetry().counter("shadow.extent_hits") > 0);
    }

    #[test]
    fn batched_destroy_recycles_extent_leftovers() {
        let (mut m, mut sp) = batched();
        let p1 = sp.create(16);
        for _ in 0..3 {
            sp.alloc(&mut m, p1, 16).unwrap();
        }
        sp.destroy(&mut m, p1).unwrap();
        // 1 canonical + 3 consumed shadow pages + any unconsumed extent
        // pages all land on the shared free list.
        assert!(sp.pools().free_page_count() >= 4);

        // A second pool round-trips entirely on recycled VA.
        let consumed = m.virt_pages_consumed();
        let p2 = sp.create(16);
        for _ in 0..3 {
            sp.alloc(&mut m, p2, 16).unwrap();
        }
        sp.destroy(&mut m, p2).unwrap();
        assert_eq!(m.virt_pages_consumed(), consumed, "full VA reuse in batched mode");
    }

    #[test]
    fn batched_epoch_defers_then_flushes() {
        let batch =
            BatchConfig { enabled: true, protect_epoch: Some(4), ..BatchConfig::default() };
        let mut m = Machine::free_running();
        let mut sp = ShadowPool::with_config(ShadowPoolConfig { batch, ..Default::default() });
        let pp = sp.create(16);
        let ptrs: Vec<_> = (0..4).map(|_| sp.alloc(&mut m, pp, 16).unwrap()).collect();
        sp.free(&mut m, pp, ptrs[0]).unwrap();
        sp.free(&mut m, pp, ptrs[1]).unwrap();
        // Bounded window: stale reads slip through until the flush...
        assert!(m.load_u64(ptrs[0]).is_ok());
        // ...but a double free still traps (pre-flush on pending pages),
        assert!(sp.free(&mut m, pp, ptrs[1]).is_err());
        assert_eq!(sp.last_report().unwrap().kind, DanglingKind::DoubleFree);
        // ...and the flush protected everything pending.
        assert!(m.load_u64(ptrs[0]).is_err());

        // Destroy always flushes before releasing pages.
        sp.free(&mut m, pp, ptrs[2]).unwrap();
        sp.destroy(&mut m, pp).unwrap();
        assert!(m.load_u64(ptrs[2]).is_err());
    }

    #[test]
    fn multi_page_object_in_pool() {
        let (mut m, mut sp) = setup();
        let pp = sp.create(0);
        let p = sp.alloc(&mut m, pp, 10_000).unwrap();
        m.fill(p, 0xab, 10_000).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        assert!(m.load_u8(p.add(9_000)).is_err(), "tail page protected too");
    }

    fn sampled(cfg: crate::SamplingConfig) -> (Machine, ShadowPool) {
        let sp = ShadowPool::with_config(ShadowPoolConfig { sampling: cfg, ..Default::default() });
        (Machine::free_running(), sp)
    }

    #[test]
    fn sampling_n1_still_detects_every_uaf() {
        let (mut m, mut sp) = sampled(crate::SamplingConfig::one_in(1));
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(p, 3).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        let trap = m.load_u64(p).unwrap_err();
        let rep = sp.explain(&trap).unwrap();
        assert_eq!(rep.kind, DanglingKind::Read);
        assert!(!rep.object.sampled, "deterministic protection is unmarked");
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_PROTECTED), 1);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_SKIPPED), 0);
    }

    #[test]
    fn sampling_never_routes_to_the_fast_path() {
        let (mut m, mut sp) =
            sampled(crate::SamplingConfig::one_in(crate::SamplingConfig::NEVER));
        let pp = sp.create(16);
        let p = sp.alloc(&mut m, pp, 16).unwrap();
        m.store_u64(p, 3).unwrap();
        sp.free(&mut m, pp, p).unwrap();
        // Unsampled object: the stale read goes through (the trade-off)...
        assert!(m.load_u64(p).is_ok(), "no shadow alias, no trap");
        // ...but a double free is still caught by the pool's block header.
        assert!(matches!(
            sp.free(&mut m, pp, p),
            Err(PoolError::Alloc(AllocError::InvalidFree { .. }))
        ));
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_SKIPPED), 1);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_PROTECTED), 0);
        assert_eq!(m.telemetry().counter("shadow.elided"), 0, "lint stream untouched");
    }

    #[test]
    fn probabilistic_protection_marks_trap_reports_sampled() {
        let (mut m, mut sp) = sampled(crate::SamplingConfig::one_in(2).with_seed(0x1234));
        let pp = sp.create(16);
        // Allocate until one object is actually protected, then UAF it.
        for _ in 0..64 {
            let p = sp.alloc(&mut m, pp, 16).unwrap();
            sp.free(&mut m, pp, p).unwrap();
            if let Err(trap) = m.load_u64(p) {
                let rep = sp.explain(&trap).unwrap();
                assert!(rep.object.sampled, "probabilistic draw is marked");
                return;
            }
        }
        panic!("1-in-2 sampling protected nothing in 64 draws");
    }

    #[test]
    fn budget_exhaustion_is_counted() {
        let (mut m, mut sp) =
            sampled(crate::SamplingConfig::one_in(1).with_budgets(1, 1, 0));
        let pp = sp.create(16);
        for _ in 0..4 {
            let p = sp.alloc(&mut m, pp, 16).unwrap();
            sp.free(&mut m, pp, p).unwrap();
        }
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_PROTECTED), 1);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_SKIPPED), 3);
        assert_eq!(m.telemetry().counter(crate::sampling::COUNTER_BUDGET_EXHAUSTED), 3);
    }
}

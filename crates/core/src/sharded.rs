//! Sharded detector: per-core [`ShadowPool`] instances with an epoch-based
//! cross-shard page free list.
//!
//! The paper's detector is inherently single-threaded: one `PoolSet`, one
//! `ObjectRegistry`, one page free list. On a multi-core [`Machine`] that
//! free list would become a global lock — every `pooldestroy` on every core
//! funnels through it. This module shards the detector instead:
//!
//! * **one [`ShadowPool`] per shard**, each with its own pool runtime,
//!   object registry and site table. A pool is *owned* by the shard of the
//!   core that created it (`active_core() % shards`), and every later
//!   operation on the pool routes to that shard — so the hot paths
//!   (`poolalloc`/`poolfree`) touch per-shard state only and never
//!   contend;
//! * ownership is **by page range**: the pages a shard maps belong to its
//!   registry, so a trap is explained by whichever shard's registry knows
//!   the faulting page;
//! * recycling crosses shards through an **epoch-based free list**
//!   ([`EpochFreeList`]): `pooldestroy` retires a shard's surplus free
//!   pages with the current epoch, each core announces quiescent points,
//!   and a run becomes adoptable only after *two* epoch transitions — the
//!   classic epoch-based-reclamation grace period that guarantees no core
//!   still holds a stale translation for those pages by the time another
//!   shard re-`mmap`s them.
//!
//! With a single shard the composition is **byte-identical** to a plain
//! [`ShadowPool`]: handles coincide with shard-local pool ids, the epoch
//! machinery is never engaged, and every call is a direct delegation.

use crate::diag::DanglingReport;
use crate::pool_shadow::{ShadowPool, ShadowPoolConfig};
use crate::Detector;
use dangle_pool::{PoolError, PoolId};
use dangle_telemetry::TrapReport;
use dangle_vmm::{Machine, PageNum, Trap, VirtAddr};
use std::collections::VecDeque;

/// A page run retired by one shard, waiting out its grace period.
#[derive(Clone, Copy, Debug)]
struct RetiredRun {
    base: PageNum,
    pages: usize,
    /// Global epoch at retirement. Adoptable once `epoch >= this + 2`.
    epoch: u64,
}

/// Epoch-based reclamation for recycled page runs crossing shards.
///
/// Cores announce quiescent points ([`EpochFreeList::quiesce`]); the global
/// epoch advances when every *known* core has announced the current one.
/// A run retired in epoch `E` is safe to hand to another shard once the
/// global epoch reaches `E + 2`: by then every core has passed a quiescent
/// point that *started* after the retirement, so none can still be using a
/// translation for the run's pages.
#[derive(Debug)]
pub struct EpochFreeList {
    epoch: u64,
    /// Last epoch each core announced. Grows lazily: a core the list has
    /// never heard from does not hold up the grace period (in the simulated
    /// machine an idle core runs no detector code at all).
    announced: Vec<u64>,
    retired: VecDeque<RetiredRun>,
}

impl EpochFreeList {
    /// A free list expecting announcements from `cores` cores (more may
    /// join later via [`EpochFreeList::quiesce`]).
    pub fn new(cores: usize) -> EpochFreeList {
        EpochFreeList { epoch: 1, announced: vec![0; cores.max(1)], retired: VecDeque::new() }
    }

    /// The current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Retires a run of `pages` pages at `base` into the current epoch.
    pub fn retire(&mut self, base: PageNum, pages: usize) {
        if pages == 0 {
            return;
        }
        self.retired.push_back(RetiredRun { base, pages, epoch: self.epoch });
    }

    /// Announces a quiescent point on `core` (no detector operation in
    /// flight there). When every known core has announced the current
    /// epoch, the global epoch advances.
    pub fn quiesce(&mut self, core: usize) {
        if core >= self.announced.len() {
            self.announced.resize(core + 1, 0);
        }
        let slot = &mut self.announced[core];
        *slot = (*slot).max(self.epoch);
        if self.announced.iter().all(|&e| e >= self.epoch) {
            self.epoch += 1;
        }
    }

    /// Pops up to `max` pages from the oldest run whose grace period has
    /// passed, splitting the run if it is longer. `None` when nothing has
    /// quiesced long enough yet.
    pub fn take_safe(&mut self, max: usize) -> Option<(PageNum, usize)> {
        if max == 0 {
            return None;
        }
        let front = self.retired.front()?;
        if front.epoch + 2 > self.epoch {
            return None; // oldest run still in its grace period
        }
        let (base, pages) = (front.base, front.pages);
        if pages <= max {
            self.retired.pop_front();
            Some((base, pages))
        } else {
            let front = self.retired.front_mut().expect("checked above");
            front.base = base.add(max as u64);
            front.pages = pages - max;
            Some((base, max))
        }
    }

    /// Pages retired and not yet adopted (any epoch).
    pub fn pending_pages(&self) -> usize {
        self.retired.iter().map(|r| r.pages).sum()
    }

    /// Pages whose grace period has passed and are ready to adopt.
    pub fn safe_pages(&self) -> usize {
        self.retired.iter().filter(|r| r.epoch + 2 <= self.epoch).map(|r| r.pages).sum()
    }
}

/// Free pages a shard keeps for itself before `pooldestroy` retires the
/// surplus into the epoch list, and the level adoption refills towards.
const SHARD_FREE_WATERMARK: usize = 32;

/// The sharded pool-based detector. See the [module docs](self).
///
/// Pools are created, used and destroyed through its [`Detector`] impl.
///
/// ```rust
/// use dangle_core::{Detector, ShardedShadowPool};
/// use dangle_vmm::{Machine, MachineConfig};
///
/// # fn main() -> Result<(), dangle_pool::PoolError> {
/// let mut m = Machine::with_config(MachineConfig { cores: 2, ..MachineConfig::default() });
/// let mut sp = ShardedShadowPool::new(2);
/// m.switch_core(1);
/// let pool = sp.create(&m, 16); // owned by shard 1 % 2
/// let obj = sp.alloc(&mut m, pool, 16, true)?;
/// sp.free(&mut m, pool, obj, true)?;
/// assert!(m.load_u64(obj).is_err(), "dangling use trapped");
/// assert!(sp.explain(&m.load_u64(obj).unwrap_err()).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedShadowPool {
    shards: Vec<ShadowPool>,
    /// Public handle -> (owning shard, shard-local pool id). With one
    /// shard the handle and the local id coincide by construction: both
    /// count up from zero in creation order.
    handles: Vec<(usize, PoolId)>,
    epoch: EpochFreeList,
    /// Shard that served the most recent routed operation, so
    /// [`Detector::render_last_report`] reads the right registry.
    last_shard: usize,
}

impl ShardedShadowPool {
    /// A sharded detector with `shards` shards and default configuration.
    pub fn new(shards: usize) -> ShardedShadowPool {
        ShardedShadowPool::with_config(shards, ShadowPoolConfig::default())
    }

    /// A sharded detector whose every shard runs `config`. With sampled
    /// protection each shard runs its own [`crate::SamplingPolicy`] —
    /// per-shard RNG and budgets, so the hot paths stay contention-free.
    /// Shard `i` draws from [`SamplingConfig::for_shard`]`(i)`; shard 0
    /// keeps the base seed, which is what makes a 1-shard sampled detector
    /// byte-identical to a plain [`ShadowPool`].
    ///
    /// [`SamplingConfig::for_shard`]: crate::SamplingConfig::for_shard
    pub fn with_config(shards: usize, config: ShadowPoolConfig) -> ShardedShadowPool {
        assert!(shards >= 1, "a sharded detector needs at least one shard");
        ShardedShadowPool {
            shards: (0..shards)
                .map(|i| {
                    let sampling = config.sampling.for_shard(i);
                    ShadowPool::with_config(ShadowPoolConfig { sampling, ..config })
                })
                .collect(),
            handles: Vec::new(),
            epoch: EpochFreeList::new(shards),
            last_shard: 0,
        }
    }

    /// One shard's detector (read-only, for stats and tests).
    pub fn shard(&self, i: usize) -> &ShadowPool {
        &self.shards[i]
    }

    /// The cross-shard epoch free list (read-only, for stats and tests).
    pub fn epoch_list(&self) -> &EpochFreeList {
        &self.epoch
    }

    /// The shard owning `handle` and the pool's shard-local id; the shard
    /// also becomes the one [`Detector::render_last_report`] reads.
    fn route(&mut self, handle: PoolId) -> Result<(&mut ShadowPool, PoolId), PoolError> {
        let (shard, local) =
            self.handles.get(handle.0 as usize).copied().ok_or(PoolError::Unknown(handle))?;
        self.last_shard = shard;
        Ok((&mut self.shards[shard], local))
    }

    /// Explains a trap by asking each shard's registry; page-range
    /// ownership guarantees at most one shard knows the faulting page.
    pub fn explain(&self, trap: &Trap) -> Option<DanglingReport> {
        self.shards.iter().find_map(|s| s.explain(trap))
    }

    /// Full trap forensics from the owning shard (see
    /// [`ShadowPool::trap_report`]).
    pub fn trap_report(
        &self,
        machine: &Machine,
        trap: &Trap,
        use_site: &str,
    ) -> Option<TrapReport> {
        self.shards.iter().find_map(|s| s.trap_report(machine, trap, use_site))
    }
}

impl Detector for ShardedShadowPool {
    const NAME: &'static str = "sharded-pool";
    const POOLED: bool = true;

    /// `poolinit`, routed to the shard of the calling core
    /// (`active_core() % shards`). The returned id is a *global* handle,
    /// valid from any core. A pool-creation boundary is a quiescent point
    /// for the calling core: no allocation is in flight, so the epoch is
    /// announced and any runs past their grace period are adopted into the
    /// shard's free list (multi-shard only).
    fn create(&mut self, machine: &Machine, elem_hint: usize) -> PoolId {
        let shard = machine.active_core() % self.shards.len();
        if self.shards.len() > 1 {
            self.epoch.quiesce(machine.active_core());
            let pools = self.shards[shard].pools_mut();
            while pools.free_page_count() < SHARD_FREE_WATERMARK {
                match self.epoch.take_safe(SHARD_FREE_WATERMARK) {
                    Some((base, pages)) => pools.donate_run(base, pages as u32),
                    None => break,
                }
            }
        }
        let local = self.shards[shard].create(elem_hint);
        self.handles.push((shard, local));
        self.last_shard = shard;
        PoolId(self.handles.len() as u32 - 1)
    }

    /// `pooldestroy` on the owning shard, then (multi-shard only) a
    /// quiescent point: the destroying core announces the epoch and the
    /// shard's surplus free pages — everything above the watermark it keeps
    /// for its own reuse — are retired into the epoch list for other shards
    /// to adopt after the grace period.
    fn destroy(&mut self, machine: &mut Machine, pool: PoolId) -> Result<(), PoolError> {
        let multi = self.shards.len() > 1;
        let (shard, local) = self.route(pool)?;
        shard.destroy(machine, local)?;
        if multi {
            self.epoch.quiesce(machine.active_core());
            let pools = self.shards[self.last_shard].pools_mut();
            loop {
                let free = pools.free_page_count();
                if free <= SHARD_FREE_WATERMARK {
                    break;
                }
                match pools.take_free_run_capped(free - SHARD_FREE_WATERMARK) {
                    Some((base, pages)) => self.epoch.retire(base, pages),
                    None => break,
                }
            }
        }
        Ok(())
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        size: usize,
        checked: bool,
    ) -> Result<VirtAddr, PoolError> {
        let (shard, local) = self.route(pool)?;
        Detector::alloc(shard, machine, local, size, checked)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        pool: PoolId,
        addr: VirtAddr,
        checked: bool,
    ) -> Result<(), PoolError> {
        let (shard, local) = self.route(pool)?;
        Detector::free(shard, machine, local, addr, checked)
    }

    fn explain_rendered(&self, trap: &Trap) -> Option<String> {
        self.shards.iter().find_map(|s| s.explain_rendered(trap))
    }

    fn render_last_report(&self) -> Option<String> {
        self.shards[self.last_shard].render_last_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_vmm::{CostModel, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::with_config(MachineConfig {
            cores,
            cost: CostModel::free(),
            ..MachineConfig::default()
        })
    }

    #[test]
    fn single_shard_handles_equal_local_ids() {
        let mut m = machine(1);
        let mut sp = ShardedShadowPool::new(1);
        for i in 0..5u32 {
            assert_eq!(sp.create(&m, 8), PoolId(i));
        }
        let p = PoolId(3);
        let a = sp.alloc(&mut m, p, 16, true).unwrap();
        sp.free(&mut m, p, a, true).unwrap();
        let trap = m.load_u64(a).unwrap_err();
        assert!(sp.explain(&trap).is_some(), "dangling use explained");
        assert_eq!(sp.epoch_list().pending_pages(), 0, "epoch list never engaged");
    }

    #[test]
    fn pools_route_to_creating_cores_shard() {
        let mut m = machine(4);
        let mut sp = ShardedShadowPool::new(4);
        let mut handles = Vec::new();
        for core in 0..4 {
            m.switch_core(core);
            handles.push(sp.create(&m, 16));
        }
        // Allocate from every pool while a *different* core is active:
        // routing follows the pool's owner, not the current core.
        m.switch_core(0);
        for (core, &h) in handles.iter().enumerate() {
            let a = sp.alloc(&mut m, h, 16, true).unwrap();
            assert_eq!(sp.shard(core).stats().allocs, 1, "alloc landed on owner shard");
            sp.free(&mut m, h, a, true).unwrap();
            let trap = m.load_u64(a).unwrap_err();
            assert!(sp.explain(&trap).is_some());
        }
    }

    #[test]
    fn destroyed_pages_cross_shards_only_after_grace_period() {
        let mut m = machine(2);
        let mut sp = ShardedShadowPool::new(2);

        // Core 0 builds a large pool on shard 0 and destroys it.
        m.switch_core(0);
        let big = sp.create(&m, 64);
        let objs: Vec<_> =
            (0..3 * SHARD_FREE_WATERMARK).map(|_| sp.alloc(&mut m, big, 64, true).unwrap()).collect();
        for a in objs {
            sp.free(&mut m, big, a, true).unwrap();
        }
        sp.destroy(&mut m, big).unwrap();
        let retired = sp.epoch_list().pending_pages();
        assert!(retired > 0, "surplus above the watermark was retired");
        assert_eq!(sp.epoch_list().safe_pages(), 0, "grace period not over");
        assert!(
            sp.shard(0).pools().free_page_count() <= SHARD_FREE_WATERMARK,
            "shard keeps at most the watermark for itself"
        );

        // One quiescence round on both cores is not enough: the grace
        // period is two epoch transitions.
        assert_eq!(sp.shard(1).pools().free_page_count(), 0);
        for core in 0..2 {
            m.switch_core(core);
            let p = sp.create(&m, 8);
            sp.destroy(&mut m, p).unwrap();
        }
        assert_eq!(
            sp.shard(1).pools().free_page_count(),
            0,
            "no adoption after a single epoch transition"
        );

        // A second round lets core 1's create adopt shard 0's pages.
        for core in 0..2 {
            m.switch_core(core);
            let p = sp.create(&m, 8);
            sp.destroy(&mut m, p).unwrap();
        }
        assert!(
            sp.shard(1).pools().free_page_count() > 0,
            "shard 1 adopted pages freed by shard 0"
        );
        assert!(sp.epoch_list().pending_pages() < retired, "epoch list drained");
    }

    #[test]
    fn epoch_free_list_grace_period_is_two_transitions() {
        let mut e = EpochFreeList::new(2);
        e.retire(PageNum(100), 4);
        assert_eq!(e.take_safe(16), None, "same epoch: unsafe");
        e.quiesce(0);
        e.quiesce(1); // epoch 1 -> 2
        assert_eq!(e.take_safe(16), None, "one transition: still unsafe");
        e.quiesce(0);
        e.quiesce(1); // epoch 2 -> 3
        assert_eq!(e.take_safe(3), Some((PageNum(100), 3)), "split on cap");
        assert_eq!(e.take_safe(16), Some((PageNum(103), 1)), "remainder");
        assert_eq!(e.take_safe(16), None);
    }

    #[test]
    fn epoch_waits_for_every_known_core() {
        let mut e = EpochFreeList::new(3);
        e.retire(PageNum(7), 1);
        for _ in 0..10 {
            e.quiesce(0);
            e.quiesce(1); // core 2 never quiesces
        }
        assert_eq!(e.epoch(), 1, "epoch pinned by the silent core");
        assert_eq!(e.take_safe(4), None);
        e.quiesce(2);
        e.quiesce(0);
        e.quiesce(1);
        e.quiesce(2);
        assert_eq!(e.take_safe(4), Some((PageNum(7), 1)));
    }

    #[test]
    fn unknown_handle_is_rejected() {
        let mut m = machine(1);
        let mut sp = ShardedShadowPool::new(2);
        let err = sp.alloc(&mut m, PoolId(9), 8, true).unwrap_err();
        assert!(matches!(err, PoolError::Unknown(PoolId(9))));
    }
}

//! `SysHeap`: a segregated-fit `malloc` over the simulated machine.
//!
//! Layout follows the classic `malloc` convention the paper relies on
//! (§3.2: "malloc implementations usually add a header recording the size of
//! the object just before the object itself"):
//!
//! ```text
//!        block                     payload (returned pointer)
//!          |                           |
//!          v                           v
//!          +---------------------------+---------------------------+
//!          |  8-byte header            |  payload (capacity bytes) |
//!          |  in-use | capacity | size |                           |
//!          +---------------------------+---------------------------+
//! ```
//!
//! Small requests are rounded up to one of a fixed set of size classes and
//! served from per-class free lists whose `next` links live in the payload
//! of *freed* blocks — i.e. in simulated memory, so free-list traffic costs
//! simulated cycles. Fresh small blocks are carved from 16-page arena chunks
//! obtained with `mmap`. Large requests get dedicated page runs which are
//! recycled through a first-fit list on free.
//!
//! The heap reuses memory aggressively (that is the point: the *underlying*
//! allocator recycles physical storage; dangling-use protection is the
//! wrapper's job, not this crate's).

use crate::header::{self, HEADER_SIZE, SIZE_CLASSES};
use crate::{AllocError, AllocStats, Allocator};
use dangle_telemetry::EventKind;
use dangle_vmm::{Machine, VirtAddr, PAGE_SIZE};

use header::{header_capacity, header_in_use, header_requested, pack_header};

/// Pages acquired per arena chunk for small allocations.
const CHUNK_PAGES: usize = 16;

/// Fixed cycle cost modelling malloc bookkeeping beyond its memory traffic.
const LOGIC_COST: u64 = 12;

/// The simulated system `malloc`. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SysHeap {
    /// Head of each small class's free list (`None` = empty). The links
    /// themselves live in simulated memory.
    free_heads: [Option<VirtAddr>; SIZE_CLASSES.len()],
    /// First-fit list of freed large runs: `(pages, block_base)`.
    large_free: Vec<(usize, VirtAddr)>,
    /// Bump pointer into the current arena chunk.
    cur: VirtAddr,
    /// End of the current arena chunk.
    cur_end: u64,
    stats: AllocStats,
}

impl SysHeap {
    /// Creates an empty heap; no memory is acquired until the first
    /// allocation.
    pub fn new() -> SysHeap {
        SysHeap::default()
    }

    fn alloc_small(
        &mut self,
        machine: &mut Machine,
        requested: usize,
        class: usize,
    ) -> Result<VirtAddr, AllocError> {
        let capacity = SIZE_CLASSES[class];
        let payload = if let Some(p) = self.free_heads[class] {
            // Pop the free list: the next link lives in the freed payload.
            let next = machine.load_u64(p)?;
            self.free_heads[class] = if next == 0 { None } else { Some(VirtAddr(next)) };
            p
        } else {
            let need = capacity + HEADER_SIZE;
            if (self.cur_end - self.cur.raw()) < need as u64 {
                let chunk = machine.mmap(CHUNK_PAGES)?;
                self.cur = chunk;
                self.cur_end = chunk.raw() + (CHUNK_PAGES * PAGE_SIZE) as u64;
            }
            let block = self.cur;
            self.cur = self.cur.add(need as u64);
            block.add(HEADER_SIZE as u64)
        };
        // Header writes go through the bulk path: same simulated cost as
        // a word store (one translation, one word), one less host round
        // trip per allocation.
        machine.write_bytes(
            payload.sub(HEADER_SIZE as u64),
            &pack_header(requested, capacity, true).to_le_bytes(),
        )?;
        Ok(payload)
    }

    fn alloc_large(
        &mut self,
        machine: &mut Machine,
        requested: usize,
    ) -> Result<VirtAddr, AllocError> {
        let pages = (requested + HEADER_SIZE).div_ceil(PAGE_SIZE);
        let block = if let Some(i) = self.large_free.iter().position(|&(p, _)| p >= pages) {
            self.large_free.swap_remove(i).1
        } else {
            machine.mmap(pages)?
        };
        let capacity = pages * PAGE_SIZE - HEADER_SIZE;
        machine.write_bytes(block, &pack_header(requested, capacity, true).to_le_bytes())?;
        Ok(block.add(HEADER_SIZE as u64))
    }
}

impl Allocator for SysHeap {
    fn alloc(&mut self, machine: &mut Machine, size: usize) -> Result<VirtAddr, AllocError> {
        if size > u32::MAX as usize {
            return Err(AllocError::TooLarge { size });
        }
        machine.tick(LOGIC_COST);
        let requested = size.max(1);
        let payload = match header::class_index(requested) {
            Some(class) => self.alloc_small(machine, requested, class)?,
            None => self.alloc_large(machine, requested)?,
        };
        self.stats.note_alloc(requested);
        machine.note_event(payload, EventKind::Alloc { bytes: requested as u32 });
        Ok(payload)
    }

    fn free(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<(), AllocError> {
        machine.tick(LOGIC_COST);
        if addr.raw() < HEADER_SIZE as u64 {
            return Err(AllocError::InvalidFree { addr });
        }
        let header_addr = addr.sub(HEADER_SIZE as u64);
        let h = machine.load_u64(header_addr)?;
        if !header_in_use(h) {
            // A plain malloc would corrupt itself here; we detect the stale
            // header incidentally. (Guaranteed detection is the wrapper's
            // job — the header of a shadow-freed object is unreadable.)
            return Err(AllocError::InvalidFree { addr });
        }
        let requested = header_requested(h);
        let capacity = header_capacity(h);
        machine
            .write_bytes(header_addr, &pack_header(requested, capacity, false).to_le_bytes())?;
        match header::class_of_capacity(capacity) {
            Some(class) => {
                let next = self.free_heads[class].map_or(0, VirtAddr::raw);
                machine.store_u64(addr, next)?;
                self.free_heads[class] = Some(addr);
            }
            None => {
                let pages = (capacity + HEADER_SIZE) / PAGE_SIZE;
                self.large_free.push((pages, header_addr));
            }
        }
        self.stats.note_free(requested);
        machine.note_event(addr, EventKind::Free { bytes: requested as u32 });
        Ok(())
    }

    fn size_of(&self, machine: &mut Machine, addr: VirtAddr) -> Result<usize, AllocError> {
        if addr.raw() < HEADER_SIZE as u64 {
            return Err(AllocError::InvalidFree { addr });
        }
        let h = machine.load_u64(addr.sub(HEADER_SIZE as u64))?;
        if !header_in_use(h) {
            return Err(AllocError::InvalidFree { addr });
        }
        Ok(header_requested(h))
    }

    fn name(&self) -> &'static str {
        "sys"
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, SysHeap) {
        (Machine::free_running(), SysHeap::new())
    }

    #[test]
    fn alloc_is_aligned_and_writable() {
        let (mut m, mut h) = setup();
        for size in [1, 8, 17, 100, 4000, 5000, 100_000] {
            let p = h.alloc(&mut m, size).unwrap();
            assert_eq!(p.raw() % 8, 0, "8-byte alignment for size {size}");
            m.store_u8(p, 0xaa).unwrap();
            m.store_u8(p.add(size as u64 - 1), 0xbb).unwrap();
        }
    }

    #[test]
    fn size_of_reports_requested_size() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 37).unwrap();
        assert_eq!(h.size_of(&mut m, p).unwrap(), 37);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 64).unwrap();
        h.free(&mut m, p).unwrap();
        let q = h.alloc(&mut m, 64).unwrap();
        assert_eq!(p, q, "same size class must reuse the freed block (LIFO)");
    }

    #[test]
    fn double_free_detected_via_header() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 32).unwrap();
        h.free(&mut m, p).unwrap();
        assert!(matches!(h.free(&mut m, p), Err(AllocError::InvalidFree { .. })));
    }

    #[test]
    fn free_of_garbage_address_detected_or_traps() {
        let (mut m, mut h) = setup();
        assert!(h.free(&mut m, VirtAddr(8)).is_err());
        assert!(h.free(&mut m, VirtAddr::NULL).is_err());
    }

    #[test]
    fn distinct_live_allocations_do_not_overlap() {
        let (mut m, mut h) = setup();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for size in [16usize, 16, 24, 100, 100, 4064, 5000, 1, 8192, 64] {
            let p = h.alloc(&mut m, size).unwrap();
            let s = (p.raw(), p.raw() + size as u64);
            for &(a, b) in &spans {
                assert!(s.1 <= a || s.0 >= b, "overlap: {s:?} vs {:?}", (a, b));
            }
            spans.push(s);
        }
    }

    #[test]
    fn data_survives_unrelated_alloc_free_traffic() {
        let (mut m, mut h) = setup();
        let keep = h.alloc(&mut m, 128).unwrap();
        for (i, b) in (0..128u64).enumerate() {
            m.store_u8(keep.add(b), (i * 3 % 251) as u8).unwrap();
        }
        for round in 0..50 {
            let t = h.alloc(&mut m, 16 + round * 8).unwrap();
            m.memset(t, 0xff, 16).unwrap();
            h.free(&mut m, t).unwrap();
        }
        for (i, b) in (0..128u64).enumerate() {
            assert_eq!(m.load_u8(keep.add(b)).unwrap(), (i * 3 % 251) as u8);
        }
    }

    #[test]
    fn large_allocations_recycle_pages() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 3 * PAGE_SIZE).unwrap();
        h.free(&mut m, p).unwrap();
        let frames_before = m.stats().phys_frames_in_use;
        let q = h.alloc(&mut m, 2 * PAGE_SIZE).unwrap();
        assert_eq!(
            m.stats().phys_frames_in_use,
            frames_before,
            "large free list must satisfy the request without new mmap"
        );
        assert_eq!(q, p, "first-fit reuses the freed run");
    }

    #[test]
    fn small_allocs_share_pages() {
        // Many small objects must NOT take a page each — that is Electric
        // Fence's pathology, not malloc's.
        let (mut m, mut h) = setup();
        for _ in 0..100 {
            h.alloc(&mut m, 16).unwrap();
        }
        assert!(
            m.stats().phys_frames_in_use <= CHUNK_PAGES as u64,
            "100 x 16B should fit one chunk, used {}",
            m.stats().phys_frames_in_use
        );
    }

    #[test]
    fn stats_reflect_traffic() {
        let (mut m, mut h) = setup();
        let a = h.alloc(&mut m, 10).unwrap();
        let _b = h.alloc(&mut m, 20).unwrap();
        h.free(&mut m, a).unwrap();
        let s = h.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live_objects, 1);
        assert_eq!(s.live_bytes, 20);
        assert_eq!(s.peak_live_bytes, 30);
    }

    #[test]
    fn zero_size_allocation_is_valid() {
        let (mut m, mut h) = setup();
        let p = h.alloc(&mut m, 0).unwrap();
        m.store_u8(p, 1).unwrap();
        h.free(&mut m, p).unwrap();
    }

    #[test]
    fn too_large_rejected() {
        let (mut m, mut h) = setup();
        assert!(matches!(
            h.alloc(&mut m, usize::MAX),
            Err(AllocError::TooLarge { .. })
        ));
    }

    #[test]
    fn free_list_is_per_class() {
        let (mut m, mut h) = setup();
        let small = h.alloc(&mut m, 16).unwrap();
        let big = h.alloc(&mut m, 1024).unwrap();
        h.free(&mut m, small).unwrap();
        h.free(&mut m, big).unwrap();
        // Allocating the big class must not return the small block.
        let q = h.alloc(&mut m, 1000).unwrap();
        assert_eq!(q, big);
        let r = h.alloc(&mut m, 12).unwrap();
        assert_eq!(r, small);
    }
}


#[cfg(test)]
mod randomized {
    use super::*;
    use dangle_testkit::SeededRng as TestRng;

    /// Under any alloc/free sequence: live allocations never overlap, each
    /// carries its pattern intact, and stats stay consistent.
    #[test]
    fn allocator_integrity() {
        for case in 0..64u64 {
            let mut rng = TestRng::new(0x5e9_0001 + case * 0x9e37_79b9);
            let nops = 1 + rng.below(119) as usize;
            let mut m = Machine::free_running();
            let mut h = SysHeap::new();
            // live: (addr, size, seed)
            let mut live: Vec<(VirtAddr, usize, u8)> = Vec::new();
            let mut seed = 0u8;
            for _ in 0..nops {
                if rng.chance(3, 5) {
                    let size = rng.range(1, 10_000) as usize;
                    seed = seed.wrapping_add(41);
                    let p = h.alloc(&mut m, size).unwrap();
                    // No overlap with any live object.
                    for &(q, qs, _) in &live {
                        let disjoint = p.raw() + size as u64 <= q.raw()
                            || q.raw() + qs as u64 <= p.raw();
                        assert!(disjoint, "case {case}: {p:?}+{size} overlaps {q:?}+{qs}");
                    }
                    // Fill with a recognizable pattern.
                    for i in 0..size.min(64) {
                        m.store_u8(p.add(i as u64), seed.wrapping_add(i as u8)).unwrap();
                    }
                    live.push((p, size, seed));
                } else {
                    if live.is_empty() {
                        continue;
                    }
                    let i = rng.below(64) as usize % live.len();
                    let (p, size, s) = live.swap_remove(i);
                    // Pattern still intact at free time.
                    for i in 0..size.min(64) {
                        assert_eq!(
                            m.load_u8(p.add(i as u64)).unwrap(),
                            s.wrapping_add(i as u8),
                            "case {case}"
                        );
                    }
                    h.free(&mut m, p).unwrap();
                }
            }
            assert_eq!(h.stats().live_objects as usize, live.len(), "case {case}");
        }
    }

    /// size_of always reports the requested size for live objects.
    #[test]
    fn size_of_matches() {
        for case in 0..16u64 {
            let mut rng = TestRng::new(0x517e_0000u64 + case);
            let mut m = Machine::free_running();
            let mut h = SysHeap::new();
            let n = 1 + rng.below(39) as usize;
            let ptrs: Vec<_> = (0..n)
                .map(|_| {
                    let s = rng.range(1, 20_000) as usize;
                    (h.alloc(&mut m, s).unwrap(), s)
                })
                .collect();
            for (p, s) in ptrs {
                assert_eq!(h.size_of(&mut m, p).unwrap(), s, "case {case}");
            }
        }
    }

    /// Telemetry sees exactly one Alloc and one Free event per operation.
    #[test]
    fn alloc_free_events_are_recorded() {
        let mut m = Machine::free_running();
        let mut h = SysHeap::new();
        let p = h.alloc(&mut m, 48).unwrap();
        let q = h.alloc(&mut m, 4096).unwrap();
        h.free(&mut m, p).unwrap();
        h.free(&mut m, q).unwrap();
        let t = m.telemetry();
        assert_eq!(t.counter("event.alloc"), 2);
        assert_eq!(t.counter("event.free"), 2);
        let kinds: Vec<_> = t.ring().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Alloc { bytes: 48 }));
        assert!(kinds.contains(&EventKind::Free { bytes: 4096 }));
    }
}

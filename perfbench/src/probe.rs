//! `Probe`: the benchmark's `Backend` wrapper.
//!
//! Every workload reaches the detector (`core`, with `pool` and `heap`
//! underneath) and simulated memory (`vmm`) only through the `Backend`
//! trait, so one wrapper around the backend sees every call that crosses
//! from a driver or the VM into those layers. The probe always
//!
//! * counts calls per kind, bytes moved by access calls, and detections;
//! * reads the simulated clock before each `pool_create` and after each
//!   `pool_destroy`, giving one exact scope-latency sample per pool.
//!
//! In a traced run it also times calls on the host clock: every detector
//! call, and one access call in [`ACCESS_STRIDE`]. Access calls are too
//! many and too short to time each one (two clock reads would dominate
//! them), so their busy time is the sampled time scaled by the call
//! count. [`timer_cost_ns`] measures what one clock read costs, so self
//! times can be reported net of the timing itself.

use dangle_interp::backend::{Backend, BackendError, PoolHandle};
use dangle_vmm::{Machine, Trap, VirtAddr};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One access call in this many is timed in a traced run. Prime, so the
/// sample does not lock onto a loop whose body makes a power-of-two
/// number of accesses.
pub const ACCESS_STRIDE: u64 = 13;

/// Detector entry points, in report order.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Alloc,
    Free,
    /// `alloc_unchecked` and `free_unchecked`: sites lint proved safe.
    Unchecked,
    PoolCreate,
    PoolDestroy,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::Alloc,
        Op::Free,
        Op::Unchecked,
        Op::PoolCreate,
        Op::PoolDestroy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Alloc => "alloc",
            Op::Free => "free",
            Op::Unchecked => "unchecked",
            Op::PoolCreate => "pool_create",
            Op::PoolDestroy => "pool_destroy",
        }
    }
}

/// Call counts: deterministic for a fixed input, so they are part of the
/// simulated-identity check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub calls: [u64; 5],
    pub access_calls: u64,
    pub access_bytes: u64,
    pub detections: u64,
}

impl Counts {
    pub fn add(&mut self, other: &Counts) {
        for (a, b) in self.calls.iter_mut().zip(other.calls) {
            *a += b;
        }
        self.access_calls += other.access_calls;
        self.access_bytes += other.access_bytes;
        self.detections += other.detections;
    }

    pub fn core_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Host time measured inside calls (traced runs only).
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// Summed measured duration and number of timed calls, per [`Op`].
    pub op_ns: [u64; 5],
    pub op_timed: [u64; 5],
    /// The same for the sampled access calls.
    pub access_ns: u64,
    pub access_timed: u64,
}

impl Timings {
    pub fn add(&mut self, other: &Timings) {
        for i in 0..5 {
            self.op_ns[i] += other.op_ns[i];
            self.op_timed[i] += other.op_timed[i];
        }
        self.access_ns += other.access_ns;
        self.access_timed += other.access_timed;
    }

    /// Calls that read the clock twice.
    pub fn timed_calls(&self) -> u64 {
        self.op_timed.iter().sum::<u64>() + self.access_timed
    }
}

/// Host cost of one `Instant::now()` in nanoseconds, measured over a
/// burst of back-to-back reads.
pub fn timer_cost_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// The wrapper. See the [module docs](self).
pub struct Probe<B: ?Sized> {
    inner: Box<B>,
    timed: bool,
    pub counts: Counts,
    pub times: Timings,
    /// Simulated clock at each live pool's `pool_create`.
    open: HashMap<PoolHandle, u64>,
    /// Simulated cycles from `pool_create` to `pool_destroy`, per pool, in
    /// destroy order.
    pub scopes: Vec<u64>,
}

impl<B: Backend + ?Sized> Probe<B> {
    pub fn new(inner: Box<B>, timed: bool) -> Probe<B> {
        Probe {
            inner,
            timed,
            counts: Counts::default(),
            times: Timings::default(),
            open: HashMap::new(),
            scopes: Vec::new(),
        }
    }

    fn op<T>(
        &mut self,
        op: Op,
        call: impl FnOnce(&mut B) -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let i = op as usize;
        self.counts.calls[i] += 1;
        let result = if self.timed {
            let start = Instant::now();
            let r = call(&mut *self.inner);
            self.times.op_ns[i] += start.elapsed().as_nanos() as u64;
            self.times.op_timed[i] += 1;
            r
        } else {
            call(&mut *self.inner)
        };
        self.note(&result);
        result
    }

    fn access<T>(
        &mut self,
        bytes: usize,
        call: impl FnOnce(&mut B) -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        self.counts.access_calls += 1;
        self.counts.access_bytes += bytes as u64;
        let result = if self.timed && self.counts.access_calls.is_multiple_of(ACCESS_STRIDE) {
            let start = Instant::now();
            let r = call(&mut *self.inner);
            self.times.access_ns += start.elapsed().as_nanos() as u64;
            self.times.access_timed += 1;
            r
        } else {
            call(&mut *self.inner)
        };
        self.note(&result);
        result
    }

    fn note<T>(&mut self, result: &Result<T, BackendError>) {
        if matches!(result, Err(e) if e.is_detection()) {
            self.counts.detections += 1;
        }
    }
}

impl<B: Backend + ?Sized> Backend for Probe<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.op(Op::Alloc, |b| b.alloc(machine, size, pool))
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.op(Op::Free, |b| b.free(machine, addr, pool))
    }

    fn alloc_unchecked(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.op(Op::Unchecked, |b| b.alloc_unchecked(machine, size, pool))
    }

    fn free_unchecked(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.op(Op::Unchecked, |b| b.free_unchecked(machine, addr, pool))
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        let opened = machine.clock();
        let handle = self.op(Op::PoolCreate, |b| b.pool_create(machine, elem_hint))?;
        self.open.insert(handle, opened);
        Ok(handle)
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.op(Op::PoolDestroy, |b| b.pool_destroy(machine, pool))?;
        if let Some(opened) = self.open.remove(&pool) {
            self.scopes.push(machine.clock() - opened);
        }
        Ok(())
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        self.access(width, |b| b.load(machine, addr, width))
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        self.access(width, |b| b.store(machine, addr, width, value))
    }

    fn load_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), BackendError> {
        self.access(buf.len(), |b| b.load_bytes(machine, addr, buf))
    }

    fn store_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &[u8],
    ) -> Result<(), BackendError> {
        self.access(buf.len(), |b| b.store_bytes(machine, addr, buf))
    }

    fn memset(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        byte: u8,
        len: usize,
    ) -> Result<(), BackendError> {
        self.access(len, |b| b.memset(machine, addr, byte, len))
    }

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.inner.explain(trap)
    }

    fn compute(&mut self, machine: &mut Machine, cycles: u64) {
        self.inner.compute(machine, cycles);
    }
}

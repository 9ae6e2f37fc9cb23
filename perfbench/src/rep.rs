//! What one repetition of a workload measures, and the interface every
//! workload implements.

use crate::probe::{Counts, Probe, Timings};
use dangle_interp::backend::Backend;
use dangle_telemetry::TelemetryConfig;
use dangle_vmm::{Machine, MachineConfig};

/// How a repetition is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The default telemetry configuration and no host timing: what the
    /// end-to-end metrics measure.
    Untraced,
    /// Telemetry switched off entirely, to measure what it costs.
    TelemetryOff,
    /// The flight recorder on and the probe timing calls.
    Traced,
}

impl Mode {
    pub fn machine(self, cores: usize) -> Machine {
        let telemetry = match self {
            Mode::Untraced => TelemetryConfig::default(),
            Mode::TelemetryOff => TelemetryConfig::disabled(),
            Mode::Traced => TelemetryConfig::traced(),
        };
        Machine::with_config(MachineConfig {
            cores,
            telemetry,
            ..MachineConfig::default()
        })
    }

    pub fn probe<B: Backend + ?Sized>(self, backend: Box<B>) -> Probe<B> {
        Probe::new(backend, self == Mode::Traced)
    }
}

/// Everything a repetition reports that must repeat exactly for a fixed
/// seed: simulated cycles, pages, call counts and outcomes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    /// Simulated cycles of the detector run (server-mix: the maximum core
    /// clock; otherwise the sum over kernels or programs).
    pub cycles: u64,
    /// Sum of every core clock of every machine.
    pub core_clock_sum: u64,
    pub overhead_x: f64,
    /// Peak frames summed over the workload's machines: what its
    /// processes would hold if they all ran at once.
    pub phys_frames_peak: u64,
    pub virt_pages_consumed: u64,
    pub counts: Counts,
    /// Pool scope latencies in simulated cycles.
    pub scopes: Vec<u64>,
    pub loads: u64,
    pub stores: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub shootdown_ipis: u64,
    /// mmap, mremap, mprotect, munmap crossings.
    pub syscalls: [u64; 4],
    /// Interpreter steps (minic-pipeline).
    pub steps: u64,
    pub uaf_injected: u64,
    pub uaf_detected: u64,
    /// Free sites lint proved safe, and all free sites (minic-pipeline).
    pub sites_safe: u64,
    pub sites_total: u64,
    pub source_bytes: u64,
    /// `pool.pages_recycled` and `pool.pages_fresh`; `None` when telemetry
    /// is off, since the registry then counts nothing.
    pub pool_pages: Option<[u64; 2]>,
    /// Flight-recorder cycles per category, in `Category::ALL` order;
    /// `Some` only in traced repetitions.
    pub categories: Option<[u64; 5]>,
}

impl Sim {
    /// Folds one finished machine into the totals (workloads that run one
    /// machine per kernel or program).
    pub fn add_machine(&mut self, m: &Machine) {
        let s = m.stats();
        self.core_clock_sum += (0..m.core_count()).map(|c| m.core_clock(c)).sum::<u64>();
        self.phys_frames_peak += s.phys_frames_peak;
        self.virt_pages_consumed += m.virt_pages_consumed();
        self.loads += s.loads;
        self.stores += s.stores;
        let (hits, misses) = m.tlb_totals();
        self.tlb_hits += hits;
        self.tlb_misses += misses;
        self.shootdown_ipis += s.shootdown_ipis;
        for (acc, v) in self.syscalls.iter_mut().zip([
            s.mmap_calls,
            s.mremap_calls,
            s.mprotect_calls,
            s.munmap_calls,
        ]) {
            *acc += v;
        }
        let telemetry = m.telemetry();
        if telemetry.enabled() {
            let pages = self.pool_pages.get_or_insert([0, 0]);
            pages[0] += telemetry.counter("pool.pages_recycled");
            pages[1] += telemetry.counter("pool.pages_fresh");
        }
        if let Some(tracer) = telemetry.tracer() {
            let cats = self.categories.get_or_insert([0; 5]);
            for (acc, (_, cycles)) in cats.iter_mut().zip(tracer.categories()) {
                *acc += cycles;
            }
        }
    }

    /// Folds one probe's counts and scope samples into the totals.
    pub fn add_probe<B: ?Sized>(&mut self, p: &Probe<B>) {
        self.counts.add(&p.counts);
        self.scopes.extend_from_slice(&p.scopes);
    }

    /// Describes the first way `other` differs from `self`, comparing the
    /// telemetry-derived fields only where both repetitions have them.
    pub fn mismatch(&self, other: &Sim) -> Option<String> {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.pool_pages.is_none() || b.pool_pages.is_none() {
            a.pool_pages = None;
            b.pool_pages = None;
        }
        if a.categories.is_none() || b.categories.is_none() {
            a.categories = None;
            b.categories = None;
        }
        if a == b {
            return None;
        }
        let fields = [
            ("cycles", a.cycles != b.cycles),
            ("core clocks", a.core_clock_sum != b.core_clock_sum),
            ("overhead", a.overhead_x.to_bits() != b.overhead_x.to_bits()),
            (
                "pages",
                (a.phys_frames_peak, a.virt_pages_consumed)
                    != (b.phys_frames_peak, b.virt_pages_consumed),
            ),
            ("layer counts", a.counts != b.counts),
            ("scope samples", a.scopes != b.scopes),
            (
                "accesses",
                (a.loads, a.stores, a.tlb_hits, a.tlb_misses)
                    != (b.loads, b.stores, b.tlb_hits, b.tlb_misses),
            ),
            (
                "syscalls",
                (a.syscalls, a.shootdown_ipis) != (b.syscalls, b.shootdown_ipis),
            ),
            ("pool pages", a.pool_pages != b.pool_pages),
            ("flight recorder", a.categories != b.categories),
        ];
        let which: Vec<&str> = fields.iter().filter(|(_, d)| *d).map(|(n, _)| *n).collect();
        Some(if which.is_empty() {
            "outcomes".to_string()
        } else {
            which.join(", ")
        })
    }
}

/// Host time a repetition spent in each layer's own code.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Time measured inside probed calls.
    pub times: Timings,
    /// Wall time of the code that issued the probed calls: the workload
    /// driver, or `run_compiled` on minic-pipeline.
    pub caller_s: f64,
    pub parse_s: f64,
    pub lint_apa_s: f64,
    pub validate_s: f64,
    pub bc_compile_s: f64,
}

/// One repetition's results.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host wall time of the timed region.
    pub host_s: f64,
    /// Input generation plus machine and backend construction.
    pub setup_s: f64,
    /// The front-end part of `host_s` (minic-pipeline only).
    pub compile_s: f64,
    /// Most heap bytes held at once during the repetition.
    pub heap_peak_bytes: usize,
    /// Operations attempted and those whose outcome differed from the
    /// reference.
    pub attempted: u64,
    pub failed: u64,
    pub sim: Sim,
    pub layers: Layers,
}

/// A workload: inputs and reference outcomes fixed at construction, then
/// any number of measured repetitions.
pub trait Workload {
    /// Simulated cores of the measured machine.
    fn cores(&self) -> usize;

    /// Whether `caller_s` is workload-driver time (else interpreter time).
    fn driver_is_workloads(&self) -> bool;

    /// Runs one repetition.
    fn rep(&mut self, mode: Mode) -> Rep;
}

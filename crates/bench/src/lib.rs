//! # dangle-bench — the evaluation ledger and its measurement helpers
//!
//! One binary, `ledger`, regenerates every table and study of the paper
//! (Tables 1–3, §3.4, §4.3) plus the layer studies (batching, lint,
//! sharding, sampling, engines, page tables, tracing) as a fixed matrix of
//! *cells*:
//!
//! ```text
//! cargo run --release -p dangle-bench --bin ledger
//! ```
//!
//! Every deterministic figure — simulated cycles, syscall counts, page
//! counts, detection verdicts — goes to the committed `perf/ledger.json`;
//! a change that moves one shows up as a diff of that file. Host figures
//! (wall-clock time) go to `perf/ledger-host.json` as the median and
//! interquartile range over [`REPS`] interleaved repetitions. Each cell
//! carries the checks its study promises; the binary writes both files,
//! then exits non-zero listing every failed check.
//!
//! Times are **simulated cycles** from the machine's calibrated cost model
//! unless a field says otherwise; the *ratios* are the reproducible
//! quantities (see EXPERIMENTS.md for the fidelity discussion). This
//! library holds the pieces the cells share: the measurement
//! configurations ([`Config`]), one measured run ([`Measurement`]) and the
//! repetition harness ([`Cell`]).

use dangle_interp::backend::ShadowPoolBackend;
use dangle_interp::backend::{Backend, MemcheckBackend, NativeBackend, PoolBackend};
use dangle_telemetry::{Json, MetricsSnapshot};
use dangle_vmm::{Machine, MachineConfig, MachineStats};
use dangle_workloads::Workload;
use std::fmt::{Debug, Display};
use std::time::Instant;

/// The measurement configurations of Tables 1 and 3, plus the Valgrind
/// baseline of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// Plain malloc ("native" column; we do not model compiler codegen
    /// differences, so this equals "LLVM base" — see EXPERIMENTS.md).
    Native,
    /// Plain malloc, baseline for Ratio 1 ("LLVM (base)" column).
    Base,
    /// Automatic Pool Allocation only ("PA").
    Pa,
    /// PA plus a no-op syscall per (de)allocation ("PA + dummy syscalls").
    PaDummy,
    /// The paper's detector: shadow pages + pool VA recycling ("Our
    /// approach").
    Ours,
    /// Valgrind-memcheck-style software checking.
    Memcheck,
}

impl Config {
    /// Machine-readable key used in the ledger.
    pub fn key(&self) -> &'static str {
        match self {
            Config::Native => "native",
            Config::Base => "base",
            Config::Pa => "pa",
            Config::PaDummy => "pa_dummy",
            Config::Ours => "ours",
            Config::Memcheck => "memcheck",
        }
    }

    /// Instantiates the scheme.
    pub fn backend(&self) -> Box<dyn Backend> {
        match self {
            Config::Native | Config::Base => Box::new(NativeBackend::new()),
            Config::Pa => Box::new(PoolBackend::new()),
            Config::PaDummy => Box::new(PoolBackend::with_dummy_syscalls()),
            Config::Ours => Box::new(ShadowPoolBackend::new()),
            Config::Memcheck => Box::new(MemcheckBackend::new()),
        }
    }
}

/// One measured run. Every field is simulated and deterministic.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Workload checksum (must agree across configurations).
    pub checksum: u64,
    /// Machine counters at completion.
    pub stats: MachineStats,
    /// Full telemetry snapshot (event counters, pool/core/gc metrics, and
    /// the derived `vmm.*` gauges) at completion.
    pub metrics: MetricsSnapshot,
}

impl Measurement {
    /// The standard JSON view of one run, embedded in every ledger row:
    /// cycles, syscall counts by kind, TLB hit/miss counts, sampled-
    /// protection decision counts, access counts, memory high-water marks
    /// and the raw metrics snapshot. Batching and sampling keys are always
    /// emitted (zero when the layer is off) so the schema is stable.
    pub fn to_json(&self) -> Json {
        let s = &self.stats;
        let counter = |name| Json::from_u64(self.metrics.counter(name));
        obj(vec![
            ("cycles", Json::from_u64(self.cycles)),
            ("checksum", Json::from_u64(self.checksum)),
            (
                "syscalls",
                obj(u64s(&[
                    ("mmap", s.mmap_calls),
                    ("mremap", s.mremap_calls),
                    ("mprotect", s.mprotect_calls),
                    ("mprotect_batch", s.mprotect_batch_calls),
                    ("ranges_batched", s.ranges_batched),
                    ("munmap", s.munmap_calls),
                    ("dummy", s.dummy_calls),
                    ("total", s.total_syscalls()),
                ])),
            ),
            (
                "tlb",
                obj(vec![
                    ("hits", counter("vmm.tlb_hits")),
                    ("misses", counter("vmm.tlb_misses")),
                ]),
            ),
            (
                "sampling",
                obj(vec![
                    ("protected", counter("sampling.protected")),
                    ("skipped", counter("sampling.skipped")),
                    ("budget_exhausted", counter("sampling.budget_exhausted")),
                ]),
            ),
            (
                "accesses",
                obj(u64s(&[("loads", s.loads), ("stores", s.stores)])),
            ),
            (
                "memory",
                obj(u64s(&[
                    ("virt_pages_consumed", s.virt_pages_allocated),
                    ("virt_pages_mapped_peak", s.virt_pages_mapped_peak),
                    ("phys_frames_peak", s.phys_frames_peak),
                ])),
            ),
            ("traps", Json::from_u64(s.traps)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// A JSON object from borrowed keys, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::Obj(fields.collect())
}

/// Integer fields (key, value) for [`obj`], in order.
pub fn u64s<'a>(kv: &[(&'a str, u64)]) -> Vec<(&'a str, Json)> {
    kv.iter().map(|&(k, v)| (k, Json::from_u64(v))).collect()
}

/// The syscall/TLB decomposition of Tables 1 and 3: the `PA + dummy
/// syscalls` configuration isolates the kernel-crossing share of the
/// overhead; the remainder is TLB pressure.
pub fn decomposition_json(base: &Measurement, pa_dummy: &Measurement, ours: &Measurement) -> Json {
    let overhead = ours.cycles.saturating_sub(base.cycles);
    let syscall_part = pa_dummy.cycles.saturating_sub(base.cycles).min(overhead);
    let tlb_part = overhead - syscall_part;
    let denom = overhead.max(1) as f64;
    obj(vec![
        ("overhead_cycles", Json::from_u64(overhead)),
        ("syscall_cycles", Json::from_u64(syscall_part)),
        ("tlb_cycles", Json::from_u64(tlb_part)),
        ("syscall_share", Json::Float(syscall_part as f64 / denom)),
        ("tlb_share", Json::Float(tlb_part as f64 / denom)),
    ])
}

/// Runs `workload` under `config` on a calibrated machine.
///
/// # Panics
/// As [`measure_on`].
pub fn measure(workload: &dyn Workload, config: Config) -> Measurement {
    measure_with(workload, config, MachineConfig::default())
}

/// [`measure`] with an explicit machine configuration (the ablation
/// sweeps, the page-table comparison).
///
/// # Panics
/// As [`measure_on`].
pub fn measure_with(w: &dyn Workload, config: Config, machine: MachineConfig) -> Measurement {
    let mut machine = Machine::with_config(machine);
    measure_on(w, config.backend().as_mut(), &mut machine)
}

/// Runs `workload` on an explicit `backend` (for detector configurations
/// that have no [`Config`] key, e.g. batched-syscall modes) and a
/// caller-owned machine, which cells can inspect (e.g. the flight
/// recorder) after the run. Telemetry series are zeroed via
/// [`dangle_telemetry::Telemetry::reset_for_run`] first, so consecutive
/// configurations never bleed counters into each other's rows.
///
/// # Panics
/// Panics if the workload fails (correct workloads never trigger a
/// detection).
pub fn measure_on(
    workload: &dyn Workload,
    backend: &mut dyn Backend,
    machine: &mut Machine,
) -> Measurement {
    machine.telemetry_mut().reset_for_run();
    let checksum = workload.run(machine, backend);
    let checksum =
        checksum.unwrap_or_else(|e| panic!("{} on {}: {e}", workload.name(), backend.name()));
    Measurement {
        cycles: machine.clock(),
        checksum,
        stats: *machine.stats(),
        metrics: machine.metrics_snapshot(),
    }
}

/// `a / b` as a float ratio, guarding a zero denominator.
pub fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Repetitions of every cell configuration. Host figures are the median
/// and interquartile range over these; simulated figures must agree
/// across all of them.
pub const REPS: usize = 5;

/// The order configurations `0..n` run in during repetition `rep`: each
/// configuration is interleaved with its partners, and the order flips on
/// every repetition so none of them always runs first (warm caches) or
/// last.
fn rep_order(n: usize, rep: usize) -> Vec<usize> {
    let order = 0..n;
    if rep.is_multiple_of(2) {
        order.collect()
    } else {
        order.rev().collect()
    }
}

/// Median and interquartile range of host samples, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The median sample.
    pub median: f64,
    /// Third quartile minus first quartile (linear interpolation).
    pub iqr: f64,
}

impl Spread {
    /// Summarises `samples` (at least one).
    pub fn of(samples: &[f64]) -> Spread {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let x = p * (s.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
        };
        Spread {
            median: q(0.5),
            iqr: q(0.75) - q(0.25),
        }
    }
}

/// One ledger cell: its deterministic figures, its host figures and the
/// checks that failed while it ran.
#[derive(Debug, Default)]
pub struct Cell {
    /// Simulated (deterministic) figures, in insertion order.
    pub figures: Vec<(String, Json)>,
    /// Host figures, in insertion order.
    pub host: Vec<(String, Json)>,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// What is under check (see [`Cell::scoped`]).
    scope: String,
}

impl Cell {
    /// Records a deterministic figure.
    pub fn set(&mut self, key: &str, value: Json) {
        self.figures.push((key.to_string(), value));
    }

    /// Records a host figure.
    pub fn set_host(&mut self, key: &str, value: Json) {
        self.host.push((key.to_string(), value));
    }

    /// A check: records `what` as a failure unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl Display) -> bool {
        if !ok {
            let sep = if self.scope.is_empty() { "" } else { ": " };
            self.failures.push(format!("{}{sep}{what}", self.scope));
        }
        ok
    }

    /// Runs `f` with `scope` (e.g. a workload name) prefixing every
    /// failure it records, then restores the enclosing scope.
    pub fn scoped<T>(&mut self, scope: impl Display, f: impl FnOnce(&mut Cell) -> T) -> T {
        let outer = std::mem::replace(&mut self.scope, scope.to_string());
        let result = f(self);
        self.scope = outer;
        result
    }

    /// An equality check; the failure names both values (abridged).
    pub fn check_eq<T: PartialEq + Debug>(&mut self, a: T, b: T, what: impl Display) -> bool {
        let short = |v: &T| format!("{v:?}").chars().take(120).collect::<String>();
        a == b || self.check(false, format!("{what}: {} != {}", short(&a), short(&b)))
    }

    /// Runs configurations `labels` [`REPS`] times each, interleaved with
    /// the order flipping every repetition, and returns the first
    /// repetition's results with each configuration's wall-time [`Spread`]
    /// (also recorded as host figure `<label>`). Results hold simulated
    /// figures only, so every repetition must render (`Debug`) exactly
    /// like the first; a difference is a failed check.
    pub fn reps<R: Debug>(
        &mut self,
        labels: &[impl AsRef<str>],
        mut run: impl FnMut(usize) -> R,
    ) -> (Vec<R>, Vec<Spread>) {
        let mut first: Vec<Option<(R, String)>> = labels.iter().map(|_| None).collect();
        let mut ms = vec![Vec::new(); labels.len()];
        for rep in 0..REPS {
            for i in rep_order(labels.len(), rep) {
                let started = Instant::now();
                let r = run(i);
                ms[i].push(started.elapsed().as_secs_f64() * 1e3);
                let view = format!("{r:?}");
                match &first[i] {
                    Some((_, v)) if *v != view => {
                        let label = labels[i].as_ref();
                        self.check(false, format!("{label}: figures differ across repetitions"));
                    }
                    Some(_) => {}
                    None => first[i] = Some((r, view)),
                }
            }
        }
        let spreads: Vec<Spread> = ms.iter().map(|s| Spread::of(s)).collect();
        for (label, s) in labels.iter().zip(&spreads) {
            let figure = obj(vec![
                ("median_ms", Json::Float(s.median)),
                ("iqr_ms", Json::Float(s.iqr)),
            ]);
            self.set_host(label.as_ref(), figure);
        }
        (
            first.into_iter().map(|f| f.expect("REPS >= 1").0).collect(),
            spreads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_workloads::servers::Ghttpd;

    const GHTTPD: Ghttpd = Ghttpd {
        connections: 2,
        response_bytes: 2000,
    };

    #[test]
    fn measurements_are_isolated_and_deterministic() {
        // A run sandwiched between two other configurations must produce a
        // byte-identical ledger row to a standalone run — no counter or
        // histogram bleed through the measurement helper.
        let first = measure(&GHTTPD, Config::Ours);
        measure(&GHTTPD, Config::Memcheck);
        let again = measure(&GHTTPD, Config::Ours);
        assert_eq!(first.to_json().to_string(), again.to_json().to_string());
    }

    #[test]
    fn checksums_agree_across_configs() {
        let native = measure(&GHTTPD, Config::Native).checksum;
        for c in [Config::Pa, Config::PaDummy, Config::Ours, Config::Memcheck] {
            assert_eq!(measure(&GHTTPD, c).checksum, native, "{c:?}");
        }
    }

    #[test]
    fn measurement_json_carries_syscall_and_tlb_breakdown() {
        let m = measure(&GHTTPD, Config::Ours);
        let json = Json::parse(&m.to_json().to_string()).expect("measurement JSON parses back");
        let field = |path: &[&str]| path.iter().try_fold(&json, |j, k| j.get(k))?.as_u64();
        assert_eq!(
            field(&["syscalls", "total"]),
            Some(m.stats.total_syscalls())
        );
        assert_eq!(field(&["syscalls", "mremap"]), Some(m.stats.mremap_calls));
        // Batching and sampling keys are always emitted (zero when the
        // layer is off, as in every paper-table config).
        assert_eq!(field(&["syscalls", "mprotect_batch"]), Some(0));
        assert_eq!(field(&["syscalls", "ranges_batched"]), Some(0));
        assert_eq!(field(&["sampling", "protected"]), Some(0));
        assert_eq!(field(&["sampling", "skipped"]), Some(0));
        assert_eq!(field(&["sampling", "budget_exhausted"]), Some(0));
        let [hits, misses] = [["tlb", "hits"], ["tlb", "misses"]].map(|p| field(&p).unwrap());
        // Page-crossing accesses perform two lookups, so >= not ==.
        assert!(hits + misses >= m.stats.loads + m.stats.stores);
        assert!(misses > 0, "workload touches more pages than the TLB holds");
        assert!(json.get("metrics").is_some(), "raw snapshot embedded");
    }

    #[test]
    fn decomposition_splits_overhead_exactly() {
        let [base, dummy, ours] =
            [Config::Base, Config::PaDummy, Config::Ours].map(|c| measure(&GHTTPD, c));
        let d = decomposition_json(&base, &dummy, &ours);
        let part = |k| d.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(
            part("syscall_cycles") + part("tlb_cycles"),
            part("overhead_cycles")
        );
        assert_eq!(part("overhead_cycles"), ours.cycles - base.cycles);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(10, 0), 10.0);
    }

    #[test]
    fn spread_is_median_and_interquartile_range() {
        let spread = |samples: &[f64]| {
            let s = Spread::of(samples);
            (s.median, s.iqr)
        };
        assert_eq!(spread(&[5.0, 1.0, 4.0, 2.0, 3.0]), (3.0, 2.0));
        assert_eq!(spread(&[7.0]), (7.0, 0.0));
        assert_eq!(spread(&[1.0, 2.0]), (1.5, 0.5));
    }

    #[test]
    fn reps_interleave_and_flag_nondeterministic_figures() {
        let mut cell = Cell::default();
        let mut calls = Vec::new();
        let (first, spreads) = cell.reps(&["a", "b"], |i| (calls.push(i), i).1);
        assert_eq!(&calls[..4], [0, 1, 1, 0], "alternating which runs first");
        assert_eq!(calls.len(), 2 * REPS);
        assert_eq!((first, spreads.len(), cell.host.len()), (vec![0, 1], 2, 2));
        assert!(cell.failures.is_empty());

        let mut n = 0;
        cell.scoped("w", |cell| cell.reps(&["c"], |_| (n += 1, n).1));
        assert_eq!(cell.failures.len(), REPS - 1);
        assert_eq!(cell.failures[0], "w: c: figures differ across repetitions");
        cell.check(false, "outside");
        assert_eq!(cell.failures[REPS - 1], "outside", "scope restored");
    }

    #[test]
    fn failed_checks_are_collected_not_raised() {
        let mut cell = Cell::default();
        assert!(cell.check_eq(1, 1, "one"));
        assert!(!cell.check_eq(1, 2, "two"));
        assert!(!cell.check(false, "three"));
        assert_eq!(cell.failures, ["two: 1 != 2", "three"]);
    }
}

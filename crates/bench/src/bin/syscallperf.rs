//! **syscallperf** — kernel-crossing economy of the batched protection
//! path (vectored `mprotect`/`mmap`, shadow extents, coalesced recycling).
//!
//! ```text
//! cargo run --release -p dangle-bench --bin syscallperf
//! ```
//!
//! Every row runs one workload under three detector configurations:
//!
//! * `off` — the stock detector, one syscall per protection event (the
//!   configuration every table artifact uses);
//! * `eager` — batching on with the default eager flush: extents amortise
//!   allocation-side crossings, frees still protect before returning, so
//!   the detection window is unchanged;
//! * `epoch8` — opt-in deferred mode: protects coalesce across 8 frees
//!   before one vectored flush (trades the intra-epoch window for
//!   crossings; documented in DESIGN.md §9).
//!
//! Asserted on every run:
//!
//! * checksums identical across all three configurations per workload;
//! * an injected use-after-free produces a **byte-identical** trap report
//!   under `off` and `eager` (and is still caught after an epoch flush);
//! * aggregate `mmap + mremap + mprotect` crossings drop by at least 2x
//!   with eager batching, and simulated cycles do not regress.
//!
//! `SYSCALLPERF_QUICK=1` shrinks the workloads for CI smoke runs. The
//! artifact is `BENCH_syscallperf.json`.

use dangle_bench::{measure_backend, render_table, Artifact, Measurement};
use dangle_core::{BatchConfig, ShadowPoolConfig};
use dangle_interp::backend::{Backend, BackendError, ShadowPoolBackend};
use dangle_telemetry::Json;
use dangle_vmm::{Machine, MachineConfig};
use dangle_workloads::olden_trees::{Perimeter, TreeAdd};
use dangle_workloads::servers::{Ftpd, GhttpdKeepAlive};
use dangle_workloads::Workload;

/// The three detector configurations compared by every row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Off,
    Eager,
    Epoch8,
}

impl Mode {
    fn backend(self) -> ShadowPoolBackend {
        let batch = match self {
            Mode::Off => return ShadowPoolBackend::new(),
            Mode::Eager => BatchConfig { enabled: true, ..Default::default() },
            Mode::Epoch8 => {
                BatchConfig { enabled: true, protect_epoch: Some(8), ..Default::default() }
            }
        };
        ShadowPoolBackend::with_config(ShadowPoolConfig { batch, ..Default::default() })
    }
}

/// Runs `workload` under `mode` through the shared measurement helper.
fn run(workload: &dyn Workload, mode: Mode) -> Measurement {
    let mut backend = mode.backend();
    measure_backend(workload, &mut backend, MachineConfig::default())
}

/// The crossings the batching work targets (recycling `munmap`s are also
/// batched but near-zero in these runs, so the headline stays the
/// acceptance triple).
fn crossings(m: &Measurement) -> u64 {
    m.stats.mmap_calls + m.stats.mremap_calls + m.stats.mprotect_calls
}

/// Injects a use-after-free on a fresh backend and returns the trap
/// report. Run before any workload so both configurations see the very
/// first allocation — the batched first-touch path is syscall-for-syscall
/// the legacy path, so the report must match byte for byte.
fn injected_uaf_report(mode: Mode) -> String {
    let mut m = Machine::with_config(MachineConfig::default());
    let mut b = mode.backend();
    let p = b.alloc(&mut m, 16, None).expect("probe alloc");
    b.store(&mut m, p, 8, 0xdead).expect("probe store");
    b.free(&mut m, p, None).expect("probe free");
    let BackendError::Trap { report, .. } = b.load(&mut m, p, 8).expect_err("must trap") else {
        panic!("UAF not trapped under {mode:?}")
    };
    report.expect("trap must be attributed")
}

/// Epoch mode defers protects, so a single free leaves the page readable
/// until the epoch flushes; after 8 frees the 9th object's page must trap.
fn epoch_still_detects_after_flush() {
    let mut m = Machine::with_config(MachineConfig::default());
    let mut b = Mode::Epoch8.backend();
    let objs: Vec<_> = (0..8).map(|_| b.alloc(&mut m, 16, None).expect("alloc")).collect();
    for &p in &objs {
        b.free(&mut m, p, None).expect("free");
    }
    // The 8th free crossed the epoch and flushed every pending protect.
    let err = b.load(&mut m, objs[0], 8).expect_err("flushed page must trap");
    assert!(err.is_detection(), "epoch flush must yield a detection: {err}");
}

fn main() {
    let quick = std::env::var("SYSCALLPERF_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");

    // Detection identity first, on fresh machines (see injected_uaf_report).
    let report_off = injected_uaf_report(Mode::Off);
    let report_eager = injected_uaf_report(Mode::Eager);
    assert_eq!(report_off, report_eager, "batched trap report must be byte-identical");
    epoch_still_detects_after_flush();

    let workloads: Vec<Box<dyn Workload>> = if quick {
        vec![
            Box::new(Ftpd { connections: 2, commands_per_connection: 3, file_bytes: 6_000 }),
            Box::new(GhttpdKeepAlive {
                connections: 4,
                requests_per_connection: 24,
                response_bytes: 2_000,
            }),
            Box::new(TreeAdd { depth: 8, passes: 2 }),
            Box::new(Perimeter { levels: 5 }),
        ]
    } else {
        vec![
            Box::new(Ftpd::default()),
            Box::new(GhttpdKeepAlive {
                connections: 16,
                requests_per_connection: 96,
                response_bytes: 8_000,
            }),
            Box::new(TreeAdd::default()),
            Box::new(Perimeter::default()),
        ]
    };

    let header =
        ["Workload", "crossings off", "crossings eager", "reduction", "cycles off", "cycles eager", "epoch8 crossings"];
    let mut rows = Vec::new();
    let mut artifact_rows = Vec::new();
    let (mut agg_off, mut agg_eager, mut agg_epoch) = (0u64, 0u64, 0u64);
    let (mut cyc_off, mut cyc_eager) = (0u64, 0u64);
    for w in &workloads {
        let off = run(w.as_ref(), Mode::Off);
        let eager = run(w.as_ref(), Mode::Eager);
        let epoch = run(w.as_ref(), Mode::Epoch8);
        assert_eq!(off.checksum, eager.checksum, "{}: eager checksum", w.name());
        assert_eq!(off.checksum, epoch.checksum, "{}: epoch checksum", w.name());
        assert_eq!(off.stats.traps, eager.stats.traps, "{}: trap totals", w.name());
        let (co, ce, cp) = (crossings(&off), crossings(&eager), crossings(&epoch));
        agg_off += co;
        agg_eager += ce;
        agg_epoch += cp;
        cyc_off += off.cycles;
        cyc_eager += eager.cycles;
        let red = co as f64 / ce.max(1) as f64;
        rows.push(vec![
            w.name().to_string(),
            co.to_string(),
            ce.to_string(),
            format!("{red:.2}x"),
            off.cycles.to_string(),
            eager.cycles.to_string(),
            cp.to_string(),
        ]);
        artifact_rows.push(Json::Obj(vec![
            ("workload".into(), Json::Str(w.name().to_string())),
            ("off".into(), off.to_json()),
            ("eager".into(), eager.to_json()),
            ("epoch8".into(), epoch.to_json()),
            ("crossings_off".into(), Json::from_u64(co)),
            ("crossings_eager".into(), Json::from_u64(ce)),
            ("crossings_epoch8".into(), Json::from_u64(cp)),
            ("reduction".into(), Json::Float(red)),
        ]));
    }

    let reduction = agg_off as f64 / agg_eager.max(1) as f64;
    println!("syscallperf: kernel crossings with batched protection syscalls\n");
    println!("{}", render_table(&header, &rows));
    println!(
        "aggregate: {agg_off} -> {agg_eager} crossings ({reduction:.2}x), \
         epoch8 {agg_epoch}; cycles {cyc_off} -> {cyc_eager}"
    );
    println!("(injected-UAF trap reports byte-identical, eager vs off.)");

    assert!(
        reduction >= 2.0,
        "batching must at least halve mmap+mremap+mprotect crossings: {reduction:.2}x"
    );
    assert!(
        cyc_eager <= cyc_off,
        "batching must not regress simulated cycles: {cyc_eager} vs {cyc_off}"
    );
    assert!(agg_epoch <= agg_eager, "epoch mode must not add crossings over eager");

    let mut artifact = Artifact::new("syscallperf");
    artifact.set("quick", Json::Bool(quick));
    artifact.set("rows", Json::Arr(artifact_rows));
    artifact.set(
        "aggregate",
        Json::Obj(vec![
            ("crossings_off".into(), Json::from_u64(agg_off)),
            ("crossings_eager".into(), Json::from_u64(agg_eager)),
            ("crossings_epoch8".into(), Json::from_u64(agg_epoch)),
            ("reduction".into(), Json::Float(reduction)),
            ("cycles_off".into(), Json::from_u64(cyc_off)),
            ("cycles_eager".into(), Json::from_u64(cyc_eager)),
        ]),
    );
    artifact.set("detections_identical", Json::Bool(true));
    artifact.set("injected_uaf_report", Json::Str(report_off));
    artifact.write_cwd().expect("write BENCH artifact");
}

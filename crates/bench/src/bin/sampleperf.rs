//! **sampleperf** — the detection-probability vs overhead curve of
//! budget-aware 1-in-N sampled protection (the GWP-ASan-style hybrid mode).
//!
//! Production fleets rarely run full page-aliasing protection; they protect
//! a sampled subset of allocations and accept probabilistic detection.
//! This binary measures exactly what that trade buys on the simulated
//! machine, sweeping N ∈ {1, 8, 64, 512, ∞} × lint ∈ {off, inter}:
//!
//! * **overhead** on the server workloads (ftpd and the keep-alive ghttpd
//!   mix): simulated cycles and shadow syscalls per sweep point, with
//!   `overhead(N) = cycles(N) − cycles(∞)` (the N = ∞ row is the
//!   all-unchecked floor);
//! * **detection probability** on the injected-UAF corpus: each program is
//!   run under many distinct seeds per N and the caught fraction reported.
//!   Double frees are *always* caught — the inner allocator's block-header
//!   check is free — so the sweep's detection floor is the double-free
//!   share of the corpus, exactly the GWP-ASan story;
//! * **identities**: the N = 1 rows must be byte-identical (output, trap
//!   text, cycles, machine stats) to the unsampled detector, lint-safe
//!   sites must report zero sampled protections (the policy never sees
//!   them), and a sampled run must be reproducible across both engines.
//!
//! Headline assertion: ≥ 10x cycle-overhead reduction at N = 64 vs full
//! protection on the keep-alive ghttpd mix, while the N = 64 sweep still
//! catches a nonzero fraction of the injected UAFs.
//!
//! ```text
//! cargo run --release -p dangle-bench --bin sampleperf
//! ```
//!
//! `SAMPLEPERF_QUICK=1` shrinks the loops for CI smoke runs. The artifact
//! (`BENCH_sampleperf.json`) carries the sweep rows, the detection curve
//! and the identity verdicts.

use dangle_apa::{corpus, parse, pool_allocate, pool_allocate_with_lint_mode, LintMode};
use dangle_bench::{render_table, Artifact};
use dangle_core::{SamplingConfig, ShadowPoolConfig};
use dangle_interp::backend::ShadowPoolBackend;
use dangle_interp::{is_detection, run_with, Engine};
use dangle_telemetry::Json;
use dangle_vmm::{Machine, MachineStats};

const FUEL: u64 = 50_000_000;
const BASE_SEED: u64 = 0x5a3d_11e5;

/// Sweep points: N = 1 (full protection, the identity), three sampled
/// rates, and ∞ (never protect, the overhead floor).
const SWEEP: [(u64, &str); 5] = [
    (1, "1"),
    (8, "8"),
    (64, "64"),
    (512, "512"),
    (SamplingConfig::NEVER, "inf"),
];

struct RunResult {
    output: Vec<i64>,
    detected: bool,
    /// Full trap/detection report text, for byte-identity assertions.
    trap: Option<String>,
    stats: MachineStats,
    cycles: u64,
    protected: u64,
    skipped: u64,
    budget_exhausted: u64,
    elided: u64,
}

impl RunResult {
    fn shadow_syscalls(&self) -> u64 {
        self.stats.mremap_calls + self.stats.mprotect_calls
    }
}

fn run_once(
    src: &str,
    lint: Option<LintMode>,
    sampling: Option<SamplingConfig>,
    engine: Engine,
) -> RunResult {
    let prog = parse(src).expect("suite program parses");
    let transformed = match lint {
        Some(m) => pool_allocate_with_lint_mode(&prog, m).0,
        None => pool_allocate(&prog).0,
    };
    let mut m = Machine::new();
    let mut b = match sampling {
        Some(sampling) => {
            ShadowPoolBackend::with_config(ShadowPoolConfig { sampling, ..Default::default() })
        }
        None => ShadowPoolBackend::new(),
    };
    let (output, detected, trap) = match run_with(engine, &transformed, &mut m, &mut b, FUEL) {
        Ok(o) => (o.output, false, None),
        Err(e) if is_detection(&e) => (Vec::new(), true, Some(e.to_string())),
        Err(e) => panic!("unexpected runtime error: {e}"),
    };
    let snap = m.metrics_snapshot();
    RunResult {
        output,
        detected,
        trap,
        stats: *m.stats(),
        cycles: m.clock(),
        protected: snap.counter("sampling.protected"),
        skipped: snap.counter("sampling.skipped"),
        budget_exhausted: snap.counter("sampling.budget_exhausted"),
        elided: snap.counter("shadow.elided"),
    }
}

/// Asserts the N = 1 run is byte-identical to the unsampled detector —
/// same output, same detection verdict, same trap text, same cycle count,
/// same machine stats. This is the identity the sampling layer promises.
fn assert_n1_identity(label: &str, full: &RunResult, n1: &RunResult) {
    assert_eq!(full.output, n1.output, "{label}: N=1 output diverged");
    assert_eq!(full.detected, n1.detected, "{label}: N=1 detection diverged");
    assert_eq!(full.trap, n1.trap, "{label}: N=1 trap report diverged");
    assert_eq!(full.cycles, n1.cycles, "{label}: N=1 cycles diverged");
    assert_eq!(
        format!("{:?}", full.stats),
        format!("{:?}", n1.stats),
        "{label}: N=1 machine stats diverged"
    );
}

fn main() {
    let quick = std::env::var("SAMPLEPERF_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let detection_seeds: u64 = if quick { 64 } else { 128 };

    println!("sampleperf: budget-aware 1-in-N sampled protection (GWP-ASan-style hybrid)\n");

    // ── Overhead sweep on the server workloads ──────────────────────────
    let servers: Vec<(&str, String)> = vec![
        ("ftpd", corpus::ftpd(if quick { 25 } else { 400 })),
        (
            "ghttpd-keepalive",
            corpus::ghttpd_keepalive(if quick { 10 } else { 60 }, 10),
        ),
    ];
    let lints: [(&str, Option<LintMode>); 2] = [("off", None), ("inter", Some(LintMode::Inter))];

    let header = [
        "Workload", "Lint", "N", "cycles", "overhead", "shadow sys", "protected", "skipped",
    ];
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    let mut headline = None;

    for (wname, src) in &servers {
        for (lname, lint) in &lints {
            let full = run_once(src, *lint, None, Engine::Ast);
            assert!(!full.detected, "{wname}: server workload must run clean");
            let sampled: Vec<RunResult> = SWEEP
                .iter()
                .map(|(n, _)| {
                    run_once(
                        src,
                        *lint,
                        Some(SamplingConfig::one_in(*n).with_seed(BASE_SEED)),
                        Engine::Ast,
                    )
                })
                .collect();
            // N = 1 is an identity with the unsampled detector.
            assert_n1_identity(&format!("{wname}/{lname}"), &full, &sampled[0]);
            for r in &sampled {
                assert_eq!(full.output, r.output, "{wname}/{lname}: output must not depend on N");
                assert!(!r.detected, "{wname}/{lname}: clean workload detected something");
            }
            let floor = sampled.last().expect("sweep has rows").cycles;
            assert!(
                full.cycles >= floor,
                "{wname}/{lname}: full protection cannot be cheaper than the floor"
            );
            let mut row_json = Vec::new();
            for ((n, nlabel), r) in SWEEP.iter().zip(&sampled) {
                let overhead = r.cycles.saturating_sub(floor);
                rows.push(vec![
                    wname.to_string(),
                    lname.to_string(),
                    nlabel.to_string(),
                    r.cycles.to_string(),
                    overhead.to_string(),
                    r.shadow_syscalls().to_string(),
                    r.protected.to_string(),
                    r.skipped.to_string(),
                ]);
                row_json.push(Json::Obj(vec![
                    ("n".into(), Json::Str(nlabel.to_string())),
                    ("one_in".into(), if *n == SamplingConfig::NEVER {
                        Json::Null
                    } else {
                        Json::from_u64(*n)
                    }),
                    ("cycles".into(), Json::from_u64(r.cycles)),
                    ("overhead_cycles".into(), Json::from_u64(overhead)),
                    ("shadow_syscalls".into(), Json::from_u64(r.shadow_syscalls())),
                    ("total_syscalls".into(), Json::from_u64(r.stats.total_syscalls())),
                    ("protected".into(), Json::from_u64(r.protected)),
                    ("skipped".into(), Json::from_u64(r.skipped)),
                    ("budget_exhausted".into(), Json::from_u64(r.budget_exhausted)),
                    ("elided".into(), Json::from_u64(r.elided)),
                ]));
            }
            // Headline: ≥10x cycle-overhead reduction at N=64 on the
            // keep-alive ghttpd mix without lint assistance.
            if *wname == "ghttpd-keepalive" && lint.is_none() {
                let overhead_full = full.cycles - floor;
                let overhead_64 = sampled[2].cycles.saturating_sub(floor);
                assert!(
                    overhead_full >= 10 * overhead_64.max(1),
                    "headline regression: overhead(full)={overhead_full} is not \
                     >= 10x overhead(N=64)={overhead_64}"
                );
                let reduction = overhead_full as f64 / overhead_64.max(1) as f64;
                println!(
                    "headline: ghttpd-keepalive overhead {overhead_full} cycles (full) -> \
                     {overhead_64} cycles (N=64): {reduction:.1}x reduction"
                );
                headline = Some(Json::Obj(vec![
                    ("workload".into(), Json::Str("ghttpd-keepalive".into())),
                    ("lint".into(), Json::Str("off".into())),
                    ("overhead_full_cycles".into(), Json::from_u64(overhead_full)),
                    ("overhead_n64_cycles".into(), Json::from_u64(overhead_64)),
                    ("reduction_factor".into(), Json::Float(reduction)),
                    ("floor_cycles".into(), Json::from_u64(floor)),
                ]));
            }
            sweep_json.push(Json::Obj(vec![
                ("workload".into(), Json::Str(wname.to_string())),
                ("lint".into(), Json::Str(lname.to_string())),
                ("full_cycles".into(), Json::from_u64(full.cycles)),
                ("rows".into(), Json::Arr(row_json)),
                ("n1_identical".into(), Json::Bool(true)),
            ]));
        }
    }

    // ── Sampled runs reproduce across engines (seed determinism) ────────
    let (_, keepalive_src) = &servers[1];
    let engine_cfg = SamplingConfig::one_in(8).with_seed(BASE_SEED);
    let ast = run_once(keepalive_src, None, Some(engine_cfg), Engine::Ast);
    let bc = run_once(keepalive_src, None, Some(engine_cfg), Engine::Bytecode);
    assert_eq!(ast.output, bc.output, "engines: sampled output diverged");
    assert_eq!(ast.cycles, bc.cycles, "engines: sampled cycles diverged");
    assert_eq!(ast.protected, bc.protected, "engines: sampling decisions diverged");
    assert_eq!(ast.skipped, bc.skipped, "engines: sampling decisions diverged");

    // ── Detection-probability sweep on the injected-UAF corpus ──────────
    let uafs = corpus::injected_uafs();
    let mut detection_json = Vec::new();
    let mut fraction_at_64 = 0.0;
    println!();
    for (n, nlabel) in SWEEP {
        let mut runs = 0u64;
        let mut caught = 0u64;
        let mut caught_by_program = Vec::new();
        for (pname, src) in &uafs {
            // The unsampled reference trap, for the N = 1 identity.
            let reference = run_once(src, None, None, Engine::Ast);
            assert!(reference.detected, "{pname}: full protection must detect");
            let mut program_caught = 0u64;
            for s in 0..detection_seeds {
                let cfg = SamplingConfig::one_in(n).with_seed(BASE_SEED ^ (s * 0x9e37_79b9));
                let r = run_once(src, None, Some(cfg), Engine::Ast);
                runs += 1;
                if r.detected {
                    caught += 1;
                    program_caught += 1;
                }
                if n == 1 {
                    assert!(r.detected, "{pname}: N=1 must detect every injected UAF");
                    assert_eq!(
                        reference.trap, r.trap,
                        "{pname}: N=1 trap report diverged from the unsampled detector"
                    );
                    assert_eq!(reference.cycles, r.cycles, "{pname}: N=1 cycles diverged");
                }
            }
            caught_by_program.push(Json::Obj(vec![
                ("program".into(), Json::Str(pname.to_string())),
                ("caught".into(), Json::from_u64(program_caught)),
                ("seeds".into(), Json::from_u64(detection_seeds)),
            ]));
        }
        let fraction = caught as f64 / runs.max(1) as f64;
        if n == 64 {
            fraction_at_64 = fraction;
        }
        println!(
            "detection: N={nlabel:>4}  caught {caught:>4}/{runs} injected-UAF runs \
             ({:.1}%)",
            fraction * 100.0
        );
        detection_json.push(Json::Obj(vec![
            ("n".into(), Json::Str(nlabel.to_string())),
            ("runs".into(), Json::from_u64(runs)),
            ("caught".into(), Json::from_u64(caught)),
            ("fraction".into(), Json::Float(fraction)),
            ("by_program".into(), Json::Arr(caught_by_program)),
        ]));
    }
    assert!(
        fraction_at_64 > 0.0,
        "N=64 sampling must still catch a nonzero fraction of injected UAFs"
    );

    // ── Lint cooperation: safe sites never consume the budget ───────────
    let fingerd = corpus::fingerd(if quick { 25 } else { 200 });
    let lint_safe = run_once(
        &fingerd,
        Some(LintMode::Inter),
        Some(SamplingConfig::one_in(1).with_seed(BASE_SEED)),
        Engine::Ast,
    );
    assert!(!lint_safe.detected, "fingerd is clean");
    assert_eq!(
        lint_safe.protected, 0,
        "lint-safe sites must never be sampled (fingerd is fully elidable under inter)"
    );
    assert_eq!(lint_safe.skipped, 0, "elided sites never reach the sampling policy");
    assert!(lint_safe.elided > 0, "fingerd's sites are elided, not sampled");

    // ── Budgets: a tight token bucket visibly exhausts ──────────────────
    let budget_cfg = SamplingConfig::one_in(1)
        .with_seed(BASE_SEED)
        .with_budgets(4, 2, 512);
    let budget_run = run_once(keepalive_src, None, Some(budget_cfg), Engine::Ast);
    assert!(
        budget_run.budget_exhausted > 0,
        "a 4-token class budget must exhaust on the keep-alive mix"
    );

    println!("\n{}", render_table(&header, &rows));
    println!(
        "identities held: N=1 byte-identical on every workload x lint cell and every \
         injected UAF; zero sampled protections on lint-safe sites; engines agree"
    );

    let mut artifact = Artifact::new("sampleperf");
    artifact.set("quick", Json::Bool(quick));
    artifact.set("sweep", Json::Arr(sweep_json));
    artifact.set("headline", headline.expect("keep-alive sweep ran"));
    artifact.set("detection", Json::Arr(detection_json));
    artifact.set("detection_seeds", Json::from_u64(detection_seeds));
    artifact.set(
        "identity",
        Json::Obj(vec![
            ("n1_rows_identical".into(), Json::Bool(true)),
            ("n1_traps_identical".into(), Json::Bool(true)),
            ("lint_safe_sampled_protections".into(), Json::from_u64(lint_safe.protected)),
            ("lint_safe_elided".into(), Json::from_u64(lint_safe.elided)),
            ("engines_identical".into(), Json::Bool(true)),
        ]),
    );
    artifact.set(
        "budget_demo",
        Json::Obj(vec![
            ("workload".into(), Json::Str("ghttpd-keepalive".into())),
            ("class_tokens".into(), Json::from_u64(4)),
            ("site_tokens".into(), Json::from_u64(2)),
            ("refill_window".into(), Json::from_u64(512)),
            ("protected".into(), Json::from_u64(budget_run.protected)),
            ("budget_exhausted".into(), Json::from_u64(budget_run.budget_exhausted)),
        ]),
    );
    artifact.write_cwd().expect("write BENCH artifact");
}

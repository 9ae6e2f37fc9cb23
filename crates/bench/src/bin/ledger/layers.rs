//! The opt-in layers on top of the paper's detector, each a scenario run
//! under every configuration of its layer, interleaved: batching modes,
//! lint depths, core counts, sampling rates, interpreter engines, page
//! tables, and the flight recorder on and off.

use dangle_apa::{corpus, parse, pool_allocate, pool_allocate_with_lint_mode, LintMode};
use dangle_bench::{measure_on, measure_with, obj, u64s, Cell, Config, Measurement};
use dangle_core::{BatchConfig, SamplingConfig, ShadowHeap, ShadowPool, ShadowPoolConfig};
use dangle_heap::{Allocator, SysHeap};
use dangle_interp::backend::{Backend, BackendError, ShadowBackend};
use dangle_interp::backend::{ShadowPoolBackend, ShardedPoolBackend};
use dangle_interp::{compile, is_detection, run, run_compiled, run_with, Engine, RunError};
use dangle_telemetry::{Json, TelemetryConfig};
use dangle_vmm::{CoreReport, Machine, MachineConfig, MachineStats, PageTableImpl};
use dangle_workloads::concurrent::{ConcurrentMix, ConcurrentReport};
use dangle_workloads::olden_trees::{Perimeter, TreeAdd};
use dangle_workloads::servers::{Ftpd, GhttpdKeepAlive};
use dangle_workloads::{server_suite, utilities, Prng, Workload, REQUEST_HISTOGRAM};
use std::hint::black_box;

const FUEL: u64 = 50_000_000;

/// One MiniC run through the pool transform (lint depth `lint`, `None`
/// for the pass off) on the shadow-pool detector. Its `Debug` rendering
/// is everything observable, for identity checks.
#[derive(Debug)]
struct MiniRun {
    output: Vec<i64>,
    /// Full trap/detection report text, for byte-identity checks.
    trap: Option<String>,
    stats: MachineStats,
    cycles: u64,
    /// `sampling.{protected, skipped, budget_exhausted}`, `shadow.elided`.
    counters: [u64; 4],
    /// Lint verdict counts: safe, unknown, flagged.
    sites: Option<[u64; 3]>,
}

impl MiniRun {
    fn new(src: &str, lint: Option<LintMode>, config: ShadowPoolConfig, engine: Engine) -> Self {
        let prog = parse(src).expect("corpus program parses");
        let (prog, report) = match lint {
            Some(mode) => {
                let (prog, _, report) = pool_allocate_with_lint_mode(&prog, mode);
                (prog, Some(report))
            }
            None => (pool_allocate(&prog).0, None),
        };
        let mut m = Machine::new();
        let mut b = ShadowPoolBackend::with_config(config);
        let (output, trap) = match run_with(engine, &prog, &mut m, &mut b, FUEL) {
            Ok(o) => (o.output, None),
            Err(e) if is_detection(&e) => (Vec::new(), Some(e.to_string())),
            Err(e) => panic!("unexpected runtime error: {e}"),
        };
        let snap = m.metrics_snapshot();
        let sampling = |k| snap.counter(&format!("sampling.{k}"));
        let [protected, skipped, exhausted] =
            ["protected", "skipped", "budget_exhausted"].map(sampling);
        MiniRun {
            output,
            trap,
            stats: *m.stats(),
            cycles: m.clock(),
            counters: [protected, skipped, exhausted, snap.counter("shadow.elided")],
            sites: report.map(|r| [r.sites_safe(), r.sites_unknown(), r.sites_flagged()]),
        }
    }

    fn detected(&self) -> bool {
        self.trap.is_some()
    }

    fn shadow_syscalls(&self) -> u64 {
        self.stats.mremap_calls + self.stats.mprotect_calls
    }

    fn elided(&self) -> u64 {
        self.counters[3]
    }

    /// What the program and the machine did — the view the unsampled and
    /// N = 1 detectors must share (they differ only in their sampling
    /// counters).
    fn behaviour(&self) -> String {
        let (output, trap, stats) = (&self.output, &self.trap, &self.stats);
        format!("{output:?} {trap:?} {} {stats:?}", self.cycles)
    }
}

/// The shadow-pool detector with one batching mode.
fn batched(batch: BatchConfig) -> Box<dyn Backend> {
    let config = ShadowPoolConfig {
        batch,
        ..Default::default()
    };
    Box::new(ShadowPoolBackend::with_config(config))
}

/// Allocates, frees and reloads one object on a fresh machine; returns
/// the rendered trap report (`None` when the load does not trap).
fn probe_uaf(machine: MachineConfig, mut b: Box<dyn Backend>) -> Option<String> {
    let mut m = Machine::with_config(machine);
    let p = b.alloc(&mut m, 16, None).expect("probe alloc");
    b.store(&mut m, p, 8, 0xdead).expect("probe store");
    b.free(&mut m, p, None).expect("probe free");
    match b.load(&mut m, p, 8) {
        Err(BackendError::Trap { report, .. }) => report,
        _ => None,
    }
}

/// **Batching** — kernel crossings of the vectored protection path under
/// `BatchConfig::{Off, Eager, Epoch(8)}`. Eager batching must at least
/// halve `mmap + mremap + mprotect` crossings without regressing cycles,
/// and leave the injected-UAF trap report byte-identical.
pub fn batching(cell: &mut Cell) {
    let modes = [BatchConfig::Off, BatchConfig::Eager, BatchConfig::Epoch(8)];
    let [off, eager] = [0, 1].map(|i| probe_uaf(MachineConfig::default(), batched(modes[i])));
    let identical = cell.check_eq(&off, &eager, "trap report off vs eager");
    let report = off.unwrap_or_default();
    let dangling = report.contains("dangling read");
    cell.check(dangling, format!("UAF report {report:?}"));
    // Epoch mode defers protects: after 8 frees the epoch has flushed and
    // the first object's page must trap.
    let (mut m, mut b) = (Machine::new(), batched(modes[2]));
    let objs = [(); 8].map(|_| b.alloc(&mut m, 16, None).expect("alloc"));
    objs.iter()
        .for_each(|&p| b.free(&mut m, p, None).expect("free"));
    let flushed = b.load(&mut m, objs[0], 8).is_err_and(|e| e.is_detection());
    cell.check(flushed, "epoch flush must yield a detection");

    let workloads: [Box<dyn Workload>; 4] = [
        Box::new(Ftpd::default()),
        Box::new(GhttpdKeepAlive::default()),
        Box::new(TreeAdd::default()),
        Box::new(Perimeter::default()),
    ];
    let (runs, _) = cell.reps(&["off", "eager", "epoch8"], |i| {
        let measure =
            |w: &dyn Workload| measure_on(w, batched(modes[i]).as_mut(), &mut Machine::new());
        workloads
            .iter()
            .map(|w| measure(w.as_ref()))
            .collect::<Vec<_>>()
    });
    let crossings =
        |m: &Measurement| m.stats.mmap_calls + m.stats.mremap_calls + m.stats.mprotect_calls;
    let (mut agg, mut cycles) = ([0u64; 3], [0u64; 2]);
    let mut rows = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        cell.scoped(workload.name(), |cell| {
            let [off, eager, epoch] = [&runs[0][w], &runs[1][w], &runs[2][w]];
            let checksums = [eager.checksum, epoch.checksum];
            cell.check_eq(checksums, [off.checksum; 2], "checksums vs off");
            cell.check_eq(off.stats.traps, eager.stats.traps, "trap totals");
            let c = [off, eager, epoch].map(crossings);
            cell.check(c[1] <= c[0], "eager adds crossings");
            let ran = [off, eager, epoch].iter().all(|m| m.cycles > 0);
            cell.check(ran, "zero cycles");
            (0..3).for_each(|k| agg[k] += c[k]);
            cycles[0] += off.cycles;
            cycles[1] += eager.cycles;
            rows.push(obj(vec![
                ("workload", Json::Str(workload.name().into())),
                ("off", off.to_json()),
                ("eager", eager.to_json()),
                ("epoch8", epoch.to_json()),
                ("crossings_off", Json::from_u64(c[0])),
                ("crossings_eager", Json::from_u64(c[1])),
                ("crossings_epoch8", Json::from_u64(c[2])),
                ("reduction", Json::Float(c[0] as f64 / c[1].max(1) as f64)),
            ]));
        });
    }
    let reduction = agg[0] as f64 / agg[1].max(1) as f64;
    cell.check(reduction >= 2.0, format!("crossings cut {reduction:.2}x"));
    cell.check(cycles[1] <= cycles[0], format!("cycles {cycles:?} regress"));
    cell.check(agg[2] <= agg[1], "epoch mode adds crossings over eager");
    cell.set("rows", Json::Arr(rows));
    let mut aggregate = u64s(&[
        ("crossings_off", agg[0]),
        ("crossings_eager", agg[1]),
        ("crossings_epoch8", agg[2]),
    ]);
    aggregate.push(("reduction", Json::Float(reduction)));
    aggregate.extend(u64s(&[
        ("cycles_off", cycles[0]),
        ("cycles_eager", cycles[1]),
    ]));
    cell.set("aggregate", obj(aggregate));
    cell.set("detections_identical", Json::Bool(identical));
    cell.set("injected_uaf_report", Json::Str(report));
}

/// The lint study's programs: name, kind, source, and whether the program
/// must trap at run time.
fn lint_suite() -> Vec<(&'static str, &'static str, String, bool)> {
    let server = |name, src| (name, "server", src, false);
    let mut v = vec![
        server("fingerd", corpus::fingerd(2000)),
        server("ftpd", corpus::ftpd(1000)),
        server("ftpd-helper", corpus::ftpd_helper(1000)),
        server("ghttpd", corpus::ghttpd(1000)),
        server("ghttpd-keepalive", corpus::ghttpd_keepalive(100, 10)),
        ("figure1", "figure1", dangle_apa::FIGURE_1.to_string(), true),
        ("figure1-fixed", "figure1", corpus::figure1_fixed(), false),
    ];
    let uafs = corpus::injected_uafs().into_iter();
    v.extend(uafs.map(|(name, src)| (name, "injected-uaf", src.to_string(), true)));
    v
}

/// **Lint** — what the dangle-lint elision pass buys at run time, by
/// analysis depth: off, intra-procedural, inter-procedural. Elision must
/// preserve behaviour (output, detection, trap text) in every mode and on
/// both engines, never flag a clean program, and be monotone in depth;
/// fingerd reaches zero shadow syscalls, and at least one server needs the
/// interprocedural summaries for its reduction.
pub fn lint(cell: &mut Cell) {
    let programs = lint_suite();
    let modes = [None, Some(LintMode::Intra), Some(LintMode::Inter)];
    let mini = |src: &str, mode, engine| MiniRun::new(src, mode, Default::default(), engine);
    let (runs, _) = cell.reps(&["off", "intra", "inter"], |i| {
        programs
            .iter()
            .map(|p| mini(&p.2, modes[i], Engine::Ast))
            .collect::<Vec<_>>()
    });
    let (mut strict, mut needs_summaries, mut total_elided) = (0, 0, 0);
    let mut rows = Vec::new();
    for (i, (name, kind, src, expect_detection)) in programs.iter().enumerate() {
        cell.scoped(name, |cell| {
            let [off, intra, inter] = [&runs[0][i], &runs[1][i], &runs[2][i]];
            let failures = cell.failures.len();
            for r in [intra, inter] {
                let same = (&off.output, &off.trap) == (&r.output, &r.trap);
                cell.check(same, "output or trap differ across modes");
            }
            cell.check_eq(inter.detected(), *expect_detection, "detection");
            cell.check_eq(off.elided(), 0, "elided with the pass off");
            let detections_identical = cell.failures.len() == failures;

            // The lint stamps must survive compilation: the bytecode engine
            // matches the AST run under inter, and on detecting programs the
            // trap text matches in every mode.
            let failures = cell.failures.len();
            let bytecode = mini(src, modes[2], Engine::Bytecode);
            cell.check_eq(format!("{inter:?}"), format!("{bytecode:?}"), "engines");
            if *expect_detection {
                for mode in &modes[..2] {
                    let bytecode = mini(src, *mode, Engine::Bytecode);
                    cell.check_eq(&off.trap, &bytecode.trap, format!("{mode:?} trap"));
                }
            }
            let engines_identical = cell.failures.len() == failures;

            let [si, sn] = [intra, inter].map(|r| r.sites.unwrap_or_default());
            // No false Definite verdict: clean programs at either depth, and
            // figure1 (which traps at run time) under inter.
            if !expect_detection {
                cell.check_eq(si[2], 0, "Definite verdict under intra");
            }
            if *kind != "injected-uaf" {
                cell.check_eq(sn[2], 0, "Definite verdict under inter");
            }
            cell.check(sn[0] >= si[0], "inter less precise than intra");
            let shadow = [off, intra, inter].map(MiniRun::shadow_syscalls);
            let monotone = shadow[2] <= shadow[1] && shadow[1] <= shadow[0];
            cell.check(monotone, format!("shadow syscalls {shadow:?}"));
            strict += u64::from(*kind == "server" && shadow[2] < shadow[0]);
            needs_summaries += u64::from(*kind == "server" && shadow[2] < shadow[1]);
            total_elided += inter.elided();
            match *name {
                "fingerd" => cell.check_eq(shadow[2], 0, "shadow syscalls under inter"),
                "figure1-fixed" => cell.check_eq([sn[1], sn[2], shadow[2]], [0; 3], "not safe"),
                _ => true,
            };
            let mode_json = |r: &MiniRun| {
                let mut fields = vec![
                    ("elided", r.elided()),
                    ("shadow_syscalls", r.shadow_syscalls()),
                    ("total_syscalls", r.stats.total_syscalls()),
                    ("cycles", r.cycles),
                ];
                if let Some([safe, unknown, flagged]) = r.sites {
                    fields.push(("sites_safe", safe));
                    fields.push(("sites_unknown", unknown));
                    fields.push(("sites_flagged", flagged));
                }
                obj(u64s(&fields))
            };
            rows.push(obj(vec![
                ("name", Json::Str(name.to_string())),
                ("kind", Json::Str(kind.to_string())),
                ("off", mode_json(off)),
                ("intra", mode_json(intra)),
                ("inter", mode_json(inter)),
                ("detected", Json::Bool(inter.detected())),
                ("detections_identical", Json::Bool(detections_identical)),
                ("engines_identical", Json::Bool(engines_identical)),
            ]));
        });
    }
    cell.check(rows.len() >= 11, "programs missing");
    cell.check(strict >= 1, "no server sees a strict shadow reduction");
    cell.check(needs_summaries >= 1, "no server needs the summaries");
    cell.check(total_elided > 0, "the elision pass never fired");
    cell.set("programs", Json::Arr(rows));
    cell.set("servers_with_strict_reduction", Json::from_u64(strict));
    cell.set("servers_inter_beats_intra", Json::from_u64(needs_summaries));
}

/// The normalized detection records of a concurrent run.
fn detections(report: &ConcurrentReport) -> String {
    let record = |d: &dangle_workloads::concurrent::Detection| {
        obj(vec![
            ("session", Json::from_u64(d.session.into())),
            ("kind", Json::Str(d.kind.to_string())),
            ("bytes", Json::from_u64(d.bytes as u64)),
        ])
    };
    Json::Arr(report.detections.iter().map(record).collect()).to_string()
}

/// **Shards** — the sharded detector over the concurrent keep-alive
/// ghttpd mix at 1, 2, 4 and 8 cores. Wall time is the slowest core's
/// clock; sessions/sec at 8 cores must be at least 3x one core, and the
/// injected-UAF detection records byte-identical at every core count.
pub fn shards(cell: &mut Cell) {
    const CORES: [usize; 4] = [1, 2, 4, 8];
    let mix = ConcurrentMix {
        sessions: 2_000,
        requests_per_session: 12,
        response_bytes: 4_000,
        injected_uafs: 32,
        seed: 1,
        ghttpd_only: true,
    };
    let (runs, _) = cell.reps(&["cores1", "cores2", "cores4", "cores8"], |i| {
        let mut m = Machine::with_config(MachineConfig {
            cores: CORES[i],
            ..Default::default()
        });
        let report = mix.run(&mut m, &mut ShardedPoolBackend::new(CORES[i]));
        let per_core: Vec<CoreReport> = (0..CORES[i]).map(|c| m.core_report(c)).collect();
        (
            report.expect("concurrent mix runs"),
            *m.stats(),
            m.max_core_clock(),
            per_core,
        )
    });
    let rate = |wall: u64| mix.sessions as f64 * 1e9 / wall.max(1) as f64;
    let (base, base_stats, base_wall, _) = &runs[0];
    cell.check_eq(base_stats.shootdown_ipis, 0, "one core never shoots down");
    let mut rows = Vec::new();
    for (cores, (report, stats, wall, per_core)) in CORES.iter().zip(&runs) {
        cell.scoped(format!("{cores} cores"), |cell| {
            cell.check_eq(report.checksum, base.checksum, "checksum");
            cell.check_eq(detections(report), detections(base), "detection records");
            cell.check_eq(report.detections.len(), mix.injected_uafs, "detections");
            let max_clock = per_core.iter().map(|c| c.clock).max();
            cell.check_eq(Some(*wall), max_clock, "wall is the slowest core");
            let per_core = per_core.iter().enumerate().map(|(c, r)| {
                let plain = r.clock.checked_sub(r.syscall_cycles + r.penalty_cycles);
                cell.check(plain.is_some(), format!("core {c}: parts exceed its clock"));
                obj(u64s(&[
                    ("core", c as u64),
                    ("clock", r.clock),
                    ("syscall_cycles", r.syscall_cycles),
                    ("penalty_cycles", r.penalty_cycles),
                    ("plain_cycles", plain.unwrap_or_default()),
                    ("tlb_hits", r.tlb_hits),
                    ("tlb_misses", r.tlb_misses),
                ]))
            });
            rows.push(obj(vec![
                ("cores", Json::from_u64(*cores as u64)),
                ("wall_cycles", Json::from_u64(*wall)),
                ("sessions_per_sec", Json::Float(rate(*wall))),
                ("speedup", Json::Float(rate(*wall) / rate(*base_wall))),
                ("shootdown_ipis", Json::from_u64(stats.shootdown_ipis)),
                ("total_syscalls", Json::from_u64(stats.total_syscalls())),
                ("quanta", Json::from_u64(report.quanta)),
                ("detections", Json::from_u64(report.detections.len() as u64)),
                ("per_core", Json::Arr(per_core.collect())),
            ]));
        });
    }
    let speedup = rate(runs[3].2) / rate(*base_wall);
    cell.check(speedup >= 3.0, format!("8 cores scale {speedup:.2}x < 3x"));
    let identical = runs.iter().all(|r| detections(&r.0) == detections(base));
    cell.set("sessions", Json::from_u64(mix.sessions as u64));
    cell.set("injected_uafs", Json::from_u64(mix.injected_uafs as u64));
    cell.set("rows", Json::Arr(rows));
    cell.set("speedup_8_cores", Json::Float(speedup));
    cell.set("detections_identical", Json::Bool(identical));
    cell.set("detections", Json::Str(detections(base)));
}

const BASE_SEED: u64 = 0x5a3d_11e5;

/// Sampling rates swept: N = 1 (full protection, the identity), three
/// sampled rates, and ∞ (never protect, the overhead floor).
const SWEEP: [u64; 5] = [1, 8, 64, 512, SamplingConfig::NEVER];

/// The shadow-pool detector sampling 1 in `n` allocations.
fn one_in(n: u64, seed: u64) -> ShadowPoolConfig {
    let sampling = SamplingConfig::one_in(n).with_seed(seed);
    ShadowPoolConfig {
        sampling,
        ..Default::default()
    }
}

/// A sweep point's label: N, or `inf`.
fn n_label(n: u64) -> String {
    if n == SamplingConfig::NEVER {
        "inf".into()
    } else {
        n.to_string()
    }
}

/// **Sampling** — detection probability against overhead for 1-in-N
/// sampled protection (the GWP-ASan-style hybrid) on ftpd and the
/// keep-alive ghttpd mix, lint off and inter. N = 1 must be byte-identical
/// to the unsampled detector, lint-safe sites never reach the sampling
/// policy, sampled runs reproduce across engines, and N = 64 cuts the
/// keep-alive overhead at least 10x while still catching injected UAFs.
pub fn sampling(cell: &mut Cell) {
    const SEEDS: u64 = 128;
    let keepalive = corpus::ghttpd_keepalive(60, 10);
    let servers = [
        ("ftpd", corpus::ftpd(400)),
        ("ghttpd-keepalive", keepalive.clone()),
    ];
    let lints = [("off", None), ("inter", Some(LintMode::Inter))];
    let cells: Vec<_> = servers
        .iter()
        .flat_map(|s| lints.iter().map(move |l| (s, l)))
        .collect();
    let uafs = corpus::injected_uafs();
    // Configuration 0 is the unsampled detector, i > 0 is SWEEP[i - 1]:
    // the four server runs, then per UAF program one run per seed.
    let labels = ["full", "n1", "n8", "n64", "n512", "ninf"];
    let (runs, _) = cell.reps(&labels, |i| {
        let config = |seed| {
            if i == 0 {
                Default::default()
            } else {
                one_in(SWEEP[i - 1], seed)
            }
        };
        let server = |&((_, src), (_, lint)): &(&(_, String), &(_, _))| {
            MiniRun::new(src, *lint, config(BASE_SEED), Engine::Ast)
        };
        let seeds = if i == 0 { 1 } else { SEEDS };
        let uaf = |&(_, src): &(&str, &str)| -> Vec<MiniRun> {
            let seeded = |s| config(BASE_SEED ^ (s * 0x9e37_79b9));
            (0..seeds)
                .map(|s| MiniRun::new(src, None, seeded(s), Engine::Ast))
                .collect()
        };
        (
            cells.iter().map(server).collect::<Vec<_>>(),
            uafs.iter().map(uaf).collect::<Vec<_>>(),
        )
    });
    let (full, sweep) = runs.split_first().expect("six configurations");

    let mut sweep_json = Vec::new();
    let mut headline = Json::Null;
    let mut n1_rows_identical = true;
    for (k, ((workload, _), (lint, _))) in cells.iter().enumerate() {
        cell.scoped(format!("{workload}/{lint}"), |cell| {
            let f = &full.0[k];
            let identical = cell.check_eq(f.behaviour(), sweep[0].0[k].behaviour(), "N=1");
            n1_rows_identical &= identical;
            let floor = sweep[4].0[k].cycles;
            let clean = !f.detected() && f.cycles >= floor;
            cell.check(clean, "detects, or below the floor");
            let mut rows = Vec::new();
            for (&n, s) in SWEEP.iter().zip(sweep.iter().map(|s| &s.0[k])) {
                let clean = f.output == s.output && !s.detected();
                cell.check(clean, format!("N={}: behaviour", n_label(n)));
                let [protected, skipped, exhausted, elided] = s.counters;
                let overhead = s.cycles.saturating_sub(floor);
                match n {
                    1 => cell.check(skipped == 0 && s.cycles == f.cycles, "N=1 skips"),
                    SamplingConfig::NEVER => {
                        cell.check(protected + overhead == 0, "N=inf protects")
                    }
                    _ => true,
                };
                let one_in = if n == SamplingConfig::NEVER {
                    Json::Null
                } else {
                    Json::from_u64(n)
                };
                let mut row = vec![("n", Json::Str(n_label(n))), ("one_in", one_in)];
                row.extend(u64s(&[
                    ("cycles", s.cycles),
                    ("overhead_cycles", overhead),
                    ("shadow_syscalls", s.shadow_syscalls()),
                    ("total_syscalls", s.stats.total_syscalls()),
                    ("protected", protected),
                    ("skipped", skipped),
                    ("budget_exhausted", exhausted),
                    ("elided", elided),
                ]));
                rows.push(obj(row));
            }
            if (*workload, *lint) == ("ghttpd-keepalive", "off") {
                let full_overhead = f.cycles - floor;
                let n64_overhead = sweep[2].0[k].cycles.saturating_sub(floor);
                let reduction = full_overhead as f64 / n64_overhead.max(1) as f64;
                let enough = full_overhead >= 10 * n64_overhead.max(1);
                cell.check(enough, format!("N=64 cuts overhead {reduction:.1}x < 10x"));
                let mut fields = vec![("workload", Json::Str(workload.to_string()))];
                fields.push(("lint", Json::Str(lint.to_string())));
                fields.extend(u64s(&[
                    ("overhead_full_cycles", full_overhead),
                    ("overhead_n64_cycles", n64_overhead),
                ]));
                fields.push(("reduction_factor", Json::Float(reduction)));
                fields.push(("floor_cycles", Json::from_u64(floor)));
                headline = obj(fields);
            }
            sweep_json.push(obj(vec![
                ("workload", Json::Str(workload.to_string())),
                ("lint", Json::Str(lint.to_string())),
                ("full_cycles", Json::from_u64(f.cycles)),
                ("rows", Json::Arr(rows)),
                ("n1_identical", Json::Bool(identical)),
            ]));
        });
    }
    cell.check_eq(sweep_json.len(), 4, "2 workloads x 2 lint modes");
    cell.set("sweep", Json::Arr(sweep_json));
    cell.set("headline", headline);

    // Detection probability on the injected-UAF corpus.
    let mut n1_traps_identical = true;
    let mut detection = Vec::new();
    for (&n, (_, uaf_runs)) in SWEEP.iter().zip(sweep) {
        let mut by_program = Vec::new();
        let mut caught = 0;
        for (((program, _), reference), runs) in uafs.iter().zip(&full.1).zip(uaf_runs) {
            let reference = &reference[0];
            cell.check(reference.detected(), format!("{program}: undetected"));
            let program_caught = runs.iter().filter(|r| r.detected()).count() as u64;
            caught += program_caught;
            if n == 1 {
                let same = |r: &MiniRun| r.detected() && r.behaviour() == reference.behaviour();
                let identical = runs.iter().all(same);
                n1_traps_identical &= cell.check(identical, format!("{program}: N=1 differs"));
            }
            by_program.push(obj(vec![
                ("program", Json::Str(program.to_string())),
                ("caught", Json::from_u64(program_caught)),
                ("seeds", Json::from_u64(SEEDS)),
            ]));
        }
        let runs = SEEDS * uafs.len() as u64;
        match n {
            1 => cell.check_eq(caught, runs, "N=1 catches every injected UAF"),
            64 => cell.check(caught > 0, "N=64 catches no injected UAF"),
            _ => true,
        };
        detection.push(obj(vec![
            ("n", Json::Str(n_label(n))),
            ("runs", Json::from_u64(runs)),
            ("caught", Json::from_u64(caught)),
            ("fraction", Json::Float(caught as f64 / runs as f64)),
            ("by_program", Json::Arr(by_program)),
        ]));
    }
    cell.set("detection", Json::Arr(detection));
    cell.set("detection_seeds", Json::from_u64(SEEDS));

    // Sampled runs reproduce across engines; lint-safe sites never reach
    // the policy; a tight token bucket visibly exhausts.
    let sampled = |engine| MiniRun::new(&keepalive, None, one_in(8, BASE_SEED), engine);
    let [ast, bytecode] = [Engine::Ast, Engine::Bytecode].map(sampled);
    let engines = cell.check_eq(format!("{ast:?}"), format!("{bytecode:?}"), "engines");
    let fingerd = corpus::fingerd(200);
    let safe = MiniRun::new(&fingerd, lints[1].1, one_in(1, BASE_SEED), Engine::Ast);
    let [protected, skipped, _, elided] = safe.counters;
    let untouched = !safe.detected() && protected + skipped == 0 && elided > 0;
    cell.check(untouched, format!("lint-safe {:?}", safe.counters));
    let mut budget = one_in(1, BASE_SEED);
    budget.sampling = budget.sampling.with_budgets(4, 2, 512);
    let budget_run = MiniRun::new(&keepalive, None, budget, Engine::Ast);
    cell.check(budget_run.counters[2] > 0, "budget never exhausts");
    let mut identity = vec![
        ("n1_rows_identical", Json::Bool(n1_rows_identical)),
        ("n1_traps_identical", Json::Bool(n1_traps_identical)),
    ];
    identity.extend(u64s(&[
        ("lint_safe_sampled_protections", protected),
        ("lint_safe_elided", elided),
    ]));
    identity.push(("engines_identical", Json::Bool(engines)));
    cell.set("identity", obj(identity));
    let mut demo = vec![("workload", Json::Str("ghttpd-keepalive".into()))];
    demo.extend(u64s(&[
        ("class_tokens", 4),
        ("site_tokens", 2),
        ("refill_window", 512),
        ("protected", budget_run.counters[0]),
        ("budget_exhausted", budget_run.counters[2]),
    ]));
    cell.set("budget_demo", obj(demo));
}

/// The bytecode engine's host-throughput floor over the AST engine on the
/// keep-alive loop, judged on the ratio of the two medians.
const ENGINE_FLOOR: f64 = 10.0;

/// **Engines** — host throughput of the AST tree-walker and the register
/// bytecode VM. Each repetition runs a fresh machine and backend; the
/// program is parsed and compiled once, outside the timed region. The
/// engines must agree on output, steps and the simulated clock before any
/// speedup counts.
pub fn engines(cell: &mut Cell) {
    let keepalive = parse(&corpus::ghttpd_keepalive(20, 40)).expect("corpus parses");
    let fingerd = parse(&corpus::fingerd(2000)).expect("corpus parses");
    let pooled = pool_allocate(&keepalive).0;
    let workloads = [
        // The headline: raw engine throughput, minimal backend work.
        ("ghttpd-keepalive", keepalive, Config::Native),
        // The same loop through the full detector pipeline: how much of a
        // detector run's wall clock the engine swap recovers.
        ("ghttpd-keepalive/detector", pooled, Config::Ours),
        ("fingerd", fingerd, Config::Native),
    ];
    let mut rows = Vec::new();
    for (name, prog, config) in &workloads {
        // Compiling is timed on its own: it runs once per program, and
        // timing it inside each run would charge the VM for it.
        let compiled = cell.reps(&[format!("{name}/compile")], |_| compile(prog));
        let bc = compiled.0[0].as_ref().expect("corpus program compiles");
        let labels = [format!("{name}/ast"), format!("{name}/bytecode")];
        let (runs, spreads) = cell.reps(&labels, |i| {
            let (mut m, mut b) = (Machine::free_running(), config.backend());
            let outcome = match i {
                0 => run(prog, &mut m, b.as_mut(), 2_000_000_000),
                _ => run_compiled(bc, &mut m, b.as_mut(), 2_000_000_000),
            };
            let outcome = outcome.expect("corpus program runs");
            (outcome.output, outcome.steps_used, m.clock())
        });
        let identical = cell.check_eq(&runs[0], &runs[1], format!("{name}: engines"));
        let (_, steps, clock) = runs[0];
        cell.check(steps > 0 && clock > 0, format!("{name}: empty run"));
        let [ast, bc] = [spreads[0], spreads[1]];
        cell.check(
            ast.median > 0.0 && bc.median > 0.0,
            format!("{name}: untimed"),
        );
        let speedup = ast.median / bc.median;
        cell.set_host(&format!("{name}/speedup"), Json::Float(speedup));
        let headline = rows.is_empty();
        if headline && speedup < ENGINE_FLOOR {
            let (a, b) = (ast.median, bc.median);
            let (qa, qb) = (ast.iqr, bc.iqr);
            let spread = format!("AST {a:.2} ms, IQR {qa:.2}; bytecode {b:.2} ms, IQR {qb:.2}");
            let floor = format!("{name}: median ratio {speedup:.2}x < 10x ({spread})");
            cell.check(false, floor);
        }
        rows.push(obj(vec![
            ("name", Json::Str(name.to_string())),
            ("headline", Json::Bool(headline)),
            ("reps", Json::from_u64(dangle_bench::REPS as u64)),
            ("steps", Json::from_u64(steps)),
            ("sim_cycles", Json::from_u64(clock)),
            ("engines_identical", Json::Bool(identical)),
        ]));
    }
    cell.set("workloads", Json::Arr(rows));
}

/// The page-table microbench: `frames` hot physical pages aliased by
/// `views` virtual runs — the VA ≫ PA shape a long-running shadow-page
/// server accumulates — walked one access per page, so translation is the
/// dominant host cost. Returns (accesses, simulated clock, checksum).
fn page_walk(page_table: PageTableImpl, frames: u64, views: u64, sweeps: u64) -> [u64; 3] {
    let telemetry = TelemetryConfig::disabled();
    let mut m = Machine::with_config(MachineConfig {
        page_table,
        telemetry,
        ..Default::default()
    });
    let hot = m.mmap(frames as usize).expect("map working set");
    let mut bases = vec![hot];
    for _ in 1..views {
        bases.push(m.mremap_alias(&[(hot, frames as usize)]).expect("alias"));
    }
    let mut rng = Prng::new(0x51e7_f00d);
    let (mut accesses, mut checksum) = (0u64, 0u64);
    // One access to word `w` of page `pg` of view `v`: a store of `value`
    // when given, else a load.
    let mut access = |m: &mut Machine, v: u64, pg: u64, w: u64, value: Option<u64>| {
        let addr = bases[v as usize].add(pg * 4096 + w * 8);
        match value {
            Some(value) => m.store_u64(addr, value).expect("store"),
            None => checksum ^= m.load_u64(addr).expect("load"),
        }
        accesses += 1;
    };
    for sweep in 0..sweeps {
        // Sequential sweeps over every page of every view, alternating
        // stores and loads…
        for v in 0..views {
            for pg in 0..frames {
                let w = (v + pg) & 7;
                let value = sweep ^ (v << 32) ^ (pg << 8) ^ w;
                access(&mut m, v, pg, w, (pg & 1 == 0).then_some(value));
            }
        }
        // …then random hops across the whole aliased VA.
        for _ in 0..frames * views / 4 {
            let (v, pg, w) = (rng.below(views), rng.below(frames), rng.below(8));
            access(&mut m, v, pg, w, (w & 1 == 0).then_some(pg ^ w));
        }
    }
    [accesses, m.clock(), checksum]
}

/// **Page tables** — host throughput of the radix page table (with its
/// last-translation cache) against the original `HashMap` reference, on
/// the page-walk microbench and the Table 1 workloads under `native` and
/// `ours`. Simulated clocks and checksums must not depend on the page
/// table; the radix table must not be slower on the microbench.
pub fn page_tables(cell: &mut Cell) {
    let tables = [PageTableImpl::Reference, PageTableImpl::Radix];
    let (frames, views, sweeps) = (1024, 1024, 3);
    let walk = |i: usize| page_walk(tables[i], frames, views, sweeps);
    let (micro, spreads) = cell.reps(&["micro/reference", "micro/radix"], walk);
    cell.check_eq(micro[0], micro[1], "microbench across page tables");
    let speedup = spreads[0].median / spreads[1].median;
    cell.set_host("micro/speedup", Json::Float(speedup));
    cell.check(speedup >= 1.0, format!("radix {speedup:.2}x the reference"));
    cell.check(micro[0][1] > 0, "microbench: zero simulated cycles");
    let microbench = obj(u64s(&[
        ("frames", frames),
        ("views", views),
        ("virtual_pages", frames * views),
        ("sweeps", sweeps),
        ("accesses", micro[0][0]),
        ("simulated_cycles", micro[0][1]),
    ]));
    cell.set("microbench", microbench);

    let mut rows = Vec::new();
    let mut totals = [0.0; 2];
    for w in utilities().into_iter().chain(server_suite()) {
        for config in [Config::Native, Config::Ours] {
            let label = format!("{}/{}", w.name(), config.key());
            let labels = [format!("{label}/reference"), format!("{label}/radix")];
            let (runs, spreads) = cell.reps(&labels, |i| {
                let machine = MachineConfig {
                    page_table: tables[i],
                    ..Default::default()
                };
                let m = measure_with(w.as_ref(), config, machine);
                (m.cycles, m.checksum)
            });
            cell.check_eq(runs[0], runs[1], format!("{label}: across page tables"));
            totals[0] += spreads[0].median;
            totals[1] += spreads[1].median;
            rows.push(obj(vec![
                ("workload", Json::Str(w.name().into())),
                ("config", Json::Str(config.key().into())),
                ("cycles", Json::from_u64(runs[0].0)),
            ]));
        }
    }
    cell.check(rows.len() >= 2, "end-to-end rows missing");
    cell.set_host("end_to_end/speedup", Json::Float(totals[0] / totals[1]));
    cell.set("end_to_end", Json::Arr(rows));
}

/// Operations per timed run of one simulator primitive.
const PRIMITIVE_OPS: u64 = 20_000;

/// `PRIMITIVE_OPS` 64-byte alloc/free pairs on `heap`.
fn alloc_free_pairs(m: &mut Machine, heap: &mut impl Allocator) {
    for _ in 0..PRIMITIVE_OPS {
        let p = heap.alloc(m, 64).expect("alloc");
        heap.free(m, black_box(p)).expect("free");
    }
}

/// **Primitives** — host time of the simulator's primitive operations,
/// each run `PRIMITIVE_OPS` times on a fresh machine: the alloc/free pair
/// on the plain heap, the shadow heap and the shadow pool, a plain
/// store/load pair, a load through a shadow page, the pool
/// create/alloc/destroy cycle and a one-page `mremap` alias. The host
/// figures track regressions in the simulator itself; the simulated
/// cycles of each run, set-up excluded, go to the ledger.
pub fn primitives(cell: &mut Cell) {
    let labels = [
        "alloc_free_pair/sys_heap",
        "alloc_free_pair/shadow_heap",
        "alloc_free_pair/shadow_pool",
        "access/load_store_u64",
        "access/load_through_shadow",
        "pool_lifecycle/create_alloc_destroy",
        "remap/mremap_alias_page",
    ];
    let (clocks, _) = cell.reps(&labels, |i| {
        let mut m = Machine::new();
        let (mut heap, mut pools) = (ShadowHeap::new(SysHeap::new()), ShadowPool::new());
        let page = m.mmap(1).expect("mmap");
        let shadow = heap.alloc(&mut m, 64).expect("alloc");
        m.store_u64(shadow, 7).expect("store");
        let (ops, setup) = (0..PRIMITIVE_OPS, m.clock());
        match i {
            0 => alloc_free_pairs(&mut m, &mut SysHeap::new()),
            1 => alloc_free_pairs(&mut m, &mut heap),
            2 => {
                let pool = pools.create(64);
                for _ in ops {
                    let p = pools.alloc(&mut m, pool, 64).expect("alloc");
                    pools.free(&mut m, pool, black_box(p)).expect("free");
                }
            }
            3 => ops.for_each(|v| {
                m.store_u64(page, v).expect("store");
                black_box(m.load_u64(page).expect("load"));
            }),
            4 => ops.for_each(|_| {
                black_box(m.load_u64(black_box(shadow)).expect("load"));
            }),
            5 => ops.for_each(|_| {
                let pool = pools.create(16);
                for _ in 0..8 {
                    black_box(pools.alloc(&mut m, pool, 16).expect("alloc"));
                }
                pools.destroy(&mut m, pool).expect("destroy");
            }),
            _ => ops.for_each(|_| {
                black_box(m.mremap_alias(&[(page, 1)]).expect("mremap"));
            }),
        }
        m.clock() - setup
    });
    let clocks = labels.iter().zip(clocks).map(|(&label, c)| (label, c));
    cell.set("ops", Json::from_u64(PRIMITIVE_OPS));
    cell.set("simulated_cycles", obj(u64s(&clocks.collect::<Vec<_>>())));
}

/// The default machine with the flight recorder on.
fn traced() -> MachineConfig {
    MachineConfig {
        telemetry: TelemetryConfig::traced(),
        ..Default::default()
    }
}

/// Traced trap forensics of every injected-UAF MiniC program under one
/// engine: the structured `TrapReport` JSON per program.
fn minic_uaf_reports(engine: Engine) -> Vec<String> {
    let report = |(name, src): (&str, &str)| {
        let prog = parse(src).expect("corpus program parses");
        let (mut m, mut b) = (Machine::with_config(traced()), ShadowBackend::new());
        let err = run_with(engine, &prog, &mut m, &mut b, FUEL).expect_err("UAF must trap");
        let RunError::Backend(BackendError::Trap { trap, .. }) = &err else {
            panic!("{name}: expected a trap, got {err}");
        };
        let report = b.detector().trap_report(&m, trap, "minic");
        report.expect("trap attributed").to_json().to_string()
    };
    corpus::injected_uafs().into_iter().map(report).collect()
}

/// A traced run's flight-recorder readout: attribution by category,
/// request latency (count, p50, p99, p999) and the collapsed stacks.
type Trace = (Vec<(&'static str, u64)>, [u64; 4], String);

/// **Tracing** — the flight recorder on and off under `Config::Ours` on
/// ftpd and the keep-alive ghttpd loop. Tracing is cycle-neutral (equal
/// clocks, checksums and trap reports), its five-category attribution
/// sums to the clock ±0, request latency percentiles are recorded, and
/// trap forensics are engine-independent. The host cost of tracing is
/// the ratio of the traced and untraced medians.
pub fn tracing(cell: &mut Cell) {
    let configs = [MachineConfig::default(), traced()];
    let [off, on] = configs.map(|config| probe_uaf(config, Config::Ours.backend()));
    let detections_identical = cell.check(off.is_some() && off == on, "trap report changed");
    let [ast, bytecode] = [Engine::Ast, Engine::Bytecode].map(minic_uaf_reports);
    let engines_identical = cell.check_eq(ast, bytecode, "traced trap reports across engines");

    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(Ftpd::default()),
        Box::new(GhttpdKeepAlive::default()),
    ];
    let (runs, spreads) = cell.reps(&["untraced", "traced"], |i| {
        let run_one = |w: &dyn Workload| {
            let mut machine = Machine::with_config(configs[i]);
            let m = measure_on(w, Config::Ours.backend().as_mut(), &mut machine);
            let trace: Option<Trace> = machine.telemetry().tracer().map(|t| {
                let histograms = &m.metrics.histograms;
                let h = histograms.iter().find(|h| h.name == REQUEST_HISTOGRAM);
                let latency = h.map_or([0; 4], |h| [h.count, h.p50, h.p99, h.p999]);
                let (stacks, workload) = (t.fold(), w.name());
                let folded = stacks
                    .lines()
                    .map(|l| format!("{workload};{l}\n"))
                    .collect();
                (t.categories(), latency, folded)
            });
            (m, trace)
        };
        workloads
            .iter()
            .map(|w| run_one(w.as_ref()))
            .collect::<Vec<_>>()
    });
    let host_overhead = spreads[1].median / spreads[0].median;
    cell.set_host("host_overhead", Json::Float(host_overhead));
    let mut rows = Vec::new();
    let mut folded = String::new();
    for (w, ((off, _), (on, trace))) in workloads.iter().zip(runs[0].iter().zip(&runs[1])) {
        cell.scoped(w.name(), |cell| {
            let (categories, latency, stacks) = trace.as_ref().expect("traced runs have a tracer");
            let [off_run, on_run] = [off, on].map(|m| (m.checksum, m.stats.traps, m.cycles));
            cell.check_eq(off_run, on_run, "checksum, traps and cycles on vs off");
            let overhead = on.cycles as f64 / off.cycles.max(1) as f64;
            cell.check(overhead < 1.05, format!("overhead {overhead:.4} over 5%"));
            let total: u64 = categories.iter().map(|&(_, c)| c).sum();
            cell.check_eq(total, on.cycles, "attribution sums to the clock");
            cell.check_eq(categories.len(), 5, "attribution categories");
            let recorded = latency.iter().all(|&v| v > 0);
            cell.check(recorded, format!("latency {latency:?}"));
            folded.push_str(stacks);
            let [count, p50, p99, p999] = *latency;
            let latency = [("count", count), ("p50", p50), ("p99", p99), ("p999", p999)];
            rows.push(obj(vec![
                ("workload", Json::Str(w.name().into())),
                ("cycles_off", Json::from_u64(off.cycles)),
                ("cycles_on", Json::from_u64(on.cycles)),
                ("tracing_overhead_ratio", Json::Float(overhead)),
                ("attribution", obj(u64s(categories))),
                ("attribution_total", Json::from_u64(total)),
                ("latency", obj(u64s(&latency))),
                ("measurement", on.to_json()),
            ]));
        });
    }
    let folded_lines = folded.lines().count() as u64;
    cell.check(folded_lines > 0, "empty collapsed-stack export");
    let path = crate::perf_dir().join("tracing.folded");
    if let Err(e) = std::fs::write(&path, &folded) {
        cell.check(false, format!("write {}: {e}", path.display()));
    }
    cell.set("rows", Json::Arr(rows));
    cell.set("detections_identical", Json::Bool(detections_identical));
    cell.set("engines_identical", Json::Bool(engines_identical));
    cell.set("folded_lines", Json::from_u64(folded_lines));
}

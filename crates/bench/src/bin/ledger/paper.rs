//! The paper's own evaluation: Tables 1–3, the §4.3 wastage and §3.4
//! exhaustion studies, the design ablations and the soundness study.
//! Every figure here is simulated, so each cell runs as one configuration
//! repeated [`dangle_bench::REPS`] times.

use dangle_apa::{parse, pool_allocate, Program};
use dangle_baselines::memcheck::MemcheckConfig;
use dangle_bench::{decomposition_json, measure, measure_with, obj, ratio, u64s};
use dangle_bench::{Cell, Config, Measurement};
use dangle_core::exhaustion::{paper_adversarial_hours, time_to_exhaustion};
use dangle_core::exhaustion::{VA_BYTES_32BIT, VA_BYTES_64BIT};
use dangle_core::{gc, ShadowConfig, ShadowHeap, ShadowPool, ShadowPoolConfig};
use dangle_heap::{Allocator, SysHeap};
use dangle_interp::backend::ShadowPoolBackend;
use dangle_interp::backend::{Backend, CapabilityBackend, CombinedBackend, EFenceBackend};
use dangle_interp::backend::{MemcheckBackend, NativeBackend, PoolBackend, ShadowBackend};
use dangle_interp::{is_detection, run};
use dangle_pool::PoolConfig;
use dangle_telemetry::Json;
use dangle_vmm::{CostModel, Machine, MachineConfig, TlbConfig};
use dangle_workloads::apps::Enscript;
use dangle_workloads::olden_trees::TreeAdd;
use dangle_workloads::servers::{Ftpd, Ghttpd, Telnetd, Tftpd};
use dangle_workloads::{olden_suite, server_suite, utilities, Prng, Workload};
use std::fmt::{Debug, Write as _};

/// One row per workload of a paper table: each workload runs under every
/// configuration, [`dangle_bench::REPS`] times, and `row` turns its
/// measurements (in `configs` order) into the row's figures.
fn table(
    cell: &mut Cell,
    workloads: &[Box<dyn Workload>],
    configs: &[Config],
    mut row: impl FnMut(&mut Cell, &[Measurement]) -> Vec<(&'static str, Json)>,
) {
    let run = || -> Vec<Vec<Measurement>> {
        let measure_all = |w: &dyn Workload| configs.iter().map(|&c| measure(w, c)).collect();
        workloads.iter().map(|w| measure_all(w.as_ref())).collect()
    };
    let mut rows = Vec::new();
    for (w, ms) in workloads.iter().zip(simulated(cell, run)) {
        let by_config = configs.iter().zip(&ms).map(|(c, m)| (c.key(), m.to_json()));
        let mut fields = vec![("workload", Json::Str(w.name().into()))];
        fields.push(("configs", obj(by_config.collect())));
        fields.extend(cell.scoped(w.name(), |cell| row(cell, &ms)));
        rows.push(obj(fields));
    }
    cell.set("rows", Json::Arr(rows));
}

/// The syscall/TLB decomposition, checked to split the overhead exactly.
fn decomposition(
    cell: &mut Cell,
    base: &Measurement,
    dummy: &Measurement,
    ours: &Measurement,
) -> Json {
    let d = decomposition_json(base, dummy, ours);
    let part = |k| d.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let parts = part("syscall_cycles").saturating_add(part("tlb_cycles"));
    cell.check_eq(parts, part("overhead_cycles"), "syscall + tlb = overhead");
    d
}

/// **Table 1** — utilities and servers across the five configurations.
/// Paper shape: servers < 4% overhead, utilities < 15% with enscript
/// worst; `PA + dummy syscalls` isolates the syscall share of the
/// overhead, the remainder being TLB pressure.
pub fn table1(cell: &mut Cell) {
    use Config::*;
    let utilities = utilities();
    let n_utilities = utilities.len();
    let workloads: Vec<_> = utilities.into_iter().chain(server_suite()).collect();
    let mut rows = 0;
    table(
        cell,
        &workloads,
        &[Native, Base, Pa, PaDummy, Ours],
        |cell, ms| {
            let [native, base, _, dummy, ours] = ms else {
                unreachable!()
            };
            cell.check_eq(native.checksum, ours.checksum, "checksum native vs ours");
            for m in ms {
                let sampling = ["protected", "skipped", "budget_exhausted"];
                let sampled = sampling.map(|k| m.metrics.counter(&format!("sampling.{k}")));
                let ok = m.cycles > 0 && sampled == [0; 3];
                cell.check(ok, "zero cycles, or sampling on");
            }
            let ratio1 = ratio(ours.cycles, base.cycles);
            cell.check(ratio1 >= 1.0, format!("ratio1 {ratio1} < 1"));
            let section = if rows < n_utilities {
                "utilities"
            } else {
                "servers"
            };
            rows += 1;
            vec![
                ("section", Json::Str(section.into())),
                ("ratio1", Json::Float(ratio1)),
                ("ratio2", Json::Float(ratio(ours.cycles, native.cycles))),
                ("decomposition", decomposition(cell, base, dummy, ours)),
            ]
        },
    );
    cell.check(rows >= 9, format!("only {rows} rows"));
}

/// **Table 2** — our slowdown against the Valgrind-style checker on the
/// utilities (paper: Valgrind 2.48–26.37x, ours 1.00–1.15x).
pub fn table2(cell: &mut Cell) {
    let configs = [Config::Base, Config::Ours, Config::Memcheck];
    table(cell, &utilities(), &configs, |cell, ms| {
        let [base, ours, valgrind] = ms else {
            unreachable!()
        };
        cell.check_eq(base.checksum, valgrind.checksum, "checksum");
        let checks = valgrind.metrics.counter("baseline.checks_performed");
        vec![
            ("our_slowdown", Json::Float(ratio(ours.cycles, base.cycles))),
            (
                "valgrind_slowdown",
                Json::Float(ratio(valgrind.cycles, base.cycles)),
            ),
            ("valgrind_checks_performed", Json::from_u64(checks)),
        ]
    });
}

/// **Table 3** — the allocation-intensive Olden kernels (paper: three
/// under ~1.25x, six between 3.22x and 11.24x).
pub fn table3(cell: &mut Cell) {
    let configs = [Config::Native, Config::Base, Config::PaDummy, Config::Ours];
    table(cell, &olden_suite(), &configs, |cell, ms| {
        let [native, base, dummy, ours] = ms else {
            unreachable!()
        };
        cell.check_eq(native.checksum, ours.checksum, "checksum");
        vec![
            ("ratio3", Json::Float(ratio(ours.cycles, base.cycles))),
            ("decomposition", decomposition(cell, base, dummy, ours)),
        ]
    });
}

/// Runs a cell's one configuration [`dangle_bench::REPS`] times (host
/// figure `wall`) and returns the first repetition's simulated result.
fn simulated<R: Debug>(cell: &mut Cell, mut run: impl FnMut() -> R) -> R {
    cell.reps(&["wall"], |_| run()).0.remove(0)
}

/// Virtual pages consumed by one run of `w` under the full detector.
fn consumed(w: &dyn Workload) -> u64 {
    let mut machine = Machine::new();
    w.run(&mut machine, &mut ShadowPoolBackend::new())
        .expect("workload runs");
    machine.virt_pages_consumed()
}

/// Marginal virtual pages per unit between a smaller and a larger run.
fn marginal(small: &dyn Workload, large: &dyn Workload, units: f64) -> f64 {
    (consumed(large) - consumed(small)) as f64 / units
}

/// **§4.3** — VA use within and across connections. Paper: ghttpd does
/// one allocation per connection, ftpd 5–6 pages per command, telnetd 45
/// per session, and pooldestroy at process exit makes steady-state growth
/// zero.
pub fn wastage(cell: &mut Cell) {
    let servers = simulated(cell, || {
        let ghttpd = |connections| Ghttpd {
            connections,
            response_bytes: 24_000,
        };
        let ftpd = |connections, commands_per_connection| Ftpd {
            connections,
            commands_per_connection,
            file_bytes: 16_000,
        };
        let telnetd = |sessions| Telnetd {
            sessions,
            exchanges: 50,
        };
        let tftpd = |commands| Tftpd {
            commands,
            file_bytes: 12_000,
        };
        let ghttpd_steady = marginal(&ghttpd(2), &ghttpd(12), 10.0);
        let ftpd_command = marginal(&ftpd(1, 2), &ftpd(1, 6), 4.0);
        let ftpd_steady = marginal(&ftpd(2, 4), &ftpd(10, 4), 8.0);
        let telnetd_steady = marginal(&telnetd(2), &telnetd(10), 8.0);
        let tftpd_steady = marginal(&tftpd(2), &tftpd(10), 8.0);
        let row = |unit: &str, per_unit: f64, steady: f64| {
            obj(vec![
                ("unit", Json::Str(unit.into())),
                ("pages_per_unit", Json::Float(per_unit)),
                ("steady_state_growth", Json::Float(steady)),
            ])
        };
        obj(vec![
            (
                "ghttpd",
                row("connection", consumed(&ghttpd(1)) as f64, ghttpd_steady),
            ),
            ("ftpd", row("command", ftpd_command, ftpd_steady)),
            (
                "telnetd",
                row("session", consumed(&telnetd(1)) as f64, telnetd_steady),
            ),
            (
                "tftpd",
                row("command", consumed(&tftpd(1)) as f64, tftpd_steady),
            ),
        ])
    });
    cell.set("servers", servers);
}

/// **§3.4** — how long a program runs before exhausting VA without page
/// reuse (closed form), and the failure plus both mitigations (threshold
/// recycling, conservative pool GC) on a 4,000-page machine.
pub fn exhaustion(cell: &mut Cell) {
    let figures = simulated(cell, || {
        let rates = [
            ("1 alloc/us (paper's extreme)", 1_000_000u64),
            ("100k alloc/s", 100_000),
            ("10k alloc/s (busy server)", 10_000),
            ("1k alloc/s", 1_000),
        ];
        let closed_form = rates.map(|(label, rate)| {
            let secs = |va_bytes| time_to_exhaustion(va_bytes, rate).as_secs_f64();
            obj(vec![
                ("label", Json::Str(label.into())),
                ("allocs_per_second", Json::from_u64(rate)),
                ("hours_64bit", Json::Float(secs(VA_BYTES_64BIT) / 3600.0)),
                ("seconds_32bit", Json::Float(secs(VA_BYTES_32BIT))),
            ])
        });
        let tiny = MachineConfig {
            virt_pages: 4_000,
            ..MachineConfig::default()
        };

        // 1. Basic scheme: exhausts.
        let mut m = Machine::with_config(tiny);
        let mut h = ShadowHeap::new(SysHeap::new());
        let mut allocated = 0u64;
        while let Ok(p) = h.alloc(&mut m, 64) {
            let _ = h.free(&mut m, p);
            allocated += 1;
        }
        let target = allocated * 20;

        // 2. Solution 1: threshold recycling (guarantee waived past it).
        let mut m = Machine::with_config(tiny);
        let threshold = ShadowConfig {
            recycle_threshold_pages: Some(2_000),
            ..Default::default()
        };
        let mut h = ShadowHeap::with_config(SysHeap::new(), threshold);
        let mut threshold_ok = 0u64;
        while threshold_ok < target {
            let Ok(p) = h.alloc(&mut m, 64) else { break };
            let _ = h.free(&mut m, p);
            threshold_ok += 1;
        }

        // 3. Solution 2: conservative GC of a long-lived (global) pool,
        //    when VA runs out, and "under light load" near the budget once
        //    the free list drains. A collection that reclaims nothing ends
        //    the run.
        let mut m = Machine::with_config(tiny);
        let mut sp = ShadowPool::new();
        let global = sp.create(64);
        let (mut ok, mut gcs) = (0u64, 0u64);
        for _ in 0..target {
            let mut collect = |m: &mut Machine, sp: &mut ShadowPool| {
                gcs += 1;
                gc::collect(m, sp, &[global], &[]).pages_reclaimed > 0
            };
            match sp.alloc(&mut m, global, 64) {
                Ok(p) => {
                    sp.free(&mut m, global, p).expect("free");
                    ok += 1;
                }
                Err(_) if !collect(&mut m, &mut sp) => break,
                Err(_) => {}
            }
            let low = m.virt_pages_consumed() > 3_900 && sp.pools().free_page_count() == 0;
            if low && !collect(&mut m, &mut sp) {
                break;
            }
        }
        let demo = obj(u64s(&[
            ("virt_pages", 4_000),
            ("basic_exhausted_after", allocated),
            ("target_allocations", target),
            ("threshold_recycling_survived", threshold_ok),
            ("gc_survived", ok),
            ("gc_collections", gcs),
        ]));
        vec![
            ("closed_form", Json::Arr(closed_form.to_vec())),
            (
                "paper_adversarial_hours",
                Json::Float(paper_adversarial_hours()),
            ),
            ("tiny_machine_demo", demo),
        ]
    });
    figures.into_iter().for_each(|(k, v)| cell.set(k, v));
}

/// Design ablations beyond the paper's tables: the §6 syscall-cost and
/// TLB-reach sweeps on treeadd, the shared page free list on/off
/// (Insight 2), physical-page sharing against Electric Fence (Insight 1),
/// and §6's combined spatial + temporal checker against Valgrind.
pub fn ablation(cell: &mut Cell) {
    let slowdown = |cycles: u64, base: &Measurement| Json::Float(ratio(cycles, base.cycles));
    let run = || {
        let tree = TreeAdd {
            depth: 10,
            passes: 4,
        };
        let base = measure(&tree, Config::Base);
        let syscall_cost_sweep = [0.0, 0.25, 0.5, 1.0, 2.0].map(|scale| {
            let c = CostModel::calibrated();
            let scaled = |cycles: u64| (cycles as f64 * scale) as u64;
            let cost = CostModel {
                syscall_mmap: scaled(c.syscall_mmap),
                syscall_mremap: scaled(c.syscall_mremap),
                syscall_mprotect: scaled(c.syscall_mprotect),
                syscall_munmap: scaled(c.syscall_munmap),
                syscall_per_page: scaled(c.syscall_per_page),
                ..c
            };
            let machine = MachineConfig {
                cost,
                ..Default::default()
            };
            let ours = measure_with(&tree, Config::Ours, machine);
            let slowdown = slowdown(ours.cycles, &base);
            obj(vec![
                ("syscall_cost_scale", Json::Float(scale)),
                ("slowdown", slowdown),
            ])
        });
        let tlb_geometry_sweep = [16usize, 64, 256, 1024].map(|entries| {
            let tlb = TlbConfig { entries, ways: 4 };
            let machine = MachineConfig {
                tlb,
                ..Default::default()
            };
            let [ours, b] = [Config::Ours, Config::Base].map(|c| measure_with(&tree, c, machine));
            obj(vec![
                ("tlb_entries", Json::from_u64(entries as u64)),
                ("slowdown", slowdown(ours.cycles, &b)),
                (
                    "tlb_misses",
                    Json::from_u64(ours.metrics.counter("vmm.tlb_misses")),
                ),
            ])
        });

        let ghttpd = Ghttpd {
            connections: 30,
            response_bytes: 16_000,
        };
        let pages = |mut b: ShadowPoolBackend| {
            let mut m = Machine::new();
            ghttpd.run(&mut m, &mut b).expect("workload");
            m.virt_pages_consumed()
        };
        let no_reuse = PoolConfig { reuse_pages: false };
        let no_reuse = ShadowPoolConfig {
            pool: no_reuse,
            ..Default::default()
        };
        let with = pages(ShadowPoolBackend::default());
        let without = pages(ShadowPoolBackend::with_config(no_reuse));

        let frames = |mut b: Box<dyn Backend>| {
            let mut m = Machine::new();
            let tree = TreeAdd {
                depth: 10,
                passes: 1,
            };
            tree.run(&mut m, b.as_mut()).expect("workload");
            m.stats().phys_frames_peak
        };
        let ours_frames = frames(Box::new(ShadowPoolBackend::new()));
        let efence_frames = frames(Box::new(EFenceBackend::new()));

        let enscript = Enscript::default();
        let configs = [Config::Base, Config::Ours, Config::Memcheck];
        let [base, ours, valgrind] = configs.map(|c| measure(&enscript, c));
        let mut m = Machine::new();
        let mut combined = CombinedBackend::new();
        let combined = enscript.run(&mut m, &mut combined).expect("workload");
        let figures = vec![
            ("syscall_cost_sweep", Json::Arr(syscall_cost_sweep.to_vec())),
            ("tlb_geometry_sweep", Json::Arr(tlb_geometry_sweep.to_vec())),
            (
                "free_list_ablation",
                obj(vec![
                    ("virt_pages_with_reuse", Json::from_u64(with)),
                    ("virt_pages_without_reuse", Json::from_u64(without)),
                    ("reuse_factor", Json::Float(without as f64 / with as f64)),
                ]),
            ),
            (
                "physical_sharing_ablation",
                obj(vec![
                    ("ours_phys_frames_peak", Json::from_u64(ours_frames)),
                    ("efence_phys_frames_peak", Json::from_u64(efence_frames)),
                    (
                        "blowup_factor",
                        Json::Float(efence_frames as f64 / ours_frames as f64),
                    ),
                ]),
            ),
            (
                "combined_checking",
                obj(vec![
                    ("ours_slowdown", slowdown(ours.cycles, &base)),
                    ("combined_slowdown", slowdown(m.clock(), &base)),
                    ("valgrind_slowdown", slowdown(valgrind.cycles, &base)),
                ]),
            ),
        ];
        (figures, combined == base.checksum)
    };
    let (figures, combined_ok) = simulated(cell, run);
    cell.check(combined_ok, "enscript: combined checksum moved");
    figures.into_iter().for_each(|(k, v)| cell.set(k, v));
}

/// A soundness-study scheme: label, backend, and whether it runs the
/// pool-transformed program.
type Scheme<'a> = (&'a str, &'a dyn Fn() -> Box<dyn Backend>, bool);

/// Random programs in the soundness study.
const PROGRAMS: u64 = 150;

/// Generates a random program that builds and frees linked lists and
/// contains exactly one injected use-after-free: a pointer snapshot taken
/// before a drain-free, dereferenced after `gap` further operations.
fn uaf_program(rng: &mut Prng) -> String {
    let lists = 3u64;
    let n_ops = 6 + rng.below(25);
    let snap_at = rng.below(n_ops);
    let h = format!("h{}", rng.below(lists));
    let gap = 1 + rng.below(6);
    let mut src = String::from("struct node { next: ptr<node>, val: int }\nfn main() {\n");
    for l in 0..lists {
        let _ = writeln!(src, "    var h{l}: ptr<node> = null;");
    }
    src.push_str("    var t: ptr<node> = null;\n    var stale: ptr<node> = null;\n");
    let uaf = "    print(stale->val); // injected use-after-free\n";
    let mut injected = false;
    for i in 0..n_ops {
        if i == snap_at {
            // Make the victim list non-empty, snapshot its head, free the
            // whole list (`stale` now dangles), then a churn burst of
            // random length: long bursts flush bounded quarantines (where
            // heuristic tools lose the bug), short ones do not.
            let _ = writeln!(
                src,
                "    t = malloc(node); t->val = 7; t->next = {h}; {h} = t; t = null;\n    \
                 stale = {h};\n    \
                 while ({h} != null) {{ t = {h}->next; free({h}); {h} = t; }} t = null;\n    \
                 var burst: int = 0;\n    \
                 while (burst < {}) {{ t = malloc(node); t->val = burst; free(t); t = null; \
                 burst = burst + 1; }}",
                rng.below(90)
            );
        }
        if !injected && i >= snap_at + gap {
            src.push_str(uaf);
            injected = true;
        }
        // Background traffic (reuses the freed storage with some luck).
        let l = rng.below(lists);
        let _ = match rng.below(3) {
            0 => writeln!(
                src,
                "    t = malloc(node); t->val = {}; t->next = h{l}; h{l} = t; t = null;",
                rng.below(100)
            ),
            1 => writeln!(
                src,
                "    if (h{l} != null) {{ t = h{l}->next; free(h{l}); h{l} = t; t = null; }}"
            ),
            _ => writeln!(
                src,
                "    var s{i}: int = 0; var c{i}: ptr<node> = h{l};\n    \
                 while (c{i} != null) {{ s{i} = s{i} + c{i}->val; c{i} = c{i}->next; }}\n    \
                 print(s{i});"
            ),
        };
    }
    if !injected {
        src.push_str(uaf);
    }
    src + "}\n"
}

fn detects(prog: &Program, mut backend: Box<dyn Backend>) -> bool {
    run(prog, &mut Machine::new(), backend.as_mut(), 6_000_000).is_err_and(|e| is_detection(&e))
}

/// Detection rate on random programs with one injected use-after-free
/// each. The paper's claim is categorical — the MMU scheme detects *all*
/// dangling uses — while heuristic tools detect them "only as long as the
/// freed memory is not reused" (§5.1): ours and shadow-only must score
/// 100%, plain malloc 0%, the Valgrind-style quarantine in between.
pub fn soundness(cell: &mut Cell) {
    // The memcheck quarantine is scaled to these miniature programs the
    // way its real 256 KiB default relates to real heaps: a dozen recent
    // frees, flushed by a burst of churn.
    let quarantine = MemcheckConfig {
        quarantine_bytes: 256,
        ..MemcheckConfig::default()
    };
    let schemes: [Scheme; 7] = [
        ("native", &|| Box::new(NativeBackend::new()), false),
        ("PA only", &|| Box::new(PoolBackend::new()), true),
        (
            "Ours (shadow+pools)",
            &|| Box::new(ShadowPoolBackend::new()),
            true,
        ),
        (
            "shadow (no pools)",
            &|| Box::new(ShadowBackend::new()),
            false,
        ),
        ("Electric Fence", &|| Box::new(EFenceBackend::new()), false),
        (
            "Valgrind-style",
            &|| Box::new(MemcheckBackend::with_config(quarantine)),
            false,
        ),
        (
            "capability store",
            &|| Box::new(CapabilityBackend::new()),
            false,
        ),
    ];
    let run = || {
        let mut rng = Prng::new(0x5047_2026);
        let mut caught = [0u64; 7];
        for _ in 0..PROGRAMS {
            let prog = parse(&uaf_program(&mut rng)).expect("generated program parses");
            let pooled = pool_allocate(&prog).0;
            for (count, (_, make, pool)) in caught.iter_mut().zip(&schemes) {
                *count += u64::from(detects(if *pool { &pooled } else { &prog }, make()));
            }
        }
        caught
    };
    let caught = simulated(cell, run);
    // The paper's guarantee: ours catches every one, and so does Insight 1
    // alone.
    cell.check_eq(caught[2], PROGRAMS, "ours misses a UAF");
    cell.check_eq(caught[3], PROGRAMS, "shadow-only misses a UAF");
    cell.set("programs", Json::from_u64(PROGRAMS));
    let rows = schemes.iter().zip(caught).map(|((name, _, _), n)| {
        obj(vec![
            ("scheme", Json::Str(name.to_string())),
            ("detected", Json::from_u64(n)),
            ("rate", Json::Float(n as f64 / PROGRAMS as f64)),
        ])
    });
    cell.set("schemes", Json::Arr(rows.collect()));
}

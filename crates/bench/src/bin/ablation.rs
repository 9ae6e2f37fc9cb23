//! Ablation studies for the design choices DESIGN.md calls out (beyond the
//! paper's own tables):
//!
//! 1. **System-call cost sweep** — the paper's §6 proposes OS/architecture
//!    changes to cut the per-allocation syscall cost; how much would that
//!    buy on an allocation-intensive workload?
//! 2. **TLB geometry sweep** — §6 also proposes TLB changes; how sensitive
//!    is the detector to TLB reach?
//! 3. **Shared page free list on/off** — Insight 2's mechanism; what
//!    happens to virtual-address consumption without it?
//! 4. **Physical-page sharing (Insight 1) vs Electric Fence** — physical
//!    frames consumed with and without canonical-page sharing.
//!
//! ```text
//! cargo run --release -p dangle-bench --bin ablation
//! ```

use dangle_bench::{measure, measure_with, ratio, render_table, Artifact, Config};
use dangle_core::ShadowPoolConfig;
use dangle_interp::backend::{Backend, CombinedBackend, EFenceBackend, ShadowPoolBackend};
use dangle_pool::PoolConfig;
use dangle_telemetry::Json;
use dangle_vmm::{CostModel, Machine, MachineConfig, TlbConfig};
use dangle_workloads::olden_trees::TreeAdd;
use dangle_workloads::servers::Ghttpd;
use dangle_workloads::Workload;

fn main() {
    let mut artifact = Artifact::new("ablation");
    let alloc_heavy = TreeAdd { depth: 10, passes: 4 };
    let base = measure(&alloc_heavy, Config::Base);

    // 1. Syscall cost sweep.
    println!("Ablation 1: per-allocation syscall cost (treeadd, Ours vs base)\n");
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for scale in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let c = CostModel::calibrated();
        let cost = CostModel {
            syscall_mmap: (c.syscall_mmap as f64 * scale) as u64,
            syscall_mremap: (c.syscall_mremap as f64 * scale) as u64,
            syscall_mprotect: (c.syscall_mprotect as f64 * scale) as u64,
            syscall_munmap: (c.syscall_munmap as f64 * scale) as u64,
            syscall_per_page: (c.syscall_per_page as f64 * scale) as u64,
            ..c
        };
        let ours = measure_with(
            &alloc_heavy,
            Config::Ours,
            MachineConfig { cost, ..MachineConfig::default() },
        );
        rows.push(vec![
            format!("{:.2}x syscall cost", scale),
            format!("{:.2}", ratio(ours.cycles, base.cycles)),
        ]);
        sweep.push(Json::Obj(vec![
            ("syscall_cost_scale".into(), Json::Float(scale)),
            ("slowdown".into(), Json::Float(ratio(ours.cycles, base.cycles))),
        ]));
    }
    artifact.set("syscall_cost_sweep", Json::Arr(sweep));
    println!("{}", render_table(&["configuration", "slowdown vs base"], &rows));
    println!(
        "-> even free syscalls leave residual TLB overhead: the two\n\
         components the paper identifies are both real.\n"
    );

    // 2. TLB geometry sweep.
    println!("Ablation 2: TLB reach (treeadd, Ours)\n");
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for entries in [16usize, 64, 256, 1024] {
        let ours = measure_with(
            &alloc_heavy,
            Config::Ours,
            MachineConfig {
                tlb: TlbConfig { entries, ways: 4 },
                ..MachineConfig::default()
            },
        );
        let b = measure_with(
            &alloc_heavy,
            Config::Base,
            MachineConfig {
                tlb: TlbConfig { entries, ways: 4 },
                ..MachineConfig::default()
            },
        );
        rows.push(vec![
            format!("{entries}-entry TLB"),
            format!("{:.2}", ratio(ours.cycles, b.cycles)),
            format!("{}", ours.stats.loads + ours.stats.stores),
        ]);
        sweep.push(Json::Obj(vec![
            ("tlb_entries".into(), Json::from_u64(entries as u64)),
            ("slowdown".into(), Json::Float(ratio(ours.cycles, b.cycles))),
            (
                "tlb_misses".into(),
                Json::from_u64(ours.metrics.counter("vmm.tlb_misses")),
            ),
        ]));
    }
    artifact.set("tlb_geometry_sweep", Json::Arr(sweep));
    println!("{}", render_table(&["TLB", "slowdown vs base", "accesses"], &rows));
    println!(
        "-> a larger TLB absorbs the object-per-page pressure, exactly the\n\
         architectural mitigation §6 anticipates.\n"
    );

    // 3. Page free list on/off: VA consumption across pool lifetimes.
    println!("Ablation 3: shared page free list (ghttpd connections)\n");
    let w = Ghttpd { connections: 30, response_bytes: 16_000 };
    let consumed = |reuse: bool| -> u64 {
        let mut m = Machine::new();
        let mut b = ShadowPoolBackend::default();
        if !reuse {
            b = shadow_pool_without_reuse();
        }
        w.run(&mut m, &mut b).expect("workload");
        m.virt_pages_consumed()
    };
    let with = consumed(true);
    let without = consumed(false);
    println!("  with reuse (Insight 2):    {with:>6} virtual pages for 30 connections");
    println!("  without reuse (basic):     {without:>6} virtual pages for 30 connections");
    println!("  -> reuse factor: {:.1}x\n", without as f64 / with as f64);
    artifact.set(
        "free_list_ablation",
        Json::Obj(vec![
            ("virt_pages_with_reuse".into(), Json::from_u64(with)),
            ("virt_pages_without_reuse".into(), Json::from_u64(without)),
            ("reuse_factor".into(), Json::Float(without as f64 / with as f64)),
        ]),
    );

    // 4. Physical frames: Insight 1 vs Electric Fence.
    println!("Ablation 4: physical-page sharing vs Electric Fence (treeadd depth 10)\n");
    let w = TreeAdd { depth: 10, passes: 1 };
    let ours_frames = {
        let mut m = Machine::new();
        let mut b: Box<dyn Backend> = Box::new(ShadowPoolBackend::new());
        w.run(&mut m, b.as_mut()).expect("workload");
        m.stats().phys_frames_peak
    };
    let efence_frames = {
        let mut m = Machine::new();
        let mut b: Box<dyn Backend> = Box::new(EFenceBackend::new());
        w.run(&mut m, b.as_mut()).expect("workload");
        m.stats().phys_frames_peak
    };
    println!("  Our approach:   {ours_frames:>6} peak physical frames (objects share pages)");
    println!("  Electric Fence: {efence_frames:>6} peak physical frames (page per object)");
    println!(
        "  -> {:.0}x more physical memory without Insight 1 — why Electric\n\
         Fence 'runs out of physical memory' on enscript (§4.1).\n",
        efence_frames as f64 / ours_frames as f64
    );
    artifact.set(
        "physical_sharing_ablation",
        Json::Obj(vec![
            ("ours_phys_frames_peak".into(), Json::from_u64(ours_frames)),
            ("efence_phys_frames_peak".into(), Json::from_u64(efence_frames)),
            (
                "blowup_factor".into(),
                Json::Float(efence_frames as f64 / ours_frames as f64),
            ),
        ]),
    );

    ablation_combined(&mut artifact);
    artifact.write_cwd().expect("write BENCH artifact");
}

/// A ShadowPoolBackend whose pool runtime has the shared free list
/// disabled (the no-reuse regime of §3.2).
fn shadow_pool_without_reuse() -> ShadowPoolBackend {
    ShadowPoolBackend::with_config(ShadowPoolConfig {
        pool: PoolConfig { reuse_pages: false },
        ..Default::default()
    })
}

/// Ablation 5: the §6 "comprehensive tool" claim — temporal (ours) +
/// spatial (bounds) checking combined, still far below Valgrind.
fn ablation_combined(artifact: &mut Artifact) {
    println!("Ablation 5: combined spatial+temporal checking (enscript)\n");
    use dangle_workloads::apps::Enscript;
    let w = Enscript::default();
    let base = measure(&w, Config::Base);
    let ours = measure(&w, Config::Ours);
    let valgrind = measure(&w, Config::Memcheck);
    let combined = {
        let mut m = Machine::new();
        let mut b = CombinedBackend::new();
        use dangle_workloads::Workload;
        let c = w.run(&mut m, &mut b).expect("workload");
        assert_eq!(c, base.checksum);
        m.clock()
    };
    let mut rows = Vec::new();
    rows.push(vec!["ours (temporal only)".into(), format!("{:.2}", ratio(ours.cycles, base.cycles))]);
    rows.push(vec!["ours + bounds (combined)".into(), format!("{:.2}", ratio(combined, base.cycles))]);
    rows.push(vec!["Valgrind".into(), format!("{:.2}", ratio(valgrind.cycles, base.cycles))]);
    println!("{}", render_table(&["checker", "slowdown vs base"], &rows));
    artifact.set(
        "combined_checking",
        Json::Obj(vec![
            ("ours_slowdown".into(), Json::Float(ratio(ours.cycles, base.cycles))),
            ("combined_slowdown".into(), Json::Float(ratio(combined, base.cycles))),
            ("valgrind_slowdown".into(), Json::Float(ratio(valgrind.cycles, base.cycles))),
        ]),
    );
    println!(
        "-> \"if those techniques were combined with ours, our cumulative\n\
         overheads would still be much lower than that of Valgrind\" (§4.2).\n"
    );
}

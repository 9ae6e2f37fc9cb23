//! Differential tests pinning sampled protection to its two endpoints.
//!
//! The sampling layer promises three identities, and this suite holds it
//! to them over random MiniC programs:
//!
//! 1. **N = 1 is the unsampled detector.** With `one_in(1)` every
//!    allocation is protected and no RNG is drawn, so the run must be
//!    byte-identical to `ShadowPoolBackend::new()`: same result, same
//!    simulated clock, same syscall counters, and — when the program
//!    dangles — the same structured trap-report JSON. Checked on both
//!    engines and on the one-shard sharded detector.
//! 2. **N = ∞ is the all-unchecked fast path.** With `NEVER` nothing is
//!    protected, so the run must match a wrapper that routes every
//!    alloc/free through the lint-elision path (same output, clock, and
//!    machine stats; telemetry counters intentionally differ — skips are
//!    not elisions).
//! 3. **Decisions are seed-deterministic.** The same `SamplingConfig`
//!    reproduces the same protected subset across repeat runs, across
//!    engines, and across core counts.

use dangle_apa::{parse, pool_allocate};
use dangle_core::{SamplingConfig, ShadowPoolConfig};
use dangle_interp::backend::{
    Backend, BackendError, PoolHandle, ShadowPoolBackend, ShardedPoolBackend,
};
use dangle_interp::{run_with, Engine, RunError, RunOutcome};
use dangle_testkit::minic::random_program;
use dangle_vmm::{Machine, MachineConfig, Trap, VirtAddr};
use dangle_workloads::concurrent::ConcurrentMix;

const FUEL: u64 = 50_000_000;

/// Routes every allocation and free through the lint-elision fast path:
/// the reference behaviour for `SamplingConfig::NEVER`.
struct AllUnchecked(ShadowPoolBackend);

impl Backend for AllUnchecked {
    fn name(&self) -> &'static str {
        "all-unchecked"
    }

    fn alloc(
        &mut self,
        machine: &mut Machine,
        size: usize,
        pool: Option<PoolHandle>,
    ) -> Result<VirtAddr, BackendError> {
        self.0.alloc_unchecked(machine, size, pool)
    }

    fn free(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        pool: Option<PoolHandle>,
    ) -> Result<(), BackendError> {
        self.0.free_unchecked(machine, addr, pool)
    }

    fn pool_create(
        &mut self,
        machine: &mut Machine,
        elem_hint: usize,
    ) -> Result<PoolHandle, BackendError> {
        self.0.pool_create(machine, elem_hint)
    }

    fn pool_destroy(
        &mut self,
        machine: &mut Machine,
        pool: PoolHandle,
    ) -> Result<(), BackendError> {
        self.0.pool_destroy(machine, pool)
    }

    fn load(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
    ) -> Result<u64, BackendError> {
        self.0.load(machine, addr, width)
    }

    fn store(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        width: usize,
        value: u64,
    ) -> Result<(), BackendError> {
        self.0.store(machine, addr, width, value)
    }

    fn load_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), BackendError> {
        self.0.load_bytes(machine, addr, buf)
    }

    fn store_bytes(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        buf: &[u8],
    ) -> Result<(), BackendError> {
        self.0.store_bytes(machine, addr, buf)
    }

    fn memset(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        byte: u8,
        len: usize,
    ) -> Result<(), BackendError> {
        self.0.memset(machine, addr, byte, len)
    }

    fn explain(&self, trap: &Trap) -> Option<String> {
        self.0.explain(trap)
    }
}

/// Which detector variant a differential run uses.
enum Variant {
    Unsampled,
    Sampled(SamplingConfig),
    Sharded(usize, SamplingConfig),
    AllUnchecked,
}

/// Runs one program and distills everything observable: the outcome (with
/// trap forensics rendered to JSON), the clock, and the syscall counters.
fn observe(
    prog: &dangle_apa::Program,
    engine: Engine,
    variant: Variant,
) -> (Result<RunOutcome, String>, u64, String) {
    let mut machine = Machine::new();
    let (res, report) = match variant {
        Variant::Unsampled => {
            let mut b = ShadowPoolBackend::new();
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            let report = trap_json(&res, |t| {
                b.detector().trap_report(&machine, t, "minic").map(|r| r.to_json().to_string())
            });
            (res, report)
        }
        Variant::Sampled(cfg) => {
            let mut b = ShadowPoolBackend::with_config(sampled(cfg));
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            let report = trap_json(&res, |t| {
                b.detector().trap_report(&machine, t, "minic").map(|r| r.to_json().to_string())
            });
            (res, report)
        }
        Variant::Sharded(shards, cfg) => {
            let mut b = ShardedPoolBackend::with_config(shards, sampled(cfg));
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            let report = trap_json(&res, |t| {
                b.detector().trap_report(&machine, t, "minic").map(|r| r.to_json().to_string())
            });
            (res, report)
        }
        Variant::AllUnchecked => {
            let mut b = AllUnchecked(ShadowPoolBackend::new());
            let res = run_with(engine, prog, &mut machine, &mut b, FUEL);
            // Nothing is ever protected, so nothing can trap.
            (res, String::new())
        }
    };
    let stats = machine.stats();
    (
        res.map_err(|e| e.to_string()),
        machine.clock(),
        format!("{report}|{stats:?}"),
    )
}

fn sampled(sampling: SamplingConfig) -> ShadowPoolConfig {
    ShadowPoolConfig { sampling, ..ShadowPoolConfig::default() }
}

fn trap_json(
    res: &Result<RunOutcome, RunError>,
    to_json: impl Fn(&Trap) -> Option<String>,
) -> String {
    match res {
        Err(RunError::Backend(BackendError::Trap { trap, .. })) => {
            to_json(trap).unwrap_or_else(|| "unattributed".into())
        }
        _ => String::new(),
    }
}

#[test]
fn n1_is_byte_identical_to_the_unsampled_detector() {
    for seed in 0..200 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        let cfg = SamplingConfig::one_in(1);
        let reference = observe(&prog, Engine::Ast, Variant::Unsampled);
        let n1 = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        assert_eq!(reference, n1, "seed {seed}: N=1 diverged (ast)\n{src}");
        // A sparser sweep on the bytecode engine keeps the suite fast while
        // still pinning both execution paths.
        if seed % 5 == 0 {
            let bc_ref = observe(&prog, Engine::Bytecode, Variant::Unsampled);
            let bc_n1 = observe(&prog, Engine::Bytecode, Variant::Sampled(cfg));
            assert_eq!(bc_ref, bc_n1, "seed {seed}: N=1 diverged (bytecode)\n{src}");
        }
    }
}

#[test]
fn n_inf_matches_the_all_unchecked_fast_path() {
    for seed in 0..200 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        let cfg = SamplingConfig::one_in(SamplingConfig::NEVER);
        let never = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        let unchecked = observe(&prog, Engine::Ast, Variant::AllUnchecked);
        assert_eq!(never, unchecked, "seed {seed}: N=inf diverged\n{src}");
    }
}

#[test]
fn sampled_runs_are_seed_deterministic_across_engines() {
    let cfg = SamplingConfig::one_in(8).with_seed(0xfeed_f00d);
    for seed in 0..60 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        let first = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        let again = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        assert_eq!(first, again, "seed {seed}: repeat run diverged\n{src}");
        let bytecode = observe(&prog, Engine::Bytecode, Variant::Sampled(cfg));
        assert_eq!(first, bytecode, "seed {seed}: engines diverged\n{src}");
    }
}

#[test]
fn one_shard_sampling_matches_the_flat_detector() {
    let cfg = SamplingConfig::one_in(8).with_seed(0x51a3_d001);
    for seed in 0..100 {
        let src = random_program(seed);
        let (prog, _) = pool_allocate(&parse(&src).unwrap());
        let flat = observe(&prog, Engine::Ast, Variant::Sampled(cfg));
        let sharded = observe(&prog, Engine::Ast, Variant::Sharded(1, cfg));
        assert_eq!(flat, sharded, "seed {seed}: one-shard sampling diverged\n{src}");
    }
}

#[test]
fn four_core_sampled_concurrent_mix_is_reproducible() {
    let cfg = ConcurrentMix {
        sessions: 18,
        requests_per_session: 3,
        response_bytes: 384,
        injected_uafs: 3,
        seed: 9,
        ..ConcurrentMix::default()
    };
    let sampling = SamplingConfig::one_in(4).with_seed(0xc0de);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut m = Machine::with_config(MachineConfig { cores: 4, ..MachineConfig::default() });
        let mut b = ShardedPoolBackend::with_config(4, sampled(sampling));
        let r = cfg.run(&mut m, &mut b).unwrap();
        runs.push((r, m.clock(), format!("{:?}", m.stats())));
    }
    assert_eq!(runs[0], runs[1], "same seed, same config: 4-core sampled run moved");
}

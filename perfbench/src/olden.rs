//! `olden`: the nine Table 3 kernels under `Config::Ours`, the paper's
//! admitted worst case. Objects are freed one by one rather than with
//! their pool, and host time goes to the per-access `vmm` path. The
//! kernels build their inputs from fixed generators, so the seed has no
//! effect on this workload.

use crate::rep::{Mode, Rep, Workload};
use dangle_bench::Config;
use dangle_workloads::olden_suite;
use std::time::Instant;

struct Reference {
    checksum: u64,
    native_cycles: u64,
}

pub struct Olden {
    reference: Vec<Reference>,
}

impl Olden {
    pub fn new() -> Olden {
        let reference = olden_suite()
            .iter()
            .map(|kernel| {
                let mut machine = Mode::Untraced.machine(1);
                let checksum = kernel
                    .run(&mut machine, Config::Native.backend().as_mut())
                    .unwrap_or_else(|e| panic!("{} under native fails: {e}", kernel.name()));
                Reference {
                    checksum,
                    native_cycles: machine.clock(),
                }
            })
            .collect();
        Olden { reference }
    }
}

impl Workload for Olden {
    fn cores(&self) -> usize {
        1
    }

    fn driver_is_workloads(&self) -> bool {
        true
    }

    fn rep(&mut self, mode: Mode) -> Rep {
        let mut rep = Rep::default();
        let mut log_ratio = 0.0;
        let mut completed = 0u32;
        // Everything is built before the first kernel runs, so set-up is
        // timed in one stretch rather than in nine after each kernel has
        // evicted the caches.
        let started = Instant::now();
        let kernels = olden_suite();
        let mut runs: Vec<_> = kernels
            .iter()
            .map(|_| (mode.machine(1), mode.probe(Config::Ours.backend())))
            .collect();
        rep.setup_s = started.elapsed().as_secs_f64();
        for ((kernel, reference), (machine, probe)) in
            kernels.iter().zip(&self.reference).zip(&mut runs)
        {
            let started = Instant::now();
            let result = kernel.run(machine, probe);
            rep.host_s += started.elapsed().as_secs_f64();

            rep.attempted += 1;
            match result {
                Ok(sum) if sum == reference.checksum => {
                    completed += 1;
                    log_ratio += (machine.clock() as f64 / reference.native_cycles as f64).ln();
                }
                Ok(sum) => {
                    eprintln!(
                        "olden: {} checksum {sum:#x} differs from native {:#x}",
                        kernel.name(),
                        reference.checksum
                    );
                    rep.failed += 1;
                }
                Err(e) => {
                    eprintln!("olden: {} failed: {e}", kernel.name());
                    rep.failed += 1;
                }
            }
            rep.sim.cycles += machine.clock();
            rep.sim.add_machine(machine);
            rep.sim.add_probe(probe);
            rep.layers.times.add(&probe.times);
        }
        rep.sim.overhead_x = (log_ratio / f64::from(completed.max(1))).exp();
        rep.layers.caller_s = rep.host_s;
        rep
    }
}

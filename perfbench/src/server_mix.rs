//! `server-mix`: the paper's target, production servers. A `ConcurrentMix`
//! of ghttpd keep-alive, fingerd and ftpd sessions with 1 session in 64
//! replaced by an injected use-after-free, run on a 4-core simulated
//! machine under `ShardedPoolBackend::new(4)`. The seed is the scheduler
//! seed: it changes the interleaving, never a session's own work.

use crate::rep::{Mode, Rep, Sim, Workload};
use dangle_interp::backend::{NativeBackend, ShardedPoolBackend};
use dangle_workloads::concurrent::ConcurrentMix;
use std::collections::BTreeSet;
use std::time::Instant;

const CORES: usize = 4;
const SESSIONS: usize = 4_096;

pub struct ServerMix {
    mix: ConcurrentMix,
    /// The `NativeBackend` run on the same machine shape and seed.
    native_checksum: u64,
    native_cycles: u64,
    injected: BTreeSet<u32>,
}

impl ServerMix {
    pub fn new(seed: u64) -> ServerMix {
        let mix = ConcurrentMix {
            sessions: SESSIONS,
            requests_per_session: 8,
            response_bytes: 2_000,
            injected_uafs: SESSIONS / 64,
            seed,
            ghttpd_only: false,
        };
        let mut machine = Mode::Untraced.machine(CORES);
        let native = mix
            .run(&mut machine, &mut NativeBackend::new())
            .expect("the native reference run of the session mix completes");
        let first_uaf = (SESSIONS - mix.injected_uafs) as u32;
        ServerMix {
            mix,
            native_checksum: native.checksum,
            native_cycles: machine.max_core_clock(),
            injected: (first_uaf..SESSIONS as u32).collect(),
        }
    }
}

impl Workload for ServerMix {
    fn cores(&self) -> usize {
        CORES
    }

    fn driver_is_workloads(&self) -> bool {
        true
    }

    fn rep(&mut self, mode: Mode) -> Rep {
        let started = Instant::now();
        let mut machine = mode.machine(CORES);
        let mut probe = mode.probe(Box::new(ShardedPoolBackend::new(CORES)));
        let setup_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let result = self.mix.run(&mut machine, &mut probe);
        let host_s = started.elapsed().as_secs_f64();

        let mut sim = Sim::default();
        sim.add_machine(&machine);
        sim.add_probe(&probe);
        sim.cycles = machine.max_core_clock();
        sim.overhead_x = sim.cycles as f64 / self.native_cycles as f64;
        sim.uaf_injected = self.injected.len() as u64;
        let failed = match result {
            Ok(report) if report.checksum == self.native_checksum => {
                let detected: BTreeSet<u32> = report.detections.iter().map(|d| d.session).collect();
                sim.uaf_detected = detected.intersection(&self.injected).count() as u64;
                detected.symmetric_difference(&self.injected).count() as u64
            }
            Ok(report) => {
                eprintln!(
                    "server-mix: checksum {:#x} differs from the native run's {:#x}",
                    report.checksum, self.native_checksum
                );
                SESSIONS as u64
            }
            Err(e) => {
                eprintln!("server-mix: run failed: {e}");
                SESSIONS as u64
            }
        };
        Rep {
            host_s,
            setup_s,
            attempted: SESSIONS as u64,
            failed,
            sim,
            layers: crate::rep::Layers {
                times: probe.times,
                caller_s: host_s,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

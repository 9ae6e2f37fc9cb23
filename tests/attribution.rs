//! The flight recorder explains every simulated cycle on every core.
//!
//! On a traced machine the per-category attribution table (app, detector
//! metadata, protection syscalls, TLB/L1 penalty, pool recycling) must sum
//! to the *summed* core clocks, exactly, at every core count — including
//! the shootdown-IPI service time each mapping change charges to the
//! remote cores.

use dangle_interp::backend::ShardedPoolBackend;
use dangle_telemetry::TelemetryConfig;
use dangle_vmm::{Machine, MachineConfig};
use dangle_workloads::concurrent::ConcurrentMix;

#[test]
fn attribution_sums_to_the_summed_core_clocks_at_every_core_count() {
    let mix = ConcurrentMix {
        sessions: 24,
        requests_per_session: 4,
        response_bytes: 2_000,
        injected_uafs: 2,
        seed: 7,
        ghttpd_only: false,
    };
    for cores in [1, 2, 4, 8] {
        let mut machine = Machine::with_config(MachineConfig {
            cores,
            telemetry: TelemetryConfig::traced(),
            ..MachineConfig::default()
        });
        let mut backend = ShardedPoolBackend::new(cores);
        mix.run(&mut machine, &mut backend)
            .expect("concurrent mix runs");

        let ipis = machine.stats().shootdown_ipis;
        if cores == 1 {
            assert_eq!(ipis, 0, "a single core never shoots down");
        } else {
            assert!(ipis > 0, "{cores} cores: the mix must change mappings");
        }
        let clocks: u64 = (0..cores).map(|c| machine.core_clock(c)).sum();
        let tracer = machine.telemetry().tracer().expect("tracing on");
        let attributed: u64 = tracer.categories().iter().map(|&(_, c)| c).sum();
        assert_eq!(
            attributed, clocks,
            "{cores} cores: attribution must sum to the clocks, ±0"
        );
    }
}

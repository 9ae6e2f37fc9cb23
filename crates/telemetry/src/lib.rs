//! # dangle-telemetry — observability substrate for the detector stack
//!
//! The paper's whole evaluation is an observability exercise: Tables 1–3
//! decompose overhead into a *system-call* component and a *TLB-miss*
//! component, and §4.3 measures address-space wastage per connection. This
//! crate gives every layer of the reproduction one API for producing those
//! series, instead of ad-hoc counters scattered through `vmm`, `pool` and
//! the evaluation ledger:
//!
//! * [`EventRing`] — a fixed-capacity, allocation-free ring buffer of
//!   [`Event`]s (every simulated `mmap`/`mremap`/`mprotect`/`munmap`,
//!   alloc/free, pool free-list hit/miss, and trap), timestamped on the
//!   **simulated** clock. The last N events before a trap become the
//!   GWP-ASan-style context of a [`TrapReport`].
//! * [`MetricsRegistry`] — named counters and log₂-bucketed [`Histogram`]s
//!   with cheap integer [`CounterHandle`]s for hot paths.
//! * [`TrapReport`] — a structured dangling-use report (allocation site,
//!   free site, use site, trailing event context) that serializes to JSON
//!   and parses back.
//!
//! The whole crate is dependency-free (hand-rolled [`json`] layer) and
//! near-zero cost when disabled: [`Telemetry::record`] is a single branch
//! when [`TelemetryConfig::enabled`] is false.

pub mod json;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod span;

pub use json::{Json, JsonError};
pub use metrics::{
    CounterHandle, Histogram, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use report::TrapReport;
pub use ring::{Event, EventKind, EventRing};
pub use span::{Category, Charge, SpanId, SpanTracer};

/// Capacity of an enabled sink's event ring: the events kept for trap
/// context. A disabled sink keeps none.
pub const RING_CAPACITY: usize = 256;

/// Construction-time knobs for a [`Telemetry`] instance.
///
/// `Copy` so it can ride inside `MachineConfig` without breaking that
/// struct's `Copy` bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. When false, [`Telemetry::record`] and counter updates
    /// return after one branch — the no-op sink of the design notes.
    pub enabled: bool,
    /// Span tracing + cycle attribution (the flight recorder). Off by
    /// default: tracing is host-side bookkeeping only — it charges zero
    /// *simulated* cycles either way, so enabling it never perturbs the
    /// paper's tables — but the aggregation work is real host time, so
    /// production-shaped runs leave it off.
    pub tracing: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true, tracing: false }
    }
}

impl TelemetryConfig {
    /// A configuration with everything off — the no-op sink.
    pub fn disabled() -> Self {
        TelemetryConfig { enabled: false, tracing: false }
    }

    /// The default configuration with the flight recorder on.
    pub fn traced() -> Self {
        TelemetryConfig { tracing: true, ..TelemetryConfig::default() }
    }
}

/// The per-machine telemetry sink: one event ring plus one metrics
/// registry. Owned by `dangle_vmm::Machine`; every layer above reaches it
/// through `machine.telemetry_mut()`.
#[derive(Clone, Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    ring: EventRing,
    metrics: MetricsRegistry,
    /// The flight recorder; `Some` only when `config.tracing`.
    tracer: Option<SpanTracer>,
    /// Shadow call stack maintained by the MiniC interpreter (function
    /// names, outermost first). Feeds alloc/free/use provenance in
    /// [`TrapReport`]s; always on when the sink is enabled.
    calls: Vec<String>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// Builds a sink; the ring is allocated once here (recording never
    /// allocates).
    pub fn new(config: TelemetryConfig) -> Self {
        let cap = if config.enabled { RING_CAPACITY } else { 0 };
        let tracer = if config.enabled && config.tracing { Some(SpanTracer::new()) } else { None };
        Telemetry {
            config,
            ring: EventRing::new(cap),
            metrics: MetricsRegistry::new(),
            tracer,
            calls: Vec::new(),
        }
    }

    /// Is the sink live?
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Is the flight recorder live?
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The flight recorder's read side, when tracing.
    pub fn tracer(&self) -> Option<&SpanTracer> {
        self.tracer.as_ref()
    }

    /// Enters a span at simulated time `clock`. One branch when tracing
    /// is off.
    pub fn span_enter(&mut self, name: &str, category: Category, clock: u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.enter(name, category, clock);
        }
    }

    /// Exits the innermost span, returning its inclusive duration in
    /// simulated cycles (`None` when tracing is off).
    pub fn span_exit(&mut self, clock: u64) -> Option<u64> {
        self.tracer.as_mut().map(|t| t.exit(clock))
    }

    /// Folds `cycles` into the live span and the attribution table. The
    /// simulator's clock funnel calls this on every advance.
    pub fn charge(&mut self, cycles: u64, charge: Charge) {
        if let Some(t) = self.tracer.as_mut() {
            t.charge(cycles, charge);
        }
    }

    /// Pushes a function name onto the shadow call stack (the MiniC
    /// interpreter calls this on entry to every function).
    pub fn push_call(&mut self, name: &str) {
        if !self.config.enabled {
            return;
        }
        self.calls.push(name.to_string());
    }

    /// Pops the shadow call stack (interpreter function exit).
    pub fn pop_call(&mut self) {
        if !self.config.enabled {
            return;
        }
        self.calls.pop();
    }

    /// The current shadow call stack, outermost first.
    pub fn call_stack(&self) -> &[String] {
        &self.calls
    }

    /// Records one event at simulated time `clock`, and bumps the
    /// per-kind event counter (`event.<kind>`) in the registry.
    pub fn record(&mut self, clock: u64, addr: u64, kind: EventKind) {
        if !self.config.enabled {
            return;
        }
        self.ring.push(Event { clock, addr, kind });
        self.metrics.add_named(kind.counter_name(), 1);
    }

    /// Adds to a named counter (registering it on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if !self.config.enabled {
            return;
        }
        self.metrics.add_named(name, delta);
    }

    /// Records one observation in a named log₂ histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        if !self.config.enabled {
            return;
        }
        self.metrics.observe_named(name, value);
    }

    /// Current value of a named counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter_value(name)
    }

    /// The event ring (read side).
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// The registry (read side).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The registry (write side) — for callers that want raw handles.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Copies the last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        self.ring.tail(n)
    }

    /// Point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zeroes every counter and histogram (keeping registered handles
    /// valid), empties the event ring, unwinds the flight recorder, and
    /// clears the shadow call stack — a clean slate between benchmark
    /// configurations sharing one sink.
    pub fn reset_for_run(&mut self) {
        self.metrics.reset_for_run();
        let cap = if self.config.enabled { RING_CAPACITY } else { 0 };
        self.ring = EventRing::new(cap);
        if let Some(t) = self.tracer.as_mut() {
            t.reset();
        }
        self.calls.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        t.record(1, 0x40, EventKind::Mmap { pages: 4 });
        t.counter_add("x", 9);
        t.observe("h", 3);
        assert!(!t.enabled());
        assert_eq!(t.ring().len(), 0);
        assert_eq!(t.counter("x"), 0);
        assert!(t.snapshot().counters.is_empty());
    }

    #[test]
    fn tracing_is_off_by_default_and_wires_through() {
        let mut t = Telemetry::default();
        assert!(!t.tracing());
        assert!(t.span_exit(10).is_none());
        t.charge(5, Charge::Plain); // no-op, must not panic

        let mut traced = Telemetry::new(TelemetryConfig::traced());
        assert!(traced.tracing());
        traced.span_enter("req", Category::App, 0);
        traced.charge(7, Charge::Plain);
        assert_eq!(traced.span_exit(7), Some(7));
        assert_eq!(traced.tracer().unwrap().total(), 7);
    }

    #[test]
    fn call_stack_tracks_push_pop() {
        let mut t = Telemetry::default();
        t.push_call("main");
        t.push_call("handler");
        assert_eq!(t.call_stack(), ["main", "handler"]);
        t.pop_call();
        assert_eq!(t.call_stack(), ["main"]);

        let mut off = Telemetry::new(TelemetryConfig::disabled());
        off.push_call("main");
        assert!(off.call_stack().is_empty());
    }

    #[test]
    fn reset_for_run_clears_state_keeping_config() {
        let mut t = Telemetry::new(TelemetryConfig::traced());
        t.record(5, 0x40, EventKind::Trap);
        t.counter_add("x", 3);
        t.observe("h", 9);
        t.push_call("main");
        t.span_enter("req", Category::App, 0);
        t.charge(4, Charge::Plain);
        t.reset_for_run();
        assert_eq!(t.counter("x"), 0);
        assert_eq!(t.ring().len(), 0);
        assert!(t.call_stack().is_empty());
        assert_eq!(t.tracer().unwrap().total(), 0);
        // Handles registered before the reset still resolve.
        assert_eq!(t.counter("event.trap"), 0);
        t.counter_add("x", 2);
        assert_eq!(t.counter("x"), 2);
    }

    #[test]
    fn record_bumps_per_kind_counter() {
        let mut t = Telemetry::default();
        t.record(5, 0x40, EventKind::Mmap { pages: 2 });
        t.record(9, 0x80, EventKind::Mmap { pages: 1 });
        t.record(12, 0x80, EventKind::Trap);
        assert_eq!(t.counter("event.mmap"), 2);
        assert_eq!(t.counter("event.trap"), 1);
        assert_eq!(t.ring().len(), 3);
        let tail = t.tail(2);
        assert_eq!(tail[0].clock, 9);
        assert_eq!(tail[1].clock, 12);
    }
}

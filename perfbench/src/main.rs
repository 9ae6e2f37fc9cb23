//! The dangle benchmark: one workload at one seed, measured on two clocks.
//!
//! ```text
//! perfbench --workload <server-mix|olden|minic-pipeline> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's reference outcomes are computed first. Then repetitions
//! run until `--seconds` have passed (at least [`MIN_ROUNDS`]):
//!
//! * `--trace 0` runs the untraced configuration only and reports the
//!   end-to-end metrics: set-up time and heap peak as medians over
//!   repetitions, simulated figures exactly. The host time of the timed
//!   region is printed as quartiles; see [`host_time`] for why it is not
//!   in the JSON result.
//! * `--trace 1` interleaves untraced, telemetry-off and traced
//!   repetitions and reports the per-layer metrics. Layer host times come
//!   from the traced repetitions, net of the cost of the timer.
//!
//! Every repetition is checked against the reference; an operation whose
//! outcome differs counts as failed. The simulated figures of every
//! repetition, traced or not, must equal those of the first. The last
//! line of standard output is one JSON object; the process exits with 1
//! when any check failed.

mod heap;
mod minic;
mod olden;
mod probe;
mod rep;
mod server_mix;
mod stats;

use probe::Op;
use rep::{Mode, Rep, Workload};
use stats::{median, percentile, quantile, ratio};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Fewest rounds a run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn of_mode(reps: &[(Mode, Rep)], mode: Mode) -> Vec<&Rep> {
    reps.iter()
        .filter(|(m, _)| *m == mode)
        .map(|(_, r)| r)
        .collect()
}

/// Pool scope latency percentiles in kcycles, with the sample count and the
/// number of samples ranked above p99.
fn scopes(rep: &Rep) -> (f64, f64, usize, usize) {
    let mut s = rep.sim.scopes.clone();
    s.sort_unstable();
    let (p50, _) = percentile(&s, 0.50);
    let (p99, above) = percentile(&s, 0.99);
    (p50 as f64 / 1e3, p99 as f64 / 1e3, s.len(), above)
}

/// The host time of a set of repetitions: their lower quartile, since
/// contention from other tenants of a shared host only ever adds time.
///
/// It is printed but not part of the JSON result. On a shared 2-core
/// virtual machine, contention slowed whole runs by up to 75% for minutes
/// at a time: over three sets of ten runs per workload, its spread reached
/// 33% and set medians moved by up to 34%, more than any bound a
/// regression gate may use. Ratios of interleaved repetitions
/// (`telemetry.host_share`, `trace.overhead_x`) cancel that drift.
fn host_time(reps: &[&Rep]) -> f64 {
    quantile(reps.iter().map(|r| r.host_s), 0.25)
}

fn end_to_end(reps: &[&Rep]) -> Vec<Metric> {
    let sim = &reps[0].sim;
    vec![
        metric("setup_s", "s", median(reps.iter().map(|r| r.setup_s))),
        metric(
            "host_peak_heap_mib",
            "MiB",
            median(reps.iter().map(|r| r.heap_peak_bytes as f64)) / (1024.0 * 1024.0),
        ),
        metric("sim_mcycles", "Mcycles", sim.cycles as f64 / 1e6),
        metric("sim_overhead_x", "ratio", sim.overhead_x),
        metric("phys_frames_peak", "pages", sim.phys_frames_peak as f64),
        metric(
            "virt_pages_consumed",
            "pages",
            sim.virt_pages_consumed as f64,
        ),
    ]
}

/// Workload-specific end-to-end figures, printed for reading; they are not
/// defined on every workload, so they are not part of the JSON result.
/// `reps` are the untraced repetitions; the first of them is the run's
/// first repetition, the one that keeps its scope samples.
fn print_workload_figures(reps: &[&Rep], attempted: u64, failed: u64) {
    let rep = reps[0];
    let host = |q| quantile(reps.iter().map(|r| r.host_s), q);
    println!(
        "host_s = {} s (lower quartile; quartiles over {} repetitions: {:.6} / {:.6} / {:.6} s)",
        host_time(reps),
        reps.len(),
        host(0.25),
        host(0.5),
        host(0.75)
    );
    let compile = quantile(reps.iter().map(|r| r.compile_s), 0.25);
    if compile > 0.0 {
        println!("compile_s = {compile:.6} s (lower quartile)");
    }
    let (p50, p99, n, above) = scopes(rep);
    if n > 0 {
        println!(
            "sim_scope_p50_kcyc = {p50:.3} kcycles, sim_scope_p99_kcyc = {p99:.3} kcycles \
             ({n} pool scopes, {above} ranked above p99)"
        );
    }
    if rep.sim.uaf_injected > 0 {
        println!(
            "uaf_detected_frac = {} ({} of {} injected)",
            ratio(rep.sim.uaf_detected as f64, rep.sim.uaf_injected as f64),
            rep.sim.uaf_detected,
            rep.sim.uaf_injected
        );
    }
    println!(
        "failed_frac = {} ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    );
    println!(
        "host_peak_rss_mib = {} MiB (not repeatable; see host_peak_heap_mib)",
        stats::peak_rss_mib()
    );
}

/// Layer host times of one traced repetition, net of the timer's cost.
struct Net {
    op_s: [f64; 5],
    access_s: f64,
    /// Time in the caller's own code: driver or VM.
    caller_self_s: f64,
    /// The caller's wall time less the timer's cost.
    caller_net_s: f64,
}

fn net(rep: &Rep, timer_ns: f64) -> Net {
    let t = &rep.layers.times;
    let op_s: [f64; 5] = std::array::from_fn(|i| {
        (t.op_ns[i] as f64 - t.op_timed[i] as f64 * timer_ns).max(0.0) / 1e9
    });
    let sampled = (t.access_ns as f64 - t.access_timed as f64 * timer_ns).max(0.0) / 1e9;
    let access_s = sampled * ratio(rep.sim.counts.access_calls as f64, t.access_timed as f64);
    let overhead_s = t.timed_calls() as f64 * 2.0 * timer_ns / 1e9;
    let caller_net_s = rep.layers.caller_s - overhead_s;
    Net {
        op_s,
        access_s,
        caller_self_s: caller_net_s - op_s.iter().sum::<f64>() - access_s,
        caller_net_s,
    }
}

fn per_layer(workload: &dyn Workload, reps: &[(Mode, Rep)], timer_ns: f64) -> Vec<Metric> {
    let untraced = of_mode(reps, Mode::Untraced);
    let off = of_mode(reps, Mode::TelemetryOff);
    let traced = of_mode(reps, Mode::Traced);
    let nets: Vec<Net> = traced.iter().map(|r| net(r, timer_ns)).collect();
    let med =
        |f: &dyn Fn(&Rep, &Net) -> f64| median(traced.iter().zip(&nets).map(|(r, n)| f(r, n)));
    let sim = &traced[0].sim;
    let c = &sim.counts;
    let mut out = Vec::new();

    let driver = workload.driver_is_workloads();
    out.push(metric(
        "workloads.driver_self_s",
        "s",
        if driver {
            med(&|_, n| n.caller_self_s)
        } else {
            0.0
        },
    ));
    for op in Op::ALL {
        let i = op as usize;
        out.push(metric(
            format!("core.{}.calls", op.name()),
            "count",
            c.calls[i] as f64,
        ));
        out.push(metric(
            format!("core.{}.busy_s", op.name()),
            "s",
            med(&|_, n| n.op_s[i]),
        ));
    }
    out.push(metric(
        "core.ns_per_call",
        "ns",
        med(&|_, n| ratio(n.op_s.iter().sum::<f64>() * 1e9, c.core_calls() as f64)),
    ));
    out.push(metric("core.detections", "count", c.detections as f64));
    let [alloc, free, unchecked, ..] = c.calls;
    out.push(metric(
        "core.elided_frac",
        "ratio",
        ratio(unchecked as f64, (alloc + free + unchecked) as f64),
    ));

    out.push(metric("vmm.access.calls", "count", c.access_calls as f64));
    out.push(metric("vmm.access.bytes", "bytes", c.access_bytes as f64));
    out.push(metric("vmm.access.busy_s", "s", med(&|_, n| n.access_s)));
    out.push(metric("vmm.loads", "count", sim.loads as f64));
    out.push(metric("vmm.stores", "count", sim.stores as f64));
    out.push(metric(
        "vmm.tlb_miss_frac",
        "ratio",
        ratio(
            sim.tlb_misses as f64,
            (sim.tlb_hits + sim.tlb_misses) as f64,
        ),
    ));
    out.push(metric(
        "vmm.shootdown_ipis",
        "count",
        sim.shootdown_ipis as f64,
    ));
    for (name, n) in ["mmap", "mremap", "mprotect", "munmap"]
        .iter()
        .zip(sim.syscalls)
    {
        out.push(metric(format!("vmm.syscalls.{name}"), "count", n as f64));
    }

    let [recycled, fresh] = sim.pool_pages.unwrap_or_default();
    out.push(metric("pool.pages_recycled", "pages", recycled as f64));
    out.push(metric("pool.pages_fresh", "pages", fresh as f64));
    out.push(metric(
        "pool.recycle_frac",
        "ratio",
        ratio(recycled as f64, (recycled + fresh) as f64),
    ));

    out.push(metric("apa.parse_s", "s", med(&|r, _| r.layers.parse_s)));
    out.push(metric(
        "apa.lint_apa_s",
        "s",
        med(&|r, _| r.layers.lint_apa_s),
    ));
    out.push(metric(
        "apa.validate_s",
        "s",
        med(&|r, _| r.layers.validate_s),
    ));
    out.push(metric(
        "apa.source_kb_per_s",
        "KiB/s",
        med(&|r, _| {
            let l = &r.layers;
            ratio(
                r.sim.source_bytes as f64 / 1024.0,
                l.parse_s + l.lint_apa_s + l.validate_s,
            )
        }),
    ));
    out.push(metric(
        "apa.sites_safe_frac",
        "ratio",
        ratio(sim.sites_safe as f64, sim.sites_total as f64),
    ));
    out.push(metric(
        "interp.compile_s",
        "s",
        med(&|r, _| r.layers.bc_compile_s),
    ));
    out.push(metric(
        "interp.vm_self_s",
        "s",
        if driver {
            0.0
        } else {
            med(&|_, n| n.caller_self_s)
        },
    ));
    out.push(metric(
        "interp.msteps_per_s",
        "Msteps/s",
        med(&|r, n| ratio(r.sim.steps as f64 / 1e6, n.caller_net_s)),
    ));

    let cats = sim.categories.unwrap_or_default();
    let names = [
        "app",
        "detector_metadata",
        "protection_syscalls",
        "tlb_l1_penalty",
        "pool_recycling",
    ];
    for (name, cycles) in names.iter().zip(cats) {
        out.push(metric(format!("sim.{name}_cyc"), "cycles", cycles as f64));
    }
    out.push(metric(
        "sim.unattributed_cyc",
        "cycles",
        unattributed(sim) as f64,
    ));
    let (p50, p99, n, _) = scopes(&reps[0].1);
    out.push(metric("sim.scope_p50_kcyc", "kcycles", p50));
    out.push(metric("sim.scope_p99_kcyc", "kcycles", p99));
    out.push(metric("sim.scope_samples", "count", n as f64));

    out.push(metric(
        "telemetry.host_share",
        "ratio",
        1.0 - ratio(host_time(&off), host_time(&untraced)),
    ));
    out.push(metric(
        "trace.overhead_x",
        "ratio",
        ratio(host_time(&traced), host_time(&untraced)),
    ));
    out.push(metric("trace.timer_ns_per_call", "ns", timer_ns));
    out.push(metric(
        "trace.timed_calls",
        "count",
        median(traced.iter().map(|r| r.layers.times.timed_calls() as f64)),
    ));
    out
}

/// Core clock cycles the flight recorder did not attribute.
fn unattributed(sim: &rep::Sim) -> i128 {
    let attributed: u64 = sim.categories.unwrap_or_default().iter().sum();
    sim.core_clock_sum as i128 - attributed as i128
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload <server-mix|olden|minic-pipeline> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };

    let started = Instant::now();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "server-mix" => Box::new(server_mix::ServerMix::new(args.seed)),
        "olden" => {
            println!(
                "olden: the kernels use fixed generators; --seed {} has no effect",
                args.seed
            );
            Box::new(olden::Olden::new())
        }
        "minic-pipeline" => Box::new(minic::Minic::new(args.seed)),
        other => {
            eprintln!("unknown workload {other}: expected server-mix, olden or minic-pipeline");
            return ExitCode::from(2);
        }
    };
    println!("reference runs: {:.3} s", started.elapsed().as_secs_f64());

    let timer_ns = probe::timer_cost_ns();
    let modes: &[Mode] = if args.trace {
        &[Mode::Untraced, Mode::TelemetryOff, Mode::Traced]
    } else {
        &[Mode::Untraced]
    };
    let mut reps: Vec<(Mode, Rep)> = Vec::new();
    let mut problems = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        // Rotate the order so each mode runs after each other one equally.
        for k in 0..modes.len() {
            let mode = modes[(round + k) % modes.len()];
            let (mut rep, heap_peak) = heap::peak_of(|| workload.rep(mode));
            rep.heap_peak_bytes = heap_peak;
            let same_mode = reps.iter().find(|(m, _)| *m == mode).map(|(_, r)| r);
            for earlier in reps.first().map(|(_, r)| r).into_iter().chain(same_mode) {
                if let Some(what) = earlier.sim.mismatch(&rep.sim) {
                    problems.push(format!(
                        "repetition {} ({mode:?}): simulated {what} differ from an earlier repetition",
                        reps.len()
                    ));
                }
            }
            // The first repetition of each mode keeps its scope samples;
            // later ones were just checked equal to them.
            if same_mode.is_some() {
                rep.sim.scopes = Vec::new();
            }
            reps.push((mode, rep));
        }
        round += 1;
    }

    let attempted: u64 = reps.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();
    for rep in of_mode(&reps, Mode::Traced) {
        let gap = unattributed(&rep.sim);
        if gap != 0 && workload.cores() == 1 {
            problems.push(format!(
                "flight recorder left {gap} cycles unattributed on one core"
            ));
        }
    }
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} operations differ from the reference"
        ));
    }
    problems.dedup();

    let untraced = of_mode(&reps, Mode::Untraced);
    println!(
        "workload {} seed {}: {} repetitions ({} untraced) in {:.2} s",
        args.workload,
        args.seed,
        reps.len(),
        untraced.len(),
        started.elapsed().as_secs_f64()
    );
    print_workload_figures(&untraced, attempted, failed);
    let metrics = if args.trace {
        per_layer(workload.as_ref(), &reps, timer_ns)
    } else {
        end_to_end(&untraced)
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    for p in problems.iter().take(20) {
        println!("FAILED: {p}");
    }
    if problems.len() > 20 {
        println!("FAILED: ... and {} more", problems.len() - 20);
    }

    let correct = problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

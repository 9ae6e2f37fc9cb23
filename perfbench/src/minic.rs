//! `minic-pipeline`: a seeded batch of MiniC programs through the whole
//! front end and the bytecode VM — the only workload that exercises `apa`
//! and `interp`. The batch holds `random_program` draws plus the corpus
//! servers at seed-chosen sizes. Each program goes through `parse` →
//! `pool_allocate_with_lint` (interprocedural) → `validate` → `compile` →
//! `run_compiled` on `ShadowPoolBackend`. Sites lint proves safe skip the
//! detector, so this is the bypass case for detector changes.
//!
//! The reference is the AST engine (`dangle_interp::run`) on the same
//! lint-stamped program: each program's output, step count, simulated
//! clock and outcome kind must match it.

use crate::rep::{Mode, Rep, Workload};
use dangle_apa::{corpus, parse, pool_allocate_with_lint, validate, Program, Verdict};
use dangle_interp::backend::{NativeBackend, ShadowPoolBackend};
use dangle_interp::{compile, is_detection, run, run_compiled, RunError, RunOutcome};
use dangle_testkit::minic::random_program;
use dangle_testkit::SeededRng;
use std::time::Instant;

const RANDOM_PROGRAMS: usize = 2_000;
/// Interpreter steps a random program may take. Nine in ten draws that
/// complete need fewer than 250 and 99% fewer than 1,000; about 4% loop
/// forever, and this limit keeps them from dominating the batch.
const RANDOM_FUEL: u64 = 1_000;
/// The corpus servers always run to completion.
const CORPUS_FUEL: u64 = 1_000_000_000;

/// One program of the batch.
struct Source {
    name: String,
    text: String,
    fuel: u64,
}

/// The batch for `seed`. Each corpus server's size is drawn within 2% of
/// a fixed base, so the seed varies the inputs while the batch keeps a
/// fixed size. The random draws hold most of the front-end time and the
/// servers most of the interpreter steps and simulated cycles.
fn batch(seed: u64) -> Vec<Source> {
    let mut rng = SeededRng::mixed(seed);
    let mut out: Vec<Source> = (0..RANDOM_PROGRAMS)
        .map(|_| {
            let s = rng.next();
            Source {
                name: format!("random-{s:#018x}"),
                text: random_program(s),
                fuel: RANDOM_FUEL,
            }
        })
        .collect();
    let mut near = |base: u64| base - base / 50 + rng.below(base / 25 + 1);
    let sessions = near(40_000);
    let requests = near(400);
    let lookups = near(200_000);
    for (name, text) in [
        (
            format!("ftpd_helper({sessions})"),
            corpus::ftpd_helper(sessions),
        ),
        (
            format!("ghttpd_keepalive(20,{requests})"),
            corpus::ghttpd_keepalive(20, requests),
        ),
        (format!("fingerd({lookups})"), corpus::fingerd(lookups)),
    ] {
        out.push(Source {
            name,
            text,
            fuel: CORPUS_FUEL,
        });
    }
    out
}

/// What a run must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Outcome {
    kind: &'static str,
    output: Vec<i64>,
    steps: u64,
    clock: u64,
}

impl Outcome {
    fn of(result: &Result<RunOutcome, RunError>, clock: u64) -> Outcome {
        let kind = match result {
            Ok(_) => "completed",
            Err(e) if is_detection(e) => "detection",
            Err(RunError::Backend(_)) => "backend-error",
            Err(RunError::NullDereference) => "null-dereference",
            Err(RunError::DivisionByZero) => "division-by-zero",
            Err(RunError::OutOfFuel) => "out-of-fuel",
            Err(RunError::NoMain) => "no-main",
            Err(_) => "name-error",
        };
        let (output, steps) = match result {
            Ok(o) => (o.output.clone(), o.steps_used),
            Err(_) => (Vec::new(), 0),
        };
        Outcome {
            kind,
            output,
            steps,
            clock,
        }
    }
}

struct Reference {
    /// The AST engine's outcome; `None` if the front end rejected the
    /// program, which the measured pipeline then counts as a failure.
    ast: Option<Outcome>,
    /// Simulated cycles under `NativeBackend`, when the program completes.
    native_cycles: Option<u64>,
}

fn front_end(source: &str) -> Option<Program> {
    let parsed = parse(source).ok()?;
    Some(pool_allocate_with_lint(&parsed).0)
}

pub struct Minic {
    seed: u64,
    reference: Vec<Reference>,
}

impl Minic {
    pub fn new(seed: u64) -> Minic {
        let reference = batch(seed)
            .iter()
            .map(|source| {
                let Some(prog) = front_end(&source.text) else {
                    return Reference {
                        ast: None,
                        native_cycles: None,
                    };
                };
                let mut machine = Mode::Untraced.machine(1);
                let result = run(
                    &prog,
                    &mut machine,
                    &mut ShadowPoolBackend::new(),
                    source.fuel,
                );
                let ast = Some(Outcome::of(&result, machine.clock()));
                let mut machine = Mode::Untraced.machine(1);
                let native = run(&prog, &mut machine, &mut NativeBackend::new(), source.fuel);
                Reference {
                    ast,
                    native_cycles: native.ok().map(|_| machine.clock()),
                }
            })
            .collect();
        Minic { seed, reference }
    }
}

impl Workload for Minic {
    fn cores(&self) -> usize {
        1
    }

    fn driver_is_workloads(&self) -> bool {
        false
    }

    fn rep(&mut self, mode: Mode) -> Rep {
        let mut rep = Rep::default();
        let started = Instant::now();
        let sources = batch(self.seed);
        rep.setup_s += started.elapsed().as_secs_f64();
        let mut log_ratio = 0.0;
        let mut completed = 0u32;
        for (source, reference) in sources.iter().zip(&self.reference) {
            let name = &source.name;
            rep.attempted += 1;
            rep.sim.source_bytes += source.text.len() as u64;
            let layers = &mut rep.layers;

            let t = Instant::now();
            let parsed = parse(&source.text);
            layers.parse_s += t.elapsed().as_secs_f64();
            let Ok(parsed) = parsed else {
                eprintln!("minic-pipeline: {name} does not parse");
                rep.failed += 1;
                continue;
            };

            let t = Instant::now();
            let (prog, _, lint) = pool_allocate_with_lint(&parsed);
            layers.lint_apa_s += t.elapsed().as_secs_f64();
            rep.sim.sites_total += lint.verdicts.len() as u64;
            rep.sim.sites_safe += lint
                .verdicts
                .values()
                .filter(|v| **v == Verdict::ProvablySafe)
                .count() as u64;

            let t = Instant::now();
            let valid = validate(&prog, true);
            layers.validate_s += t.elapsed().as_secs_f64();
            if let Err(errors) = valid {
                eprintln!("minic-pipeline: {name} fails validation: {errors:?}");
                rep.failed += 1;
                continue;
            }

            let t = Instant::now();
            let bytecode = compile(&prog);
            layers.bc_compile_s += t.elapsed().as_secs_f64();
            let Ok(bytecode) = bytecode else {
                eprintln!("minic-pipeline: {name} does not compile");
                rep.failed += 1;
                continue;
            };

            let t = Instant::now();
            let mut machine = mode.machine(1);
            let mut probe = mode.probe(Box::new(ShadowPoolBackend::new()));
            rep.setup_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let result = run_compiled(&bytecode, &mut machine, &mut probe, source.fuel);
            layers.caller_s += t.elapsed().as_secs_f64();

            let outcome = Outcome::of(&result, machine.clock());
            if reference.ast.as_ref() != Some(&outcome) {
                eprintln!(
                    "minic-pipeline: {name}: bytecode {outcome:?} differs from the AST engine's {:?}",
                    reference.ast
                );
                rep.failed += 1;
            }
            if let (Ok(_), Some(native)) = (&result, reference.native_cycles) {
                completed += 1;
                log_ratio += (machine.clock() as f64 / native as f64).ln();
            }
            rep.sim.cycles += machine.clock();
            rep.sim.steps += outcome.steps;
            rep.sim.add_machine(&machine);
            rep.sim.add_probe(&probe);
            layers.times.add(&probe.times);
        }
        let l = &rep.layers;
        rep.compile_s = l.parse_s + l.lint_apa_s + l.validate_s + l.bc_compile_s;
        rep.host_s = rep.compile_s + l.caller_s;
        rep.sim.overhead_x = (log_ratio / f64::from(completed.max(1))).exp();
        rep
    }
}

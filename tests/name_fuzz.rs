//! Identifier-swap fuzzing of the MiniC front end and both engines.
//!
//! Each mutant is a `random_program` draw with one identifier occurrence
//! replaced by another identifier of the same program, which produces
//! exactly the programs name resolution must judge: undefined names,
//! wrong arities, uses before or outside a declaration, retyped
//! redeclarations. Every mutant that parses goes through the whole
//! pipeline (`pool_allocate_with_lint` → `validate` → `compile` → both
//! engines on the native and shadow-pool backends), and the test pins
//! three properties:
//!
//! * no step panics;
//! * `compile` accepts every program `validate` accepts;
//! * the AST engine and the bytecode engine return the same result and
//!   leave the same simulated clock, whether the program runs, traps or
//!   is rejected by name resolution.

use dangle::apa::{parse, pool_allocate_with_lint, validate, Program};
use dangle::interp::backend::{Backend, NativeBackend, ShadowPoolBackend};
use dangle::interp::{compile, run_with, Engine};
use dangle::vmm::Machine;
use dangle_testkit::minic::random_program;
use dangle_testkit::SeededRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parsed mutants the test must reach.
const MUTANTS: usize = 3_000;
/// Per-run step budget: mutants may loop forever, and out-of-fuel is an
/// outcome both engines must agree on like any other.
const FUEL: u64 = 20_000;

const KEYWORDS: &[&str] = &[
    "struct", "global", "fn", "var", "malloc", "malloc_array", "free", "if", "else", "while",
    "return", "print", "null", "int", "ptr",
];

/// Byte ranges of the identifier occurrences in `src`.
fn identifiers(src: &str) -> Vec<(usize, usize)> {
    let bytes = src.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if word(bytes[i]) {
            let start = i;
            while i < bytes.len() && word(bytes[i]) {
                i += 1;
            }
            let w = &src[start..i];
            if !bytes[start].is_ascii_digit() && !KEYWORDS.contains(&w) {
                out.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Replaces one identifier occurrence of `src` with a different
/// identifier drawn from the same program, or `None` if it has fewer than
/// two distinct identifiers.
fn mutate(src: &str, rng: &mut SeededRng) -> Option<String> {
    let ids = identifiers(src);
    let mut names: Vec<&str> = ids.iter().map(|&(s, e)| &src[s..e]).collect();
    names.sort_unstable();
    names.dedup();
    let (start, end) = ids[rng.below(ids.len() as u64) as usize];
    let others: Vec<&str> = names.into_iter().filter(|n| *n != &src[start..end]).collect();
    if others.is_empty() {
        return None;
    }
    let with = others[rng.below(others.len() as u64) as usize];
    Some(format!("{}{with}{}", &src[..start], &src[end..]))
}

/// Runs `prog` on both engines, each on a fresh machine and backend, and
/// asserts they agree on the result and the final clock.
fn engines_agree(prog: &Program, mk: fn() -> Box<dyn Backend>, backend: &str) {
    let mut outcomes = Vec::new();
    for engine in [Engine::Ast, Engine::Bytecode] {
        let mut machine = Machine::free_running();
        let result = run_with(engine, prog, &mut machine, mk().as_mut(), FUEL);
        outcomes.push((result, machine.clock()));
    }
    assert_eq!(outcomes[0], outcomes[1], "engines diverge on {backend}");
}

/// Checks one mutant; returns whether `validate` accepts it.
fn check(mutant: &str) -> bool {
    let prog = parse(mutant).expect("only parsed mutants are checked");
    let (transformed, _, _) = pool_allocate_with_lint(&prog);
    let valid = validate(&transformed, true);
    let compiled = compile(&transformed);
    if valid.is_ok() {
        assert!(compiled.is_ok(), "validate accepts but compile rejects: {compiled:?}");
    }
    engines_agree(&transformed, || Box::new(NativeBackend::new()), "native");
    engines_agree(&transformed, || Box::new(ShadowPoolBackend::new()), "shadow-pool");
    valid.is_ok()
}

#[test]
fn identifier_swap_mutants_agree_across_the_pipeline() {
    // The AST engine recurses on the host stack once per MiniC call, and a
    // mutant can recurse until its fuel runs out.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(fuzz)
        .expect("spawn the fuzz thread")
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
}

fn fuzz() {
    let mut rng = SeededRng::mixed(0x6e61_6d65);
    let (mut parsed, mut accepted) = (0, 0);
    let mut seed = 0;
    while parsed < MUTANTS {
        assert!(seed < 20 * MUTANTS as u64, "too few mutants parse: {parsed} by seed {seed}");
        let src = random_program(seed);
        seed += 1;
        let Some(mutant) = mutate(&src, &mut rng) else { continue };
        if parse(&mutant).is_err() {
            continue;
        }
        parsed += 1;
        match catch_unwind(AssertUnwindSafe(|| check(&mutant))) {
            Ok(valid) => accepted += usize::from(valid),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panic!("{msg}\nin the mutant of random_program({}):\n{mutant}", seed - 1);
            }
        }
    }
    // Both sides of the name contract stay exercised.
    assert!(
        (MUTANTS / 5..=MUTANTS * 4 / 5).contains(&accepted),
        "validate accepts {accepted} of {MUTANTS} mutants"
    );
}

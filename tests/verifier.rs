//! Negative tests for the bytecode verifier.
//!
//! The VM's dispatch loop indexes frames, pool registers, globals, call
//! sites and code with unchecked accesses; `verify` is what makes them
//! sound. `BcProgram`'s fields are public, so a hand-assembled program can
//! break any of those invariants. Each test below breaks exactly one and
//! requires `run_compiled` to reject the program with
//! `RunError::InvalidBytecode` — never to run it, and never to panic.

use dangle_interp::backend::NativeBackend;
use dangle_interp::bytecode::{BcFunc, BcProgram, CallSite, Insn, POOL_NONE, SLOT_NONE};
use dangle_interp::{run_compiled, RunError};
use dangle_vmm::Machine;

/// A well-formed two-function program exercising every operand kind the
/// verifier checks: `main` creates a pool, stores a global, calls
/// `helper(x, pool)`, branches on the result, prints it and destroys the
/// pool.
fn valid() -> BcProgram {
    let main = BcFunc {
        name: "main".into(),
        nparams: 0,
        nslots: 2,
        npool_params: 0,
        npools: 1,
        code: vec![
            Insn::PoolCreate {
                cost: 1,
                dst: 0,
                elem_size: 16,
            },
            Insn::Const {
                cost: 1,
                dst: 0,
                val: 7,
            },
            Insn::GlobalSet {
                cost: 1,
                idx: 0,
                src: 0,
            },
            Insn::Call {
                cost: 1,
                dst: 1,
                site: 0,
            },
            Insn::JumpIfZero {
                cost: 1,
                cond: 1,
                target: 6,
            },
            Insn::Print { cost: 1, src: 1 },
            Insn::PoolDestroy { cost: 1, pool: 0 },
            Insn::Ret {
                cost: 1,
                src: SLOT_NONE,
            },
        ],
        calls: vec![CallSite {
            func: 1,
            args: vec![0],
            pool_args: vec![0],
        }],
        slot_names: vec![],
    };
    let helper = BcFunc {
        name: "helper".into(),
        nparams: 1,
        nslots: 1,
        npool_params: 1,
        npools: 1,
        code: vec![Insn::Ret { cost: 1, src: 0 }],
        calls: vec![],
        slot_names: vec!["x".into()],
    };
    BcProgram {
        funcs: vec![main, helper],
        main: Some(0),
        global_names: vec!["g".into()],
    }
}

fn exec(prog: &BcProgram) -> Result<Vec<i64>, RunError> {
    let mut machine = Machine::new();
    run_compiled(prog, &mut machine, &mut NativeBackend::new(), 1_000).map(|o| o.output)
}

/// Applies `break_it` to the valid program and requires a verifier
/// rejection whose message contains `expected`.
fn rejected(expected: &str, break_it: impl FnOnce(&mut BcProgram)) {
    let mut prog = valid();
    break_it(&mut prog);
    match exec(&prog) {
        Err(RunError::InvalidBytecode(msg)) => {
            assert!(msg.contains(expected), "expected {expected:?} in {msg:?}")
        }
        other => panic!("expected a verifier rejection ({expected}), got {other:?}"),
    }
}

fn main_code(prog: &mut BcProgram) -> &mut Vec<Insn> {
    &mut prog.funcs[0].code
}

#[test]
fn the_valid_program_runs() {
    assert_eq!(exec(&valid()).expect("valid program runs"), [7]);
}

#[test]
fn slot_out_of_range() {
    rejected("const dst slot 2 out of 2", |p| {
        main_code(p)[1] = Insn::Const {
            cost: 1,
            dst: 2,
            val: 7,
        }
    });
}

#[test]
fn pool_register_out_of_range() {
    rejected("pool register 5 out of 1", |p| {
        main_code(p)[6] = Insn::PoolDestroy { cost: 1, pool: 5 }
    });
}

#[test]
fn pool_create_into_pool_none() {
    rejected("poolcreate into POOL_NONE", |p| {
        main_code(p)[0] = Insn::PoolCreate {
            cost: 1,
            dst: POOL_NONE,
            elem_size: 16,
        }
    });
}

#[test]
fn pool_destroy_of_pool_none() {
    rejected("pooldestroy of POOL_NONE", |p| {
        main_code(p)[6] = Insn::PoolDestroy {
            cost: 1,
            pool: POOL_NONE,
        }
    });
}

#[test]
fn pool_none_as_pool_argument() {
    rejected("POOL_NONE passed as pool arg", |p| {
        p.funcs[0].calls[0].pool_args = vec![POOL_NONE]
    });
}

#[test]
fn jump_target_out_of_range() {
    rejected("jump target 99 out of 8", |p| {
        main_code(p)[4] = Insn::JumpIfZero {
            cost: 1,
            cond: 1,
            target: 99,
        }
    });
}

#[test]
fn global_index_out_of_range() {
    rejected("global 1 out of range", |p| {
        main_code(p)[2] = Insn::GlobalSet {
            cost: 1,
            idx: 1,
            src: 0,
        }
    });
}

#[test]
fn call_site_out_of_range() {
    rejected("call site 1 out of range", |p| {
        main_code(p)[3] = Insn::Call {
            cost: 1,
            dst: 1,
            site: 1,
        }
    });
}

#[test]
fn callee_out_of_range() {
    rejected("callee 2 out of range", |p| p.funcs[0].calls[0].func = 2);
}

#[test]
fn arity_mismatch() {
    rejected("main: arity mismatch calling helper", |p| {
        p.funcs[0].calls[0].args = vec![]
    });
}

#[test]
fn pool_arity_mismatch() {
    rejected("main: pool arity mismatch calling helper", |p| {
        p.funcs[0].calls[0].pool_args = vec![]
    });
}

#[test]
fn params_exceed_slots() {
    rejected("helper: 2 params exceed 1 slots", |p| {
        p.funcs[1].nparams = 2;
        p.funcs[0].calls[0].args = vec![0, 1];
    });
}

#[test]
fn pool_params_exceed_pool_registers() {
    rejected("helper: pool params exceed pool registers", |p| {
        p.funcs[1].npool_params = 2;
        p.funcs[0].calls[0].pool_args = vec![0, 0];
    });
}

#[test]
fn missing_final_ret() {
    rejected("helper: last insn", |p| {
        p.funcs[1].code = vec![Insn::Print { cost: 1, src: 0 }]
    });
    rejected("helper: last insn None", |p| p.funcs[1].code = vec![]);
}

#[test]
fn bad_ret_source() {
    rejected("ret src slot 5 out of 1", |p| {
        p.funcs[1].code = vec![Insn::Ret { cost: 1, src: 5 }]
    });
}

#[test]
fn main_index_out_of_range() {
    rejected("main index", |p| p.main = Some(2));
}

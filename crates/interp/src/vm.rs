//! Dispatch-loop VM for the register bytecode.
//!
//! Executes [`BcProgram`]s against the exact same [`Backend`] hooks as
//! the AST interpreter — alloc/free (including the `unchecked` lint
//! stamps), load/store, pool create/destroy — and the same telemetry:
//! `push_call`/`pop_call` shadow-call-stack frames and `App` spans around
//! `main` and every call, with the `?` on the callee body deliberately
//! skipping the pops so an abnormal exit freezes the stack at the
//! faulting frame (trap-report provenance is byte-identical between
//! engines).
//!
//! Frames are contiguous windows of one shared value stack (and one pool
//! stack); slot accesses are plain indexed loads, which is where the
//! engine's host-throughput win over the `HashMap`-per-access tree
//! walker comes from.

use crate::backend::{Backend, BackendError, PoolHandle};
use crate::bytecode::{BcProgram, Insn, POOL_NONE, SLOT_NONE};
use crate::{RunError, RunOutcome};
use dangle_apa::ast::BinOp;
use dangle_telemetry::Category;
use dangle_vmm::{Machine, VirtAddr};

struct Vm<'p, 'm, 'b> {
    prog: &'p BcProgram,
    machine: &'m mut Machine,
    backend: &'b mut dyn Backend,
    globals: Vec<i64>,
    /// Shared value stack; each frame is `stack[base..base + nslots]`.
    stack: Vec<i64>,
    /// Shared pool-register stack, windowed like `stack`.
    pool_stack: Vec<PoolHandle>,
    output: Vec<i64>,
    fuel: u64,
}

/// Checks the static invariants the dispatch loop's unchecked accesses
/// rely on: every slot operand is in `0..nslots` (or `SLOT_NONE` where a
/// variant allows it), pool operands are in `0..npools` (or `POOL_NONE`),
/// global indexes are in range, jump targets stay inside the function,
/// call sites reference real functions with matching argument counts, and
/// the code is non-empty with an unconditional terminator last — so
/// straight-line execution can never run off the end — and `main` names a
/// real function. `compile` output satisfies this by construction;
/// hand-built programs are rejected here.
///
/// One O(code) pass per run, amortized over every executed instruction.
fn verify(prog: &BcProgram) -> Result<(), String> {
    if prog.main.is_some_and(|m| m as usize >= prog.funcs.len()) {
        let n = prog.funcs.len();
        return Err(format!("main index {:?} out of {n} functions", prog.main));
    }
    for f in &prog.funcs {
        let n = f.nslots;
        let len = f.code.len() as u32;
        let slot = |s: u16, what: &str| {
            if s < n { Ok(()) } else { Err(format!("{}: {what} slot {s} out of {n}", f.name)) }
        };
        let pool = |p: u16| {
            if p == POOL_NONE || p < f.npools {
                Ok(())
            } else {
                Err(format!("{}: pool register {p} out of {}", f.name, f.npools))
            }
        };
        let target = |t: u32| {
            if t < len { Ok(()) } else { Err(format!("{}: jump target {t} out of {len}", f.name)) }
        };
        if f.nparams > n {
            return Err(format!("{}: {} params exceed {n} slots", f.name, f.nparams));
        }
        if f.npool_params > f.npools {
            return Err(format!("{}: pool params exceed pool registers", f.name));
        }
        match f.code.last() {
            Some(Insn::Ret { .. }) => {}
            other => return Err(format!("{}: last insn {other:?} is not ret", f.name)),
        }
        for insn in &f.code {
            match *insn {
                Insn::Const { dst, .. } => slot(dst, "const dst")?,
                Insn::Copy { dst, src, .. } => {
                    slot(dst, "copy dst")?;
                    slot(src, "copy src")?;
                }
                Insn::GlobalGet { dst, idx, .. } => {
                    slot(dst, "gget dst")?;
                    if idx as usize >= prog.global_names.len() {
                        return Err(format!("{}: global {idx} out of range", f.name));
                    }
                }
                Insn::GlobalSet { idx, src, .. } => {
                    slot(src, "gset src")?;
                    if idx as usize >= prog.global_names.len() {
                        return Err(format!("{}: global {idx} out of range", f.name));
                    }
                }
                Insn::Bin { dst, lhs, rhs, .. } => {
                    slot(dst, "bin dst")?;
                    slot(lhs, "bin lhs")?;
                    slot(rhs, "bin rhs")?;
                }
                Insn::BinImm { dst, lhs, .. } => {
                    slot(dst, "binimm dst")?;
                    slot(lhs, "binimm lhs")?;
                }
                Insn::Jump { target: t, .. } => target(t)?,
                Insn::JumpIfZero { cond, target: t, .. } => {
                    slot(cond, "jz cond")?;
                    target(t)?;
                }
                Insn::BrZero { lhs, rhs, target: t, .. } => {
                    slot(lhs, "brz lhs")?;
                    slot(rhs, "brz rhs")?;
                    target(t)?;
                }
                Insn::BrZeroImm { lhs, target: t, .. } => {
                    slot(lhs, "brz lhs")?;
                    target(t)?;
                }
                Insn::Tick { .. } => {}
                Insn::Index { dst, base, index, .. } => {
                    slot(dst, "index dst")?;
                    slot(base, "index base")?;
                    slot(index, "index index")?;
                }
                Insn::LoadField { dst, base, .. } => {
                    slot(dst, "load dst")?;
                    slot(base, "load base")?;
                }
                Insn::StoreField { base, src, .. } => {
                    slot(base, "store base")?;
                    slot(src, "store src")?;
                }
                Insn::Malloc { dst, pool: p, .. } => {
                    slot(dst, "malloc dst")?;
                    pool(p)?;
                }
                Insn::MallocArray { dst, count, pool: p, .. } => {
                    slot(dst, "malloc_array dst")?;
                    slot(count, "malloc_array count")?;
                    pool(p)?;
                }
                Insn::Free { src, pool: p, .. } => {
                    slot(src, "free src")?;
                    pool(p)?;
                }
                Insn::PoolCreate { dst, .. } => pool(dst).and(if dst == POOL_NONE {
                    Err(format!("{}: poolcreate into POOL_NONE", f.name))
                } else {
                    Ok(())
                })?,
                Insn::PoolDestroy { pool: p, .. } => {
                    pool(p)?;
                    if p == POOL_NONE {
                        return Err(format!("{}: pooldestroy of POOL_NONE", f.name));
                    }
                }
                Insn::Call { dst, site, .. } => {
                    slot(dst, "call dst")?;
                    let cs = f
                        .calls
                        .get(site as usize)
                        .ok_or_else(|| format!("{}: call site {site} out of range", f.name))?;
                    let callee = prog
                        .funcs
                        .get(cs.func as usize)
                        .ok_or_else(|| format!("{}: callee {} out of range", f.name, cs.func))?;
                    if cs.args.len() != callee.nparams as usize {
                        return Err(format!("{}: arity mismatch calling {}", f.name, callee.name));
                    }
                    if cs.pool_args.len() != callee.npool_params as usize {
                        return Err(format!(
                            "{}: pool arity mismatch calling {}",
                            f.name, callee.name
                        ));
                    }
                    for &a in &cs.args {
                        slot(a, "call arg")?;
                    }
                    for &p in &cs.pool_args {
                        pool(p)?;
                        if p == POOL_NONE {
                            return Err(format!("{}: POOL_NONE passed as pool arg", f.name));
                        }
                    }
                }
                Insn::Ret { src, .. } => {
                    if src != SLOT_NONE {
                        slot(src, "ret src")?;
                    }
                }
                Insn::Print { src, .. } => slot(src, "print src")?,
                Insn::FailNotPtr { base, .. } => slot(base, "fail base")?,
            }
        }
    }
    Ok(())
}

/// Executes a compiled program's `main`, with at most `fuel` interpreter
/// steps — the bytecode twin of [`crate::run`].
///
/// # Errors
/// See [`RunError`]; behaviour (output, steps, simulated clock,
/// detections, trap provenance) is identical to the AST engine's. A
/// program that fails bytecode verification is rejected with
/// [`RunError::InvalidBytecode`] before it runs; [`crate::compile()`]
/// output always verifies.
pub fn run_compiled(
    prog: &BcProgram,
    machine: &mut Machine,
    backend: &mut dyn Backend,
    fuel: u64,
) -> Result<RunOutcome, RunError> {
    verify(prog).map_err(RunError::InvalidBytecode)?;
    let Some(main) = prog.main else {
        return Err(RunError::NoMain);
    };
    let mut vm = Vm {
        prog,
        machine,
        backend,
        globals: vec![0; prog.global_names.len()],
        stack: Vec::with_capacity(256),
        pool_stack: Vec::new(),
        output: Vec::new(),
        fuel,
    };
    let f = &prog.funcs[main as usize];
    vm.stack.resize(f.nslots as usize, 0);
    vm.pool_stack.resize(f.npools as usize, 0);
    // As in the AST engine, an abnormal exit skips the pops, freezing the
    // shadow call stack at the faulting frame for the trap report.
    vm.machine.telemetry_mut().push_call("main");
    vm.machine.span_enter("main", Category::App);
    vm.exec(main, 0, 0)?;
    vm.machine.span_exit();
    vm.machine.telemetry_mut().pop_call();
    // Fuel, steps and clock move in lockstep, so the step count is just
    // the fuel consumed — no per-instruction counter needed.
    Ok(RunOutcome { output: vm.output, steps_used: fuel - vm.fuel })
}

/// Evaluates a binary operator — semantics identical to the AST engine's
/// (wrapping arithmetic, 0/1 comparisons, non-short-circuit logicals,
/// `DivisionByZero` on a zero divisor).
#[inline(always)]
fn binop(op: BinOp, a: i64, b: i64) -> Result<i64, RunError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(RunError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(RunError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
    })
}

impl Vm<'_, '_, '_> {
    /// Charges `cost` coalesced burns: fuel, step counter and machine
    /// clock move together, and exhaustion mid-charge ticks exactly the
    /// remaining fuel before failing — matching the AST engine's
    /// one-burn-at-a-time exhaustion point and final clock.
    #[inline(always)]
    fn charge(&mut self, cost: u32) -> Result<(), RunError> {
        let cost = u64::from(cost);
        if cost == 0 {
            return Ok(());
        }
        if self.fuel < cost {
            let rem = self.fuel;
            self.fuel = 0;
            if rem > 0 {
                self.machine.tick(rem);
            }
            return Err(RunError::OutOfFuel);
        }
        self.fuel -= cost;
        self.machine.tick(cost);
        Ok(())
    }

    /// Reads value-stack index `i`.
    ///
    /// SAFETY contract (callers): `i = base + slot` where `slot` passed
    /// [`verify`] against the current frame's `nslots`, and the stack is
    /// `base + nslots` long between instructions of that frame.
    #[inline(always)]
    fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.stack.len());
        unsafe { *self.stack.get_unchecked(i) }
    }

    /// Writes value-stack index `i`; same contract as [`Self::get`].
    #[inline(always)]
    fn set(&mut self, i: usize, v: i64) {
        debug_assert!(i < self.stack.len());
        unsafe {
            *self.stack.get_unchecked_mut(i) = v;
        }
    }

    fn exec(&mut self, fidx: u16, base: usize, pbase: usize) -> Result<i64, RunError> {
        let prog = self.prog;
        let func = &prog.funcs[fidx as usize];
        let code = func.code.as_slice();
        let mut pc = 0usize;
        loop {
            // SAFETY: pc starts at 0 on non-empty code; [`verify`] checked
            // every jump target is in-bounds and the last instruction is
            // an unconditional `ret`, so fall-through never passes the end.
            debug_assert!(pc < code.len());
            let insn = unsafe { *code.get_unchecked(pc) };
            pc += 1;
            match insn {
                Insn::Const { cost, dst, val } => {
                    self.charge(cost)?;
                    self.set(base + dst as usize, val);
                }
                Insn::Copy { cost, dst, src } => {
                    self.charge(cost)?;
                    let v = self.get(base + src as usize);
                    self.set(base + dst as usize, v);
                }
                Insn::GlobalGet { cost, dst, idx } => {
                    self.charge(cost)?;
                    // SAFETY: `idx` verified against `global_names`, and
                    // `globals` is sized from it in `run_compiled`.
                    let v = unsafe { *self.globals.get_unchecked(idx as usize) };
                    self.set(base + dst as usize, v);
                }
                Insn::GlobalSet { cost, idx, src } => {
                    self.charge(cost)?;
                    let v = self.get(base + src as usize);
                    // SAFETY: as in `GlobalGet`.
                    unsafe {
                        *self.globals.get_unchecked_mut(idx as usize) = v;
                    }
                }
                Insn::Bin { cost, op, dst, lhs, rhs } => {
                    self.charge(cost)?;
                    let a = self.get(base + lhs as usize);
                    let b = self.get(base + rhs as usize);
                    let v = binop(op, a, b)?;
                    self.set(base + dst as usize, v);
                }
                Insn::BinImm { cost, op, dst, lhs, imm } => {
                    self.charge(cost)?;
                    let a = self.get(base + lhs as usize);
                    let v = binop(op, a, imm)?;
                    self.set(base + dst as usize, v);
                }
                Insn::Jump { cost, target } => {
                    self.charge(cost)?;
                    pc = target as usize;
                }
                Insn::JumpIfZero { cost, cond, target } => {
                    self.charge(cost)?;
                    if self.get(base + cond as usize) == 0 {
                        pc = target as usize;
                    }
                }
                Insn::BrZero { cost, op, lhs, rhs, target } => {
                    self.charge(cost)?;
                    let a = self.get(base + lhs as usize);
                    let b = self.get(base + rhs as usize);
                    if binop(op, a, b)? == 0 {
                        pc = target as usize;
                    }
                }
                Insn::BrZeroImm { cost, op, lhs, imm, target } => {
                    self.charge(cost)?;
                    let a = self.get(base + lhs as usize);
                    if binop(op, a, imm)? == 0 {
                        pc = target as usize;
                    }
                }
                Insn::Tick { cost } => {
                    self.charge(cost)?;
                }
                Insn::Index { cost, dst, base: b, index, elem_size } => {
                    self.charge(cost)?;
                    let bv = self.get(base + b as usize);
                    let iv = self.get(base + index as usize);
                    if bv == 0 {
                        return Err(RunError::NullDereference);
                    }
                    let addr =
                        (bv as u64).wrapping_add((iv as u64).wrapping_mul(u64::from(elem_size)));
                    self.set(base + dst as usize, addr as i64);
                }
                Insn::LoadField { cost, dst, base: b, offset } => {
                    self.charge(cost)?;
                    let bv = self.get(base + b as usize);
                    if bv == 0 {
                        return Err(RunError::NullDereference);
                    }
                    let raw = self.backend.load(
                        self.machine,
                        VirtAddr(bv as u64).add(u64::from(offset)),
                        8,
                    )?;
                    self.set(base + dst as usize, raw as i64);
                }
                Insn::StoreField { cost, base: b, offset, src } => {
                    self.charge(cost)?;
                    let v = self.get(base + src as usize);
                    let bv = self.get(base + b as usize);
                    if bv == 0 {
                        return Err(RunError::NullDereference);
                    }
                    self.backend.store(
                        self.machine,
                        VirtAddr(bv as u64).add(u64::from(offset)),
                        8,
                        v as u64,
                    )?;
                }
                Insn::Malloc { cost, dst, size, nfields, pool, unchecked } => {
                    self.charge(cost)?;
                    let handle = self.pool_handle(pbase, pool);
                    let addr = if unchecked {
                        self.backend.alloc_unchecked(self.machine, size as usize, handle)?
                    } else {
                        self.backend.alloc(self.machine, size as usize, handle)?
                    };
                    // Calloc semantics, one word per field — the AST
                    // engine's exact store sequence.
                    for i in 0..u64::from(nfields) {
                        self.backend.store(self.machine, addr.add(i * 8), 8, 0)?;
                    }
                    self.set(base + dst as usize, addr.raw() as i64);
                }
                Insn::MallocArray { cost, dst, count, elem_size, nfields, pool, unchecked } => {
                    self.charge(cost)?;
                    let n = self.get(base + count as usize);
                    if !(0..=1 << 20).contains(&n) {
                        return Err(RunError::Backend(BackendError::Other(format!(
                            "malloc_array count {n} out of range"
                        ))));
                    }
                    let total = elem_size as usize * (n.max(1) as usize);
                    let handle = self.pool_handle(pbase, pool);
                    let addr = if unchecked {
                        self.backend.alloc_unchecked(self.machine, total, handle)?
                    } else {
                        self.backend.alloc(self.machine, total, handle)?
                    };
                    for i in 0..u64::from(nfields) * n.max(1) as u64 {
                        self.backend.store(self.machine, addr.add(i * 8), 8, 0)?;
                    }
                    self.set(base + dst as usize, addr.raw() as i64);
                }
                Insn::Free { cost, src, pool, unchecked } => {
                    self.charge(cost)?;
                    let v = self.get(base + src as usize);
                    if v != 0 {
                        let handle = self.pool_handle(pbase, pool);
                        if unchecked {
                            self.backend.free_unchecked(
                                self.machine,
                                VirtAddr(v as u64),
                                handle,
                            )?;
                        } else {
                            self.backend.free(self.machine, VirtAddr(v as u64), handle)?;
                        }
                    }
                }
                Insn::PoolCreate { cost, dst, elem_size } => {
                    self.charge(cost)?;
                    let h = self.backend.pool_create(self.machine, elem_size as usize)?;
                    self.pool_stack[pbase + dst as usize] = h;
                }
                Insn::PoolDestroy { cost, pool } => {
                    self.charge(cost)?;
                    let h = self.pool_stack[pbase + pool as usize];
                    self.backend.pool_destroy(self.machine, h)?;
                }
                Insn::Call { cost, dst, site } => {
                    self.charge(cost)?;
                    let cs = &func.calls[site as usize];
                    let callee = &prog.funcs[cs.func as usize];
                    let nbase = self.stack.len();
                    self.stack.resize(nbase + callee.nslots as usize, 0);
                    for (i, &a) in cs.args.iter().enumerate() {
                        self.stack[nbase + i] = self.stack[base + a as usize];
                    }
                    let npbase = self.pool_stack.len();
                    self.pool_stack.resize(npbase + callee.npools as usize, 0);
                    for (i, &p) in cs.pool_args.iter().enumerate() {
                        self.pool_stack[npbase + i] = self.pool_stack[pbase + p as usize];
                    }
                    // An error path keeps the callee on the shadow stack,
                    // exactly like the AST engine.
                    self.machine.telemetry_mut().push_call(&callee.name);
                    self.machine.span_enter(&callee.name, Category::App);
                    let v = self.exec(cs.func, nbase, npbase)?;
                    self.machine.span_exit();
                    self.machine.telemetry_mut().pop_call();
                    self.stack.truncate(nbase);
                    self.pool_stack.truncate(npbase);
                    self.set(base + dst as usize, v);
                }
                Insn::Ret { cost, src } => {
                    self.charge(cost)?;
                    return Ok(if src == SLOT_NONE {
                        0
                    } else {
                        self.get(base + src as usize)
                    });
                }
                Insn::Print { cost, src } => {
                    self.charge(cost)?;
                    let v = self.get(base + src as usize);
                    self.output.push(v);
                }
                Insn::FailNotPtr { cost, base: b } => {
                    self.charge(cost)?;
                    return Err(if self.get(base + b as usize) == 0 {
                        RunError::NullDereference
                    } else {
                        RunError::NotAPointer
                    });
                }
            }
        }
    }

    #[inline]
    fn pool_handle(&self, pbase: usize, pool: u16) -> Option<PoolHandle> {
        if pool == POOL_NONE {
            None
        } else {
            Some(self.pool_stack[pbase + pool as usize])
        }
    }
}

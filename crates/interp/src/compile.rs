//! MiniC → register-bytecode compiler.
//!
//! One pass over each function linearizes control flow with
//! jump-patched labels, while tracking the coalesced burn cost of each
//! instruction (see [`crate::bytecode`] for the cost-accounting contract
//! that makes the two engines clock-exact). Every name was already
//! resolved by [`dangle_apa::resolve`]; the compiler only reads the
//! result.
//!
//! ## Slot resolution
//!
//! * **Values** — the resolver's slot layout: parameters first, then
//!   local declarations in first-occurrence order; expression temporaries
//!   follow. Re-declaring a name reuses its slot. Globals live in a
//!   separate table; a global read is snapshotted into a temporary at its
//!   AST evaluation point, so later side effects (a call mutating the
//!   global) cannot be observed early.
//! * **Pools** — the resolver's register file: pool parameters first,
//!   then `poolinit` registers.
//! * **Fields/structs** — field offsets and struct sizes are burned into
//!   the instruction; the static type of every expression is propagated
//!   exactly as the AST engine's `Sty` results are.
//!
//! ## Static diagnostics
//!
//! [`compile`] rejects exactly the programs [`dangle_apa::resolve`]
//! rejects, with its first [`ValidateError`]: undefined variables,
//! functions, structs, fields and pool descriptors, value and pool arity
//! mismatches, and breaches of the name contract (one type per name,
//! declared on every path, no shadowing of globals). The AST engine
//! rejects the same programs with the same error before it runs, so the
//! engines agree on every program. Value-dependent errors (null
//! dereference, division by zero, dereferencing a non-pointer) remain
//! run-time errors with the AST engine's exact check order.

use crate::bytecode::{BcFunc, BcProgram, CallSite, Insn, POOL_NONE, SLOT_NONE};
use dangle_apa::ast::{Expr, FuncDef, LValue, Program, Stmt};
use dangle_apa::{resolve, Layout, Resolved, Sty, ValidateError};

/// Compiles every function of `prog` to bytecode.
///
/// # Errors
/// The first name error [`dangle_apa::resolve`] finds.
pub fn compile(prog: &Program) -> Result<BcProgram, ValidateError> {
    let res = resolve(prog).map_err(|mut errors| errors.swap_remove(0))?;
    let funcs = (prog.funcs.iter().zip(&res.layouts))
        .map(|(f, layout)| FuncCompiler::new(&res, f, layout).compile())
        .collect();
    Ok(BcProgram {
        funcs,
        main: res.main(),
        global_names: prog.globals.iter().map(|(n, _)| n.clone()).collect(),
    })
}

struct FuncCompiler<'p, 'c> {
    res: &'c Resolved<'p>,
    func: &'p FuncDef,
    layout: &'c Layout<'p>,
    /// Next free temporary slot; temporaries follow the named slots.
    cur_temp: u16,
    max_slot: u16,
    /// Burns accumulated (in AST evaluation order) since the last emitted
    /// instruction; flushed into the next instruction's `cost`.
    pending: u32,
    code: Vec<Insn>,
    calls: Vec<CallSite>,
    /// Forward-jump patch list: `(insn index, label)`.
    patches: Vec<(usize, u32)>,
    labels: Vec<Option<u32>>,
}

impl<'p, 'c> FuncCompiler<'p, 'c> {
    fn new(res: &'c Resolved<'p>, func: &'p FuncDef, layout: &'c Layout<'p>) -> Self {
        let named = layout.slots.len() as u16;
        FuncCompiler {
            res,
            func,
            layout,
            cur_temp: named,
            max_slot: named,
            pending: 0,
            code: Vec::new(),
            calls: Vec::new(),
            patches: Vec::new(),
            labels: Vec::new(),
        }
    }

    fn compile(mut self) -> BcFunc {
        self.block(&self.func.body);
        // Implicit `return 0` at the end of the body (AST `Flow::Normal`),
        // carrying any trailing pending burns.
        let cost = self.take_pending();
        self.code.push(Insn::Ret { cost, src: SLOT_NONE });
        // Patch forward jumps.
        for (at, label) in std::mem::take(&mut self.patches) {
            let target = self.labels[label as usize].expect("label bound");
            match &mut self.code[at] {
                Insn::Jump { target: t, .. }
                | Insn::JumpIfZero { target: t, .. }
                | Insn::BrZero { target: t, .. }
                | Insn::BrZeroImm { target: t, .. } => *t = target,
                other => unreachable!("patched non-jump {other:?}"),
            }
        }
        BcFunc {
            name: self.func.name.clone(),
            nparams: self.func.params.len() as u16,
            nslots: self.max_slot,
            npool_params: self.func.pool_params.len() as u16,
            npools: self.layout.pools.len() as u16,
            code: self.code,
            calls: self.calls,
            slot_names: self.layout.slots.iter().map(|(n, _)| n.to_string()).collect(),
        }
    }

    // ---- emission helpers -------------------------------------------------

    fn take_pending(&mut self) -> u32 {
        std::mem::take(&mut self.pending)
    }

    /// Emits `insn` after folding the pending burns into its cost. Every
    /// instruction goes through here, so a burn can never float past an
    /// instruction that precedes it in AST evaluation order.
    fn emit(&mut self, insn: Insn) -> usize {
        debug_assert_eq!(self.pending, 0, "emit after fold_cost");
        self.code.push(insn);
        self.code.len() - 1
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        (self.labels.len() - 1) as u32
    }

    /// Binds `label` to the next instruction index. Pending burns must be
    /// flushed first ([`Self::flush`]): a cost attached to the instruction
    /// *after* a join point would be charged on every path through it.
    fn bind(&mut self, label: u32) {
        assert_eq!(self.pending, 0, "pending burns must not cross a label");
        self.labels[label as usize] = Some(self.code.len() as u32);
    }

    /// Emits an explicit `Tick` for any pending burns (before a label).
    fn flush(&mut self) {
        if self.pending > 0 {
            let cost = self.take_pending();
            self.emit(Insn::Tick { cost });
        }
    }

    fn jump_to(&mut self, label: u32) {
        let cost = self.take_pending();
        let at = self.emit(Insn::Jump { cost, target: 0 });
        self.patches.push((at, label));
    }

    fn jump_if_zero(&mut self, cond: u16, label: u32) {
        let cost = self.take_pending();
        let at = self.emit(Insn::JumpIfZero { cost, cond, target: 0 });
        self.patches.push((at, label));
    }

    /// Compiles `cond` and branches to `label` when it is zero, fusing a
    /// trailing binary op into the branch when its result lives in a dead
    /// temporary (the common `while (i < n)` shape). Safe to pop the op:
    /// it was emitted just now (no label binds after it, and `patches`
    /// only references jump instructions), and the fused replacement takes
    /// the same index, so a loop-head label bound at the condition's first
    /// instruction still lands correctly.
    fn branch_if_zero(&mut self, cond: &'p Expr, label: u32) {
        let mark = self.code.len();
        let temps_from = self.cur_temp;
        let (c, _) = self.expr_value(cond);
        if self.code.len() > mark && c >= temps_from {
            match *self.code.last().expect("non-empty past mark") {
                Insn::Bin { cost, op, dst, lhs, rhs } if dst == c => {
                    self.code.pop();
                    let cost = cost + self.take_pending();
                    let at = self.emit(Insn::BrZero { cost, op, lhs, rhs, target: 0 });
                    self.patches.push((at, label));
                    return;
                }
                Insn::BinImm { cost, op, dst, lhs, imm } if dst == c => {
                    self.code.pop();
                    let cost = cost + self.take_pending();
                    let at = self.emit(Insn::BrZeroImm { cost, op, lhs, imm, target: 0 });
                    self.patches.push((at, label));
                    return;
                }
                _ => {}
            }
        }
        self.jump_if_zero(c, label);
    }

    fn temp(&mut self) -> u16 {
        let t = self.cur_temp;
        self.cur_temp += 1;
        self.max_slot = self.max_slot.max(self.cur_temp);
        t
    }

    // ---- expressions ------------------------------------------------------

    /// Compiles `e` to a readable slot. Local variables return their own
    /// slot without emitting anything (safe: expressions cannot write
    /// locals); everything else materializes into a temporary.
    fn expr_value(&mut self, e: &'p Expr) -> (u16, Sty<'p>) {
        if let Expr::Var(name) = e {
            self.pending += 1; // the AST's per-node burn
            if let Some(local) = self.layout.local(name) {
                return local;
            }
            let dst = self.temp();
            return (dst, self.global_get(name, dst));
        }
        let dst = self.temp();
        (dst, self.expr_into(e, dst))
    }

    fn global_get(&mut self, name: &str, dst: u16) -> Sty<'p> {
        let (idx, sty) = self.res.global(name);
        let cost = self.take_pending();
        self.emit(Insn::GlobalGet { cost, dst, idx });
        sty
    }

    fn pool(&self, pool: Option<&String>) -> u16 {
        pool.map_or(POOL_NONE, |name| self.layout.pool(name))
    }

    /// Compiles `e` into `dst`. `dst` may alias a slot read by the
    /// expression: every instruction writes its destination last.
    fn expr_into(&mut self, e: &'p Expr, dst: u16) -> Sty<'p> {
        self.pending += 1; // the AST's per-node burn
        match e {
            Expr::Int(v) => {
                let cost = self.take_pending();
                self.emit(Insn::Const { cost, dst, val: *v });
                Sty::Int
            }
            Expr::Null => {
                let cost = self.take_pending();
                self.emit(Insn::Const { cost, dst, val: 0 });
                Sty::None
            }
            Expr::Var(name) => {
                if let Some((slot, sty)) = self.layout.local(name) {
                    let cost = self.take_pending();
                    self.emit(Insn::Copy { cost, dst, src: slot });
                    return sty;
                }
                self.global_get(name, dst)
            }
            Expr::Malloc { struct_name, pool, unchecked, .. } => {
                let def = self.res.struct_def(struct_name);
                let pool = self.pool(pool.as_ref());
                let cost = self.take_pending();
                self.emit(Insn::Malloc {
                    cost,
                    dst,
                    size: def.size() as u32,
                    nfields: def.fields.len() as u16,
                    pool,
                    unchecked: *unchecked,
                });
                Sty::Ptr(def)
            }
            Expr::MallocArray { struct_name, count, pool, unchecked, .. } => {
                let def = self.res.struct_def(struct_name);
                let pool = self.pool(pool.as_ref());
                let (count, _) = self.expr_value(count);
                let cost = self.take_pending();
                self.emit(Insn::MallocArray {
                    cost,
                    dst,
                    count,
                    elem_size: def.size() as u32,
                    nfields: def.fields.len() as u16,
                    pool,
                    unchecked: *unchecked,
                });
                Sty::Ptr(def)
            }
            Expr::Index { base, index } => {
                let (bslot, bty) = self.expr_value(base);
                let (islot, _) = self.expr_value(index);
                let cost = self.take_pending();
                match bty {
                    Sty::Ptr(def) => {
                        self.emit(Insn::Index {
                            cost,
                            dst,
                            base: bslot,
                            index: islot,
                            elem_size: def.size() as u32,
                        });
                        bty
                    }
                    _ => {
                        self.emit(Insn::FailNotPtr { cost, base: bslot });
                        Sty::None
                    }
                }
            }
            Expr::Field { base, field, .. } => {
                let (bslot, bty) = self.expr_value(base);
                let cost = self.take_pending();
                match self.res.field(bty, field) {
                    Some((offset, fty)) => {
                        self.emit(Insn::LoadField { cost, dst, base: bslot, offset });
                        fty
                    }
                    None => {
                        self.emit(Insn::FailNotPtr { cost, base: bslot });
                        Sty::None
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, _) = self.expr_value(lhs);
                // A literal right operand folds into the instruction; its
                // per-node burn joins the pending batch, charged (as the
                // `Const` would have been) after the left operand.
                if let Expr::Int(imm) = **rhs {
                    self.pending += 1;
                    let cost = self.take_pending();
                    self.emit(Insn::BinImm { cost, op: *op, dst, lhs: l, imm });
                    return Sty::Int;
                }
                let (r, _) = self.expr_value(rhs);
                let cost = self.take_pending();
                self.emit(Insn::Bin { cost, op: *op, dst, lhs: l, rhs: r });
                Sty::Int
            }
            Expr::Call { callee, args, pool_args, .. } => {
                let (func, ret) = self.res.func(callee);
                let args = args.iter().map(|a| self.expr_value(a).0).collect();
                let pool_args = pool_args.iter().map(|p| self.layout.pool(p)).collect();
                let site = self.calls.len() as u32;
                self.calls.push(CallSite { func, args, pool_args });
                let cost = self.take_pending();
                self.emit(Insn::Call { cost, dst, site });
                ret
            }
        }
    }

    // ---- statements -------------------------------------------------------

    fn block(&mut self, stmts: &'p [Stmt]) {
        for s in stmts {
            // Temporaries are per-statement.
            self.cur_temp = self.layout.slots.len() as u16;
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'p Stmt) {
        self.pending += 1; // the AST's per-statement burn
        match s {
            Stmt::VarDecl { name, init, .. } => {
                let (slot, _) = self.layout.local(name).expect("declared name has a slot");
                // The initializer runs before the name becomes visible
                // (`var x: int = x;` reads an earlier declaration of x).
                match init {
                    Some(e) => {
                        self.expr_into(e, slot);
                    }
                    None => {
                        let cost = self.take_pending();
                        self.emit(Insn::Const { cost, dst: slot, val: 0 });
                    }
                }
            }
            Stmt::Assign { lhs, rhs } => match lhs {
                LValue::Var(name) => {
                    if let Some((slot, _)) = self.layout.local(name) {
                        self.expr_into(rhs, slot);
                        return;
                    }
                    let (idx, _) = self.res.global(name);
                    let (src, _) = self.expr_value(rhs);
                    let cost = self.take_pending();
                    self.emit(Insn::GlobalSet { cost, idx, src });
                }
                LValue::Field { base, field, .. } => {
                    // AST order: rhs first, then the base.
                    let (src, _) = self.expr_value(rhs);
                    let (bslot, bty) = self.expr_value(base);
                    let cost = self.take_pending();
                    match self.res.field(bty, field) {
                        Some((offset, _)) => {
                            self.emit(Insn::StoreField { cost, base: bslot, offset, src })
                        }
                        None => self.emit(Insn::FailNotPtr { cost, base: bslot }),
                    };
                }
            },
            Stmt::Free { expr, pool, unchecked, .. } => {
                let pool = self.pool(pool.as_ref());
                let (src, _) = self.expr_value(expr);
                let cost = self.take_pending();
                self.emit(Insn::Free { cost, src, pool, unchecked: *unchecked });
            }
            Stmt::If { cond, then, els } => {
                let else_l = self.new_label();
                let end_l = self.new_label();
                self.branch_if_zero(cond, else_l);
                self.block(then);
                self.jump_to(end_l);
                self.bind(else_l);
                self.block(els);
                self.flush();
                self.bind(end_l);
            }
            Stmt::While { cond, body } => {
                let head = self.new_label();
                let exit = self.new_label();
                // The statement's own burn is charged once, before the
                // first condition evaluation — flush it ahead of the loop
                // head so iterations don't recharge it.
                self.flush();
                self.bind(head);
                self.branch_if_zero(cond, exit);
                self.block(body);
                self.jump_to(head);
                self.bind(exit);
            }
            Stmt::Return(e) => {
                let src = e.as_ref().map_or(SLOT_NONE, |e| self.expr_value(e).0);
                let cost = self.take_pending();
                self.emit(Insn::Ret { cost, src });
            }
            Stmt::Print(e) => {
                let (src, _) = self.expr_value(e);
                let cost = self.take_pending();
                self.emit(Insn::Print { cost, src });
            }
            Stmt::ExprStmt(e) => {
                // Result discarded; a bare `x;` emits nothing and its
                // burns ride on the next instruction.
                self.expr_value(e);
            }
            Stmt::PoolInit { pool, elem_size } => {
                let cost = self.take_pending();
                let dst = self.layout.pool(pool);
                self.emit(Insn::PoolCreate { cost, dst, elem_size: *elem_size as u32 });
            }
            Stmt::PoolDestroy { pool } => {
                let cost = self.take_pending();
                self.emit(Insn::PoolDestroy { cost, pool: self.layout.pool(pool) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dangle_apa::parse;

    fn compile_err(src: &str) -> ValidateError {
        compile(&parse(src).unwrap()).unwrap_err()
    }

    #[test]
    fn undefined_variable_is_a_compile_error() {
        let err = compile_err("fn main() { print(x); }");
        assert_eq!(err.to_string(), "in `main`: undefined variable `x`");
    }

    #[test]
    fn undefined_function_is_a_compile_error() {
        let err = compile_err("fn main() { frobnicate(1); }");
        assert_eq!(err.to_string(), "in `main`: undefined function `frobnicate`");
    }

    #[test]
    fn out_of_scope_pool_is_a_spanned_compile_error() {
        // The parser has no pool syntax — pool annotations are stamped by
        // the transform — so mutate a parsed AST the way a buggy transform
        // would: a `free` naming a pool descriptor nothing declared.
        let mut prog = parse(
            "struct s { v: int }\n\
             fn main() {\n    \
                 var p: ptr<s> = malloc(s);\n    \
                 free(p);\n\
             }",
        )
        .unwrap();
        let Stmt::Free { pool, .. } = &mut prog.funcs[0].body[1] else { panic!() };
        *pool = Some("__pool9".into());
        let err = compile(&prog).unwrap_err();
        assert_eq!(
            err.to_string(),
            "in `main` at 4:5: pool descriptor `__pool9` not in scope"
        );
    }

    #[test]
    fn undefined_struct_is_a_spanned_compile_error() {
        let err = compile_err("fn main() {\n    var p: ptr<t> = malloc(t);\n}");
        assert_eq!(err.to_string(), "in `main` at 2:21: undefined struct or field `t`");
    }

    #[test]
    fn undefined_field_is_a_compile_error() {
        let err =
            compile_err("struct s { v: int }\nfn main() { var p: ptr<s> = malloc(s); p->w = 1; }");
        assert_eq!(err.message, "undefined struct or field `w`");
    }

    #[test]
    fn use_before_declaration_is_a_compile_error() {
        // Both engines reject the whole program before running it.
        let err = compile_err("fn main() { print(1); print(n); var n: int = 2; }");
        assert_eq!(err.message, "undefined variable `n`");
    }

    #[test]
    fn call_arity_mismatch_is_a_compile_error() {
        let err = compile_err("fn f(a: int) -> int { return a; } fn main() { print(f(1, 2)); }");
        assert_eq!(
            err.to_string(),
            "in `main`: call to `f` passes 2 value argument(s), `f` declares 1"
        );
    }

    #[test]
    fn no_main_compiles_and_fails_at_run_time() {
        let bc = compile(&parse("fn f() {}").unwrap()).unwrap();
        assert_eq!(bc.main, None);
    }
}

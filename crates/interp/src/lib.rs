//! # dangle-interp — executing MiniC on the simulated machine
//!
//! The interpreter closes the end-to-end loop of the reproduction: a MiniC
//! program (optionally pool-transformed by `dangle-apa`) executes with its
//! heap in **simulated memory**, so a dangling pointer dereference in the
//! program becomes a real protection fault in the simulated MMU, caught and
//! attributed by the detector — exactly the paper's run-time story.
//!
//! * [`backend`] defines the [`Backend`] interface and one implementation
//!   per scheme under study (plain malloc, PA, PA+dummy-syscalls, shadow,
//!   shadow+pools, Electric Fence, memcheck, capability).
//! * [`run`] executes a program's `main` against a backend with a fuel
//!   limit, returning the printed output — the observable behaviour used by
//!   the semantics-preservation property tests.
//!
//! Two execution engines share that contract: the tree-walking AST
//! interpreter ([`run`], [`Engine::Ast`]) and the register-bytecode
//! compiler + VM ([`compile()`] → [`run_compiled`], [`Engine::Bytecode`]),
//! which lowers every name to a numeric slot ahead of time for several
//! times the host throughput (see [`Engine::Bytecode`]). Both read their names from [`dangle_apa::resolve()`]
//! and reject the programs it rejects, with the same error, before
//! running. The engines are differentially tested to produce identical
//! output, steps, simulated clock, detections and trap reports;
//! [`run_with`] selects one.
//!
//! ```rust
//! use dangle_apa::{parse, pool_allocate, FIGURE_1};
//! use dangle_interp::{backend::ShadowPoolBackend, run, RunError};
//! use dangle_vmm::Machine;
//!
//! let (program, _) = pool_allocate(&parse(FIGURE_1).unwrap());
//! let mut machine = Machine::new();
//! let mut backend = ShadowPoolBackend::new();
//! let err = run(&program, &mut machine, &mut backend, 1_000_000).unwrap_err();
//! // The Figure 1 dangling write is detected, not silently executed:
//! assert!(matches!(err, RunError::Backend(e) if e.is_detection()));
//! ```

pub mod backend;
pub mod bytecode;
pub mod compile;
pub mod vm;

pub use backend::{Backend, BackendError, PoolHandle};
pub use bytecode::BcProgram;
pub use compile::compile;
pub use vm::run_compiled;

use dangle_apa::ast::*;
use dangle_apa::{resolve, Layout, Resolved, Sty, ValidateError};
use dangle_telemetry::Category;
use dangle_vmm::{Machine, VirtAddr};
use std::error::Error;
use std::fmt;

/// Result of a completed run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Values printed by `print(e)` statements, in order.
    pub output: Vec<i64>,
    /// Interpreter steps consumed (expressions + statements).
    pub steps_used: u64,
}

/// Errors terminating a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// A memory event failed — for detecting backends this is where
    /// dangling-use detections surface (check
    /// [`BackendError::is_detection`]).
    Backend(BackendError),
    /// Dereference of the null pointer.
    NullDereference,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Expression used as a struct pointer but its static type is not one.
    NotAPointer,
    /// The program has no `main`.
    NoMain,
    /// The fuel limit was exhausted.
    OutOfFuel,
    /// Name resolution rejected the program before execution: the first
    /// error [`dangle_apa::resolve()`] found, the same on both engines.
    Name(ValidateError),
    /// The bytecode verifier rejected a [`BcProgram`] before execution
    /// (only a hand-assembled program can trip it; [`compile()`] output
    /// always verifies).
    InvalidBytecode(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Backend(e) => write!(f, "{e}"),
            RunError::NullDereference => write!(f, "null pointer dereference"),
            RunError::DivisionByZero => write!(f, "division by zero"),
            RunError::NotAPointer => write!(f, "expression is not a struct pointer"),
            RunError::NoMain => write!(f, "program has no `main` function"),
            RunError::OutOfFuel => write!(f, "fuel exhausted (possible infinite loop)"),
            RunError::Name(e) => write!(f, "{e}"),
            RunError::InvalidBytecode(e) => write!(f, "invalid bytecode: {e}"),
        }
    }
}

impl Error for RunError {}

impl From<BackendError> for RunError {
    fn from(e: BackendError) -> RunError {
        RunError::Backend(e)
    }
}

/// Whether `err` is a *detected temporal memory error* (the signal the
/// evaluation harnesses count).
pub fn is_detection(err: &RunError) -> bool {
    matches!(err, RunError::Backend(e) if e.is_detection())
}

/// Which execution engine runs the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The tree-walking AST interpreter — the differential reference.
    Ast,
    /// The register-bytecode compiler + VM — same observable behaviour,
    /// about 7.5x the host throughput on the ghttpd keep-alive loop
    /// (`engines.ghttpd-keepalive/speedup` in `perf/ledger-host.json`: the
    /// ratio of the two engines' median wall times, 6.0x–9.0x across seven
    /// ledger runs on a shared 2-core host, short of the 10x floor the
    /// ledger checks).
    Bytecode,
}

/// [`run`] through the selected engine. The bytecode engine compiles
/// first; on either engine name errors surface as [`RunError::Name`].
///
/// # Errors
/// See [`RunError`].
pub fn run_with(
    engine: Engine,
    prog: &Program,
    machine: &mut Machine,
    backend: &mut dyn Backend,
    fuel: u64,
) -> Result<RunOutcome, RunError> {
    match engine {
        Engine::Ast => run(prog, machine, backend, fuel),
        Engine::Bytecode => {
            let bc = compile(prog).map_err(RunError::Name)?;
            run_compiled(&bc, machine, backend, fuel)
        }
    }
}

/// A call frame: value slots and pool registers, laid out by the
/// resolver exactly as the bytecode engine lays out its own.
struct Frame<'r, 'p> {
    layout: &'r Layout<'p>,
    vals: Vec<i64>,
    pools: Vec<PoolHandle>,
}

impl<'r, 'p> Frame<'r, 'p> {
    fn new(layout: &'r Layout<'p>) -> Self {
        Frame { layout, vals: vec![0; layout.slots.len()], pools: vec![0; layout.pools.len()] }
    }

    fn pool(&self, name: &str) -> PoolHandle {
        self.pools[self.layout.pool(name) as usize]
    }
}

enum Flow {
    Normal,
    Returned(i64),
}

struct Interp<'r, 'p, 'm, 'b> {
    funcs: &'p [FuncDef],
    res: &'r Resolved<'p>,
    machine: &'m mut Machine,
    backend: &'b mut dyn Backend,
    globals: Vec<i64>,
    output: Vec<i64>,
    fuel: u64,
    steps: u64,
}

/// Executes `prog`'s `main` against `backend`, with at most `fuel`
/// interpreter steps.
///
/// # Errors
/// See [`RunError`]; memory-safety detections surface as
/// [`RunError::Backend`], and a program [`dangle_apa::resolve()`] rejects
/// fails with [`RunError::Name`] before it runs.
pub fn run(
    prog: &Program,
    machine: &mut Machine,
    backend: &mut dyn Backend,
    fuel: u64,
) -> Result<RunOutcome, RunError> {
    let res = resolve(prog).map_err(|mut errors| RunError::Name(errors.swap_remove(0)))?;
    let main = res.main().ok_or(RunError::NoMain)?;
    let mut interp = Interp {
        funcs: &prog.funcs,
        res: &res,
        machine,
        backend,
        globals: vec![0; prog.globals.len()],
        output: Vec::new(),
        fuel,
        steps: 0,
    };
    interp.call(main, &mut Frame::new(&res.layouts[main as usize]))?;
    Ok(RunOutcome { output: interp.output, steps_used: interp.steps })
}

impl<'r, 'p> Interp<'r, 'p, '_, '_> {
    fn burn(&mut self) -> Result<(), RunError> {
        if self.fuel == 0 {
            return Err(RunError::OutOfFuel);
        }
        self.fuel -= 1;
        self.steps += 1;
        self.machine.tick(1); // ALU work
        Ok(())
    }

    /// Evaluates `e`, returning its value and (for pointers) its static
    /// pointee struct type.
    fn eval(
        &mut self,
        e: &'p Expr,
        frame: &mut Frame<'r, 'p>,
    ) -> Result<(i64, Sty<'p>), RunError> {
        self.burn()?;
        match e {
            Expr::Int(v) => Ok((*v, Sty::Int)),
            Expr::Null => Ok((0, Sty::None)),
            Expr::Var(name) => Ok(match frame.layout.local(name) {
                Some((slot, sty)) => (frame.vals[slot as usize], sty),
                None => {
                    let (idx, sty) = self.res.global(name);
                    (self.globals[idx as usize], sty)
                }
            }),
            Expr::Malloc { struct_name, pool, unchecked, .. } => {
                self.alloc(struct_name, 1, pool, *unchecked, frame)
            }
            Expr::MallocArray { struct_name, count, pool, unchecked, .. } => {
                let (n, _) = self.eval(count, frame)?;
                if !(0..=1 << 20).contains(&n) {
                    return Err(RunError::Backend(BackendError::Other(format!(
                        "malloc_array count {n} out of range"
                    ))));
                }
                self.alloc(struct_name, n.max(1) as usize, pool, *unchecked, frame)
            }
            Expr::Index { base, index } => {
                let (bv, bt) = self.eval(base, frame)?;
                let (iv, _) = self.eval(index, frame)?;
                if bv == 0 {
                    return Err(RunError::NullDereference);
                }
                let Sty::Ptr(def) = bt else { return Err(RunError::NotAPointer) };
                let addr = (bv as u64).wrapping_add((iv as u64).wrapping_mul(def.size() as u64));
                Ok((addr as i64, bt))
            }
            Expr::Field { base, field, .. } => {
                let (bv, bt) = self.eval(base, frame)?;
                if bv == 0 {
                    return Err(RunError::NullDereference);
                }
                let (off, fty) = self.res.field(bt, field).ok_or(RunError::NotAPointer)?;
                let raw =
                    self.backend.load(self.machine, VirtAddr(bv as u64).add(off as u64), 8)?;
                Ok((raw as i64, fty))
            }
            Expr::Binary { op, lhs, rhs } => {
                let (a, _) = self.eval(lhs, frame)?;
                let (b, _) = self.eval(rhs, frame)?;
                let v = match op {
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
                };
                Ok((v, Sty::Int))
            }
            Expr::Call { callee, args, pool_args, .. } => {
                let (fidx, ret_ty) = self.res.func(callee);
                let mut callee_frame = Frame::new(&self.res.layouts[fidx as usize]);
                for (i, a) in args.iter().enumerate() {
                    callee_frame.vals[i] = self.eval(a, frame)?.0;
                }
                for (i, actual) in pool_args.iter().enumerate() {
                    callee_frame.pools[i] = frame.pool(actual);
                }
                Ok((self.call(fidx, &mut callee_frame)?, ret_ty))
            }
        }
    }

    /// Runs function `fidx` in `frame`, returning its result (0 when the
    /// body falls through). On an abnormal exit (trap, runtime error) the
    /// `?` skips the pops, deliberately freezing the shadow call stack at
    /// the faulting frame so the detector can attach it to the trap report
    /// as use_stack.
    fn call(&mut self, fidx: u16, frame: &mut Frame<'r, 'p>) -> Result<i64, RunError> {
        let func = &self.funcs[fidx as usize];
        self.machine.telemetry_mut().push_call(&func.name);
        self.machine.span_enter(&func.name, Category::App);
        let flow = self.exec_block(&func.body, frame)?;
        self.machine.span_exit();
        self.machine.telemetry_mut().pop_call();
        Ok(match flow {
            Flow::Returned(v) => v,
            Flow::Normal => 0,
        })
    }

    /// Allocates `count` consecutive `struct_name` records from `pool`.
    fn alloc(
        &mut self,
        struct_name: &str,
        count: usize,
        pool: &Option<PoolRef>,
        unchecked: bool,
        frame: &Frame<'r, 'p>,
    ) -> Result<(i64, Sty<'p>), RunError> {
        let def = self.res.struct_def(struct_name);
        let size = def.size() * count;
        let handle = pool.as_deref().map(|p| frame.pool(p));
        let addr = if unchecked {
            self.backend.alloc_unchecked(self.machine, size, handle)?
        } else {
            self.backend.alloc(self.machine, size, handle)?
        };
        // MiniC mallocs are zero-initialized (calloc semantics), so
        // program behaviour is deterministic across backends even
        // when the underlying allocator recycles dirty memory.
        for i in 0..def.fields.len() * count {
            self.backend.store(self.machine, addr.add(i as u64 * 8), 8, 0)?;
        }
        Ok((addr.raw() as i64, Sty::Ptr(def)))
    }

    fn exec_block(
        &mut self,
        stmts: &'p [Stmt],
        frame: &mut Frame<'r, 'p>,
    ) -> Result<Flow, RunError> {
        for s in stmts {
            if let Flow::Returned(v) = self.exec_stmt(s, frame)? {
                return Ok(Flow::Returned(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &'p Stmt, frame: &mut Frame<'r, 'p>) -> Result<Flow, RunError> {
        self.burn()?;
        match s {
            Stmt::VarDecl { name, init, .. } => {
                let v = match init {
                    Some(e) => self.eval(e, frame)?.0,
                    None => 0,
                };
                let (slot, _) = frame.layout.local(name).expect("declared name has a slot");
                frame.vals[slot as usize] = v;
                Ok(Flow::Normal)
            }
            Stmt::Assign { lhs, rhs } => {
                let v = self.eval(rhs, frame)?.0;
                match lhs {
                    LValue::Var(name) => match frame.layout.local(name) {
                        Some((slot, _)) => frame.vals[slot as usize] = v,
                        None => self.globals[self.res.global(name).0 as usize] = v,
                    },
                    LValue::Field { base, field, .. } => {
                        let (bv, bt) = self.eval(base, frame)?;
                        if bv == 0 {
                            return Err(RunError::NullDereference);
                        }
                        let (off, _) =
                            self.res.field(bt, field).ok_or(RunError::NotAPointer)?;
                        self.backend.store(
                            self.machine,
                            VirtAddr(bv as u64).add(off as u64),
                            8,
                            v as u64,
                        )?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Free { expr, pool, unchecked, .. } => {
                let (v, _) = self.eval(expr, frame)?;
                if v != 0 {
                    let handle = pool.as_deref().map(|p| frame.pool(p));
                    if *unchecked {
                        self.backend.free_unchecked(self.machine, VirtAddr(v as u64), handle)?;
                    } else {
                        self.backend.free(self.machine, VirtAddr(v as u64), handle)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, els } => {
                let (c, _) = self.eval(cond, frame)?;
                if c != 0 {
                    self.exec_block(then, frame)
                } else {
                    self.exec_block(els, frame)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    let (c, _) = self.eval(cond, frame)?;
                    if c == 0 {
                        break;
                    }
                    if let Flow::Returned(v) = self.exec_block(body, frame)? {
                        return Ok(Flow::Returned(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, frame)?.0,
                    None => 0,
                };
                Ok(Flow::Returned(v))
            }
            Stmt::Print(e) => {
                let (v, _) = self.eval(e, frame)?;
                self.output.push(v);
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::PoolInit { pool, elem_size } => {
                frame.pools[frame.layout.pool(pool) as usize] =
                    self.backend.pool_create(self.machine, *elem_size)?;
                Ok(Flow::Normal)
            }
            Stmt::PoolDestroy { pool } => {
                self.backend.pool_destroy(self.machine, frame.pool(pool))?;
                Ok(Flow::Normal)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::backend::*;
    use super::*;
    use dangle_apa::{parse, pool_allocate, FIGURE_1};

    const FUEL: u64 = 2_000_000;

    fn run_native(src: &str) -> Result<RunOutcome, RunError> {
        let prog = parse(src).unwrap();
        run(&prog, &mut Machine::free_running(), &mut NativeBackend::new(), FUEL)
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run_native("fn main() { print(1 + 2 * 3); print(-4); print(7 % 3); }")
            .unwrap();
        assert_eq!(out.output, vec![7, -4, 1]);
    }

    #[test]
    fn control_flow() {
        let out = run_native(
            "fn main() {
                var i: int = 0;
                var sum: int = 0;
                while (i < 10) {
                    if (i % 2 == 0) { sum = sum + i; } else { sum = sum - 1; }
                    i = i + 1;
                }
                print(sum);
            }",
        )
        .unwrap();
        assert_eq!(out.output, vec![20 - 5]);
    }

    #[test]
    fn recursion_fibonacci() {
        let out = run_native(
            "fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { print(fib(15)); }",
        )
        .unwrap();
        assert_eq!(out.output, vec![610]);
    }

    #[test]
    fn linked_list_build_and_sum() {
        let out = run_native(
            "struct node { next: ptr<node>, val: int }
            fn main() {
                var head: ptr<node> = null;
                var i: int = 0;
                while (i < 5) {
                    var n: ptr<node> = malloc(node);
                    n->val = i;
                    n->next = head;
                    head = n;
                    i = i + 1;
                }
                var sum: int = 0;
                while (head != null) {
                    sum = sum + head->val;
                    var nxt: ptr<node> = head->next;
                    free(head);
                    head = nxt;
                }
                print(sum);
            }",
        )
        .unwrap();
        assert_eq!(out.output, vec![10]);
    }

    #[test]
    fn globals_persist_across_calls() {
        let out = run_native(
            "global counter: int;
            fn bump() { counter = counter + 1; }
            fn main() { bump(); bump(); bump(); print(counter); }",
        )
        .unwrap();
        assert_eq!(out.output, vec![3]);
    }

    #[test]
    fn runtime_errors() {
        assert_eq!(run_native("fn main() { print(1 / 0); }"), Err(RunError::DivisionByZero));
        assert_eq!(
            run_native("struct s { v: int } fn main() { var p: ptr<s> = null; print(p->v); }"),
            Err(RunError::NullDereference)
        );
        assert_eq!(run_native("fn main() { while (1) { } }"), Err(RunError::OutOfFuel));
        assert_eq!(run_native("fn f() {}"), Err(RunError::NoMain));
        assert!(matches!(
            run_native("fn main() { print(x); }"),
            Err(RunError::Name(_))
        ));
    }

    #[test]
    fn free_null_is_a_no_op() {
        assert!(run_native("struct s { v: int } fn main() { free(null); print(1); }").is_ok());
    }

    #[test]
    fn figure_one_native_runs_silently_wrong() {
        // Without the detector the dangling write lands in recycled memory:
        // the program completes and prints the list sum.
        let prog = parse(FIGURE_1).unwrap();
        let out =
            run(&prog, &mut Machine::free_running(), &mut NativeBackend::new(), FUEL).unwrap();
        assert_eq!(out.output, vec![45], "h() sums 0..=9");
    }

    #[test]
    fn figure_one_detected_by_shadow_heap() {
        let prog = parse(FIGURE_1).unwrap();
        let err = run(&prog, &mut Machine::free_running(), &mut ShadowBackend::new(), FUEL)
            .unwrap_err();
        assert!(is_detection(&err), "{err}");
        let RunError::Backend(BackendError::Trap { report: Some(r), .. }) = &err else {
            panic!("{err}");
        };
        assert!(r.contains("dangling write"), "{r}");
    }

    #[test]
    fn figure_one_transformed_detected_by_shadow_pool() {
        let (prog, _) = pool_allocate(&parse(FIGURE_1).unwrap());
        let mut machine = Machine::free_running();
        let mut backend = ShadowPoolBackend::new();
        let err = run(&prog, &mut machine, &mut backend, FUEL).unwrap_err();
        assert!(is_detection(&err), "{err}");
    }

    #[test]
    fn figure_one_detected_by_memcheck_and_capability() {
        let prog = parse(FIGURE_1).unwrap();
        for b in [true, false] {
            let err = if b {
                run(&prog, &mut Machine::free_running(), &mut MemcheckBackend::new(), FUEL)
            } else {
                run(&prog, &mut Machine::free_running(), &mut CapabilityBackend::new(), FUEL)
            }
            .unwrap_err();
            assert!(is_detection(&err), "{err}");
        }
    }

    #[test]
    fn figure_one_pa_only_misses_the_bug() {
        // Pool allocation alone is not a detector: the dangling write hits
        // pool memory and the program completes.
        let (prog, _) = pool_allocate(&parse(FIGURE_1).unwrap());
        let out = run(&prog, &mut Machine::free_running(), &mut PoolBackend::new(), FUEL)
            .unwrap();
        assert_eq!(out.output, vec![45]);
    }

    /// A correct (dangling-free) variant of the Figure 1 program.
    const FIGURE_1_FIXED: &str = "
        struct s { next: ptr<s>, val: int }
        fn build(n: int) -> ptr<s> {
            var head: ptr<s> = null;
            var i: int = 0;
            while (i < n) {
                var node: ptr<s> = malloc(s);
                node->val = i * i;
                node->next = head;
                head = node;
                i = i + 1;
            }
            return head;
        }
        fn total(p: ptr<s>) -> int {
            var sum: int = 0;
            while (p != null) {
                sum = sum + p->val;
                p = p->next;
            }
            return sum;
        }
        fn drop_all(p: ptr<s>) {
            while (p != null) {
                var nxt: ptr<s> = p->next;
                free(p);
                p = nxt;
            }
        }
        fn main() {
            var list: ptr<s> = build(20);
            print(total(list));
            drop_all(list);
            print(1234);
        }";

    #[test]
    fn transform_preserves_semantics_of_correct_programs() {
        let prog = parse(FIGURE_1_FIXED).unwrap();
        let (transformed, _) = pool_allocate(&prog);
        let reference =
            run(&prog, &mut Machine::free_running(), &mut NativeBackend::new(), FUEL)
                .unwrap()
                .output;
        assert_eq!(reference, vec![(0..20).map(|i| i * i).sum::<i64>(), 1234]);

        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(NativeBackend::new()),
            Box::new(PoolBackend::new()),
            Box::new(PoolBackend::with_dummy_syscalls()),
            Box::new(ShadowPoolBackend::new()),
        ];
        for b in &mut backends {
            let out = run(&transformed, &mut Machine::free_running(), b.as_mut(), FUEL)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(out.output, reference, "backend {}", b.name());
        }
        // And untransformed under the detecting backends.
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(ShadowBackend::new()),
            Box::new(EFenceBackend::new()),
            Box::new(MemcheckBackend::new()),
            Box::new(CapabilityBackend::new()),
        ];
        for b in &mut backends {
            let out = run(&prog, &mut Machine::free_running(), b.as_mut(), FUEL)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(out.output, reference, "backend {}", b.name());
        }
    }

    #[test]
    fn pool_destroy_recycles_va_across_calls() {
        // Calling a pool-owning function repeatedly must not grow VA use
        // under the shadow-pool backend (the whole point of Insight 2).
        let src = "
            struct s { next: ptr<s>, val: int }
            fn episode() {
                var head: ptr<s> = null;
                var i: int = 0;
                while (i < 8) {
                    var n: ptr<s> = malloc(s);
                    n->next = head;
                    head = n;
                    i = i + 1;
                }
                print(head->val);
            }
            fn main() {
                var round: int = 0;
                while (round < 30) {
                    episode();
                    round = round + 1;
                }
            }";
        let (t, a) = pool_allocate(&parse(src).unwrap());
        assert_eq!(a.owns.get("episode").map(Vec::len), Some(1), "pool local to episode");
        let mut machine = Machine::free_running();
        let mut backend = ShadowPoolBackend::new();
        run(&t, &mut machine, &mut backend, FUEL).unwrap();
        // 30 episodes x 9 pages (1 canonical + 8 shadow); with recycling the
        // total VA consumed should be roughly one episode's worth.
        assert!(
            machine.virt_pages_consumed() < 30,
            "VA must plateau, consumed {}",
            machine.virt_pages_consumed()
        );
    }
}

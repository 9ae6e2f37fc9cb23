//! Name resolution for MiniC: the one pass that turns names into tables,
//! slots and registers.
//!
//! [`resolve`] builds the struct, function and global tables and every
//! function's frame [`Layout`], and checks every use of a name. The three
//! consumers share it, so they agree on which programs are valid:
//! [`crate::validate`] reports its errors next to the structural pool
//! checks, the bytecode compiler reads slots, registers, call targets,
//! sizes and field offsets from it, and the AST engine rejects the same
//! programs up front and indexes its frames by the same layout.
//!
//! ## Layout
//!
//! * **Values** — one slot per name per function: parameters first (one
//!   slot each, in order), then `var` names in first-occurrence order.
//!   Re-declaring a name reuses its slot. Globals form their own table,
//!   in declaration order.
//! * **Pools** — a separate register file per function: pool parameters,
//!   then `poolinit`s in program order.
//!
//! ## The name contract
//!
//! Three rules make the static and the run-time meaning of a name agree:
//!
//! 1. **One type per name.** All declarations of one name in a function,
//!    a parameter included, have one type, so every slot has one static
//!    type whichever declaration ran.
//! 2. **Declared on every path.** A local is visible only where its
//!    declaration ran on every path to the use. The two branches of an
//!    `if` join by intersection, declarations inside a `while` body end
//!    with the body, and an initializer runs before its own name is
//!    visible. So no engine can read a slot nothing wrote.
//! 3. **No shadowing of globals.** No local or parameter takes a global's
//!    name, so a name is a local or a global for the whole function.
//!
//! Pool descriptors keep program-order scope: a pool parameter is visible
//! everywhere, a `poolinit`ed pool after its `poolinit`. Every callee must
//! exist and receive exactly its declared value and pool arguments, and
//! every `malloc`ed struct and every field read through a struct pointer
//! must exist. Dereferencing a value whose static type is not a struct
//! pointer stays a run-time `NotAPointer`, checked after the null check.

use crate::ast::*;
use crate::validate::ValidateError;
use std::collections::HashMap;

/// Static type of a value: the struct a dereference resolves against.
#[derive(Clone, Copy, Debug)]
pub enum Sty<'p> {
    /// 64-bit integer.
    Int,
    /// Pointer to a declared struct.
    Ptr(&'p StructDef),
    /// Pointer to an undeclared struct (dereferencing it is `NotAPointer`).
    PtrUndef,
    /// No static type (`null`, void calls).
    None,
}

/// One function's frame layout.
#[derive(Default)]
pub struct Layout<'p> {
    /// Value slots with their static types: parameters, then `var` names.
    pub slots: Vec<(&'p str, Sty<'p>)>,
    /// Pool registers: pool parameters, then `poolinit`s.
    pub pools: Vec<&'p str>,
    slot_of: HashMap<&'p str, u16>,
    pool_of: HashMap<&'p str, u16>,
}

impl<'p> Layout<'p> {
    /// Slot and static type of local `name`; `None` means a global.
    pub fn local(&self, name: &str) -> Option<(u16, Sty<'p>)> {
        let slot = *self.slot_of.get(name)?;
        Some((slot, self.slots[slot as usize].1))
    }

    /// Register of pool descriptor `name`.
    pub fn pool(&self, name: &str) -> u16 {
        self.pool_of[name]
    }
}

/// A program whose every name resolves: the tables all consumers read.
/// Its lookups panic on names resolution would have rejected.
pub struct Resolved<'p> {
    /// Frame layouts, indexed like `Program::funcs`.
    pub layouts: Vec<Layout<'p>>,
    structs: HashMap<&'p str, &'p StructDef>,
    funcs: HashMap<&'p str, (u16, Sty<'p>)>,
    globals: HashMap<&'p str, (u16, Sty<'p>)>,
}

impl<'p> Resolved<'p> {
    fn sty(structs: &HashMap<&str, &'p StructDef>, ty: Option<&Type>) -> Sty<'p> {
        match ty {
            None => Sty::None,
            Some(Type::Int) => Sty::Int,
            Some(Type::Ptr(name)) => {
                structs.get(name.as_str()).map_or(Sty::PtrUndef, |def| Sty::Ptr(def))
            }
        }
    }

    /// Definition of struct `name`.
    pub fn struct_def(&self, name: &str) -> &'p StructDef {
        self.structs[name]
    }

    /// Index (into `Program::funcs`) and return type of function `name`.
    pub fn func(&self, name: &str) -> (u16, Sty<'p>) {
        self.funcs[name]
    }

    /// Index of `main`, if the program has one.
    pub fn main(&self) -> Option<u16> {
        self.funcs.get("main").map(|&(i, _)| i)
    }

    /// Index (into `Program::globals`) and static type of global `name`.
    pub fn global(&self, name: &str) -> (u16, Sty<'p>) {
        self.globals[name]
    }

    /// Byte offset and static type of `field` read through a value of
    /// static type `base`; `None` when `base` is not a struct pointer.
    pub fn field(&self, base: Sty<'p>, field: &str) -> Option<(u32, Sty<'p>)> {
        let Sty::Ptr(def) = base else { return None };
        let offset = def.offset_of(field)?;
        Some((offset as u32, Self::sty(&self.structs, def.type_of(field))))
    }
}

/// Resolves every name of `prog`.
///
/// # Errors
/// Every violation of the name contract, in program order.
pub fn resolve(prog: &Program) -> Result<Resolved<'_>, Vec<ValidateError>> {
    let structs: HashMap<&str, &StructDef> =
        prog.structs.iter().map(|s| (s.name.as_str(), s)).collect();
    let mut res = Resolved {
        funcs: (prog.funcs.iter().enumerate())
            .map(|(i, f)| (f.name.as_str(), (i as u16, Resolved::sty(&structs, f.ret.as_ref()))))
            .collect(),
        globals: (prog.globals.iter().enumerate())
            .map(|(i, (n, ty))| (n.as_str(), (i as u16, Resolved::sty(&structs, Some(ty)))))
            .collect(),
        structs,
        layouts: Vec::with_capacity(prog.funcs.len()),
    };
    let mut errors = Vec::new();
    for func in &prog.funcs {
        let mut w = Walker {
            prog,
            res: &res,
            func,
            layout: Layout::default(),
            types: Vec::new(),
            visible: Vec::new(),
            errors: &mut errors,
        };
        for (name, ty) in &func.params {
            w.declare(name, ty, true);
        }
        for p in &func.pool_params {
            w.layout.pool_of.insert(p, w.layout.pools.len() as u16);
            w.layout.pools.push(p);
        }
        w.block(&func.body);
        res.layouts.push(w.layout);
    }
    if errors.is_empty() {
        Ok(res)
    } else {
        Err(errors)
    }
}

struct Walker<'r, 'p> {
    prog: &'p Program,
    res: &'r Resolved<'p>,
    func: &'p FuncDef,
    layout: Layout<'p>,
    /// Declared type of each slot (rule 1).
    types: Vec<&'p Type>,
    /// Which slots are declared on every path to this point (rule 2).
    visible: Vec<bool>,
    errors: &'r mut Vec<ValidateError>,
}

impl<'p> Walker<'_, 'p> {
    fn err(&mut self, span: Span, message: String) {
        self.errors.push(ValidateError { func: self.func.name.clone(), span, message });
    }

    /// Declares `name: ty`. A parameter always takes a fresh slot (the
    /// engines copy argument `i` into slot `i`); a `var` reuses its name's.
    fn declare(&mut self, name: &'p str, ty: &'p Type, param: bool) {
        if self.res.globals.contains_key(name) {
            self.err(Span::NONE, format!("local `{name}` shadows the global of the same name"));
        }
        let prev = self.layout.slot_of.get(name).copied();
        if let Some(first) = prev.map(|s| self.types[s as usize]).filter(|&t| t != ty) {
            let message = format!("`{name}` redeclared as `{ty}`, first declared `{first}`");
            self.err(Span::NONE, message);
        }
        let slot = match prev {
            Some(slot) if !param => slot,
            _ => {
                let slot = self.layout.slots.len() as u16;
                self.layout.slots.push((name, Resolved::sty(&self.res.structs, Some(ty))));
                self.layout.slot_of.insert(name, slot);
                self.types.push(ty);
                slot
            }
        };
        self.visible.resize(self.layout.slots.len(), false);
        self.visible[slot as usize] = true;
    }

    /// Static type of variable `name` at this point.
    fn var(&mut self, name: &str) -> Sty<'p> {
        let sty = match self.layout.local(name) {
            Some((slot, sty)) => (self.visible.get(slot as usize) == Some(&true)).then_some(sty),
            None => self.res.globals.get(name).map(|&(_, sty)| sty),
        };
        sty.unwrap_or_else(|| {
            self.err(Span::NONE, format!("undefined variable `{name}`"));
            Sty::None
        })
    }

    fn pool(&mut self, pool: Option<&str>, span: Span) {
        if let Some(p) = pool.filter(|p| !self.layout.pool_of.contains_key(p)) {
            self.err(span, format!("pool descriptor `{p}` not in scope"));
        }
    }

    fn alloc(&mut self, name: &str, pool: &Option<PoolRef>, span: Span) -> Sty<'p> {
        let sty = match self.res.structs.get(name) {
            Some(def) => Sty::Ptr(def),
            None => {
                self.err(span, format!("undefined struct or field `{name}`"));
                Sty::None
            }
        };
        self.pool(pool.as_deref(), span);
        sty
    }

    fn field(&mut self, base: Sty<'p>, field: &str, span: Span) -> Sty<'p> {
        match self.res.field(base, field) {
            Some((_, sty)) => sty,
            None if matches!(base, Sty::Ptr(_)) => {
                self.err(span, format!("undefined struct or field `{field}`"));
                Sty::None
            }
            None => Sty::None,
        }
    }

    fn call(&mut self, callee: &str, args: usize, pool_args: usize) -> Sty<'p> {
        let Some(&(i, ret)) = self.res.funcs.get(callee) else {
            self.err(Span::NONE, format!("undefined function `{callee}`"));
            return Sty::None;
        };
        let target = &self.prog.funcs[i as usize];
        let (params, pools) = (target.params.len(), target.pool_params.len());
        if params != args {
            self.err(
                Span::NONE,
                format!(
                    "call to `{callee}` passes {args} value argument(s), `{callee}` declares \
                     {params}"
                ),
            );
        }
        if pools != pool_args {
            let message =
                format!("call to `{callee}` passes {pool_args} pool args, callee declares {pools}");
            self.err(Span::NONE, message);
        }
        ret
    }

    fn expr(&mut self, e: &'p Expr) -> Sty<'p> {
        match e {
            Expr::Int(_) => Sty::Int,
            Expr::Null => Sty::None,
            Expr::Var(name) => self.var(name),
            Expr::Malloc { struct_name, pool, span, .. } => self.alloc(struct_name, pool, *span),
            Expr::MallocArray { struct_name, count, pool, span, .. } => {
                let sty = self.alloc(struct_name, pool, *span);
                self.expr(count);
                sty
            }
            Expr::Index { base, index } => {
                let sty = self.expr(base);
                self.expr(index);
                if matches!(sty, Sty::Ptr(_)) {
                    sty
                } else {
                    Sty::None
                }
            }
            Expr::Field { base, field, span } => {
                let base = self.expr(base);
                self.field(base, field, *span)
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
                Sty::Int
            }
            Expr::Call { callee, args, pool_args, .. } => {
                let ret = self.call(callee, args.len(), pool_args.len());
                for a in args {
                    self.expr(a);
                }
                for p in pool_args {
                    self.pool(Some(p), Span::NONE);
                }
                ret
            }
        }
    }

    fn block(&mut self, stmts: &'p [Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'p Stmt) {
        match s {
            Stmt::VarDecl { name, ty, init } => {
                if let Some(e) = init {
                    self.expr(e);
                }
                self.declare(name, ty, false);
            }
            Stmt::Assign { lhs: LValue::Var(name), rhs } => {
                self.var(name);
                self.expr(rhs);
            }
            Stmt::Assign { lhs: LValue::Field { base, field, span }, rhs } => {
                self.expr(rhs);
                let base = self.expr(base);
                self.field(base, field, *span);
            }
            Stmt::Free { expr, pool, span, .. } => {
                self.pool(pool.as_deref(), *span);
                self.expr(expr);
            }
            Stmt::If { cond, then, els } => {
                self.expr(cond);
                let before = self.visible.clone();
                self.block(then);
                let after_then = std::mem::replace(&mut self.visible, before);
                self.block(els);
                // Slots past either side's end were not declared on it.
                self.visible.truncate(after_then.len());
                for (v, t) in self.visible.iter_mut().zip(after_then) {
                    *v &= t;
                }
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                let before = self.visible.clone();
                self.block(body);
                self.visible = before;
            }
            Stmt::Return(None) => {}
            Stmt::Return(Some(e)) | Stmt::Print(e) | Stmt::ExprStmt(e) => {
                self.expr(e);
            }
            Stmt::PoolInit { pool, .. } => {
                if self.layout.pool_of.contains_key(pool.as_str()) {
                    self.err(Span::NONE, format!("pool `{pool}` initialized twice"));
                } else {
                    self.layout.pool_of.insert(pool, self.layout.pools.len() as u16);
                    self.layout.pools.push(pool);
                }
            }
            Stmt::PoolDestroy { pool } => self.pool(Some(pool), Span::NONE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::transform::pool_allocate;

    fn messages(src: &str) -> Vec<String> {
        match resolve(&parse(src).unwrap()) {
            Ok(_) => Vec::new(),
            Err(errors) => errors.into_iter().map(|e| e.message).collect(),
        }
    }

    #[test]
    fn layout_is_params_then_vars_in_first_occurrence_order() {
        let prog = parse(
            "struct s { v: int }
             fn f(a: int, p: ptr<s>) -> int {
                 var x: int = a;
                 while (x < 3) { var y: int = x; x = y + 1; }
                 var x: int = 0;
                 var a: int = 1;
                 return x;
             }
             fn main() { print(f(1, null)); }",
        )
        .unwrap();
        let res = resolve(&prog).unwrap();
        let f = &res.layouts[0];
        let names: Vec<&str> = f.slots.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a", "p", "x", "y"]);
        assert!(matches!(f.local("p"), Some((1, Sty::Ptr(def))) if def.name == "s"));
        assert!(matches!(f.local("y"), Some((3, Sty::Int))));
        assert!(f.local("main").is_none());
        assert_eq!(res.main(), Some(1));
        assert!(matches!(res.func("f"), (0, Sty::Int)));
    }

    #[test]
    fn pool_registers_are_pool_params_then_poolinits() {
        let src = "struct s { v: int }
                   fn use_it(p: ptr<s>) { free(p); }
                   fn main() { var p: ptr<s> = malloc(s); use_it(p); }";
        let (t, _) = pool_allocate(&parse(src).unwrap());
        let res = resolve(&t).unwrap();
        for (f, layout) in t.funcs.iter().zip(&res.layouts) {
            let expected: Vec<&str> = f.pool_params.iter().map(String::as_str).collect();
            assert_eq!(layout.pools[..expected.len()], expected[..], "{}", f.name);
        }
        assert_eq!(res.layouts[1].pools.len(), 1, "main poolinits one pool");
    }

    #[test]
    fn one_type_per_name() {
        let retyped = "struct s { v: int }
             fn main() {
                 var c: int = 1;
                 if (c) { var x: int = 8; } else { var x: ptr<s> = null; }
             }";
        assert_eq!(messages(retyped), ["`x` redeclared as `ptr<s>`, first declared `int`"]);
        let param = "fn f(a: int) { var a: ptr<s> = null; } fn main() { f(1); }";
        assert_eq!(messages(param), ["`a` redeclared as `ptr<s>`, first declared `int`"]);
        let same = "fn main() { var x: int = 1; if (x) { var x: int = 2; } print(x); }";
        assert!(messages(same).is_empty());
    }

    #[test]
    fn a_local_is_visible_only_where_declared_on_every_path() {
        let undefined = ["undefined variable `x`"];
        for src in [
            // Declared on one branch only.
            "fn main() { var c: int = 0; if (c) { var x: int = 1; } print(x); }",
            "fn main() { var c: int = 0; if (c) { } else { var x: int = 1; } x = 2; }",
            // Declarations inside a loop body end with the body.
            "fn main() { var c: int = 0; while (c) { var x: int = 1; c = x; } print(x); }",
            // Before the declaration, and in its own initializer.
            "fn main() { print(x); var x: int = 1; }",
            "fn main() { var x: int = x; }",
        ] {
            assert_eq!(messages(src), undefined, "{src}");
        }
        for src in [
            "fn main() { var c: int = 0; if (c) { var x: int = 1; } else { var x: int = 2; } \
             print(x); }",
            "fn main() { var c: int = 0; while (c < 2) { var x: int = c; c = x + 1; } }",
            "fn main() { var x: int = 1; var x: int = x + 1; print(x); }",
        ] {
            assert!(messages(src).is_empty(), "{src}: {:?}", messages(src));
        }
    }

    #[test]
    fn locals_may_not_shadow_globals() {
        let src = "global g: int;
                   fn f(g: int) { print(g); }
                   fn main() { var g: int = 1; f(g); }";
        let shadows = "local `g` shadows the global of the same name";
        assert_eq!(messages(src), [shadows, shadows]);
        assert!(messages("global g: int; fn main() { g = 2; print(g); }").is_empty());
    }

    #[test]
    fn undefined_names_and_arity_keep_their_messages() {
        assert_eq!(
            messages("struct s { v: int } fn f(a: int) -> int { return a; } fn main() {
                var p: ptr<s> = malloc(t);
                var q: ptr<s> = malloc(s);
                print(q->w + f(1, 2) + g());
            }"),
            [
                "undefined struct or field `t`",
                "undefined struct or field `w`",
                "call to `f` passes 2 value argument(s), `f` declares 1",
                "undefined function `g`",
            ]
        );
        // A dereference of a non-pointer is a run-time error, not a name error.
        assert!(messages("fn main() { var i: int = 1; print(i->v); }").is_empty());
    }

    #[test]
    fn pools_keep_program_order_scope() {
        let src = "struct s { v: int } fn main() { var p: ptr<s> = malloc(s); free(p); }";
        let mut prog = parse(src).unwrap();
        let body = &mut prog.funcs[0].body;
        body.insert(0, Stmt::PoolDestroy { pool: "P".into() });
        body.insert(1, Stmt::PoolInit { pool: "P".into(), elem_size: 8 });
        body.push(Stmt::PoolInit { pool: "P".into(), elem_size: 8 });
        let Stmt::Free { pool, .. } = &mut body[3] else { panic!() };
        *pool = Some("P".into());
        let errors: Vec<String> =
            resolve(&prog).err().unwrap().into_iter().map(|e| e.message).collect();
        assert_eq!(
            errors,
            ["pool descriptor `P` not in scope", "pool `P` initialized twice"]
        );
    }
}

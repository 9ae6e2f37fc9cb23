//! Abstract syntax of **MiniC**, the small C-like language the Automatic
//! Pool Allocation transform operates on.
//!
//! MiniC is deliberately the fragment of C the paper's running example
//! (Figure 1) needs: struct definitions with `int` and pointer fields,
//! functions, locals, globals, `malloc`/`free`, pointer field access
//! (`p->f`), arithmetic, `if`/`while`, calls and `print`. All scalar values
//! are 64-bit; every struct field occupies 8 bytes, so `sizeof(struct S)` is
//! `8 × fields`.
//!
//! After the pool transform ([`crate::transform`]) the same AST carries the
//! extra constructs of Figure 2: pool parameters on functions,
//! `poolinit`/`pooldestroy` statements, pool-annotated `malloc`/`free`, and
//! pool arguments at call sites.

use std::fmt;

pub use crate::lex::Span;

/// A MiniC type: 64-bit integer or pointer to a named struct.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// Pointer to `struct <name>`.
    Ptr(String),
}

impl Type {
    /// Whether the type is a pointer.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Ptr(s) => write!(f, "ptr<{s}>"),
        }
    }
}

/// A struct definition.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<(String, Type)>,
}

impl StructDef {
    /// Byte size (8 bytes per field).
    pub fn size(&self) -> usize {
        self.fields.len() * 8
    }

    /// Byte offset of `field`, if present.
    pub fn offset_of(&self, field: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == field).map(|i| i * 8)
    }

    /// Type of `field`, if present.
    pub fn type_of(&self, field: &str) -> Option<&Type> {
        self.fields.iter().find(|(n, _)| n == field).map(|(_, t)| t)
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (traps on zero divisor at run time)
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` (non-short-circuit, integer)
    And,
    /// `||` (non-short-circuit, integer)
    Or,
}

/// A reference to a pool descriptor variable, introduced by the transform.
/// Pool descriptors live in a separate namespace from program variables.
pub type PoolRef = String;

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// The null pointer.
    Null,
    /// Variable read.
    Var(String),
    /// `malloc(S)`, optionally pool-annotated after the transform.
    /// `site` is a unique allocation-site id assigned by the parser.
    Malloc {
        /// Struct being allocated.
        struct_name: String,
        /// Pool to allocate from (`None` before the transform).
        pool: Option<PoolRef>,
        /// Unique allocation-site id.
        site: u32,
        /// Set by dangle-lint when every free of this site's alias class is
        /// `ProvablySafe`: the backend may skip shadow protection.
        unchecked: bool,
        /// Source location of the `malloc` keyword.
        span: Span,
    },
    /// `malloc_array(S, n)`: a contiguous array of `n` structs,
    /// pool-annotated by the transform like a scalar `malloc`.
    MallocArray {
        /// Struct being allocated.
        struct_name: String,
        /// Element count expression.
        count: Box<Expr>,
        /// Pool to allocate from (`None` before the transform).
        pool: Option<PoolRef>,
        /// Unique allocation-site id (shared numbering with `Malloc`).
        site: u32,
        /// As for [`Expr::Malloc`]: shadow protection may be skipped.
        unchecked: bool,
        /// Source location of the `malloc_array` keyword.
        span: Span,
    },
    /// Array element address: `base[index]`, of the same pointer type.
    Index {
        /// Pointer to the array's first element.
        base: Box<Expr>,
        /// Element index.
        index: Box<Expr>,
    },
    /// Pointer field read: `base->field`.
    Field {
        /// Pointer expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Source location of the `->` (the dereference diagnostics cite).
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call. `pool_args` is filled by the transform.
    Call {
        /// Callee name.
        callee: String,
        /// Value arguments.
        args: Vec<Expr>,
        /// Pool-descriptor arguments added by the transform.
        pool_args: Vec<PoolRef>,
        /// Source location of the call (eq-transparent metadata).
        span: Span,
    },
}

/// Assignable places.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// A local, parameter or global variable.
    Var(String),
    /// A pointer field: `base->field`.
    Field {
        /// Pointer expression.
        base: Expr,
        /// Field name.
        field: String,
        /// Source location of the `->` (the dereference diagnostics cite).
        span: Span,
    },
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Local declaration with optional initializer.
    VarDecl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment.
    Assign {
        /// Target place.
        lhs: LValue,
        /// Source expression.
        rhs: Expr,
    },
    /// `free(e)`, optionally pool-annotated after the transform. `site` is
    /// a unique free-site id.
    Free {
        /// Pointer being freed.
        expr: Expr,
        /// Pool to free into (`None` before the transform).
        pool: Option<PoolRef>,
        /// Unique free-site id.
        site: u32,
        /// Set by dangle-lint when this site (and every site of its alias
        /// class) is `ProvablySafe`: the backend may skip the hidden-word
        /// check and `mprotect`.
        unchecked: bool,
        /// Source location of the `free` keyword.
        span: Span,
    },
    /// Conditional.
    If {
        /// Condition (non-zero = true).
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// Loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Return from the function.
    Return(Option<Expr>),
    /// `print(e)`: appends the value to the program's observable output.
    Print(Expr),
    /// Expression statement (e.g. a call).
    ExprStmt(Expr),
    /// `poolinit(P, elem_size)` — inserted by the transform.
    PoolInit {
        /// Pool descriptor name.
        pool: PoolRef,
        /// Element-size hint.
        elem_size: usize,
    },
    /// `pooldestroy(P)` — inserted by the transform.
    PoolDestroy {
        /// Pool descriptor name.
        pool: PoolRef,
    },
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Value parameters.
    pub params: Vec<(String, Type)>,
    /// Pool-descriptor parameters added by the transform.
    pub pool_params: Vec<PoolRef>,
    /// Return type (`None` = void).
    pub ret: Option<Type>,
    /// Body.
    pub body: Vec<Stmt>,
}

/// A whole MiniC program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructDef>,
    /// Global variables (zero/null initialized).
    pub globals: Vec<(String, Type)>,
    /// Functions. Execution starts at `main`.
    pub funcs: Vec<FuncDef>,
}

impl Program {
    /// Finds a struct by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Finds a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.iter().find(|f| f.name == name)
    }
}

// The shared traversals. Every pass that collects facts from (or rewrites)
// the expressions and statements of a body goes through these, so a new
// `Stmt`, `Expr` or `LValue` variant is handled in one place. They name
// every variant, so the compiler rejects them until a new one is placed;
// the denied `_` arm keeps it that way.

/// Visits every statement of `stmts`, nested `if`/`while` bodies
/// included, in source pre-order (a statement before the statements it
/// contains).
#[deny(clippy::wildcard_enum_match_arm)]
pub fn walk_stmts<'p>(stmts: &'p [Stmt], f: &mut impl FnMut(&'p Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::If { then, els, .. } => {
                walk_stmts(then, f);
                walk_stmts(els, f);
            }
            Stmt::While { body, .. } => walk_stmts(body, f),
            Stmt::VarDecl { .. }
            | Stmt::Assign { .. }
            | Stmt::Free { .. }
            | Stmt::Return(_)
            | Stmt::Print(_)
            | Stmt::ExprStmt(_)
            | Stmt::PoolInit { .. }
            | Stmt::PoolDestroy { .. } => {}
        }
    }
}

/// Visits every expression of `stmts`, sub-expressions and nested bodies
/// included, in source pre-order: a statement's own operands (an `if`'s
/// or `while`'s condition first) before its nested statements, and an
/// expression before its operands.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn walk_exprs<'p>(stmts: &'p [Stmt], f: &mut impl FnMut(&'p Expr)) {
    for s in stmts {
        match s {
            Stmt::VarDecl { init, .. } | Stmt::Return(init) => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
            }
            Stmt::Assign { lhs, rhs } => {
                match lhs {
                    LValue::Field { base, .. } => walk_expr(base, f),
                    LValue::Var(_) => {}
                }
                walk_expr(rhs, f);
            }
            Stmt::Free { expr: e, .. } | Stmt::Print(e) | Stmt::ExprStmt(e) => walk_expr(e, f),
            Stmt::If { cond, then, els } => {
                walk_expr(cond, f);
                walk_exprs(then, f);
                walk_exprs(els, f);
            }
            Stmt::While { cond, body } => {
                walk_expr(cond, f);
                walk_exprs(body, f);
            }
            Stmt::PoolInit { .. } | Stmt::PoolDestroy { .. } => {}
        }
    }
}

/// Visits `e` and every sub-expression of it, in pre-order.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn walk_expr<'p>(e: &'p Expr, f: &mut impl FnMut(&'p Expr)) {
    f(e);
    match e {
        Expr::MallocArray { count, .. } => walk_expr(count, f),
        Expr::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        Expr::Field { base, .. } => walk_expr(base, f),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Call { args, .. } => args.iter().for_each(|a| walk_expr(a, f)),
        Expr::Int(_) | Expr::Null | Expr::Var(_) | Expr::Malloc { .. } => {}
    }
}

/// The `&mut` twin of [`walk_stmts`] and [`walk_exprs`] in one pass:
/// `on_stmt` sees every statement and `on_expr` every expression, in the
/// same orders, a statement before its own expressions. Each callback
/// sees a node before the nodes it contains, so it may rewrite the
/// node's own fields.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn walk_mut(
    stmts: &mut [Stmt],
    on_stmt: &mut impl FnMut(&mut Stmt),
    on_expr: &mut impl FnMut(&mut Expr),
) {
    fn expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
        f(e);
        match e {
            Expr::MallocArray { count, .. } => expr(count, f),
            Expr::Index { base, index } => {
                expr(base, f);
                expr(index, f);
            }
            Expr::Field { base, .. } => expr(base, f),
            Expr::Binary { lhs, rhs, .. } => {
                expr(lhs, f);
                expr(rhs, f);
            }
            Expr::Call { args, .. } => args.iter_mut().for_each(|a| expr(a, f)),
            Expr::Int(_) | Expr::Null | Expr::Var(_) | Expr::Malloc { .. } => {}
        }
    }
    for s in stmts {
        on_stmt(s);
        match s {
            Stmt::VarDecl { init, .. } | Stmt::Return(init) => {
                if let Some(e) = init {
                    expr(e, on_expr);
                }
            }
            Stmt::Assign { lhs, rhs } => {
                match lhs {
                    LValue::Field { base, .. } => expr(base, on_expr),
                    LValue::Var(_) => {}
                }
                expr(rhs, on_expr);
            }
            Stmt::Free { expr: e, .. } | Stmt::Print(e) | Stmt::ExprStmt(e) => {
                expr(e, on_expr)
            }
            Stmt::If { cond, then, els } => {
                expr(cond, on_expr);
                walk_mut(then, on_stmt, on_expr);
                walk_mut(els, on_stmt, on_expr);
            }
            Stmt::While { cond, body } => {
                expr(cond, on_expr);
                walk_mut(body, on_stmt, on_expr);
            }
            Stmt::PoolInit { .. } | Stmt::PoolDestroy { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_layout() {
        let s = StructDef {
            name: "s".into(),
            fields: vec![
                ("next".into(), Type::Ptr("s".into())),
                ("val".into(), Type::Int),
            ],
        };
        assert_eq!(s.size(), 16);
        assert_eq!(s.offset_of("next"), Some(0));
        assert_eq!(s.offset_of("val"), Some(8));
        assert_eq!(s.offset_of("nope"), None);
        assert_eq!(s.type_of("val"), Some(&Type::Int));
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::Ptr("s".into()).to_string(), "ptr<s>");
        assert!(Type::Ptr("s".into()).is_ptr());
        assert!(!Type::Int.is_ptr());
    }

    /// The name `tN` of the next tagged call; tags number calls in
    /// source order.
    fn tag(n: &mut u32) -> String {
        *n += 1;
        format!("t{}", *n - 1)
    }

    /// A body holding a tagged call in every expression position.
    fn tagged_body(n: &mut u32) -> String {
        let mut t = || tag(n);
        format!(
            "var a: ptr<s> = malloc_array(s, {}());
             {}()[{}()]->v = {}()->v + {}({}(), {}());
             free({}());
             if ({}()) {{ print({}()); }} else {{ {}(); }}
             while ({}()) {{ return {}(); }}",
            t(), t(), t(), t(), t(), t(), t(), t(), t(), t(), t(), t(), t()
        )
    }

    fn kind(s: &Stmt) -> String {
        format!("{s:?}").split(|c: char| !c.is_alphanumeric()).next().unwrap().to_string()
    }

    #[test]
    fn walkers_visit_every_position_once_in_source_pre_order() {
        let mut n = 0;
        let src = format!(
            "struct s {{ next: ptr<s>, v: int }}
             fn main() {{
                 if ({}()) {{ {} }} else {{ {} }}
                 while ({}()) {{ {} }}
             }}",
            tag(&mut n),
            tagged_body(&mut n),
            tagged_body(&mut n),
            tag(&mut n),
            tagged_body(&mut n)
        );
        let mut prog = crate::parse::parse(&src).unwrap();
        let want: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        assert_eq!(n, 3 * 13 + 2);

        let mut calls = Vec::new();
        walk_exprs(&prog.funcs[0].body, &mut |e| {
            if let Expr::Call { callee, .. } = e {
                calls.push(callee.clone());
            }
        });
        assert_eq!(calls, want);

        let mut kinds = Vec::new();
        walk_stmts(&prog.funcs[0].body, &mut |s| kinds.push(kind(s)));
        let body = ["VarDecl", "Assign", "Free", "If", "Print", "ExprStmt", "While", "Return"];
        let mut want_kinds = vec!["If"];
        want_kinds.extend(body);
        want_kinds.extend(body);
        want_kinds.push("While");
        want_kinds.extend(body);
        assert_eq!(kinds, want_kinds);

        let (mut mut_kinds, mut mut_calls) = (Vec::new(), Vec::new());
        walk_mut(
            &mut prog.funcs[0].body,
            &mut |s| mut_kinds.push(kind(s)),
            &mut |e| {
                if let Expr::Call { callee, .. } = e {
                    mut_calls.push(callee.clone());
                }
            },
        );
        assert_eq!(mut_kinds, want_kinds);
        assert_eq!(mut_calls, want);
    }
}

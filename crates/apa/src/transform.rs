//! The Automatic Pool Allocation transform (the Figure 1 → Figure 2
//! rewrite).
//!
//! Given the [`crate::analysis`] results, the transform:
//!
//! 1. creates a pool descriptor `__poolN` for every heap class, owned by
//!    the function the escape analysis picked: `poolinit` at function
//!    entry, `pooldestroy` before every `return` and at the function's end;
//! 2. adds pool-descriptor parameters to every function that needs a pool
//!    it does not own, and threads the matching pool arguments through
//!    every call site;
//! 3. rewrites `malloc(S)` to a pool-annotated allocation from its class's
//!    pool, and `free(p)` to a pool-annotated deallocation.
//!
//! The transformed program is executable by `dangle-interp` against any
//! pool-aware backend, and — crucially for the detector — satisfies the
//! contract of the paper's Insight 2: *no pointer into a pool is live after
//! its `pooldestroy`* (if the original program never leaked pointers past
//! the class's owner function, which the escape analysis guarantees for
//! well-typed MiniC programs).

use crate::analysis::{analyze, Analysis};
use crate::ast::*;

/// The canonical pool-descriptor name of class `cid`.
pub fn pool_name(cid: usize) -> String {
    format!("__pool{cid}")
}

/// Applies Automatic Pool Allocation to `prog`, returning the transformed
/// program and the analysis that drove it.
pub fn pool_allocate(prog: &Program) -> (Program, Analysis) {
    let analysis = analyze(prog);
    let mut out = prog.clone();
    for f in &mut out.funcs {
        transform_func(f, &analysis);
    }
    (out, analysis)
}

/// [`pool_allocate`] plus the dangle-lint elision pass: runs the
/// flow-sensitive free-site analysis ([`crate::dataflow::lint`]) on the
/// source program and stamps the malloc/free sites of every *elidable*
/// alias class (all of its free sites `ProvablySafe`) with the `unchecked`
/// annotation, so shadow backends can skip protection for them.
pub fn pool_allocate_with_lint(
    prog: &Program,
) -> (Program, Analysis, crate::dataflow::LintReport) {
    pool_allocate_with_lint_mode(prog, crate::dataflow::LintMode::Inter)
}

/// [`pool_allocate_with_lint`] with an explicit [`crate::dataflow::LintMode`],
/// for measuring what the interprocedural layer buys over the
/// intraprocedural one.
pub fn pool_allocate_with_lint_mode(
    prog: &Program,
    mode: crate::dataflow::LintMode,
) -> (Program, Analysis, crate::dataflow::LintReport) {
    let (mut out, analysis) = pool_allocate(prog);
    let report = crate::dataflow::lint_with_mode(prog, &analysis, mode);
    crate::dataflow::stamp_unchecked(&mut out, &report);
    (out, analysis, report)
}

fn transform_func(f: &mut FuncDef, a: &Analysis) {
    f.pool_params = a.pool_params_of(&f.name).into_iter().map(pool_name).collect();
    let owned: Vec<usize> = a.owns.get(&f.name).cloned().unwrap_or_default();

    let mut body = std::mem::take(&mut f.body);
    walk_mut(
        &mut body,
        &mut |s| {
            if let Stmt::Free { pool, site, .. } = s {
                if let Some(&cid) = a.free_class.get(site) {
                    *pool = Some(pool_name(cid));
                }
            }
        },
        &mut |e| rewrite_expr(e, a),
    );
    destroy_before_returns(&mut body, &owned);

    let mut new_body: Vec<Stmt> = owned
        .iter()
        .map(|&cid| Stmt::PoolInit {
            pool: pool_name(cid),
            elem_size: a.classes[cid].elem_size,
        })
        .collect();
    new_body.extend(body);
    // Destroy at fall-through exit (returns were handled during rewrite).
    if !matches!(new_body.last(), Some(Stmt::Return(_))) {
        for &cid in &owned {
            new_body.push(Stmt::PoolDestroy { pool: pool_name(cid) });
        }
    }
    f.body = new_body;
}

/// Inserts a `pooldestroy` of every owned pool before each `return`, so
/// owned pools are destroyed on every exit path.
fn destroy_before_returns(stmts: &mut Vec<Stmt>, owned: &[usize]) {
    let mut i = 0;
    while i < stmts.len() {
        match &mut stmts[i] {
            Stmt::If { then, els, .. } => {
                destroy_before_returns(then, owned);
                destroy_before_returns(els, owned);
            }
            Stmt::While { body, .. } => destroy_before_returns(body, owned),
            Stmt::Return(_) => {
                for (k, &cid) in owned.iter().enumerate() {
                    stmts.insert(i + k, Stmt::PoolDestroy { pool: pool_name(cid) });
                }
                i += owned.len();
            }
            _ => {}
        }
        i += 1;
    }
}

/// Pool-annotates an allocation with its class's pool and threads the
/// callee's pool parameters through a call.
fn rewrite_expr(e: &mut Expr, a: &Analysis) {
    match e {
        Expr::Malloc { pool, site, .. } | Expr::MallocArray { pool, site, .. } => {
            if let Some(&cid) = a.site_class.get(site) {
                *pool = Some(pool_name(cid));
            }
        }
        Expr::Call { callee, pool_args, .. } => {
            *pool_args = a.pool_params_of(callee).into_iter().map(pool_name).collect();
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse, FIGURE_1};

    fn count_stmts(stmts: &[Stmt], pred: &dyn Fn(&Stmt) -> bool) -> usize {
        let mut n = 0;
        walk_stmts(stmts, &mut |s| n += usize::from(pred(s)));
        n
    }

    #[test]
    fn figure_one_becomes_figure_two() {
        let prog = parse(FIGURE_1).unwrap();
        let (t, a) = pool_allocate(&prog);
        assert_eq!(a.classes.len(), 1);

        // f() gains poolinit at entry and pooldestroy at exit (Figure 2).
        let f = t.func("f").unwrap();
        assert!(matches!(&f.body[0], Stmt::PoolInit { pool, elem_size: 16 } if pool == "__pool0"));
        assert!(matches!(f.body.last(), Some(Stmt::PoolDestroy { pool }) if pool == "__pool0"));
        assert!(f.pool_params.is_empty());

        // g() receives the pool as a parameter, creates none.
        let g = t.func("g").unwrap();
        assert_eq!(g.pool_params, vec!["__pool0"]);
        assert_eq!(count_stmts(&g.body, &|s| matches!(s, Stmt::PoolInit { .. })), 0);

        // The malloc in create_10_node_list is pool-annotated.
        let c = t.func("create_10_node_list").unwrap();
        let Stmt::While { body, .. } = &c.body[2] else { panic!("{:?}", c.body) };
        let Stmt::Assign { rhs: Expr::Malloc { pool, .. }, .. } = &body[0] else {
            panic!("{body:?}")
        };
        assert_eq!(pool.as_deref(), Some("__pool0"));

        // The free in free_all_but_head is pool-annotated.
        let fr = t.func("free_all_but_head").unwrap();
        assert_eq!(
            count_stmts(&fr.body, &|s| matches!(
                s,
                Stmt::Free { pool: Some(p), .. } if p == "__pool0"
            )),
            1
        );

        // Calls thread the pool argument.
        let Stmt::ExprStmt(Expr::Call { callee, pool_args, .. }) = &g.body[0] else {
            panic!()
        };
        assert_eq!(callee, "create_10_node_list");
        assert_eq!(pool_args, &vec!["__pool0".to_string()]);
    }

    #[test]
    fn pooldestroy_inserted_before_every_return() {
        let src = "
            struct s { v: int }
            fn main() {
                var p: ptr<s> = malloc(s);
                if (p != null) {
                    free(p);
                    return;
                }
                print(1);
            }";
        let (t, _) = pool_allocate(&parse(src).unwrap());
        let main = t.func("main").unwrap();
        // Inside the if: destroy precedes return.
        let Stmt::If { then, .. } = &main.body[2] else { panic!("{:?}", main.body) };
        assert!(matches!(&then[1], Stmt::PoolDestroy { .. }));
        assert!(matches!(&then[2], Stmt::Return(None)));
        // Fall-through destroy at end too.
        assert!(matches!(main.body.last(), Some(Stmt::PoolDestroy { .. })));
    }

    #[test]
    fn independent_classes_get_independent_pools() {
        let src = "
            struct a { v: int }
            struct b { v: int }
            fn main() {
                var x: ptr<a> = malloc(a);
                var y: ptr<b> = malloc(b);
                free(x);
                free(y);
            }";
        let (t, a) = pool_allocate(&parse(src).unwrap());
        assert_eq!(a.classes.len(), 2);
        let main = t.func("main").unwrap();
        assert_eq!(
            count_stmts(&main.body, &|s| matches!(s, Stmt::PoolInit { .. })),
            2
        );
        assert_eq!(
            count_stmts(&main.body, &|s| matches!(s, Stmt::PoolDestroy { .. })),
            2
        );
    }

    #[test]
    fn helper_functions_receive_pool_arguments_transitively() {
        let src = "
            struct s { v: int }
            fn inner(p: ptr<s>) { free(p); }
            fn outer(p: ptr<s>) { inner(p); }
            fn main() {
                var p: ptr<s> = malloc(s);
                outer(p);
            }";
        let (t, _) = pool_allocate(&parse(src).unwrap());
        assert_eq!(t.func("inner").unwrap().pool_params, vec!["__pool0"]);
        assert_eq!(t.func("outer").unwrap().pool_params, vec!["__pool0"]);
        let Stmt::ExprStmt(Expr::Call { pool_args, .. }) = &t.func("outer").unwrap().body[0]
        else {
            panic!()
        };
        assert_eq!(pool_args, &vec!["__pool0".to_string()]);
    }

    #[test]
    fn transform_is_idempotent_on_pool_free_programs() {
        let src = "fn main() { print(42); }";
        let prog = parse(src).unwrap();
        let (t, a) = pool_allocate(&prog);
        assert_eq!(t, prog, "no heap => no change");
        assert!(a.classes.is_empty());
    }
}

//! The pool transform's rewrites, checked on its output: over every
//! corpus program, one program with a pool-taking call in every
//! expression position, and 500 seeded `random_program` draws, in both
//! lint modes, `pool_allocate_with_lint_mode` must
//!
//! 1. stamp `unchecked` on exactly the malloc and free sites the lint
//!    report lists as unchecked;
//! 2. annotate every `malloc`/`malloc_array` and `free` of a classed site
//!    with its class's pool `__pool<class>` (and leave class-less frees
//!    pool-less);
//! 3. pass every call exactly the pools `pool_params_of(callee)` names;
//! 4. produce a program `validate(_, true)` accepts.

use dangle::apa::ast::{walk_exprs, walk_stmts};
use dangle::apa::{
    corpus, parse, pool_allocate_with_lint_mode, pool_name, validate, Expr, LintMode, Stmt,
    FIGURE_1,
};
use dangle_testkit::minic::random_program;
use std::collections::BTreeSet;

/// A pool-taking call (`mk`, which allocates into its argument's class)
/// and a `malloc` in every expression position, under both branches of
/// an `if` and in a `while`: the corpus and `random_program` never nest
/// pool-taking calls this way.
const EVERY_POSITION: &str = "
struct s { next: ptr<s>, v: int }
fn mk(p: ptr<s>) -> ptr<s> { p->next = malloc(s); return p->next; }
fn val(p: ptr<s>) -> int { return p->v; }
fn main() {
    var a: ptr<s> = malloc_array(s, val(mk(malloc(s))));
    mk(a)[val(mk(a))]->v = mk(a)->v + val(mk(mk(a)));
    if (val(mk(a)) > 0) { print(val(mk(a))); } else { mk(malloc(s)); }
    while (val(mk(a)) < 0) { a = mk(a); }
    free(mk(a));
    return;
}";

fn corpus_sources() -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = vec![
        ("every_position".into(), EVERY_POSITION.into()),
        ("figure1".into(), FIGURE_1.into()),
        ("fingerd".into(), corpus::fingerd(3)),
        ("ftpd".into(), corpus::ftpd(3)),
        ("ghttpd".into(), corpus::ghttpd(3)),
        ("ghttpd_keepalive".into(), corpus::ghttpd_keepalive(2, 3)),
        ("figure1_fixed".into(), corpus::figure1_fixed()),
        ("ftpd_helper".into(), corpus::ftpd_helper(3)),
    ];
    for (name, src) in corpus::injected_uafs() {
        v.push((name.into(), src.into()));
    }
    v
}

fn check_rewrites(name: &str, src: &str) {
    let prog = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    for mode in [LintMode::Intra, LintMode::Inter] {
        let (out, a, report) = pool_allocate_with_lint_mode(&prog, mode);
        let ctx = format!("{name} ({mode})");
        let pools = |cid: Option<&usize>| cid.map(|&c| pool_name(c));

        let (mut mallocs, mut frees) = (BTreeSet::new(), BTreeSet::new());
        for f in &out.funcs {
            walk_stmts(&f.body, &mut |s| {
                if let Stmt::Free { site, pool, unchecked, .. } = s {
                    assert_eq!(*pool, pools(a.free_class.get(site)), "{ctx}: free site {site}");
                    if *unchecked {
                        frees.insert(*site);
                    }
                }
            });
            walk_exprs(&f.body, &mut |e| match e {
                Expr::Malloc { site, pool, unchecked, .. }
                | Expr::MallocArray { site, pool, unchecked, .. } => {
                    assert_eq!(*pool, pools(a.site_class.get(site)), "{ctx}: malloc site {site}");
                    assert!(pool.is_some(), "{ctx}: malloc site {site} has no class");
                    if *unchecked {
                        mallocs.insert(*site);
                    }
                }
                Expr::Call { callee, pool_args, .. } => {
                    let want: Vec<String> =
                        a.pool_params_of(callee).into_iter().map(pool_name).collect();
                    assert_eq!(pool_args, &want, "{ctx}: call to `{callee}`");
                }
                _ => {}
            });
        }
        assert_eq!(mallocs, report.unchecked_malloc_sites, "{ctx}: unchecked mallocs");
        assert_eq!(frees, report.unchecked_free_sites, "{ctx}: unchecked frees");
        if let Err(errs) = validate(&out, true) {
            panic!("{ctx}: transformed program fails validation: {errs:?}");
        }
    }
}

#[test]
fn corpus_rewrites_match_the_analysis_and_the_lint_report() {
    for (name, src) in corpus_sources() {
        check_rewrites(&name, &src);
    }
}

#[test]
fn random_program_rewrites_match_the_analysis_and_the_lint_report() {
    for seed in 0..500 {
        check_rewrites(&format!("random_program({seed})"), &random_program(seed));
    }
}

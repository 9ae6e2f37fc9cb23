//! **dangle-lint** — the interprocedural free-site analysis as a
//! standalone command-line linter.
//!
//! ```text
//! dangle-lint <file.mc>            lint a MiniC source file
//! dangle-lint --corpus <name>      lint a named built-in program
//! dangle-lint --list               list built-in program names
//! ```
//!
//! Options: `--intra` stops the analysis at function boundaries (for
//! comparing precision), `--json` emits the machine-readable
//! [`LintReport`] (schema_version 1) on stdout instead of the
//! human-readable rendering.
//!
//! Output: compiler-style spanned diagnostics for every `Definite*`
//! finding, then a per-site verdict table with the demotion reason and
//! (interprocedurally) the call chain that carried the free effect, then
//! the per-class elision decisions. A program must parse and pass name
//! resolution ([`dangle_apa::resolve`]: every name defined, arities
//! matching, the name contract kept) before it is linted; otherwise the
//! parse or name errors are printed instead. Exit status 1 on any
//! `Definite*` finding, 2 on usage, parse or name errors, 0 otherwise —
//! scriptable as a CI gate.

use dangle_apa::{analyze, corpus, parse, resolve, LintMode, LintReport, Verdict, FIGURE_1};
use std::process::ExitCode;

const CORPUS: &[&str] = &[
    "figure1",
    "figure1-fixed",
    "fingerd",
    "ftpd",
    "ftpd-helper",
    "ghttpd",
    "ghttpd-keepalive",
];

fn corpus_src(name: &str) -> Option<String> {
    Some(match name {
        "figure1" => FIGURE_1.to_string(),
        "figure1-fixed" => corpus::figure1_fixed(),
        "fingerd" => corpus::fingerd(100),
        "ftpd" => corpus::ftpd(100),
        "ftpd-helper" => corpus::ftpd_helper(100),
        "ghttpd" => corpus::ghttpd(100),
        "ghttpd-keepalive" => corpus::ghttpd_keepalive(10, 10),
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dangle-lint [--intra] [--json] <file.mc>\n\
         \x20      dangle-lint [--intra] [--json] --corpus <name>\n\
         \x20      dangle-lint --list"
    );
    ExitCode::from(2)
}

fn render_human(label: &str, report: &LintReport) {
    // Compiler-style diagnostics first, like rustc would print them.
    for d in &report.diagnostics {
        eprintln!("{d}");
    }
    println!("dangle-lint ({}) — {label}", report.mode);
    println!(
        "  sites: {} safe, {} unknown, {} flagged",
        report.sites_safe(),
        report.sites_unknown(),
        report.sites_flagged()
    );
    for (&site, &v) in &report.verdicts {
        let (func, span) = report
            .site_info
            .get(&site)
            .cloned()
            .unwrap_or_default();
        let mut line = format!("  free-site {site} in `{func}` at {span}: {v}");
        if v != Verdict::ProvablySafe {
            if let Some(reason) = report.reasons.get(&site) {
                line.push_str(&format!(" — {reason}"));
            }
        }
        println!("{line}");
        if let Some(chain) = report.summary_chain.get(&site) {
            if !chain.is_empty() {
                println!("      via {}", chain.join(", "));
            }
        }
    }
    if report.elidable_classes.is_empty() {
        println!("  elidable classes: none (full shadow protection everywhere)");
    } else {
        let cs: Vec<String> =
            report.elidable_classes.iter().map(|c| format!("class{c}")).collect();
        println!("  elidable classes: {} (shadow protection elided)", cs.join(", "));
    }
    if !report.fn_summaries.is_empty() {
        println!("  function summaries:");
        for s in report.fn_summaries.values() {
            println!("    {s}");
        }
    }
}

fn main() -> ExitCode {
    let mut file: Option<String> = None;
    let mut corpus_name: Option<String> = None;
    let mut mode = LintMode::Inter;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--intra" => mode = LintMode::Intra,
            "--json" => json = true,
            "--list" => {
                for n in CORPUS {
                    println!("{n}");
                }
                return ExitCode::SUCCESS;
            }
            "--corpus" => match args.next() {
                Some(n) => corpus_name = Some(n),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ if a.starts_with('-') => return usage(),
            _ if file.is_none() => file = Some(a),
            _ => return usage(),
        }
    }

    let (label, src) = match (&file, &corpus_name) {
        (Some(_), Some(_)) | (None, None) => return usage(),
        (Some(f), None) => match std::fs::read_to_string(f) {
            Ok(s) => (f.clone(), s),
            Err(e) => {
                eprintln!("dangle-lint: cannot read `{f}`: {e}");
                return ExitCode::from(2);
            }
        },
        (None, Some(n)) => match corpus_src(n) {
            Some(s) => (n.clone(), s),
            None => {
                eprintln!(
                    "dangle-lint: unknown corpus program `{n}` (try --list)"
                );
                return ExitCode::from(2);
            }
        },
    };

    let prog = match parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dangle-lint: parse error in {label}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(errors) = resolve(&prog) {
        for e in errors {
            eprintln!("dangle-lint: name error in {label}: {e}");
        }
        return ExitCode::from(2);
    }
    let analysis = analyze(&prog);
    let report = dangle_apa::lint_with_mode(&prog, &analysis, mode);

    if json {
        print!("{}", report.to_json(&analysis).pretty());
    } else {
        render_human(&label, &report);
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Pinned-output tests for the `dangle-lint` CLI binary.
//!
//! These run the real binary (via `CARGO_BIN_EXE_dangle-lint`) so the
//! argument parsing, exit-status contract and human/JSON renderings are
//! all under test exactly as a CI script would see them.

use dangle_telemetry::Json;
use std::process::{Command, Output};

fn dangle_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dangle-lint"))
        .args(args)
        .output()
        .expect("run dangle-lint")
}

#[test]
fn corpus_ftpd_helper_human_output_is_pinned() {
    let out = dangle_lint(&["--corpus", "ftpd-helper"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "dangle-lint (inter) — ftpd-helper\n\
         \x20 sites: 2 safe, 0 unknown, 0 flagged\n\
         \x20 free-site 0 in `close_session` at 15:14: ProvablySafe\n\
         \x20     via main -> close_session at 29:18\n\
         \x20 free-site 1 in `close_session` at 16:14: ProvablySafe\n\
         \x20     via main -> close_session at 29:18\n\
         \x20 elidable classes: class0, class1 (shadow protection elided)\n\
         \x20 function summaries:\n\
         \x20   close_session(p0: uses+must-frees [1]; p1: must-frees [0])\n\
         \x20   main(allocs [0, 1])\n\
         \x20   open_session(p0: escapes; allocs [0]; ret Site(0))\n\
         \x20   xfer(p0: uses; p1: uses; p2: escapes)\n"
    );
}

#[test]
fn intra_mode_loses_the_helper_sites() {
    let out = dangle_lint(&["--intra", "--corpus", "ftpd-helper"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("dangle-lint (intra)"), "{stdout}");
    assert!(
        stdout.contains("sites: 0 safe, 2 unknown, 0 flagged"),
        "{stdout}"
    );
    assert!(
        stdout.contains("elidable classes: none"),
        "intra must keep full protection: {stdout}"
    );
}

#[test]
fn definite_finding_exits_nonzero_with_spanned_diagnostic() {
    let dir = std::env::temp_dir().join("dangle_lint_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uaf.mc");
    std::fs::write(
        &path,
        "struct s { v: int }\n\
         fn main() {\n\
             var p: ptr<s> = malloc(s);\n\
             free(p);\n\
             print(p->v);\n\
         }\n",
    )
    .unwrap();
    let out = dangle_lint(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error[dangle-lint]: definite use-after-free"),
        "{stderr}"
    );
    assert!(stderr.contains("free at 4:1"), "{stderr}");
    assert!(stderr.contains("offending use at 5:8"), "{stderr}");
}

#[test]
fn name_errors_exit_two_before_linting() {
    let dir = std::env::temp_dir().join("dangle_lint_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad_names.mc");
    std::fs::write(
        &path,
        "struct s { v: int } fn main() { var p: ptr<s> = malloc(t); free(q); print(nope(1)); }",
    )
    .unwrap();
    let out = dangle_lint(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing is linted: {out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    for message in [
        "undefined struct or field `t`",
        "undefined variable `q`",
        "undefined function `nope`",
    ] {
        assert!(stderr.contains(message), "{message}: {stderr}");
    }
}

#[test]
fn json_output_carries_the_schema() {
    let out = dangle_lint(&["--json", "--corpus", "figure1-fixed"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let json = dangle_telemetry::Json::parse(&stdout).expect("valid JSON");
    assert_eq!(json.get("schema_version").and_then(|v| v.as_i64()), Some(1));
    assert_eq!(json.get("mode").and_then(|v| v.as_str()), Some("inter"));
    let counts = json.get("counts").expect("counts");
    assert_eq!(counts.get("unknown").and_then(|v| v.as_i64()), Some(0));
    assert_eq!(counts.get("flagged").and_then(|v| v.as_i64()), Some(0));
    let sites = json.get("sites").and_then(|v| v.as_arr()).expect("sites");
    assert!(!sites.is_empty());
    for s in sites {
        assert_eq!(
            s.get("verdict").and_then(|v| v.as_str()),
            Some("ProvablySafe")
        );
        assert_eq!(s.get("elided"), Some(&dangle_telemetry::Json::Bool(true)));
    }
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(dangle_lint(&[]).status.code(), Some(2));
    assert_eq!(dangle_lint(&["--corpus", "nope"]).status.code(), Some(2));
    assert_eq!(dangle_lint(&["/no/such/file.mc"]).status.code(), Some(2));
}

#[test]
fn list_names_every_builtin_and_each_lints_clean_in_both_modes() {
    let out = dangle_lint(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "figure1",
        "figure1-fixed",
        "fingerd",
        "ftpd-helper",
        "ghttpd-keepalive",
    ] {
        assert!(
            stdout.lines().any(|l| l == name),
            "missing {name}: {stdout}"
        );
    }
    // No built-in program has a Definite finding (exit 0), in either mode.
    for prog in stdout.lines() {
        for args in [&["--corpus", prog][..], &["--intra", "--corpus", prog]] {
            let out = dangle_lint(args);
            assert!(out.status.success(), "{args:?}: {out:?}");
        }
    }
}

#[test]
fn buggy_figure1_keeps_full_protection_without_a_definite_flag() {
    // The runtime detector catches Figure 1's dangling write; the lint must
    // neither flag it Definite nor elide any of its protection.
    let out = dangle_lint(&["--json", "--corpus", "figure1"]);
    assert!(out.status.success(), "{out:?}");
    let json = Json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    let flagged = json.get("counts").and_then(|c| c.get("flagged"));
    assert_eq!(flagged.and_then(Json::as_i64), Some(0));
    let list = |key| json.get(key).and_then(Json::as_arr).expect(key);
    assert!(!list("sites").is_empty());
    for (key, flag) in [("sites", "elided"), ("classes", "elidable")] {
        for item in list(key) {
            assert_eq!(item.get(flag), Some(&Json::Bool(false)), "{item:?}");
        }
    }
}

//! **ledger** — every table and study of the evaluation, as one fixed
//! matrix of cells.
//!
//! ```text
//! cargo run --release -p dangle-bench --bin ledger
//! ```
//!
//! No flags, no environment variables. Each cell runs its configurations
//! [`REPS`] times, interleaved, then checks what its study promises. The
//! binary writes two files under `perf/` at the repository root:
//!
//! * `ledger.json` — every deterministic (simulated) figure. Two runs
//!   produce byte-identical files, so a change that moves a figure shows
//!   up as a diff of this committed file;
//! * `ledger-host.json` — host wall-clock figures as median and
//!   interquartile range over the repetitions, plus the failed checks.
//!
//! It then prints one cell/figure table and exits non-zero listing every
//! failed check. The flight recorder's collapsed stacks go to
//! `perf/tracing.folded` (flamegraph.pl input, not committed).

mod layers;
mod paper;

use dangle_bench::{obj, Cell, REPS};
use dangle_telemetry::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The `perf/` directory at the repository root.
pub(crate) fn perf_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perf")
}

/// One line of the stdout table: a figure's value, or its shape when it
/// is a nested object or array.
fn summary(value: &Json) -> String {
    let number = |key| value.get(key).and_then(Json::as_f64);
    if let (Some(median), Some(iqr)) = (number("median_ms"), number("iqr_ms")) {
        return format!("{median:.3} ms (IQR {iqr:.3})");
    }
    match value {
        Json::Obj(fields) => format!("{{{} fields}}", fields.len()),
        Json::Arr(items) => format!("[{} rows]", items.len()),
        Json::Float(f) => format!("{f:.3}"),
        Json::Str(s) if s.len() > 48 => format!("{}…", &s[..s.floor_char_boundary(48)]),
        other => other.to_string(),
    }
}

/// One cell: it runs its study and records figures and checks in `Cell`.
type Study = fn(&mut Cell);

/// The cell matrix, in run order.
const CELLS: &[(&str, Study)] = &[
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("table3", paper::table3),
    ("wastage", paper::wastage),
    ("exhaustion", paper::exhaustion),
    ("ablation", paper::ablation),
    ("soundness", paper::soundness),
    ("batching", layers::batching),
    ("lint", layers::lint),
    ("shards", layers::shards),
    ("sampling", layers::sampling),
    ("engines", layers::engines),
    ("page_tables", layers::page_tables),
    ("primitives", layers::primitives),
    ("tracing", layers::tracing),
];

fn main() -> ExitCode {
    let dir = perf_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("ledger: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let (mut sim, mut host, mut failed) = (Vec::new(), Vec::new(), Vec::new());
    println!("{:<12} {:<44} value", "cell", "figure");
    for &(name, run) in CELLS {
        let mut cell = Cell::default();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| run(&mut cell))) {
            let msg = panic.downcast_ref::<String>().cloned();
            let msg = msg.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            cell.check(false, format!("panicked: {}", msg.unwrap_or_default()));
        }
        for (key, value) in cell.figures.iter().chain(&cell.host) {
            println!("{name:<12} {key:<44} {}", summary(value));
        }
        failed.extend(cell.failures.iter().map(|f| format!("{name}: {f}")));
        sim.push((name.to_string(), Json::Obj(cell.figures)));
        host.push((name.to_string(), Json::Obj(cell.host)));
    }

    let header = |cells| {
        vec![
            ("schema_version", Json::Int(1)),
            ("reps", Json::from_u64(REPS as u64)),
            ("cells", cells),
        ]
    };
    let mut host_fields = header(Json::Obj(host));
    let failed_checks = failed.iter().cloned().map(Json::Str).collect();
    host_fields.push(("failed_checks", Json::Arr(failed_checks)));
    for (file, json) in [
        ("ledger.json", obj(header(Json::Obj(sim)))),
        ("ledger-host.json", obj(host_fields)),
    ] {
        let path = dir.join(file);
        if let Err(e) = std::fs::write(&path, json.pretty() + "\n") {
            failed.push(format!("write {}: {e}", path.display()));
        }
    }
    if failed.is_empty() {
        println!("\nledger: all checks passed");
        return ExitCode::SUCCESS;
    }
    eprintln!("\nledger: {} failed checks:", failed.len());
    for f in &failed {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}

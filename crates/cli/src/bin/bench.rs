//! `dasp-bench` — the modeled-time golden-file CLI.
//!
//! ```text
//! dasp-bench record [--out PATH] [--flamegraph OUT.folded] [--trace OUT.json]
//! dasp-bench diff OLD.json NEW.json [--json OUT]
//! ```
//!
//! `record` runs the suite once, traced — every matrix class × all ten
//! SpMV methods plus the SpMM widths 1, 8, 32 and 128 (the wide ones
//! exercise the A-resident panel sweep), on the A100 model and the
//! sequential executor — and writes a versioned `BENCH_<seq>.json`
//! snapshot (the next free sequence number in the current directory
//! unless `--out` names a file). It prints the suite summary table and
//! the top-10 hot-region table from the call-tree profile;
//! `--flamegraph` additionally writes collapsed stacks for
//! `flamegraph.pl`/speedscope and `--trace` the Chrome Trace Event file.
//!
//! `diff` compares two snapshots exactly: it exits non-zero when a
//! workload appears, disappears, or differs in `nnz` or in any modeled,
//! traffic or ops field, by as little as one ulp or one count. Host wall
//! time is not recorded here; perfbench measures it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dasp_bench::suite_matrices;
use dasp_cli::{out, outln};
use dasp_observatory::suite::render_suite_table;
use dasp_observatory::{diff_snapshots, next_seq, run_suite, snapshot_path, BenchSnapshot};
use dasp_trace::chrome_trace_json;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("record") => record(args),
        Some("diff") => diff(args),
        Some("--help" | "-h") | None => {
            eprintln!("usage: dasp-bench record|diff ... (see crate docs)");
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?} (expected record or diff)");
            ExitCode::FAILURE
        }
    }
}

fn record(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (mut out, mut flamegraph, mut trace_out) = (None, None, None);
    while let Some(a) = args.next() {
        let slot = match a.as_str() {
            "--out" => &mut out,
            "--flamegraph" => &mut flamegraph,
            "--trace" => &mut trace_out,
            other => return usage(&format!("unknown record flag {other:?}")),
        };
        match args.next() {
            Some(p) => *slot = Some(PathBuf::from(p)),
            None => return usage(&format!("{a} requires a path")),
        }
    }

    // `--out` names the file directly (CI candidates); otherwise the next
    // free slot in the trajectory. The stamped seq comes from the file
    // name when it follows the BENCH_<n>.json pattern, else from the
    // directory scan, so a CI candidate still says what it would be.
    let cwd = PathBuf::from(".");
    let path = out.unwrap_or_else(|| snapshot_path(&cwd, next_seq(&cwd)));
    let seq = seq_of(&path).unwrap_or_else(|| next_seq(path.parent().unwrap_or(&cwd)));

    eprintln!("recording suite as seq {seq}...");
    let outcome = run_suite(seq, &suite_matrices());
    let mut writes = vec![(path.clone(), outcome.snapshot.to_json())];
    if let Some(p) = flamegraph {
        writes.push((p, outcome.calltree.collapsed_stacks()));
    }
    if let Some(p) = trace_out {
        writes.push((p, chrome_trace_json(&outcome.trace)));
    }
    for (p, text) in writes {
        if let Err(e) = std::fs::write(&p, text) {
            eprintln!("cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }

    out!("{}", render_suite_table(&outcome.snapshot));
    outln!("\nhot regions (exclusive time, traced runs):");
    out!("{}", outcome.calltree.render_hot_table(10));
    outln!("\nwrote {}", path.display());
    ExitCode::SUCCESS
}

/// Parses the sequence number out of a `BENCH_<n>.json` file name.
fn seq_of(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

fn diff(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json requires a path"),
            },
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => return usage(&format!("unknown diff flag {other:?}")),
        }
    }
    if paths.len() != 2 {
        return usage("diff requires exactly two snapshot paths: OLD NEW");
    }

    let mut snaps = Vec::new();
    for p in &paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        };
        match BenchSnapshot::from_json(&text) {
            Ok(s) => snaps.push(s),
            Err(e) => {
                eprintln!("{}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let report = diff_snapshots(&snaps[0], &snaps[1]);
    out!("{}", report.render_table());
    if let Some(p) = &json_out {
        if let Err(e) = std::fs::write(p, report.to_json()) {
            eprintln!("cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if report.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("dasp-bench: {msg}");
    ExitCode::FAILURE
}

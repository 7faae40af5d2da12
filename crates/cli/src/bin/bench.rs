//! `dasp-bench` — the performance observatory CLI.
//!
//! ```text
//! dasp-bench record [--out PATH] [--quick] [--reps N] [--device a100|h800]
//!                   [--executor seq|par] [--threads N] [--no-spmm]
//!                   [--top N] [--no-interp] [--flamegraph OUT.folded]
//!                   [--trace OUT.json]
//! dasp-bench diff OLD.json NEW.json [--threshold PCT] [--mad-factor F]
//!                   [--drift-floor PCT] [--modeled-threshold PCT]
//!                   [--json OUT] [--soft]
//! ```
//!
//! `record` runs the benchmark suite — every matrix class × all ten SpMV
//! methods plus the SpMM widths 1, 8, 32 and 128 (the wide ones exercise
//! the A-resident panel sweep) — and writes a versioned
//! `BENCH_<seq>.json` snapshot (the next free sequence number in the
//! current directory unless `--out` names a file). It prints the suite
//! summary table, the top-N hot-region table from the call-tree
//! profile, and the interpreter-throughput microbench (warp-ops/sec per
//! DASP kernel with the probe-hook overhead share — skip it with
//! `--no-interp`); `--flamegraph` additionally writes collapsed stacks for
//! `flamegraph.pl`/speedscope and `--trace` the Chrome Trace Event file.
//! `--quick` selects the scaled-down CI matrices (the profile the
//! committed trajectory uses).
//!
//! `diff` compares two snapshots with the noise-aware gate: a workload
//! regresses when its wall-clock median is more than `--threshold`
//! percent slower (default 10) **and** the change exceeds the noise
//! band — `--mad-factor` (default 2) times the combined standard error
//! of the two medians (derived from each run's recorded MAD and rep
//! count), floored at `--drift-floor` percent of the old median
//! (default 15, covering between-run machine drift the within-run MADs
//! cannot see) — or when the deterministic modeled GPU time is more
//! than `--modeled-threshold` percent slower (default 2). Exits
//! non-zero on regression unless `--soft` (warn-only, for
//! cross-machine CI runs).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dasp_bench::suite_matrices;
use dasp_cli::{out, outln};
use dasp_observatory::suite::{device_by_name, render_suite_table};
use dasp_observatory::{
    diff_snapshots, next_seq, render_interp_table, run_interp_bench, run_suite, snapshot_path,
    BenchSnapshot, DiffConfig, SuiteConfig,
};
use dasp_simt::Executor;
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
    let mut out: Option<PathBuf> = None;
    let mut quick = false;
    let mut reps = 5usize;
    let mut device = "a100".to_string();
    let mut executor: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut spmm = true;
    let mut top = 10usize;
    let mut interp = true;
    let mut flamegraph: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage("--out requires a path"),
            },
            "--quick" => quick = true,
            "--reps" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => reps = n,
                _ => return usage("--reps requires a positive integer"),
            },
            "--device" => match args.next() {
                Some(d) if device_by_name(&d).is_some() => device = d,
                _ => return usage("--device requires a100 or h800"),
            },
            "--executor" => match args.next() {
                Some(e) if e == "seq" || e == "par" => executor = Some(e),
                _ => return usage("--executor requires seq or par"),
            },
            "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => threads = Some(n),
                _ => return usage("--threads requires a positive integer"),
            },
            "--no-spmm" => spmm = false,
            "--no-interp" => interp = false,
            "--top" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => top = n,
                _ => return usage("--top requires an integer"),
            },
            "--flamegraph" => match args.next() {
                Some(p) => flamegraph = Some(PathBuf::from(p)),
                None => return usage("--flamegraph requires a path"),
            },
            "--trace" => match args.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => return usage("--trace requires a path"),
            },
            other => return usage(&format!("unknown record flag {other:?}")),
        }
    }

    let exec = match executor.as_deref() {
        Some("par") => Executor::par_with_threads(threads),
        Some(_) => Executor::seq(),
        None => Executor::from_env(),
    };
    // `--out` names the file directly (CI candidates); otherwise the next
    // free slot in the trajectory. The stamped seq comes from the file
    // name when it follows the BENCH_<n>.json pattern, else from the
    // directory scan, so a CI candidate still says what it would be.
    let cwd = PathBuf::from(".");
    let path = out.unwrap_or_else(|| snapshot_path(&cwd, next_seq(&cwd)));
    let seq = seq_of(&path).unwrap_or_else(|| next_seq(path.parent().unwrap_or(&cwd)));

    let cfg = SuiteConfig {
        reps,
        device,
        executor: exec,
        quick,
        spmm_widths: if spmm {
            vec![1, 8, 32, 128]
        } else {
            Vec::new()
        },
        seq,
        progress: true,
    };
    eprintln!(
        "recording suite: profile={} reps={} device={} executor={}",
        if quick { "quick" } else { "full" },
        reps,
        cfg.device,
        exec.name()
    );
    let outcome = run_suite(&cfg, &suite_matrices(quick));

    if let Err(e) = std::fs::write(&path, outcome.snapshot.to_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if let Some(p) = &flamegraph {
        if let Err(e) = std::fs::write(p, outcome.calltree.collapsed_stacks()) {
            eprintln!("cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(p) = &trace_out {
        if let Err(e) = std::fs::write(p, chrome_trace_json(&outcome.trace)) {
            eprintln!("cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }

    out!("{}", render_suite_table(&outcome.snapshot));
    if top > 0 {
        outln!("\nhot regions (exclusive time, traced runs):");
        out!("{}", outcome.calltree.render_hot_table(top));
        if interp {
            // The "interpreter overhead" row: probe-hook share of the
            // instrumented wall per kernel, so regressions in the batched
            // probe discipline show up by name right under the hot table.
            eprintln!("running interpreter-throughput microbench...");
            let records = run_interp_bench(reps.min(15));
            out!("{}", render_interp_table(&records));
        }
    }
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
    let mut cfg = DiffConfig::default();
    let mut json_out: Option<PathBuf> = None;
    let mut soft = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if p > 0.0 => cfg.wall_threshold = p / 100.0,
                _ => return usage("--threshold requires a positive percent"),
            },
            "--mad-factor" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f >= 0.0 => cfg.mad_factor = f,
                _ => return usage("--mad-factor requires a non-negative number"),
            },
            "--drift-floor" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if p >= 0.0 => cfg.drift_floor = p / 100.0,
                _ => return usage("--drift-floor requires a non-negative percent"),
            },
            "--modeled-threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if p > 0.0 => cfg.modeled_threshold = p / 100.0,
                _ => return usage("--modeled-threshold requires a positive percent"),
            },
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json requires a path"),
            },
            "--soft" => soft = true,
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
    let (old, new) = (&snaps[0], &snaps[1]);
    if old.profile != new.profile {
        eprintln!(
            "warning: comparing profile {:?} against {:?} — wall medians are not commensurate",
            old.profile, new.profile
        );
    }

    let report = diff_snapshots(old, new, cfg);
    out!("{}", report.render_table());
    if let Some(p) = &json_out {
        if let Err(e) = std::fs::write(p, report.to_json()) {
            eprintln!("cannot write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if report.has_regression() && soft {
        eprintln!("(soft mode: regressions reported but exit stays zero)");
    }
    if report.has_regression() && !soft {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("dasp-bench: {msg}");
    ExitCode::FAILURE
}

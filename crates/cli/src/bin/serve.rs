//! `dasp-serve` — run the serving layer under a closed-loop load and
//! report latency, coalescing, and modeled-throughput numbers.
//!
//! Usage:
//!
//! ```text
//! dasp-serve [--matrix banded|rmat|stencil] [--clients N] [--requests N]
//!            [--workers N] [--max-batch N]
//!            [--executor seq|par] [--no-coalesce] [--profile] [--metrics]
//! ```
//!
//! Builds the chosen matrix, registers it with a freshly started server
//! (A100 device model attached, so every batch records its modeled GPU
//! time), runs `--clients` concurrent closed-loop clients issuing
//! `--requests` SpMV requests each — every reply verified bit-identical
//! to a direct solo `spmv` — and prints the distilled load report plus
//! the flush-cause breakdown. `--profile` additionally records worker
//! traces and prints the hot-span table; `--metrics` dumps the full
//! registry. `DASP_SANITIZE=1` (or `=report`) canaries every served
//! kernel through the compute sanitizer, unchanged.

use std::process::ExitCode;

use dasp_cli::outln;
use dasp_core::DaspMatrix;
use dasp_observatory::CallTree;
use dasp_perf::a100;
use dasp_serve::{metrics, run_closed_loop, ClientSpec, LoadSpec, ServeConfig, Server};
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::Csr;
use dasp_trace::MetricValue;

struct Opts {
    matrix: String,
    clients: usize,
    requests: usize,
    workers: usize,
    max_batch: usize,
    coalesce: bool,
    executor: Executor,
    executor_label: String,
    profile: bool,
    metrics: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        matrix: "banded".to_string(),
        clients: 16,
        requests: 32,
        workers: 2,
        max_batch: 8,
        coalesce: true,
        executor: Executor::from_env(),
        executor_label: "env".to_string(),
        profile: false,
        metrics: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--matrix" => o.matrix = value("--matrix")?,
            "--clients" => o.clients = parse_num(&value("--clients")?, "--clients")?,
            "--requests" => o.requests = parse_num(&value("--requests")?, "--requests")?,
            "--workers" => o.workers = parse_num(&value("--workers")?, "--workers")?,
            "--max-batch" => o.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?,
            "--no-coalesce" => o.coalesce = false,
            "--executor" => {
                let v = value("--executor")?;
                o.executor = match v.as_str() {
                    "seq" => Executor::seq(),
                    "par" => Executor::par(),
                    other => return Err(format!("unknown executor '{other}' (seq|par)")),
                };
                o.executor_label = v;
            }
            "--profile" => o.profile = true,
            "--metrics" => o.metrics = true,
            "--help" | "-h" => {
                outln!(
                    "usage: dasp-serve [--matrix banded|rmat|stencil] [--clients N] \
                     [--requests N] [--workers N] [--max-batch N] \
                     [--executor seq|par] [--no-coalesce] [--profile] [--metrics]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(o)
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("{flag} expects a number, got '{s}'"))
        .and_then(|n| {
            if n == 0 {
                Err(format!("{flag} must be positive"))
            } else {
                Ok(n)
            }
        })
}

fn build_matrix(kind: &str) -> Result<(String, Csr<f64>), String> {
    match kind {
        "banded" => Ok(("banded_4096".into(), dasp_matgen::banded(4096, 8, 12, 5))),
        "rmat" => Ok(("rmat_10_8".into(), dasp_matgen::rmat(10, 8, 17))),
        "stencil" => Ok(("stencil2d_64".into(), dasp_matgen::stencil2d(64, 64, 5, 3))),
        other => Err(format!("unknown matrix '{other}' (banded|rmat|stencil)")),
    }
}

fn main() -> ExitCode {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (name, csr) = match build_matrix(&o.matrix) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let d = DaspMatrix::from_csr(&csr);
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|j| dasp_matgen::dense_vector(csr.cols, j))
        .collect();
    let expected: Vec<Vec<f64>> = xs.iter().map(|x| d.spmv(x, &mut NoProbe)).collect();

    let server = Server::<f64>::start(ServeConfig {
        workers: o.workers,
        max_batch: o.max_batch,
        coalesce: o.coalesce,
        executor: o.executor,
        model: Some(a100()),
        traced: o.profile,
        ..ServeConfig::default()
    });
    let info = match server.register(&name, &csr) {
        Ok(info) => info,
        Err(e) => {
            eprintln!("cannot register {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    outln!(
        "serving {name}: {}x{}, {} nnz | {} workers, max batch {}, coalesce {}, \
         executor {}",
        info.rows,
        info.cols,
        info.nnz,
        o.workers,
        o.max_batch,
        o.coalesce,
        o.executor_label,
    );

    let clients: Vec<ClientSpec<f64>> = (0..o.clients)
        .map(|c| ClientSpec {
            tenant: format!("tenant-{c}"),
            matrix: name.clone(),
            xs: xs.clone(),
            expected: Some(expected.clone()),
        })
        .collect();
    let report = run_closed_loop(
        &server,
        &clients,
        LoadSpec {
            requests_per_client: o.requests,
        },
    );

    outln!(
        "{} requests in {:.1} ms wall | p50 {:.0} us, p99 {:.0} us | \
         {} batches, mean width {:.2}",
        report.requests,
        report.wall_seconds * 1e3,
        report.p50_latency_us,
        report.p99_latency_us,
        report.batches,
        report.mean_batch_width,
    );
    outln!(
        "modeled A100 busy {:.3} ms -> {:.0} requests per modeled GPU second",
        report.modeled_busy_seconds * 1e3,
        report.modeled_throughput_rps,
    );

    let final_report = server.shutdown();
    let reg = &final_report.registry;
    let flush = |n: &str| reg.counter(n).unwrap_or(0);
    outln!(
        "flush causes: full {}, window {}, barrier {}, drain {}, solo {}",
        flush(metrics::FLUSH_FULL),
        flush(metrics::FLUSH_WINDOW),
        flush(metrics::FLUSH_BARRIER),
        flush(metrics::FLUSH_DRAIN),
        flush(metrics::FLUSH_SOLO),
    );
    outln!(
        "plan cache: {:.0} hits, {:.0} misses, {:.0} evictions",
        reg.gauge("format.plan_cache.hits").unwrap_or(0.0),
        reg.gauge("format.plan_cache.misses").unwrap_or(0.0),
        reg.gauge("format.plan_cache.evictions").unwrap_or(0.0),
    );
    if dasp_sanitize::enabled() {
        outln!("sanitize: {}", dasp_sanitize::global_report());
    }

    if o.profile {
        let mut tree: Option<CallTree> = None;
        for t in &final_report.traces {
            match &mut tree {
                None => tree = Some(CallTree::from_trace(t)),
                Some(tree) => tree.add_trace(t),
            }
        }
        if let Some(tree) = tree {
            outln!(
                "\nhot spans across {} worker traces:",
                final_report.traces.len()
            );
            outln!("{}", tree.render_hot_table(12));
        }
    }
    if o.metrics {
        outln!("\nregistry:");
        for (k, v) in reg.snapshot() {
            match v {
                MetricValue::Counter(c) => outln!("  {k} = {c}"),
                MetricValue::Gauge(g) => outln!("  {k} = {g}"),
                MetricValue::Histogram(h) => outln!(
                    "  {k}: n={} mean={:.2} p50={:.2} p99={:.2} max={:.2}",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max
                ),
            }
        }
    }

    if report.mismatches > 0 || report.failures > 0 {
        eprintln!(
            "FAIL: {} mismatches, {} failures",
            report.mismatches, report.failures
        );
        return ExitCode::FAILURE;
    }
    outln!("all replies bit-identical to direct spmv");
    ExitCode::SUCCESS
}

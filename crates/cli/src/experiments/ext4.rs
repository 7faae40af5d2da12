//! Extension experiment 4 (beyond the paper): the serving layer's
//! latency/throughput trade under multi-tenant load.
//!
//! `dasp-serve` coalesces concurrent single-vector SpMV requests against
//! the same resident matrix into panel-width batches routed through the
//! tiled SpMM sweep, which streams A's values and indices once for the
//! whole batch (the width-8 A+index amortization measured in `ext2`/
//! `ext3`). This experiment quantifies what that buys a *service*: for
//! each matrix, executor and offered load (closed-loop client count),
//! the same workload runs with coalescing on and off and reports
//!
//! * end-to-end p50/p99 latency (wall clock; a coalesced request also
//!   waits out the job running ahead of it),
//! * mean coalesced batch width,
//! * modeled A100 GPU busy time and **modeled throughput**
//!   (requests per modeled GPU second — the device-side capacity the
//!   coalescer frees up).
//!
//! Every reply is verified bit-identical to a direct solo `spmv` of the
//! same request; a single mismatch fails the run. The headline is the
//! coalescing-on over coalescing-off modeled-throughput ratio at the
//! highest client count: the acceptance floor is a **1.5× geomean** at
//! saturating load. At one client the ratio is ~1: the dispatcher is
//! work-conserving, so a lone request runs at once at width 1, with
//! nothing to merge and no window to wait out.

use dasp_core::DaspMatrix;
use dasp_perf::{a100, geomean};
use dasp_serve::{run_closed_loop, ClientSpec, LoadSpec, ServeConfig, Server};
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::Csr;

/// Closed-loop client counts swept (offered load).
pub const CLIENT_COUNTS: [usize; 4] = [1, 4, 16, 32];

/// Requests each client issues per cell.
pub const REQUESTS_PER_CLIENT: usize = 16;

/// One (matrix, executor, coalesce, clients) measurement cell.
pub struct Row {
    /// Matrix name.
    pub name: String,
    /// Rows of the matrix.
    pub rows: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Executor label (`seq` / `par`).
    pub executor: &'static str,
    /// Whether SpMV coalescing was enabled.
    pub coalesce: bool,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Completed requests.
    pub requests: usize,
    /// Replies that were not bit-identical to direct SpMV (must be 0).
    pub mismatches: usize,
    /// Median end-to-end latency, microseconds (wall clock).
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: f64,
    /// Mean coalesced batch width.
    pub mean_batch_width: f64,
    /// Dispatched batches.
    pub batches: usize,
    /// Modeled A100 busy time, milliseconds.
    pub modeled_busy_ms: f64,
    /// Requests per modeled GPU second.
    pub modeled_throughput_rps: f64,
}

/// Per (executor, clients) geomean of the coalescing-on over
/// coalescing-off modeled-throughput ratio across matrices.
pub struct Summary {
    /// Executor label.
    pub executor: &'static str,
    /// Concurrent clients.
    pub clients: usize,
    /// Geomean modeled-throughput speedup from coalescing.
    pub speedup: f64,
}

/// The experiment result.
pub struct Ext4 {
    /// One row per measurement cell.
    pub rows: Vec<Row>,
    /// Per-load coalescing speedups.
    pub summaries: Vec<Summary>,
    /// Total bit-identity mismatches across all cells (must be 0).
    pub mismatches: usize,
}

fn suite() -> Vec<(String, Csr<f64>)> {
    vec![
        (
            "banded_2048".to_string(),
            dasp_matgen::banded(2048, 8, 12, 5),
        ),
        ("rmat_9_8".to_string(), dasp_matgen::rmat(9, 8, 17)),
        (
            "stencil2d_48".to_string(),
            dasp_matgen::stencil2d(48, 48, 5, 3),
        ),
    ]
}

fn run_cell(
    name: &str,
    csr: &Csr<f64>,
    expected: &[Vec<f64>],
    xs: &[Vec<f64>],
    executor: (&'static str, Executor),
    coalesce: bool,
    clients: usize,
) -> Row {
    // A fresh server per cell: the load report reads cumulative registry
    // state, so each configuration gets its own registry.
    let server = Server::<f64>::start(ServeConfig {
        workers: 2,
        coalesce,
        executor: executor.1,
        model: Some(a100()),
        ..ServeConfig::default()
    });
    server
        .register("m", csr)
        .expect("suite matrices are well-formed");
    let specs: Vec<ClientSpec<f64>> = (0..clients)
        .map(|c| ClientSpec {
            tenant: format!("tenant-{c}"),
            matrix: "m".to_string(),
            xs: xs.to_vec(),
            expected: Some(expected.to_vec()),
        })
        .collect();
    let report = run_closed_loop(
        &server,
        &specs,
        LoadSpec {
            requests_per_client: REQUESTS_PER_CLIENT,
        },
    );
    server.shutdown();
    Row {
        name: name.to_string(),
        rows: csr.rows,
        nnz: csr.vals.len(),
        executor: executor.0,
        coalesce,
        clients,
        requests: report.requests,
        mismatches: report.mismatches + report.failures,
        p50_us: report.p50_latency_us,
        p99_us: report.p99_latency_us,
        mean_batch_width: report.mean_batch_width,
        batches: report.batches,
        modeled_busy_ms: report.modeled_busy_seconds * 1e3,
        modeled_throughput_rps: report.modeled_throughput_rps,
    }
}

/// Runs the sweep.
pub fn run() -> Ext4 {
    let executors = [("seq", Executor::seq()), ("par", Executor::par())];
    let mut rows = Vec::new();
    for (name, csr) in suite() {
        let d = DaspMatrix::from_csr(&csr);
        let xs: Vec<Vec<f64>> = (0..8)
            .map(|j| dasp_matgen::dense_vector(csr.cols, 90 + j))
            .collect();
        let expected: Vec<Vec<f64>> = xs.iter().map(|x| d.spmv(x, &mut NoProbe)).collect();
        for &(label, exec) in &executors {
            for &clients in &CLIENT_COUNTS {
                for coalesce in [true, false] {
                    rows.push(run_cell(
                        &name,
                        &csr,
                        &expected,
                        &xs,
                        (label, exec),
                        coalesce,
                        clients,
                    ));
                }
            }
        }
    }

    let mut summaries = Vec::new();
    for &(label, _) in &executors {
        for &clients in &CLIENT_COUNTS {
            let ratios: Vec<f64> = suite()
                .iter()
                .map(|(name, _)| {
                    let find = |on: bool| {
                        rows.iter()
                            .find(|r| {
                                r.name == *name
                                    && r.executor == label
                                    && r.clients == clients
                                    && r.coalesce == on
                            })
                            .expect("cell present")
                            .modeled_throughput_rps
                    };
                    find(true) / find(false)
                })
                .collect();
            summaries.push(Summary {
                executor: label,
                clients,
                speedup: geomean(&ratios).unwrap_or(0.0),
            });
        }
    }
    let mismatches = rows.iter().map(|r| r.mismatches).sum();
    Ext4 {
        rows,
        summaries,
        mismatches,
    }
}

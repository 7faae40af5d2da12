//! The benchmark suite runner behind `dasp-bench record`.
//!
//! One suite run sweeps the workload grid once, traced — every matrix ×
//! all ten SpMV methods, plus the SpMM widths for DASP and the scalar
//! reference — and produces a [`BenchSnapshot`] alongside a [`CallTree`]
//! profile and the raw [`Trace`].
//!
//! The run is pinned to the A100 model and to the sequential executor,
//! whatever `DASP_EXECUTOR` says. The parallel executor shards the
//! x-cache, which moves hit counts and with them the modeled time, so
//! only a sequential record can reproduce the golden file exactly.

use dasp_core::DaspParams;
use dasp_matgen::dense_vector;
use dasp_perf::{a100, measure_spmm_traced_with, measure_traced_with, Estimate, MethodKind};
use dasp_simt::{Executor, KernelStats};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::{Trace, Tracer};

use crate::calltree::CallTree;
use crate::snapshot::{git_rev, BenchSnapshot, Modeled, OpsCounters, TrafficCounters, Workload};

/// SpMM right-hand-side widths; the wide ones exercise the A-resident
/// panel sweep.
const SPMM_WIDTHS: [usize; 4] = [1, 8, 32, 128];

/// Everything one suite run produces.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// The snapshot, ready to serialize.
    pub snapshot: BenchSnapshot,
    /// Call-tree profile aggregated over every workload run.
    pub calltree: CallTree,
    /// The raw span trace (for Chrome-trace export).
    pub trace: Trace,
}

/// Runs the suite over `matrices` (name, matrix) pairs — use
/// [`dasp_bench::suite_matrices`] for the standard set — and returns the
/// snapshot, stamped with sequence number `seq`, plus the profile.
///
/// [`dasp_bench::suite_matrices`]: fn@dasp_bench::suite_matrices
pub fn run_suite(seq: u64, matrices: &[(&str, Csr<f64>)]) -> SuiteOutcome {
    let (dev, exec, tracer) = (a100(), Executor::seq(), Tracer::new());
    let mut workloads = Vec::new();
    for (mat_name, csr) in matrices {
        let nnz = csr.nnz() as u64;
        let x = dense_vector(csr.cols, 42);
        for method in MethodKind::all() {
            let m = measure_traced_with(method, csr, &x, &dev, &tracer, &exec);
            let id = format!("spmv/{mat_name}/{}", method.name());
            workloads.push(workload(id, nnz, &m.estimate, m.gflops, &m.stats));
        }
        for width in SPMM_WIDTHS {
            let cols: Vec<Vec<f64>> = (0..width)
                .map(|j| dense_vector(csr.cols, 50 + j as u64))
                .collect();
            let b = DenseMat::from_columns(&cols);
            for method in [MethodKind::Dasp, MethodKind::CsrScalar] {
                let p = DaspParams::default();
                let m = measure_spmm_traced_with(method, csr, &b, p, &dev, &tracer, &exec);
                let id = format!("spmm/{mat_name}/{}/rhs{width}", method.name());
                workloads.push(workload(id, nnz, &m.estimate, m.gflops, &m.stats));
            }
        }
    }
    workloads.sort_by(|a, b| a.id.cmp(&b.id));
    let trace = tracer.take_trace();
    SuiteOutcome {
        snapshot: BenchSnapshot {
            seq,
            git_rev: git_rev(),
            device: dev.name.to_ascii_lowercase(),
            workloads,
        },
        calltree: CallTree::from_trace(&trace),
        trace,
    }
}

fn workload(id: String, nnz: u64, est: &Estimate, gflops: f64, s: &KernelStats) -> Workload {
    let (random_share, compute_share, misc_share) = est.shares();
    Workload {
        id,
        nnz,
        modeled: Modeled {
            us: est.seconds * 1e6,
            random_share,
            compute_share,
            misc_share,
            gflops,
        },
        traffic: TrafficCounters {
            dram_bytes: s.dram_bytes(),
            bytes_val: s.bytes_val,
            bytes_idx: s.bytes_idx,
            x_requests: s.x_requests,
            x_hits: s.x_hits,
        },
        ops: OpsCounters {
            mma_ops: s.mma_ops,
            fma_ops: s.fma_ops,
            launches: s.launches,
        },
    }
}

/// Renders the human summary table of a snapshot: modeled time,
/// throughput, and the three attribution shares.
pub fn render_suite_table(snap: &BenchSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34}  {:>9}  {:>8}  {:>5} {:>5} {:>5}\n",
        "workload", "model_us", "gflops", "rnd%", "cmp%", "msc%"
    ));
    for w in &snap.workloads {
        out.push_str(&format!(
            "{:<34}  {:>9.2}  {:>8.2}  {:>4.0}% {:>4.0}% {:>4.0}%\n",
            w.id,
            w.modeled.us,
            w.modeled.gflops,
            100.0 * w.modeled.random_share,
            100.0 * w.modeled.compute_share,
            100.0 * w.modeled.misc_share,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_snapshots;

    #[test]
    fn tiny_suite_produces_a_valid_sorted_snapshot() {
        let out = run_suite(1, &[("banded", dasp_matgen::banded(200, 8, 6, 11))]);
        let snap = &out.snapshot;
        // 10 SpMV methods + 2 SpMM methods at each of the 4 widths.
        assert_eq!(snap.workloads.len(), 18);
        assert!(snap.workloads.windows(2).all(|p| p[0].id < p[1].id));
        assert_eq!(snap.device, "a100");
        for w in &snap.workloads {
            assert!(w.modeled.us > 0.0, "{}", w.id);
            assert!(w.traffic.dram_bytes > 0, "{}", w.id);
            let share_sum = w.modeled.random_share + w.modeled.compute_share + w.modeled.misc_share;
            assert!((share_sum - 1.0).abs() < 1e-9, "{}: {share_sum}", w.id);
        }
        assert!(snap.workload("spmv/banded/dasp").is_some());
        assert!(snap.workload("spmm/banded/dasp/rhs128").is_some());

        // The snapshot serializes to valid JSON and round-trips.
        let json = snap.to_json();
        assert!(dasp_trace::validate_json(&json).is_ok());
        let back = BenchSnapshot::from_json(&json).unwrap();
        assert_eq!(back.workloads.len(), 18);

        // The traced runs produced a non-trivial profile with the DASP
        // kernel spans in it.
        assert!(!out.calltree.is_empty());
        assert!(out
            .calltree
            .nodes()
            .any(|n| n.name().starts_with("spmv.kernel.")));
        assert!(!out.trace.is_empty());
        assert!(out.trace.check_balanced().is_ok());

        let table = render_suite_table(snap);
        for w in &snap.workloads {
            assert!(table.contains(&w.id), "table missing {}", w.id);
        }
    }

    /// The golden-file contract: a fresh record equals the committed
    /// trajectory head field for field, under every executor and
    /// sanitizer setting the environment may carry.
    #[test]
    fn committed_head_matches_a_fresh_record() {
        let head = BenchSnapshot::from_json(include_str!("../../../BENCH_0003.json")).unwrap();
        let fresh = run_suite(4, &dasp_bench::suite_matrices()).snapshot;
        let report = diff_snapshots(&head, &fresh);
        assert!(report.passes(), "{}", report.render_table());
    }
}

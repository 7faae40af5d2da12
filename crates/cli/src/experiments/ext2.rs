//! Extension experiment 2 (beyond the paper): multi-RHS SpMM vs looped
//! SpMV — measuring the A-traffic amortization the `dasp_core::spmm`
//! kernels buy by filling all 8 MMA B-columns.
//!
//! For every corpus matrix, at every precision (FP64/FP32/FP16) and batch
//! width in {1, 2, 4, 8}, two measurements of the same product `Y = A B`:
//!
//! * **looped** — one full single-vector SpMV per column; A values and
//!   column indices re-stream once per right-hand side;
//! * **spmm** — one panel sweep; A streams once per 8 columns.
//!
//! Reported per (matrix, precision, width): A+index bytes per right-hand
//! side on both paths and the roofline-estimate speedup. The A-side bytes
//! per RHS must **strictly decrease** as the width grows 1 → 8 (the
//! tentpole's acceptance invariant, enforced here at run time), while the
//! end-to-end speedup approaches — but does not reach — 8x, because the
//! B-side gathers, the `y` stores, and the MMA issues scale with the
//! width and only the A stream amortizes.

use dasp_core::DaspParams;
use dasp_fp16::{Scalar, F16};
use dasp_matgen::{dense_vector, NamedMatrix};
use dasp_perf::{
    a100, geomean, measure_looped_spmv_with, measure_spmm_traced_with, DeviceModel, MethodKind,
};
use dasp_simt::Executor;
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::Tracer;

use crate::experiments::common::full_corpus;

/// The widths swept: 1 (degenerate panel), 2, 4, and the full 8-column
/// MMA B fragment.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One (matrix, precision, width) comparison.
pub struct Row {
    /// Matrix name.
    pub name: String,
    /// Nonzeros.
    pub nnz: usize,
    /// Precision label (`fp64` / `fp32` / `fp16`).
    pub precision: &'static str,
    /// Batch width (columns of B).
    pub rhs_width: usize,
    /// SpMM A+index bytes divided by the width.
    pub spmm_a_idx_per_rhs: f64,
    /// Looped-SpMV A+index bytes divided by the width (constant in the
    /// width: every column pays the full stream).
    pub looped_a_idx_per_rhs: f64,
    /// SpMM throughput (GFlops, `2 nnz width / t`).
    pub spmm_gflops: f64,
    /// Looped-SpMV throughput.
    pub looped_gflops: f64,
    /// Roofline-estimate speedup of SpMM over the loop.
    pub speedup: f64,
}

/// Corpus-wide geometric means at the full panel width, per precision.
pub struct Summary {
    /// Precision label.
    pub precision: &'static str,
    /// Geomean SpMM-over-looped speedup at width 8.
    pub speedup_w8: f64,
    /// Geomean A+index amortization factor at width 8
    /// (`looped_a_idx_per_rhs / spmm_a_idx_per_rhs`, exactly 8 by
    /// construction — reported as a self-check).
    pub amortization_w8: f64,
}

/// The experiment result.
pub struct Ext2 {
    /// One row per (matrix, precision, width), corpus order.
    pub rows: Vec<Row>,
    /// Per-precision geomeans at width 8.
    pub summaries: Vec<Summary>,
}

fn sweep<S: Scalar>(
    named: &NamedMatrix,
    precision: &'static str,
    dev: &DeviceModel,
    exec: &Executor,
    rows: &mut Vec<Row>,
) {
    let csr: Csr<S> = named.matrix.cast();
    let columns: Vec<Vec<S>> = (0..*WIDTHS.last().expect("non-empty"))
        .map(|j| {
            dense_vector(csr.cols, 42 + j as u64)
                .iter()
                .map(|&v| S::from_f64(v))
                .collect()
        })
        .collect();
    let mut last_per_rhs = f64::INFINITY;
    for &width in &WIDTHS {
        let b = DenseMat::from_columns(&columns[..width]);
        let spmm = measure_spmm_traced_with(
            MethodKind::Dasp,
            &csr,
            &b,
            DaspParams::default(),
            dev,
            &Tracer::disabled(),
            exec,
        );
        let looped = measure_looped_spmv_with(MethodKind::Dasp, &csr, &b, dev, exec);
        assert_eq!(
            spmm.y, looped.y,
            "{precision} {} width {width}: SpMM columns must be bit-identical to looped SpMV",
            named.name
        );
        assert!(
            spmm.a_idx_bytes_per_rhs < last_per_rhs,
            "{precision} {} width {width}: A+idx bytes per RHS must strictly decrease \
             ({} after {last_per_rhs})",
            named.name,
            spmm.a_idx_bytes_per_rhs
        );
        last_per_rhs = spmm.a_idx_bytes_per_rhs;
        rows.push(Row {
            name: named.name.clone(),
            nnz: csr.nnz(),
            precision,
            rhs_width: width,
            spmm_a_idx_per_rhs: spmm.a_idx_bytes_per_rhs,
            looped_a_idx_per_rhs: looped.a_idx_bytes_per_rhs,
            spmm_gflops: spmm.gflops,
            looped_gflops: looped.gflops,
            speedup: looped.estimate.seconds / spmm.estimate.seconds,
        });
    }
}

/// Runs the experiment.
pub fn run() -> Ext2 {
    let dev = a100();
    // Sequential executor: the x-cache hit/miss split (and thus the
    // roofline estimate) is exact, as for the paper figures.
    let exec = Executor::seq();
    let mut rows = Vec::new();
    for named in full_corpus() {
        sweep::<f64>(&named, "fp64", &dev, &exec, &mut rows);
        sweep::<f32>(&named, "fp32", &dev, &exec, &mut rows);
        sweep::<F16>(&named, "fp16", &dev, &exec, &mut rows);
    }
    let summaries = ["fp64", "fp32", "fp16"]
        .iter()
        .map(|&precision| {
            let w8: Vec<&Row> = rows
                .iter()
                .filter(|r| r.precision == precision && r.rhs_width == 8)
                .collect();
            let speedups: Vec<f64> = w8.iter().map(|r| r.speedup).collect();
            let amort: Vec<f64> = w8
                .iter()
                .map(|r| r.looped_a_idx_per_rhs / r.spmm_a_idx_per_rhs)
                .collect();
            Summary {
                precision,
                speedup_w8: geomean(&speedups).unwrap_or(1.0),
                amortization_w8: geomean(&amort).unwrap_or(1.0),
            }
        })
        .collect();
    Ext2 { rows, summaries }
}

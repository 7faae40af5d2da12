//! Mixed-precision iterative refinement with FP16 DASP SpMV.
//!
//! The paper's FP16 experiments (Fig. 9) and its citation of Haidar et
//! al. [40] point at the same use: run the expensive SpMV on the fast
//! half-precision tensor cores, recover full accuracy by computing
//! residuals in FP64. This example solves a diagonally dominant system
//! with damped Jacobi where the inner `A * x` runs through the **FP16**
//! DASP kernels, while the outer defect correction runs in FP64 — and
//! compares the iteration count and final accuracy against the pure-FP64
//! version of the same scheme.
//!
//! ```text
//! cargo run --release --example mixed_precision
//! ```

use dasp_repro::dasp::DaspMatrix;
use dasp_repro::fp16::F16;
use dasp_repro::matgen;
use dasp_repro::perf::{a100, estimate, measure, MethodKind, Precision};
use dasp_repro::simt::{CountingProbe, Executor, NoProbe};
use dasp_repro::sparse::{Coo, Csr};

/// A strictly diagonally dominant system (Jacobi converges).
fn dominant_system(n: usize) -> Csr<f64> {
    let base = matgen::banded(n, 12, 8, 77);
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        let mut offdiag = 0.0;
        for (c, v) in base.row(i) {
            if c as usize != i {
                coo.push(i, c as usize, v * 0.1);
                offdiag += (v * 0.1).abs();
            }
        }
        coo.push(i, i, offdiag + 1.0);
    }
    coo.to_csr()
}

/// Damped-Jacobi defect correction: `x += omega * D^{-1} (b - A x)`, with
/// the `A x` product supplied by `apply`.
fn jacobi_refine(
    a_exact: &Csr<f64>,
    b: &[f64],
    apply: &dyn Fn(&[f64]) -> Vec<f64>,
    tol: f64,
    max_iters: usize,
) -> (Vec<f64>, usize, f64) {
    let n = a_exact.rows;
    let inv_diag: Vec<f64> = a_exact.diag().iter().map(|d| 1.0 / d).collect();
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let omega = 0.9;
    let mut x = vec![0.0; n];
    for k in 1..=max_iters {
        let ax = apply(&x);
        let mut rel = 0.0;
        for i in 0..n {
            let r = b[i] - ax[i];
            rel += r * r;
            x[i] += omega * inv_diag[i] * r;
        }
        let rel = rel.sqrt() / b_norm;
        if rel <= tol {
            return (x, k, rel);
        }
    }
    (x, max_iters, f64::NAN)
}

fn main() {
    let n = 20_000;
    let a = dominant_system(n);
    println!(
        "A: {} x {}, {} nonzeros, diagonally dominant",
        a.rows,
        a.cols,
        a.nnz()
    );

    let truth: Vec<f64> = (0..n).map(|i| ((i % 23) as f64 - 11.0) * 0.05).collect();
    let b = a.spmv_reference(&truth);

    // FP64 path.
    let d64 = DaspMatrix::from_csr(&a);
    let par = Executor::par();
    let apply64 = |x: &[f64]| d64.spmv_with(x, &mut NoProbe, &par);
    let (x64, it64, res64) = jacobi_refine(&a, &b, &apply64, 1e-12, 500);

    // Mixed path: the matrix lives in FP16; residual/update stay FP64.
    let a16: Csr<F16> = a.cast();
    let d16 = DaspMatrix::from_csr(&a16);
    let apply16 = |x: &[f64]| -> Vec<f64> {
        let xh: Vec<F16> = x.iter().map(|&v| F16::from_f64(v)).collect();
        d16.spmv(&xh, &mut NoProbe)
            .iter()
            .map(|v| v.to_f64())
            .collect()
    };
    // FP16 storage limits the achievable residual: the matrix itself is
    // rounded, so refine to the rounding floor rather than 1e-12.
    let (x16, it16, res16) = jacobi_refine(&a, &b, &apply16, 5e-4, 500);

    let err = |x: &[f64]| {
        x.iter()
            .zip(&truth)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max)
    };
    println!(
        "fp64  refinement: {it64:3} iterations, rel residual {res64:.2e}, max error {:.2e}",
        err(&x64)
    );
    println!(
        "fp16  refinement: {it16:3} iterations, rel residual {res16:.2e}, max error {:.2e}",
        err(&x16)
    );

    // What does the precision switch buy on the modeled A100?
    let dev = a100();
    let x = matgen::dense_vector(n, 9);
    let m64 = measure(MethodKind::Dasp, &a, &x, &dev);
    let xh: Vec<F16> = x.iter().map(|&v| F16::from_f64(v)).collect();
    let mut probe = CountingProbe::new(dev.l2_cache());
    let _ = d16.spmv(&xh, &mut probe);
    let e16 = estimate(&probe.stats(), &dev, Precision::Fp16);
    println!(
        "modeled A100 SpMV: fp64 {:.2} us vs fp16 {:.2} us ({:.2}x faster per iteration)",
        m64.estimate.seconds * 1e6,
        e16.seconds * 1e6,
        m64.estimate.seconds / e16.seconds
    );
    println!(
        "=> mixed precision trades a ~{:.1}x cheaper inner product for a {:.0e} accuracy floor;",
        m64.estimate.seconds / e16.seconds,
        res16
    );
    println!("   full FP64 refinement recovers {res64:.0e}.");
    assert!(err(&x64) < 1e-9);
    assert!(err(&x16) < 5e-2);
}

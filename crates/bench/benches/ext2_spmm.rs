//! Extension 2 bench: multi-RHS SpMM vs looped single-vector SpMV —
//! real wall-clock time of the simulated kernels at widths 1/2/4/8, plus
//! the modeled-A100 roofline comparison at the full panel width. The
//! wall-clock ratios track the A-amortization loosely (the simulator is
//! compute-bound, not DRAM-bound), so the roofline numbers are the
//! headline; the wall-clock sweep guards against the SpMM path regressing
//! to worse-than-looped on the host too.

use criterion::{criterion_group, criterion_main, Criterion};
use dasp_core::{DaspMatrix, DaspParams};
use dasp_matgen::{banded, dense_vector, rmat};
use dasp_perf::{a100, measure_looped_spmv_with, measure_spmm_traced_with, MethodKind};
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::{Csr, DenseMat};
use dasp_trace::Tracer;

fn rhs(csr: &Csr<f64>, width: usize) -> DenseMat<f64> {
    let columns: Vec<Vec<f64>> = (0..width)
        .map(|j| dense_vector(csr.cols, 42 + j as u64))
        .collect();
    DenseMat::from_columns(&columns)
}

fn bench(c: &mut Criterion) {
    let matrices = [
        ("banded", banded(20_000, 32, 24, 7)),
        ("rmat", rmat(13, 8, 11)),
    ];
    let exec = Executor::seq();
    for (name, csr) in &matrices {
        let d = DaspMatrix::from_csr(csr);
        let mut g = c.benchmark_group(format!("ext2_spmm/{name}"));
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(300));
        g.measurement_time(std::time::Duration::from_secs(1));
        for width in [1usize, 2, 4, 8] {
            let b = rhs(csr, width);
            g.bench_function(format!("spmm_w{width}"), |bch| {
                bch.iter(|| d.spmm_with(&b, &mut NoProbe, &exec))
            });
        }
        let b8 = rhs(csr, 8);
        g.bench_function("looped_spmv_w8", |bch| {
            bch.iter(|| {
                (0..8)
                    .map(|j| d.spmv_with(&b8.column(j), &mut NoProbe, &exec))
                    .collect::<Vec<_>>()
            })
        });
        g.finish();

        // The modeled comparison, printed once per matrix so a bench run
        // doubles as a quick ext2 spot check.
        let dev = a100();
        let (params, off) = (DaspParams::default(), Tracer::disabled());
        let spmm = measure_spmm_traced_with(MethodKind::Dasp, csr, &b8, params, &dev, &off, &exec);
        let looped = measure_looped_spmv_with(MethodKind::Dasp, csr, &b8, &dev, &exec);
        println!(
            "{name}: modeled A100 width-8 speedup {:.2}x (A+idx per RHS {:.0} B vs {:.0} B)",
            looped.estimate.seconds / spmm.estimate.seconds,
            spmm.a_idx_bytes_per_rhs,
            looped.a_idx_bytes_per_rhs
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);

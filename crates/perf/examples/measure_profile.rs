//! Phase breakdown of one untraced `measure_traced_with` run: format build vs
//! instrumented kernel vs packaging, for the workloads that drag the
//! suite's wall-clock trajectory. Run with `cargo run --release -p
//! dasp-perf --example measure_profile`.

use std::time::Instant;

use dasp_baselines::Baseline;
use dasp_core::DaspMatrix;
use dasp_core::DaspParams;
use dasp_matgen::{banded, dense_vector};
use dasp_perf::{a100, measure_spmm_traced_with, measure_traced_with, MethodKind};
use dasp_simt::{CountingProbe, Executor};
use dasp_sparse::DenseMat;
use dasp_trace::Tracer;

fn best_us(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..9 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn main() {
    let csr = banded(20_000, 9, 3, 7);
    let x = dense_vector(csr.cols, 42);
    let dev = a100();
    let exec = Executor::seq();

    println!("banded 20k x bw9  nnz={}", csr.nnz());
    println!(
        "  probe ctor          {:8.1} us",
        best_us(|| {
            let _ = CountingProbe::new(dev.l2_cache());
        })
    );
    println!(
        "  dasp from_csr       {:8.1} us",
        best_us(|| {
            let _ = DaspMatrix::from_csr(&csr);
        })
    );
    let d = DaspMatrix::from_csr(&csr);
    println!(
        "  dasp spmv (counting){:8.1} us",
        best_us(|| {
            let mut p = CountingProbe::new(dev.l2_cache());
            let _ = d.spmv_with(&x, &mut p, &exec);
        })
    );
    println!(
        "  dasp measure        {:8.1} us",
        best_us(|| {
            let off = Tracer::disabled();
            let _ = measure_traced_with(MethodKind::Dasp, &csr, &x, &dev, &off, &exec);
        })
    );
    let cols: Vec<Vec<f64>> = (0..8).map(|j| dense_vector(csr.cols, 50 + j)).collect();
    let b = DenseMat::from_columns(&cols);
    println!(
        "  dasp spmm8 (count)  {:8.1} us",
        best_us(|| {
            let mut p = CountingProbe::new(dev.l2_cache());
            let _ = d.spmm_with(&b, &mut p, &exec);
        })
    );
    println!(
        "  dasp measure_spmm8  {:8.1} us",
        best_us(|| {
            let (p, off) = (DaspParams::default(), Tracer::disabled());
            let _ = measure_spmm_traced_with(MethodKind::Dasp, &csr, &b, p, &dev, &off, &exec);
        })
    );

    let b1 = DenseMat::from_columns(&cols[..1]);
    println!(
        "  csrscalar spmm1(cnt){:8.1} us",
        best_us(|| {
            let mut p = CountingProbe::new(dev.l2_cache());
            let _ = dasp_baselines::CsrScalar::new(&csr).spmm_with(&b1, &mut p, &exec);
        })
    );
    println!(
        "  csrscalar msr_spmm1 {:8.1} us",
        best_us(|| {
            let (p, off) = (DaspParams::default(), Tracer::disabled());
            let _ =
                measure_spmm_traced_with(MethodKind::CsrScalar, &csr, &b1, p, &dev, &off, &exec);
        })
    );
    println!(
        "  csrscalar spmv (cnt){:8.1} us",
        best_us(|| {
            let mut p = CountingProbe::new(dev.l2_cache());
            let _ = dasp_baselines::CsrScalar::new(&csr).spmv_with(&x, &mut p, &exec);
        })
    );

    for name in ["cusparse-bsr", "tilespmv", "csr5", "hyb"] {
        let build = best_us(|| {
            let _ = Baseline::build(name, &csr);
        });
        let m = Baseline::build(name, &csr).unwrap();
        let run = best_us(|| {
            let mut p = CountingProbe::new(dev.l2_cache());
            let _ = m.spmv_traced_with(&x, &mut p, &Tracer::disabled(), &exec);
        });
        let kind = MethodKind::all()
            .iter()
            .copied()
            .find(|k| k.name() == name)
            .unwrap();
        let total = best_us(|| {
            let _ = measure_traced_with(kind, &csr, &x, &dev, &Tracer::disabled(), &exec);
        });
        println!("  {name:14} build {build:8.1} us  run {run:8.1} us  measure {total:8.1} us");
    }
}

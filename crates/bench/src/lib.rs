//! Shared fixtures for the Criterion benches.
//!
//! Each bench target regenerates one of the paper's tables/figures: it
//! reports the paper's metric (estimated GPU time from the instrumented
//! run, printed once per series) and uses Criterion to time the simulator
//! and the real preprocessing paths. See DESIGN.md's per-experiment index.

#![forbid(unsafe_code)]

use dasp_fp16::F16;
use dasp_matgen::dense_vector;
use dasp_perf::{a100, measure, DeviceModel, MethodKind};
use dasp_sparse::Csr;

/// Standard Criterion group settings used by every figure bench: small
/// sample counts and short windows, since each iteration is itself a full
/// simulated kernel run.
pub fn configure<M: criterion::measurement::Measurement>(g: &mut criterion::BenchmarkGroup<M>) {
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
}

/// The representative workload set used by the figure benches: one matrix
/// per structural class, big enough to be in the paper's bandwidth-bound
/// regime but small enough for Criterion's sampling.
pub fn bench_matrices() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("banded", dasp_matgen::banded(20_000, 40, 24, 901)),
        ("stencil", dasp_matgen::stencil2d(180, 180, 5, 902)),
        ("rmat", dasp_matgen::rmat(14, 8, 903)),
        ("circuit", dasp_matgen::circuit_like(30_000, 6, 4000, 904)),
    ]
}

/// The observatory suite's workload matrices: the same four structural
/// classes as [`bench_matrices`], scaled down so one traced pass over the
/// whole suite stays a few seconds even in a debug build. Their modeled
/// rows are the committed `BENCH_*.json` golden file, so any change here
/// is a re-baseline.
pub fn suite_matrices() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("banded", dasp_matgen::banded(2_000, 24, 16, 901)),
        ("stencil", dasp_matgen::stencil2d(48, 48, 5, 902)),
        ("rmat", dasp_matgen::rmat(10, 8, 903)),
        ("circuit", dasp_matgen::circuit_like(3_000, 6, 400, 904)),
    ]
}

/// Runs one instrumented measurement and prints the modeled metric so the
/// bench output doubles as the figure's data series.
pub fn report_measurement(figure: &str, name: &str, method: MethodKind, csr: &Csr<f64>) {
    let dev: DeviceModel = a100();
    let x = dense_vector(csr.cols, 42);
    let m = measure(method, csr, &x, &dev);
    println!(
        "[{figure}] {name} {:13} estimated {:9.2} us, {:7.2} GFlops, {:7.2} GB/s",
        method.name(),
        m.estimate.seconds * 1e6,
        m.gflops,
        m.bandwidth_gbs
    );
}

/// FP16 variant of [`report_measurement`].
pub fn report_measurement_fp16(
    figure: &str,
    name: &str,
    method: MethodKind,
    csr: &Csr<f64>,
    dev: &DeviceModel,
) {
    let h: Csr<F16> = csr.cast();
    let x64 = dense_vector(h.cols, 42);
    let x: Vec<F16> = x64.iter().map(|&v| F16::from_f64(v)).collect();
    let m = measure(method, &h, &x, dev);
    println!(
        "[{figure}] {name} {:13} {} estimated {:9.2} us, {:7.2} GFlops",
        method.name(),
        dev.name,
        m.estimate.seconds * 1e6,
        m.gflops
    );
}

//! FP32 (TF32-modeled) precision through the whole DASP pipeline — a
//! library extension beyond the paper's FP64/FP16 evaluation, covering the
//! precision regime of AlphaSparse (which the paper mentions in §4.1).

use dasp_core::DaspMatrix;
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::Csr;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Csr<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = dasp_sparse::Coo::<f32>::new(rows, cols);
    for r in 0..rows {
        let len = match rng.gen_range(0..10) {
            0 => 0,
            1..=5 => rng.gen_range(1..=4usize),
            6..=8 => rng.gen_range(5..=256),
            _ => rng.gen_range(257..=500),
        }
        .min(cols);
        let mut cs: Vec<usize> = Vec::new();
        while cs.len() < len {
            let c = rng.gen_range(0..cols);
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        for c in cs {
            coo.push(r, c, rng.gen_range(-1.0f32..1.0));
        }
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fp32_dasp_matches_reference(rows in 1usize..120, seed in any::<u64>()) {
        let csr = random_matrix(rows, 600, seed);
        let d = DaspMatrix::from_csr(&csr);
        prop_assert!(d.validate().is_ok());
        let mut rng = SmallRng::seed_from_u64(!seed);
        let x: Vec<f32> = (0..600).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let got = d.spmv(&x, &mut NoProbe);
        let want = csr.spmv_reference(&x);
        for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
            // f32 accumulation order differences bound the error.
            prop_assert!(
                ((a as f64) - b).abs() <= 1e-4 * b.abs().max(1.0),
                "row {}: {} vs {}", i, a, b
            );
        }
    }

    #[test]
    fn fp32_parallel_matches_sequential(seed in any::<u64>()) {
        let csr = random_matrix(150, 500, seed);
        let d = DaspMatrix::from_csr(&csr);
        let x: Vec<f32> = (0..500).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let seq = d.spmv(&x, &mut NoProbe);
        let par = d.spmv_with(&x, &mut NoProbe, &Executor::par());
        prop_assert_eq!(seq, par);
    }
}

#[test]
fn fp32_measured_through_the_cost_model() {
    use dasp_perf::{a100, measure, MethodKind};
    let csr64 = dasp_matgen::banded(5000, 40, 28, 9);
    let csr32: Csr<f32> = csr64.cast();
    let dev = a100();
    let x32: Vec<f32> = dasp_matgen::dense_vector(csr32.cols, 5)
        .iter()
        .map(|&v| v as f32)
        .collect();
    let x64 = dasp_matgen::dense_vector(csr64.cols, 5);
    let m32 = measure(MethodKind::Dasp, &csr32, &x32, &dev);
    let m64 = measure(MethodKind::Dasp, &csr64, &x64, &dev);
    // Half the bytes and a faster MMA unit: fp32 must be faster than fp64.
    assert!(
        m32.estimate.seconds < m64.estimate.seconds,
        "fp32 {} vs fp64 {}",
        m32.estimate.seconds,
        m64.estimate.seconds
    );
    // And correct.
    let want = csr32.spmv_reference(&x32);
    for (a, b) in m32.y.iter().zip(&want) {
        assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0));
    }
}

#[test]
fn fp32_round_trips_the_format() {
    let csr = random_matrix(200, 400, 42);
    let d = DaspMatrix::from_csr(&csr);
    // Column-zero explicit values are rare in the generator; the format
    // must round-trip exactly for this pattern.
    assert_eq!(d.to_csr(), csr);
}

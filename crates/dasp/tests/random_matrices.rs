//! Property-based end-to-end checks: DASP SpMV must agree with the CSR
//! reference on arbitrary random matrices, across generators and precisions.

use dasp_core::format::Piecing;
use dasp_core::{DaspMatrix, DaspParams};
use dasp_fp16::F16;
use dasp_simt::NoProbe;
use dasp_sparse::{Coo, Csr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random matrix whose row lengths are drawn from a category mix:
/// the proptest inputs steer how many rows fall in each DASP category.
fn random_matrix(
    rows: usize,
    cols: usize,
    short_w: u32,
    medium_w: u32,
    long_w: u32,
    seed: u64,
) -> Csr<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    let total = (short_w + medium_w + long_w).max(1);
    for r in 0..rows {
        let dice = rng.gen_range(0..total);
        let len = if dice < short_w {
            rng.gen_range(0..=4usize) // includes empty rows
        } else if dice < short_w + medium_w {
            rng.gen_range(5..=256usize)
        } else {
            rng.gen_range(257..=600usize)
        };
        let len = len.min(cols);
        let mut cs: Vec<usize> = Vec::with_capacity(len);
        while cs.len() < len {
            let c = rng.gen_range(0..cols);
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        for c in cs {
            coo.push(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    coo.to_csr()
}

fn check_fp64(csr: &Csr<f64>, seed: u64) {
    let d = DaspMatrix::from_csr(csr);
    let mut rng = SmallRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..csr.cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let got = d.spmv(&x, &mut NoProbe);
    let want = csr.spmv_reference(&x);
    for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "row {i}: got {a} want {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dasp_matches_reference_on_random_mixes(
        rows in 1usize..150,
        cols in 601usize..900,
        short_w in 0u32..10,
        medium_w in 0u32..10,
        long_w in 0u32..4,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, short_w, medium_w, long_w, seed);
        check_fp64(&csr, seed ^ 0xabcd);
    }

    #[test]
    fn dasp_matches_reference_with_custom_params(
        rows in 1usize..80,
        seed in any::<u64>(),
        max_len in 8usize..64,
    ) {
        let csr = random_matrix(rows, 200, 3, 3, 1, seed);
        let d = DaspMatrix::with_params(&csr, DaspParams { max_len, ..DaspParams::default() });
        let mut rng = SmallRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..200).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let got = d.spmv(&x, &mut NoProbe);
        let want = csr.spmv_reference(&x);
        for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "row {i}: {a} vs {b}");
        }
    }

    #[test]
    fn dasp_matches_reference_varying_threshold(
        seed in any::<u64>(),
        threshold in 0.1f64..1.0,
    ) {
        let csr = random_matrix(60, 700, 2, 6, 1, seed);
        let d = DaspMatrix::with_params(&csr, DaspParams { max_len: 256, threshold, ..DaspParams::default() });
        let mut rng = SmallRng::seed_from_u64(!seed);
        let x: Vec<f64> = (0..700).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let got = d.spmv(&x, &mut NoProbe);
        let want = csr.spmv_reference(&x);
        for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "row {i}: {a} vs {b}");
        }
    }

    #[test]
    fn fp16_spmv_tracks_fp16_reference(
        rows in 1usize..60,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 650, 4, 3, 1, seed);
        let h: Csr<F16> = csr.cast();
        let d = DaspMatrix::from_csr(&h);
        let mut rng = SmallRng::seed_from_u64(seed.rotate_left(13));
        let x: Vec<F16> = (0..650).map(|_| F16::from_f64(rng.gen_range(-1.0..1.0))).collect();
        let got = d.spmv(&x, &mut NoProbe);
        // Reference on the rounded operands in f64.
        let h64: Csr<f64> = h.cast();
        let x64: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
        let want = h64.spmv_reference(&x64);
        // Row sums are O(600) products of O(1) values; f32 accumulation and
        // the final f16 rounding bound the error.
        for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
            let tol = 0.05 * b.abs().max(2.0);
            prop_assert!((a.to_f64() - b).abs() <= tol, "row {i}: {a:?} vs {b}");
        }
    }

    #[test]
    fn category_partition_is_exhaustive(
        rows in 1usize..120,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 700, 5, 3, 1, seed);
        let d = DaspMatrix::from_csr(&csr);
        let s = d.category_stats();
        prop_assert_eq!(s.rows_long + s.rows_medium + s.rows_short + s.rows_empty, csr.rows);
        prop_assert_eq!(s.nnz_long + s.nnz_medium + s.nnz_short, csr.nnz());
        // Stored sizes are never below the original nonzeros per category.
        prop_assert!(s.stored_long >= s.nnz_long);
        prop_assert!(s.stored_medium >= s.nnz_medium);
        prop_assert!(s.stored_short >= s.nnz_short);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn padded_only_short_rows_match_reference(
        rows in 1usize..200,
        seed in any::<u64>(),
    ) {
        // All-short matrices through the no-piecing ablation path.
        let csr = random_matrix(rows, 300, 5, 0, 0, seed);
        let d = DaspMatrix::with_params(
            &csr,
            DaspParams {
                short_piecing: false,
                ..DaspParams::default()
            },
        );
        // Everything must land in the length-4 (or empty) classes.
        prop_assert_eq!(Piecing::OneThree.warps(&d.short), 0);
        prop_assert_eq!(Piecing::TwoTwo.warps(&d.short), 0);
        prop_assert_eq!(d.short.n1, 0);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x55);
        let x: Vec<f64> = (0..300).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let got = d.spmv(&x, &mut NoProbe);
        let want = csr.spmv_reference(&x);
        for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "row {i}: {a} vs {b}");
        }
    }
}

#[test]
fn generator_corpus_smoke() {
    // A non-proptest sweep over structured generators, catching anything
    // the uniform random mix cannot (bands, stencils, power laws).
    let mats: Vec<(&str, Csr<f64>)> = vec![
        ("banded", dasp_matgen::banded(300, 12, 9, 1)),
        ("stencil", dasp_matgen::stencil2d(20, 20, 5, 2)),
        ("rmat", dasp_matgen::rmat(9, 6, 3)),
        ("circuit", dasp_matgen::circuit_like(800, 3, 400, 4)),
        ("rect", dasp_matgen::rectangular_long(10, 900, 300, 5)),
        ("blocks", dasp_matgen::block_dense(128, 4, 2, 6)),
        ("diag", dasp_matgen::diagonal_bands(500, &[0, 1, -1], 7)),
    ];
    for (name, csr) in mats {
        let x = dasp_matgen::dense_vector(csr.cols, 99);
        let d = DaspMatrix::from_csr(&csr);
        let got = d.spmv(&x, &mut NoProbe);
        let want = csr.spmv_reference(&x);
        for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{name} row {i}: got {a} want {b}"
            );
        }
    }
}

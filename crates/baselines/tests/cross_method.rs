//! Every baseline must agree with the exact reference on arbitrary
//! matrices — the same guarantee the DASP kernels carry.

use dasp_baselines::{Baseline, BsrSpmv};
use dasp_fp16::F16;
use dasp_simt::{Executor, NoProbe};
use dasp_sparse::{Coo, Csr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, density_pct: u32, skew: bool, seed: u64) -> Csr<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        let base = (cols as u32 * density_pct / 100).max(1) as usize;
        let len = if skew && r == 0 {
            (cols / 2).max(1)
        } else {
            rng.gen_range(0..=base.min(cols))
        };
        let mut cs: Vec<usize> = Vec::new();
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

const NAMES: [&str; 9] = [
    "csr-scalar",
    "cusparse-csr",
    "csr5",
    "tilespmv",
    "lsrb-csr",
    "cusparse-bsr",
    "merge-csr",
    "sell-c-sigma",
    "hyb",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_baselines_match_reference(
        rows in 1usize..120,
        cols in 1usize..200,
        density in 1u32..25,
        skew in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, density, skew, seed);
        let mut rng = SmallRng::seed_from_u64(!seed);
        let x: Vec<f64> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = csr.spmv_reference(&x);
        for name in NAMES {
            let m = Baseline::build(name, &csr).unwrap();
            let got = m.spmv(&x, &mut NoProbe);
            for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "{name} row {i}: got {a} want {b}"
                );
            }
        }
    }

    #[test]
    fn bsr_all_block_sizes_match(
        rows in 1usize..60,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 90, 10, false, seed);
        let x: Vec<f64> = (0..90).map(|i| (i % 5) as f64 - 2.0).collect();
        let want = csr.spmv_reference(&x);
        for h in BsrSpmv::best_of(&csr) {
            let got = h.spmv_with(&x, &mut NoProbe, &Executor::from_env());
            for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
                prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "bs={} row {i}", h.bsr().block_size);
            }
        }
    }

    #[test]
    fn fp16_baselines_track_reference(
        rows in 1usize..50,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 80, 15, false, seed);
        let h: Csr<F16> = csr.cast();
        let h64: Csr<f64> = h.cast();
        let mut rng = SmallRng::seed_from_u64(seed ^ 7);
        let x: Vec<F16> = (0..80).map(|_| F16::from_f64(rng.gen_range(-1.0..1.0))).collect();
        let x64: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
        let want = h64.spmv_reference(&x64);
        for name in ["cusparse-csr", "csr5"] {
            let m = Baseline::build(name, &h).unwrap();
            let got = m.spmv(&x, &mut NoProbe);
            for (i, (a, &b)) in got.iter().zip(&want).enumerate() {
                let tol = 0.05 * b.abs().max(1.0);
                prop_assert!((a.to_f64() - b).abs() <= tol, "{name} row {i}: {a:?} vs {b}");
            }
        }
    }
}

//! The executor contract across every baseline method: for any matrix,
//! running under the parallel executor must produce an output vector
//! bit-identical to the sequential one and merged order-independent
//! counters exactly equal to the sequential run's — including the
//! segmented methods (csr5, lsrb-csr, merge-csr) whose warp bodies rely
//! on the first-spill carry scheme.

use dasp_baselines::Baseline;
use dasp_simt::{CountingProbe, Executor, ParExecutor};
use dasp_sparse::{Coo, Csr};
use dasp_trace::Tracer;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const ALL_METHODS: [&str; 9] = [
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

/// A parallel executor that always shards, even on tiny grids.
fn forced_par() -> Executor {
    Executor::Par(
        ParExecutor::new()
            .with_threads(Some(4))
            .with_seq_threshold(0),
    )
}

/// Random matrix with skewed row lengths (empty rows through
/// segment-spanning rows), the shapes the carry scheme must survive.
fn random_matrix(rows: usize, cols: usize, skew: u32, seed: u64) -> Csr<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        let len = match rng.gen_range(0..10u32) {
            d if d < skew => rng.gen_range(200..=500usize),
            d if d < skew + 4 => rng.gen_range(0..=4usize),
            _ => rng.gen_range(5..=60usize),
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

/// Runs `name` under both executors and asserts the contract.
fn assert_parity(name: &str, csr: &Csr<f64>, seed: u64) {
    let m = Baseline::build(name, csr).expect("known method");
    let mut rng = SmallRng::seed_from_u64(seed);
    let x: Vec<f64> = (0..csr.cols).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let mut p_seq = CountingProbe::a100();
    let y_seq = m.spmv_traced_with(&x, &mut p_seq, &Tracer::disabled(), &Executor::seq());
    let mut p_par = CountingProbe::a100();
    let y_par = m.spmv_traced_with(&x, &mut p_par, &Tracer::disabled(), &forced_par());

    for (i, (a, b)) in y_seq.iter().zip(&y_par).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} row {i}: seq {a} vs par {b} (not bit-identical)"
        );
    }
    assert_eq!(
        p_seq.stats().order_independent(),
        p_par.stats().order_independent(),
        "{name}: order-independent counters diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_baseline_is_bit_identical_across_executors(
        rows in 1usize..120,
        cols in 500usize..800,
        skew in 0u32..3,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, skew, seed);
        for name in ALL_METHODS {
            assert_parity(name, &csr, seed ^ 0x7777);
        }
    }
}

#[test]
fn segment_spanning_rows_keep_parity() {
    // One row much longer than a segment: the first-spill carry must fold
    // partial sums in exact sequential order across csr5/lsrb/merge.
    let mut coo = Coo::<f64>::new(5, 2000);
    for k in 0..1500 {
        coo.push(2, k, 0.001 * (k + 1) as f64);
    }
    coo.push(0, 5, 2.0);
    coo.push(4, 7, 3.0);
    let csr = coo.to_csr();
    for name in ["csr5", "lsrb-csr", "merge-csr"] {
        assert_parity(name, &csr, 11);
    }
}

#[test]
fn empty_and_tiny_matrices_keep_parity() {
    let tiny = dasp_matgen::banded(3, 1, 1, 8);
    for name in ALL_METHODS {
        assert_parity(name, &Csr::empty(10, 10), 21);
        assert_parity(name, &tiny, 22);
    }
}

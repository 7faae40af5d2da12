//! Property-based checks of the analysis/execute split: for random
//! mixed-category matrices across every storage precision,
//! `DaspPlan::fill` must equal `DaspMatrix::from_csr` bit for bit,
//! `update_values` must equal a full rebuild bit for bit across successive
//! value sets, and a plan-cache hit must return an identical matrix.
//!
//! Runs under whichever executor `DASP_EXECUTOR`/`DASP_THREADS` selects
//! (CI exercises both), and cross-checks seq against par explicitly.

use dasp_core::{DaspMatrix, DaspParams, DaspPlan, PlanCache};
use dasp_fp16::{Scalar, F16};
use dasp_simt::Executor;
use dasp_sparse::{Coo, Csr};
use dasp_trace::Tracer;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Builds a random matrix whose row lengths are drawn from a category mix
/// (same scheme as `random_matrices.rs`, including empty rows).
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

/// Fresh values for the same pattern.
fn perturbed<S: Scalar>(csr: &Csr<S>, seed: u64) -> Vec<S> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..csr.nnz())
        .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
        .collect()
}

/// The three tentpole properties at one precision.
fn check_at<S: Scalar>(csr: &Csr<S>, params: DaspParams, seed: u64) {
    // 1. Analysis + fill is bit-identical to the direct build.
    let direct = DaspMatrix::with_params(csr, params);
    let plan = DaspPlan::analyze(csr, params);
    let mut filled = plan.fill(csr);
    assert_eq!(filled, direct, "fill != from_csr");

    // 2. update_values == full rebuild, across 3 successive value sets.
    for round in 0..3u64 {
        let vals = perturbed(csr, seed ^ (round + 1).wrapping_mul(0x9e37_79b9));
        filled.update_values(&vals).expect("refresh applies");
        let mut rebuilt_csr = csr.clone();
        rebuilt_csr.vals = vals;
        let rebuilt = DaspMatrix::with_params(&rebuilt_csr, params);
        assert_eq!(filled, rebuilt, "update_values != rebuild (round {round})");
    }

    // 3. A plan-cache hit returns an identical matrix, through the same
    // plan object.
    let cache = PlanCache::new();
    let first = DaspMatrix::with_params_cached(csr, params, &cache);
    let second = DaspMatrix::with_params_cached(csr, params, &cache);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), 1);
    assert_eq!(first, direct);
    assert_eq!(second, direct);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn plan_fill_and_refresh_match_rebuild_fp64(
        rows in 1usize..120,
        cols in 601usize..900,
        short_w in 0u32..10,
        medium_w in 0u32..10,
        long_w in 0u32..4,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, short_w, medium_w, long_w, seed);
        check_at::<f64>(&csr, DaspParams::default(), seed);
    }

    #[test]
    fn plan_fill_and_refresh_match_rebuild_fp32_fp16(
        rows in 1usize..80,
        short_w in 0u32..8,
        medium_w in 0u32..8,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 700, short_w, medium_w, long_w, seed);
        check_at::<f32>(&csr.cast(), DaspParams::default(), seed);
        check_at::<F16>(&csr.cast(), DaspParams::default(), seed);
    }

    #[test]
    fn plan_parity_holds_for_custom_params(
        rows in 1usize..80,
        max_len in 8usize..64,
        piecing in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 200, 3, 3, 1, seed);
        let params = DaspParams { max_len, short_piecing: piecing, ..DaspParams::default() };
        check_at::<f64>(&csr, params, seed);
    }

    #[test]
    fn seq_and_par_analysis_agree(
        rows in 1usize..100,
        short_w in 0u32..8,
        medium_w in 0u32..8,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, 700, short_w, medium_w, long_w, seed);
        let params = DaspParams::default();
        let seq = DaspPlan::analyze_traced_with(
            &csr, params, &Tracer::disabled(), &Executor::seq());
        let par = DaspPlan::analyze_traced_with(
            &csr, params, &Tracer::disabled(), &Executor::par_with_threads(Some(4)));
        prop_assert!(*seq == *par, "seq and par plans differ");
        let a = seq.fill_traced_with(&csr, &Tracer::disabled(), &Executor::seq());
        let b = par.fill_traced_with(&csr, &Tracer::disabled(), &Executor::par_with_threads(Some(4)));
        prop_assert!(a == b, "seq and par fills differ");
    }
}

/// Values a plan must carry bit for bit: signed zeros, subnormals,
/// infinities, NaNs with payloads, finite values that overflow (`65520`,
/// `-1e6`) or flush to zero (`1e-8`) in `F16`, an `F16` subnormal, and an
/// ordinary value.
const ADVERSARIAL: [f64; 13] = [
    0.0,
    -0.0,
    5e-324,
    -2.2e-308,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::from_bits(0x7ff8_0000_0000_beef),
    f64::from_bits(0xfff4_0000_0000_0001),
    65520.0,
    -1e6,
    1e-8,
    6.0e-5,
    0.75,
];

/// The adversarial values laid over `nnz` elements, rotated by `shift`.
fn adversarial<S: Scalar>(nnz: usize, shift: usize) -> Vec<S> {
    (0..nnz)
        .map(|j| S::from_f64(ADVERSARIAL[(j * 7 + shift) % ADVERSARIAL.len()]))
        .collect()
}

/// A matrix whose row `r` holds `lens[r]` elements over `cols` columns.
fn of_lens(lens: &[usize], cols: usize) -> Csr<f64> {
    let mut coo = Coo::new(lens.len(), cols);
    for (r, &len) in lens.iter().enumerate() {
        for j in 0..len {
            coo.push(r, (r * 5 + j * 3) % cols, 1.0);
        }
    }
    coo.to_csr()
}

/// Shapes at the format's edges under `max_len` 8: empty in either
/// dimension, one row, one column, rows of length 4, 5, `max_len` and
/// `max_len + 1`, and a tall mix whose arrays are long enough for a
/// 4-thread scatter to split.
fn edge_shapes() -> Vec<Csr<f64>> {
    let tall: Vec<usize> = (0..4000).map(|r| r % 10).collect();
    vec![
        Csr::empty(0, 5),
        Csr::empty(5, 0),
        of_lens(&[12], 16),
        of_lens(&[1; 6], 1),
        of_lens(&[4, 5, 8, 9, 4, 5, 8, 9, 3, 1, 2, 2, 2], 16),
        of_lens(&tall, 16),
    ]
}

fn container<S: Scalar>(m: &DaspMatrix<S>) -> Vec<u8> {
    let mut bytes = Vec::new();
    m.write_to(&mut bytes).unwrap();
    bytes
}

/// `fill` ≡ `from_csr` and `update_values` ≡ rebuild on adversarial
/// values, compared by container bytes: float `==` would never equal a
/// NaN to itself.
fn check_adversarial<S: Scalar>(shape: &Csr<f64>, params: DaspParams, exec: &Executor) {
    let off = Tracer::disabled();
    let mut csr: Csr<S> = shape.cast();
    csr.vals = adversarial(csr.nnz(), 0);
    let plan = DaspPlan::analyze_traced_with(&csr, params, &off, exec);
    // The rebuild carries the same plan, so equal bytes mean an equal
    // format and an equal trailer.
    let rebuild = |csr: &Csr<S>| {
        let mut m = DaspMatrix::with_params(csr, params);
        m.attach_plan(plan.clone()).expect("pattern matches");
        container(&m)
    };
    let what = format!("{}x{}, {} B, {params:?}", csr.rows, csr.cols, S::BYTES);
    let mut filled = plan.fill_traced_with(&csr, &off, exec);
    assert!(
        container(&filled) == rebuild(&csr),
        "fill != from_csr: {what}"
    );
    for shift in 1..3 {
        csr.vals = adversarial(csr.nnz(), shift);
        filled
            .update_values_traced_with(&csr.vals, &off, exec)
            .expect("refresh applies");
        assert!(
            container(&filled) == rebuild(&csr),
            "update_values != rebuild (shift {shift}): {what}"
        );
    }
}

#[test]
fn adversarial_values_fill_and_refresh_bit_for_bit() {
    for shape in edge_shapes() {
        for short_piecing in [true, false] {
            let params = DaspParams {
                max_len: 8,
                short_piecing,
                ..DaspParams::default()
            };
            for exec in [Executor::seq(), Executor::par_with_threads(Some(4))] {
                check_adversarial::<f64>(&shape, params, &exec);
                check_adversarial::<F16>(&shape, params, &exec);
            }
        }
    }
}

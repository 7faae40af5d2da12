//! The sanitizer's fleet-wide clean contract: every kernel in the stack —
//! all six DASP SpMV kernels, the SpMM panel kernels at widths 1–8 and
//! multi-panel widths (masked last panel included), all
//! nine baselines, and the plan fill / value-refresh paths — must produce
//! **zero diagnostics** under [`SanitizeProbe`], on both executors, and
//! the sanitized output must be **bit-identical** to the unsanitized run
//! (the probe only observes; it never reorders an FMA).
//!
//! The complementary fault-injection tests (crates/sanitize/tests) prove
//! each checker *fires* on planted bugs, so a clean report here is
//! evidence of absence, not absence of evidence.

use dasp_repro::baselines::Baseline;
use dasp_repro::dasp::{DaspMatrix, DaspParams, DaspPlan};
use dasp_repro::fp16::{Scalar, F16};
use dasp_repro::sanitize::SanitizeProbe;
use dasp_repro::simt::{Executor, NoProbe, ParExecutor};
use dasp_repro::sparse::{Coo, Csr, DenseMat};
use dasp_repro::trace::Tracer;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A parallel executor that always threads, even on tiny grids, so the
/// shard fork/merge path of the shadow write tracker is exercised.
fn forced_par() -> Executor {
    Executor::Par(
        ParExecutor::new()
            .with_threads(Some(4))
            .with_seq_threshold(0),
    )
}

/// A deterministic matrix whose row-length mix lands rows in **every**
/// DASP category: two long rows (> 256 nnz), a band of medium rows, short
/// rows of length 4 / 3 / 2 / 1 (each piecing kernel), and empty rows.
fn composite_matrix() -> Csr<f64> {
    let cols = 400;
    let mut coo = Coo::new(40, cols);
    let mut rng = SmallRng::seed_from_u64(0x5a71);
    let mut fill_row = |coo: &mut Coo<f64>, r: usize, len: usize| {
        // Stride the columns so every row of a given length still has a
        // distinct sparsity pattern.
        let stride = (r % 7) + 1;
        for k in 0..len {
            let c = (r * 13 + k * stride) % cols;
            coo.push(r, c, rng.gen_range(-1.0..1.0));
        }
    };
    fill_row(&mut coo, 0, 300); // long
    fill_row(&mut coo, 1, 390); // long
    for r in 2..10 {
        fill_row(&mut coo, r, 20 + r * 5); // medium (5..=256)
    }
    for (i, len) in [4usize, 3, 2, 1, 4, 3, 2, 1, 1, 3].iter().enumerate() {
        fill_row(&mut coo, 10 + i, *len); // every short piecing shape
    }
    // Rows 20..24 stay empty; a second band keeps the short kernels busy.
    for r in 24..40 {
        fill_row(&mut coo, r, (r % 4) + 1);
    }
    coo.to_csr()
}

fn dense_x(cols: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// The composite matrix really does cover all four categories — if a
/// future threshold change moved rows around, the clean-suite below would
/// silently stop exercising a kernel.
#[test]
fn composite_matrix_covers_all_categories() {
    let d = DaspMatrix::from_csr(&composite_matrix());
    let stats = d.category_stats();
    assert!(stats.rows_long > 0, "no long rows: {stats:?}");
    assert!(stats.rows_medium > 0, "no medium rows: {stats:?}");
    assert!(stats.rows_short > 0, "no short rows: {stats:?}");
    assert!(stats.rows_empty > 0, "no empty rows: {stats:?}");
}

/// All six DASP SpMV kernels run clean under the sanitizer on both
/// executors, and the sanitized `y` is bit-identical to the plain run.
#[test]
fn dasp_spmv_is_clean_and_bit_identical() {
    let csr = composite_matrix();
    let d = DaspMatrix::from_csr(&csr);
    let x = dense_x(csr.cols, 7);
    for exec in [Executor::seq(), forced_par()] {
        let y_plain = d.spmv_with(&x, &mut NoProbe, &exec);
        let mut sp = SanitizeProbe::new(NoProbe);
        let y_san = d.spmv_with(&x, &mut sp, &exec);
        let report = sp.report();
        assert!(report.is_clean(), "spmv diagnostics: {report}");
        assert_eq!(bits(&y_plain), bits(&y_san), "sanitizer perturbed y");
    }
}

/// The SpMM panel kernels stay clean at every RHS width 1..=8 (full
/// panel, partial panels, and the width-1 degenerate case) and at
/// multi-panel widths (20 and 33: interior panels plus a masked last
/// panel), with the sanitized panels bit-identical to the plain run.
#[test]
fn dasp_spmm_all_widths_are_clean() {
    let csr = composite_matrix();
    let d = DaspMatrix::from_csr(&csr);
    for width in (1..=8usize).chain([20, 33]) {
        let columns: Vec<Vec<f64>> = (0..width)
            .map(|j| dense_x(csr.cols, 100 + j as u64))
            .collect();
        let b = DenseMat::from_columns(&columns);
        for exec in [Executor::seq(), forced_par()] {
            let y_plain = d.spmm_with(&b, &mut NoProbe, &exec);
            let mut sp = SanitizeProbe::new(NoProbe);
            let y_san = d.spmm_with(&b, &mut sp, &exec);
            let report = sp.report();
            assert!(report.is_clean(), "spmm width {width}: {report}");
            for j in 0..width {
                assert_eq!(
                    bits(&y_plain.column(j)),
                    bits(&y_san.column(j)),
                    "sanitizer perturbed spmm column {j} at width {width}"
                );
            }
        }
    }
}

/// Every baseline method — including the carry-chain ones (csr5, lsrb,
/// merge-csr) whose cross-warp staging is exactly what racecheck and
/// initcheck watch — runs clean on both executors.
#[test]
fn baselines_are_clean_and_bit_identical() {
    let csr = composite_matrix();
    let x = dense_x(csr.cols, 11);
    for name in [
        "csr-scalar",
        "cusparse-csr",
        "csr5",
        "tilespmv",
        "lsrb-csr",
        "cusparse-bsr",
        "merge-csr",
        "sell-c-sigma",
        "hyb",
    ] {
        let m = Baseline::build(name, &csr).unwrap();
        for exec in [Executor::seq(), forced_par()] {
            let y_plain = m.spmv_traced_with(&x, &mut NoProbe, &Tracer::disabled(), &exec);
            let mut sp = SanitizeProbe::new(NoProbe);
            let y_san = m.spmv_traced_with(&x, &mut sp, &Tracer::disabled(), &exec);
            let report = sp.report();
            assert!(report.is_clean(), "{name} diagnostics: {report}");
            assert_eq!(bits(&y_plain), bits(&y_san), "{name}: perturbed y");
        }
    }
}

/// The plan-reuse paths — `DaspPlan::analyze` + `fill` and the O(nnz)
/// `update_values` refresh — feed the same kernels the same way: still
/// clean, still bit-identical to a from-scratch build.
#[test]
fn plan_fill_and_update_values_stay_clean() {
    let csr = composite_matrix();
    let x = dense_x(csr.cols, 13);
    let plan = DaspPlan::analyze(&csr, DaspParams::default());
    let mut d = plan.fill(&csr);

    let mut sp = SanitizeProbe::new(NoProbe);
    let y_san = d.spmv_with(&x, &mut sp, &Executor::seq());
    assert!(sp.report().is_clean(), "plan fill: {}", sp.report());
    let y_plain = DaspMatrix::from_csr(&csr).spmv_with(&x, &mut NoProbe, &Executor::seq());
    assert_eq!(bits(&y_plain), bits(&y_san));

    // Refresh the values in place and re-run: the refreshed matrix must
    // match a from-scratch build of the scaled CSR, still with a clean
    // report.
    let scaled: Vec<f64> = csr.vals.iter().map(|v| v * 1.5).collect();
    d.update_values(&scaled).unwrap();
    let mut csr2 = csr.clone();
    csr2.vals = scaled;
    let mut sp = SanitizeProbe::new(NoProbe);
    let y_san = d.spmv_with(&x, &mut sp, &Executor::seq());
    assert!(sp.report().is_clean(), "update_values: {}", sp.report());
    let y_plain = DaspMatrix::from_csr(&csr2).spmv_with(&x, &mut NoProbe, &Executor::seq());
    assert_eq!(bits(&y_plain), bits(&y_san));
}

/// Random matrix with a steerable short/medium/long row-length mix, so
/// the property test's inputs cover every DASP category combination.
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

/// Runs the DASP pipeline at precision `S` under both executors and
/// asserts the sanitizer contract: clean report, bit-identical output.
fn assert_sanitize_parity<S: Scalar>(csr: &Csr<S>, seed: u64) {
    let d = DaspMatrix::from_csr(csr);
    let mut rng = SmallRng::seed_from_u64(seed);
    let x: Vec<S> = (0..csr.cols)
        .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
        .collect();
    for exec in [Executor::seq(), forced_par()] {
        let y_plain = d.spmv_with(&x, &mut NoProbe, &exec);
        let mut sp = SanitizeProbe::new(NoProbe);
        let y_san = d.spmv_with(&x, &mut sp, &exec);
        let report = sp.report();
        assert!(report.is_clean(), "diagnostics: {report}");
        let b_plain: Vec<u64> = y_plain.iter().map(|v| v.to_f64().to_bits()).collect();
        let b_san: Vec<u64> = y_san.iter().map(|v| v.to_f64().to_bits()).collect();
        assert_eq!(b_plain, b_san, "sanitizer perturbed y");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: for random matrices at all three precisions,
    /// running under the sanitizer changes nothing and reports nothing.
    #[test]
    fn sanitized_spmv_matches_plain_at_every_precision(
        rows in 1usize..80,
        cols in 1usize..700,
        short_w in 0u32..4,
        medium_w in 0u32..4,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, short_w, medium_w, long_w, seed);
        assert_sanitize_parity::<f64>(&csr, seed ^ 1);
        let csr32: Csr<f32> = csr.cast();
        assert_sanitize_parity::<f32>(&csr32, seed ^ 2);
        let csr16: Csr<F16> = csr.cast();
        assert_sanitize_parity::<F16>(&csr16, seed ^ 3);
    }
}

//! The row-similarity reordering contract.
//!
//! `DaspParams::reorder` is a *plan-level* transform: among medium rows
//! of equal length, the stable descending sort is tie-broken by a
//! minhash signature of each row's column set, so rows that touch the
//! same x entries land in the same 8-row MMA block. Everything a caller
//! can observe except x-cache traffic must be unchanged:
//!
//! * results are bit-identical with the flag on or off, for SpMV and
//!   every SpMM width, sequential or parallel;
//! * the fill rate and slot count never move — the format geometry
//!   depends only on the *sorted length sequence*, which reorder (a
//!   pure tie-break) cannot alter;
//! * the flag rides in the container and plan headers and in the plan
//!   cache key, so a cached/deserialized plan is never silently applied
//!   with the wrong permutation.

use dasp_core::{DaspMatrix, DaspParams, DaspPlan, PlanCache};
use dasp_fp16::{Scalar, F16};
use dasp_simt::{CacheModel, CountingProbe, Executor, NoProbe, ParExecutor};
use dasp_sparse::{Coo, Csr, DenseMat};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn reorder_params() -> DaspParams {
    DaspParams {
        reorder: true,
        ..DaspParams::default()
    }
}

fn forced_par() -> Executor {
    Executor::Par(
        ParExecutor::new()
            .with_threads(Some(4))
            .with_seq_threshold(0),
    )
}

/// Random matrix dominated by medium rows (where reorder acts), with
/// enough short and long rows to exercise the category boundaries.
fn medium_heavy(rows: usize, cols: usize, seed: u64) -> Csr<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        let len = match rng.gen_range(0..10u32) {
            0 => rng.gen_range(0..=4usize),
            1 => rng.gen_range(257..=400usize),
            _ => rng.gen_range(5..=256usize),
        }
        .min(cols);
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

fn random_rhs<S: Scalar>(cols: usize, width: usize, seed: u64) -> DenseMat<S> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let columns: Vec<Vec<S>> = (0..width)
        .map(|_| {
            (0..cols)
                .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
                .collect()
        })
        .collect();
    DenseMat::from_columns(&columns)
}

fn assert_bit_identical<S: Scalar>(csr: &Csr<S>, width: usize, seed: u64, exec: &Executor) {
    let plain = DaspMatrix::from_csr(csr);
    let reordered = DaspMatrix::with_params(csr, reorder_params());
    reordered
        .validate()
        .expect("reordered format is well-formed");

    let x: Vec<S> = random_rhs::<S>(csr.cols, 1, seed).column(0);
    let y0 = plain.spmv_with(&x, &mut NoProbe, exec);
    let y1 = reordered.spmv_with(&x, &mut NoProbe, exec);
    for (r, (a, b)) in y0.iter().zip(&y1).enumerate() {
        assert_eq!(
            a.to_f64().to_bits(),
            b.to_f64().to_bits(),
            "spmv row {r} differs under reorder"
        );
    }

    let b = random_rhs::<S>(csr.cols, width, seed ^ 1);
    let z0 = plain.spmm_with(&b, &mut NoProbe, exec);
    let z1 = reordered.spmm_with(&b, &mut NoProbe, exec);
    assert_eq!(z0.data(), z1.data(), "spmm width {width} differs");
}

#[test]
fn results_bit_identical_with_and_without_reorder() {
    for seed in [1u64, 5, 9] {
        let csr = medium_heavy(120, 160, seed);
        for exec in [Executor::seq(), forced_par()] {
            assert_bit_identical::<f64>(&csr, 20, seed, &exec);
            assert_bit_identical::<f32>(&csr.cast(), 20, seed, &exec);
            assert_bit_identical::<F16>(&csr.cast(), 20, seed, &exec);
        }
    }
}

/// The geometry proof, checked: `MediumPart::build_csr` consumes only
/// the sorted row-length sequence, so a permutation among equal-length
/// rows can never change slot counts or fill rate.
#[test]
fn reorder_never_changes_fill_rate_or_slots() {
    for (name, csr) in [
        ("rmat", dasp_matgen::rmat(9, 8, 3)),
        ("uniform", dasp_matgen::uniform_random(500, 500, 24, 4)),
        ("circuit", dasp_matgen::circuit_like(600, 12, 300, 5)),
        ("medium_heavy", medium_heavy(300, 300, 11)),
    ] {
        let p0 = DaspPlan::analyze(&csr, DaspParams::default());
        let p1 = DaspPlan::analyze(&csr, reorder_params());
        assert_eq!(p0.total_slots(), p1.total_slots(), "{name}: slots moved");
        let m0 = p0.fill(&csr);
        let m1 = p1.fill(&csr);
        assert_eq!(
            m0.category_stats().fill_rate().to_bits(),
            m1.category_stats().fill_rate().to_bits(),
            "{name}: fill rate moved"
        );
        assert_eq!(m0.memory_bytes(), m1.memory_bytes(), "{name}: bytes moved");
    }
}

/// The x-locality payoff reorder exists for: equal-length medium rows
/// drawn from two disjoint column clusters, interleaved so the stable
/// length sort alone keeps every 8-row block half-and-half. Reorder must
/// bucket each cluster into its own blocks and cut modeled x-miss
/// traffic under a cache small enough that one cluster's working set
/// fits but the union of both thrashes (the full A100 L2 dwarfs any
/// test-sized x, where every miss is compulsory and order-free).
#[test]
fn reorder_reduces_x_miss_traffic_on_clustered_rows() {
    let rows = 128;
    let cols = 4096;
    let len = 48;
    let window = 1024usize; // 8 KiB of f64 per cluster
    let mut coo = Coo::new(rows, cols);
    let mut rng = SmallRng::seed_from_u64(17);
    for r in 0..rows {
        // Even rows sample cluster A (low columns), odd rows cluster B
        // (high columns); within a cluster the sets overlap heavily.
        let base = if r % 2 == 0 { 0 } else { cols / 2 };
        let mut cs: Vec<usize> = Vec::with_capacity(len);
        while cs.len() < len {
            let c = base + rng.gen_range(0..window);
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        for c in cs {
            coo.push(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    let csr: Csr<f64> = coo.to_csr();
    let x: Vec<f64> = (0..cols).map(|i| (i as f64).sin()).collect();

    let small_cache = || CacheModel::new(8 * 1024, 64, 4);
    let mut p0 = CountingProbe::new(small_cache());
    let y0 = DaspMatrix::from_csr(&csr).spmv(&x, &mut p0);
    let mut p1 = CountingProbe::new(small_cache());
    let y1 = DaspMatrix::with_params(&csr, reorder_params()).spmv(&x, &mut p1);

    assert_eq!(y0, y1);
    let (miss0, miss1) = (p0.stats().bytes_x_miss, p1.stats().bytes_x_miss);
    assert!(
        miss1 < miss0,
        "reorder should cut x misses on clustered rows: {miss0} -> {miss1}"
    );
    // Everything that is not x traffic is untouched by the permutation.
    assert_eq!(p0.stats().bytes_val, p1.stats().bytes_val);
    assert_eq!(p0.stats().bytes_idx, p1.stats().bytes_idx);
    assert_eq!(p0.stats().mma_ops, p1.stats().mma_ops);
}

#[test]
fn reorder_flag_round_trips_through_matrix_and_plan_serialization() {
    let csr = medium_heavy(90, 110, 21);
    for reorder in [false, true] {
        let params = DaspParams {
            reorder,
            ..DaspParams::default()
        };
        let m = DaspMatrix::with_params(&csr, params);
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let back = DaspMatrix::<f64>::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.params.reorder, reorder, "matrix header lost flag");
        let x = dasp_matgen::dense_vector(csr.cols, 3);
        assert_eq!(m.spmv(&x, &mut NoProbe), back.spmv(&x, &mut NoProbe));

        let plan = DaspPlan::analyze(&csr, params);
        let mut pbuf = Vec::new();
        plan.write_to(&mut pbuf).unwrap();
        let pback = DaspPlan::read_from(&mut pbuf.as_slice()).unwrap();
        assert_eq!(pback.params.reorder, reorder, "plan header lost flag");
        // The round-tripped plan refills to the same matrix, permutation
        // included.
        let refilled = pback.fill(&csr);
        assert_eq!(m.spmv(&x, &mut NoProbe), refilled.spmv(&x, &mut NoProbe));
    }
}

/// A reorder-off container written today must be byte-identical to one
/// written before the flag existed (the header word it occupies was
/// reserved-zero), and the flag must flow through the reserved word.
#[test]
fn reorder_off_serialization_keeps_reserved_word_zero() {
    let csr = medium_heavy(40, 60, 31);
    let mut off = Vec::new();
    DaspMatrix::with_params(&csr, DaspParams::default())
        .write_to(&mut off)
        .unwrap();
    let mut on = Vec::new();
    DaspMatrix::with_params(&csr, reorder_params())
        .write_to(&mut on)
        .unwrap();
    assert_eq!(off.len(), on.len(), "flag must not change container size");
    let diff: Vec<usize> = off
        .iter()
        .zip(&on)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    assert!(
        !diff.is_empty() && diff.len() <= 8 + csr.rows * 4,
        "flag flip may touch the flags word and the medium permutation only, \
         changed {} bytes",
        diff.len()
    );
}

#[test]
fn plan_cache_distinguishes_reorder() {
    let csr = medium_heavy(80, 100, 41);
    let cache = PlanCache::new();
    let p_off = cache.plan_for(&csr, DaspParams::default());
    let p_on = cache.plan_for(&csr, reorder_params());
    assert_eq!(cache.misses(), 2, "reorder on/off must not share a plan");
    assert!(!std::sync::Arc::ptr_eq(&p_off, &p_on));
    let again = cache.plan_for(&csr, reorder_params());
    assert_eq!(cache.hits(), 1);
    assert!(std::sync::Arc::ptr_eq(&p_on, &again));
}

/// `update_values` must honor the stored permutation: refreshing a
/// reordered matrix with new values matches a fresh reordered build.
#[test]
fn update_values_respects_reordered_permutation() {
    let csr = medium_heavy(100, 120, 51);
    let mut m = DaspPlan::analyze(&csr, reorder_params()).fill(&csr);
    let mut rng = SmallRng::seed_from_u64(52);
    let new_vals: Vec<f64> = (0..csr.vals.len())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    m.update_values(&new_vals).unwrap();

    let mut fresh_csr = csr.clone();
    fresh_csr.vals = new_vals;
    let fresh = DaspMatrix::with_params(&fresh_csr, reorder_params());
    let x = dasp_matgen::dense_vector(csr.cols, 7);
    assert_eq!(m.spmv(&x, &mut NoProbe), fresh.spmv(&x, &mut NoProbe));
}

/// A reordered matrix must pass every sanitizer check (race, mask,
/// init) that the regular build passes: the permutation only renames
/// which original row each block slot points at, never the access
/// discipline.
#[test]
fn reordered_kernels_are_sanitize_clean() {
    let csr = medium_heavy(150, 180, 61);
    let m = DaspMatrix::with_params(&csr, reorder_params());
    let b = random_rhs::<f64>(csr.cols, 20, 62);
    let mut probe = dasp_sanitize::SanitizeProbe::new(CountingProbe::a100());
    let _ = m.spmm_with(&b, &mut probe, &Executor::seq());
    let x = b.column(0);
    let _ = m.spmv_with(&x, &mut probe, &Executor::seq());
    let report = probe.report();
    assert!(report.is_clean(), "{report}");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Arbitrary width x reorder x executor: the SpMM result must match
    /// column-by-column SpMV of the *same build* bit for bit, and the
    /// reordered build must match the plain build bit for bit.
    #[test]
    fn any_width_reorder_matches_columnwise_spmv(
        seed in 0u64..1000,
        width in 1usize..=20,
        par in proptest::prelude::any::<bool>(),
    ) {
        let csr = medium_heavy(60, 80, seed);
        let exec = if par { forced_par() } else { Executor::seq() };
        let plain = DaspMatrix::from_csr(&csr);
        let reordered = DaspMatrix::with_params(&csr, reorder_params());
        let b = random_rhs::<f64>(csr.cols, width, seed ^ 7);
        let z0 = plain.spmm_with(&b, &mut NoProbe, &exec);
        let z1 = reordered.spmm_with(&b, &mut NoProbe, &exec);
        proptest::prop_assert_eq!(z0.data(), z1.data());
        for j in 0..width {
            let y = reordered.spmv_with(&b.column(j), &mut NoProbe, &exec);
            for (r, yv) in y.iter().enumerate() {
                proptest::prop_assert_eq!(
                    z1.get(r, j).to_bits(),
                    yv.to_bits(),
                    "col {} row {}", j, r
                );
            }
        }
    }
}

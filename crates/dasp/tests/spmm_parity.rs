//! The SpMM contract, end to end: for any matrix, any precision, and any
//! batch width, every column of `spmm(B)` must be **bit-identical** to
//! `spmv` of the same column of B — the masked-A segment scheme only ever
//! adds `±0.0` to the single-vector FMA chains — under both executors,
//! with the last panel stored masked (no padding slots at all). On
//! top of the value contract, the A-side traffic (`bytes_val +
//! bytes_idx`) is streamed **once** regardless of the RHS width: the
//! A-resident panel sweep amortizes it over every panel.

use dasp_core::format::Piecing;
use dasp_core::DaspMatrix;
use dasp_fp16::{Scalar, F16};
use dasp_simt::{
    CountingProbe, Executor, KernelStats, NoProbe, PanelTraffic, ParExecutor, TrafficBin,
};
use dasp_sparse::{Coo, Csr, DenseMat, PANEL_WIDTH};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A parallel executor that always threads, even on tiny grids.
fn forced_par() -> Executor {
    Executor::Par(
        ParExecutor::new()
            .with_threads(Some(4))
            .with_seq_threshold(0),
    )
}

/// Random matrix with a steerable short/medium/long row-length mix, so
/// the inputs cover every DASP category combination.
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

/// Random width-`w` RHS panel at precision `S`.
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

/// Column-slicing parity at precision `S`: every column of the SpMM
/// result equals the single-vector SpMV bit for bit, under the given
/// executor.
fn assert_column_slicing<S: Scalar>(csr: &Csr<S>, width: usize, seed: u64, exec: &Executor) {
    let d = DaspMatrix::from_csr(csr);
    let b = random_rhs::<S>(csr.cols, width, seed);
    let y = d.spmm_with(&b, &mut NoProbe, exec);
    assert_eq!((y.rows(), y.cols()), (csr.rows, width));
    for j in 0..width {
        let col_in = b.column(j);
        let want = d.spmv_with(&col_in, &mut NoProbe, &Executor::seq());
        let got = y.column(j);
        for r in 0..csr.rows {
            assert_eq!(
                got[r].to_f64().to_bits(),
                want[r].to_f64().to_bits(),
                "width {width} column {j} row {r}: spmm {} != spmv {}",
                got[r].to_f64(),
                want[r].to_f64()
            );
        }
    }
    // The last panel is stored masked, not padded: storage is exactly
    // rows x cols, with no dead slots to account for.
    assert_eq!(y.data().len(), y.rows() * y.cols());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline satellite: widths 1..=20 (partial panel, exact
    /// panels, multiple panels), all three precisions, sequential
    /// executor.
    #[test]
    fn spmm_columns_match_spmv_bitwise(
        seed in 0u64..1000,
        width in 1usize..=20,
        short_w in 0u32..4,
        medium_w in 0u32..4,
        long_w in 0u32..2,
    ) {
        let csr = random_matrix(60, 90, short_w, medium_w, long_w, seed);
        assert_column_slicing::<f64>(&csr, width, seed ^ 1, &Executor::seq());
        assert_column_slicing::<f32>(&csr.cast(), width, seed ^ 2, &Executor::seq());
        assert_column_slicing::<F16>(&csr.cast(), width, seed ^ 3, &Executor::seq());
    }

    /// Same contract under a forced-sharding parallel executor, plus
    /// counter parity: merged order-independent counters equal the
    /// sequential run's.
    #[test]
    fn spmm_parallel_matches_sequential(
        seed in 0u64..1000,
        width in 1usize..=12,
    ) {
        let csr = random_matrix(50, 70, 2, 2, 1, seed);
        assert_column_slicing::<f64>(&csr, width, seed ^ 4, &forced_par());

        let d = DaspMatrix::from_csr(&csr);
        let b = random_rhs::<f64>(csr.cols, width, seed ^ 4);
        let mut p_seq = CountingProbe::a100();
        let y_seq = d.spmm_with(&b, &mut p_seq, &Executor::seq());
        let mut p_par = CountingProbe::a100();
        let y_par = d.spmm_with(&b, &mut p_par, &forced_par());
        prop_assert_eq!(y_seq.data(), y_par.data());
        prop_assert_eq!(
            p_seq.stats().order_independent(),
            p_par.stats().order_independent()
        );
    }
}

/// The tentpole's traffic claim, as a hard invariant: A-side bytes
/// (values + indices) per right-hand side strictly decrease as the width
/// grows 1 -> 8, while MMA issues and B-side gathers stay exactly at the
/// looped-SpMV totals.
#[test]
fn a_traffic_per_rhs_strictly_decreases_to_panel_width() {
    let csr = random_matrix(80, 120, 3, 3, 1, 7);
    let d = DaspMatrix::from_csr(&csr);

    let mut spmv_probe = CountingProbe::a100();
    let x = random_rhs::<f64>(csr.cols, 1, 99).column(0);
    d.spmv_with(&x, &mut spmv_probe, &Executor::seq());
    let spmv_stats = spmv_probe.stats();

    let mut last_per_rhs = f64::INFINITY;
    for width in 1..=PANEL_WIDTH {
        let b = random_rhs::<f64>(csr.cols, width, 99);
        let mut probe = CountingProbe::a100();
        d.spmm_with(&b, &mut probe, &Executor::seq());
        let s = probe.stats();
        // One panel sweep streams A exactly once, independent of width.
        assert_eq!(s.bytes_val, spmv_stats.bytes_val, "width {width}");
        assert_eq!(s.bytes_idx, spmv_stats.bytes_idx, "width {width}");
        // MMA issues are per-panel constant: 8 masked-segment issues per
        // block, whatever the live width — equal to looped SpMV at the
        // full 8-column panel, paid in full by partial panels (as the
        // hardware would). B gathers scale exactly with the live width.
        assert_eq!(
            s.mma_ops,
            spmv_stats.mma_ops * PANEL_WIDTH as u64,
            "width {width}"
        );
        assert_eq!(
            s.x_requests,
            spmv_stats.x_requests * width as u64,
            "width {width}"
        );
        let per_rhs = (s.bytes_val + s.bytes_idx) as f64 / width as f64;
        assert!(
            per_rhs < last_per_rhs,
            "A+idx bytes per RHS must strictly decrease: width {width} gives {per_rhs}, previous {last_per_rhs}"
        );
        last_per_rhs = per_rhs;
    }
}

/// Multi-panel widths stream A **once for all panels**: the A-resident
/// sweep keeps each block's values and indices in registers while every
/// RHS panel is issued, so width 16 costs the *same* A bytes as width 8
/// (and as a single SpMV) while MMA issues scale with the panel count.
#[test]
fn multi_panel_widths_stream_a_once_for_all_panels() {
    let csr = random_matrix(60, 80, 3, 2, 1, 11);
    let d = DaspMatrix::from_csr(&csr);
    let stats_at = |width: usize| {
        let b = random_rhs::<f64>(csr.cols, width, 5);
        let mut probe = CountingProbe::a100();
        d.spmm_with(&b, &mut probe, &Executor::seq());
        probe.stats()
    };
    let s8 = stats_at(8);
    let s16 = stats_at(16);
    let s32 = stats_at(32);
    assert_eq!(s16.bytes_val, s8.bytes_val);
    assert_eq!(s16.bytes_idx, s8.bytes_idx);
    assert_eq!(s32.bytes_val, s8.bytes_val);
    assert_eq!(s32.bytes_idx, s8.bytes_idx);
    assert_eq!(s16.mma_ops, 2 * s8.mma_ops);
    assert_eq!(s32.mma_ops, 4 * s8.mma_ops);
}

/// Degenerate shapes: zero-width B, empty matrix.
#[test]
fn degenerate_shapes() {
    let csr = random_matrix(20, 30, 2, 1, 0, 3);
    let d = DaspMatrix::from_csr(&csr);
    let y = d.spmm_with(&DenseMat::zeros(30, 0), &mut NoProbe, &Executor::seq());
    assert_eq!((y.rows(), y.cols()), (20, 0));

    let empty = Coo::<f64>::new(4, 5).to_csr();
    let de = DaspMatrix::from_csr(&empty);
    let y = de.spmm_with(&random_rhs::<f64>(5, 3, 1), &mut NoProbe, &Executor::seq());
    assert!(y.data().iter().all(|v| v.to_bits() == 0));
}

/// The scalar singleton kernel charges each B-gather miss to the panel
/// that caused it: on a cold cache that evicts nothing, panel `p`'s
/// `bytes_x_miss` is exactly the distinct B lines panel `p` touches,
/// times the line size.
#[test]
fn singleton_gathers_charge_misses_to_their_own_panel() {
    let (rows, cols, width) = (200, 300, 16);
    let mut rng = SmallRng::seed_from_u64(17);
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        coo.push(r, rng.gen_range(0..cols), rng.gen_range(-1.0..1.0));
    }
    let csr: Csr<f64> = coo.to_csr();
    let d = DaspMatrix::from_csr(&csr);
    assert_eq!(d.short.n1, rows, "every row must take the singleton kernel");

    let b = random_rhs::<f64>(cols, width, 3);
    let mut probe = CountingProbe::a100();
    d.spmm_with(&b, &mut probe, &Executor::seq());
    let pt = probe.panel_traffic().expect("SpMM hints panels");
    assert_eq!(pt.panels.len(), b.num_panels());
    let line = 128u64;
    for (p, bin) in pt.panels.iter().enumerate() {
        let lines: std::collections::BTreeSet<u64> = csr
            .col_idx
            .iter()
            .flat_map(|&c| (0..b.panel_width(p)).map(move |jj| (p, c as usize, jj)))
            .map(|(p, c, jj)| b.lin_index(p, c, jj) as u64 * f64::BYTES / line)
            .collect();
        assert_eq!(bin.bytes_x_miss, lines.len() as u64 * line, "panel {p}");
    }
    assert_eq!(pt.shared.bytes_x_miss, 0);
    let total: u64 = pt.panels.iter().map(|bin| bin.bytes_x_miss).sum();
    assert_eq!(total, probe.stats().bytes_x_miss);
}

/// One matrix on every SpMM path: two long rows, medium rows, short rows
/// of lengths 0..=4 (1&3 pairs, 2&2 pairs, length-4 rows) and leftover
/// singletons. Columns step by 3 from a per-row start; 3 is coprime with
/// the 700 columns, so no row repeats a column.
fn every_path_matrix() -> Csr<f64> {
    let cols = 700;
    let lens = [300, 420]
        .into_iter()
        .chain((0..38).map(|r| 5 + (r * 13) % 200))
        .chain((0..160).map(|r| r % 5))
        .chain([1; 20]);
    let mut rng = SmallRng::seed_from_u64(128);
    let mut coo = Coo::new(220, cols);
    for (r, len) in lens.enumerate() {
        for k in 0..len {
            coo.push(r, (r * 17 + k * 3) % cols, rng.gen_range(-1.0..1.0));
        }
    }
    coo.to_csr()
}

/// The A100 counters and panel split of one SpMM run of
/// [`every_path_matrix`] at `width` with a seed-`width` RHS.
fn spmm_record<S: Scalar>(width: usize, exec: &Executor) -> (KernelStats, PanelTraffic) {
    let d = DaspMatrix::from_csr(&every_path_matrix().cast::<S>());
    let b = random_rhs::<S>(d.cols, width, width as u64);
    let mut probe = CountingProbe::a100();
    d.spmm_with(&b, &mut probe, exec);
    let pt = probe.panel_traffic().expect("SpMM hints panels").clone();
    (probe.stats(), pt)
}

/// A recorded seq run: precision, width, the 17 `KernelStats` counters in
/// declaration order, and each panel's B-miss bytes. The A values and
/// indices all load in the shared bin, so the panels carry no A bytes.
type Record = (&'static str, usize, [u64; 17], &'static [u64]);

/// [`spmm_record`] under `Executor::seq()`. How the MMA bodies read B is
/// invisible to the probe, so these counters move only when what the
/// kernels load, issue or launch moves.
const RECORDS: [Record; 4] = [
    (
        "fp64",
        128,
        [
            37400, 18700, 12648, 204800, 598400, 592800, 5600, 716800, 149600, 17408, 65920, 3104,
            28, 7, 3, 8, 186,
        ],
        &[44800; 16],
    ),
    (
        "fp16",
        128,
        [
            9350, 18700, 6504, 54272, 598400, 597000, 1400, 179200, 71552, 17408, 65920, 3104, 28,
            7, 3, 8, 186,
        ],
        &[
            11136, 11264, 11136, 11264, 11136, 11264, 11136, 11264, 11136, 11264, 11136, 11264,
            11136, 11264, 11136, 11264,
        ],
    ),
    (
        "fp64",
        131,
        [
            37400, 18700, 12936, 209600, 612425, 606693, 5732, 733696, 156304, 18496, 67465, 3248,
            28, 7, 3, 8, 186,
        ],
        &[
            44800, 44800, 44800, 44800, 44800, 44800, 44800, 44800, 44800, 44800, 44800, 44800,
            44800, 44800, 44800, 44800, 16896,
        ],
    ),
    (
        "fp16",
        131,
        [
            9350, 18700, 6648, 55544, 612425, 610992, 1433, 183424, 74829, 18496, 67465, 3248, 28,
            7, 3, 8, 186,
        ],
        &[
            11136, 11264, 11136, 11264, 11136, 11264, 11136, 11264, 11136, 11264, 11136, 11264,
            11136, 11264, 11136, 11264, 4224,
        ],
    ),
];

/// Checks [`spmm_record`] against [`RECORDS`]: exactly under the seq
/// executor, and on the order-independent counters and A bytes under the
/// forced-par one (its shards warm separate caches).
fn assert_record<S: Scalar>(width: usize) {
    let (_, _, fields, panel_miss) = RECORDS
        .iter()
        .find(|r| (r.0, r.1) == (S::NAME, width))
        .expect("a record per precision and width");
    let [bytes_val, bytes_idx, bytes_meta, bytes_y, x_requests, x_hits, x_misses, bytes_x_miss, x_sectors, mma_ops, fma_ops, shfl_ops, warps, blocks, launches, divergent_regions, inactive_lanes] =
        *fields;
    let want = KernelStats {
        bytes_val,
        bytes_idx,
        bytes_meta,
        bytes_y,
        x_requests,
        x_hits,
        x_misses,
        bytes_x_miss,
        x_sectors,
        mma_ops,
        fma_ops,
        shfl_ops,
        warps,
        blocks,
        launches,
        divergent_regions,
        inactive_lanes,
    };
    let want_pt = PanelTraffic {
        shared: TrafficBin {
            bytes_val,
            bytes_idx,
            bytes_x_miss: 0,
        },
        panels: panel_miss
            .iter()
            .map(|&bytes_x_miss| TrafficBin {
                bytes_x_miss,
                ..TrafficBin::default()
            })
            .collect(),
    };
    let (stats, pt) = spmm_record::<S>(width, &Executor::seq());
    assert_eq!(stats, want, "{} width {width}", S::NAME);
    assert_eq!(pt, want_pt, "{} width {width}", S::NAME);

    let (stats, pt) = spmm_record::<S>(width, &forced_par());
    assert_eq!(stats.order_independent(), want.order_independent());
    assert_eq!(
        pt.shared.bytes_val + pt.shared.bytes_idx,
        bytes_val + bytes_idx
    );
    assert_eq!(pt.panels.len(), panel_miss.len());
    assert!(pt
        .panels
        .iter()
        .all(|bin| bin.bytes_val + bin.bytes_idx == 0));
}

/// Full-width SpMM as the benchmark runs it: width 128 (16 panels) and
/// 131 (a partial 17th) on a matrix that takes every kernel path, fp64
/// and F16, seq and forced par. Every column is bit-identical to SpMV,
/// and the counters and panel split equal the record.
#[test]
fn full_width_spmm_matches_spmv_and_the_recorded_counters() {
    let csr = every_path_matrix();
    let d = DaspMatrix::from_csr(&csr);
    assert!(d.long.num_groups() > 0, "long rows");
    assert!(!d.medium.rows.is_empty(), "medium rows");
    assert!(d.short.n1 > 0, "leftover singletons");
    for piecing in Piecing::ALL {
        assert!(piecing.warps(&d.short) > 0, "{piecing:?} rows");
    }
    for width in [128, 131] {
        for exec in [Executor::seq(), forced_par()] {
            assert_column_slicing::<f64>(&csr, width, width as u64, &exec);
            assert_column_slicing::<F16>(&csr.cast(), width, width as u64, &exec);
        }
        assert_record::<f64>(width);
        assert_record::<F16>(width);
    }
}

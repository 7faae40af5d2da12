//! The probe's split contract, end to end on the DASP pipeline: within
//! one warp, splitting an access into consecutive slices changes no
//! [`KernelStats`] field. So running the kernels against a probe that
//! cuts every `load_x` / `load_x_rows` slice into one-element calls must
//! produce exactly the same [`KernelStats`] and [`PanelTraffic`] as the
//! [`CountingProbe`] fed whole warp accesses, **including** the
//! cache-order-dependent fields (`x_hits`, `x_misses`, `bytes_x_miss`)
//! and the sector count (`x_sectors`).
//!
//! This pins that the kernels' warp-granular calls change how many probe
//! calls they make, never which element accesses they describe or the
//! order they describe them in.

use dasp_core::DaspMatrix;
use dasp_fp16::{Scalar, F16};
use dasp_simt::{
    CountingProbe, Executor, KernelStats, PanelTraffic, ParExecutor, Probe, ShardableProbe,
};
use dasp_sparse::{Coo, Csr, DenseMat};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Wraps a [`CountingProbe`] but hands it every `x` access one element
/// at a time: each slice a kernel passes is cut into one-element
/// `load_x` calls on the inner probe, in order.
struct PerElementOnly(CountingProbe);

impl Probe for PerElementOnly {
    fn kernel_launch(&mut self, blocks: u64, warps_per_block: u64) {
        self.0.kernel_launch(blocks, warps_per_block)
    }
    fn load_val(&mut self, elems: u64, bytes_per: u64) {
        self.0.load_val(elems, bytes_per)
    }
    fn load_idx(&mut self, elems: u64, bytes_per: u64) {
        self.0.load_idx(elems, bytes_per)
    }
    fn load_meta(&mut self, elems: u64, bytes_per: u64) {
        self.0.load_meta(elems, bytes_per)
    }
    fn store_y(&mut self, elems: u64, bytes_per: u64) {
        self.0.store_y(elems, bytes_per)
    }
    fn load_x(&mut self, indices: &[usize], bytes_per: u64) {
        for &i in indices {
            self.0.load_x(&[i], bytes_per)
        }
    }
    fn load_x_rows(&mut self, starts: &[usize], len: usize, bytes_per: u64) {
        for &s in starts {
            for i in s..s + len {
                self.0.load_x(&[i], bytes_per)
            }
        }
    }
    fn mma(&mut self) {
        self.0.mma()
    }
    fn fma(&mut self, n: u64) {
        self.0.fma(n)
    }
    fn shfl(&mut self, n: u64) {
        self.0.shfl(n)
    }
    fn warp_begin(&mut self, warp_id: usize) {
        self.0.warp_begin(warp_id)
    }
    fn warp_end(&mut self, warp_id: usize) {
        self.0.warp_end(warp_id)
    }
    fn divergence(&mut self, inactive: u64) {
        self.0.divergence(inactive)
    }
    fn panel(&mut self, panel: Option<usize>) {
        self.0.panel(panel)
    }
    fn stats_snapshot(&self) -> KernelStats {
        self.0.stats_snapshot()
    }
}

impl ShardableProbe for PerElementOnly {
    fn fork_shard(&self) -> Self {
        PerElementOnly(self.0.fork_shard())
    }
    fn merge_shard(&mut self, shard: Self) {
        self.0.merge_shard(shard.0)
    }
}

/// A parallel executor that always threads, even on tiny grids.
fn forced_par() -> Executor {
    Executor::Par(
        ParExecutor::new()
            .with_threads(Some(4))
            .with_seq_threshold(0),
    )
}

/// Random matrix with a steerable short/medium/long row-length mix, so
/// the inputs cover every DASP kernel (long, medium, and all four short
/// sub-kernels).
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

/// Runs the full SpMV + SpMM pipeline at precision `S` under `exec`
/// twice — whole warp accesses vs. one-element slices — and
/// asserts the stats are field-for-field identical (cache classification
/// included) and the outputs bit-identical.
fn assert_batched_parity<S: Scalar>(csr: &Csr<S>, seed: u64, exec: &Executor) {
    let d = DaspMatrix::from_csr(csr);
    let mut rng = SmallRng::seed_from_u64(seed);
    let x: Vec<S> = (0..csr.cols)
        .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
        .collect();

    let mut batched = CountingProbe::a100();
    let y_batched = d.spmv_with(&x, &mut batched, exec);
    let mut scalar = PerElementOnly(CountingProbe::a100());
    let y_scalar = d.spmv_with(&x, &mut scalar, exec);

    for (i, (a, b)) in y_batched.iter().zip(&y_scalar).enumerate() {
        assert_eq!(
            a.to_f64().to_bits(),
            b.to_f64().to_bits(),
            "spmv row {i} diverged between probe paths"
        );
    }
    assert_eq!(
        batched.stats(),
        scalar.0.stats(),
        "spmv stats diverged between whole and one-element probe calls"
    );

    // SpMM drives the multi-RHS kernel family: a partial panel only (3),
    // one full panel (8), a full plus a partial panel (13), and the
    // sixteen full panels of the multi-RHS regime (128).
    for width in SPMM_WIDTHS {
        let columns: Vec<Vec<S>> = (0..width)
            .map(|_| {
                (0..csr.cols)
                    .map(|_| S::from_f64(rng.gen_range(-1.0..1.0)))
                    .collect()
            })
            .collect();
        let b = DenseMat::from_columns(&columns);
        let mut batched = CountingProbe::a100();
        let ym_batched = d.spmm_with(&b, &mut batched, exec);
        let mut scalar = PerElementOnly(CountingProbe::a100());
        let ym_scalar = d.spmm_with(&b, &mut scalar, exec);

        assert_eq!(
            ym_batched.data().len(),
            ym_scalar.data().len(),
            "spmm width {width} output shapes differ"
        );
        for (i, (a, b)) in ym_batched.data().iter().zip(ym_scalar.data()).enumerate() {
            assert_eq!(
                a.to_f64().to_bits(),
                b.to_f64().to_bits(),
                "spmm width {width} element {i} diverged between probe paths"
            );
        }
        assert_eq!(
            batched.stats(),
            scalar.0.stats(),
            "spmm width {width} stats diverged between whole and one-element probe calls"
        );
        assert_eq!(
            batched.panel_traffic(),
            scalar.0.panel_traffic(),
            "spmm width {width} panel traffic diverged between probe paths"
        );
        // Every kernel sweeps every panel, so a matrix with nonzeros
        // materializes one bin per panel (an empty one launches nothing).
        let panels = batched
            .panel_traffic()
            .map_or(0, |pt: &PanelTraffic| pt.panels.len());
        let want = if csr.nnz() > 0 { width.div_ceil(8) } else { 0 };
        assert_eq!(panels, want, "spmm width {width} panel split");
    }
}

/// RHS widths of the SpMM half of every parity case.
const SPMM_WIDTHS: [usize; 4] = [3, 8, 13, 128];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fp64_batched_probe_is_bit_identical(
        rows in 1usize..120,
        cols in 601usize..900,
        short_w in 0u32..10,
        medium_w in 0u32..10,
        long_w in 0u32..4,
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, short_w, medium_w, long_w, seed);
        assert_batched_parity::<f64>(&csr, seed ^ 0xA5A5, &Executor::seq());
        assert_batched_parity::<f64>(&csr, seed ^ 0xA5A5, &forced_par());
    }

    #[test]
    fn fp32_batched_probe_is_bit_identical(
        rows in 1usize..100,
        short_w in 0u32..8,
        medium_w in 0u32..8,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let csr64 = random_matrix(rows, 700, short_w, medium_w, long_w, seed);
        let csr: Csr<f32> = csr64.cast();
        assert_batched_parity::<f32>(&csr, seed ^ 0x5A5A, &Executor::seq());
        assert_batched_parity::<f32>(&csr, seed ^ 0x5A5A, &forced_par());
    }

    #[test]
    fn fp16_batched_probe_is_bit_identical(
        rows in 1usize..100,
        short_w in 0u32..8,
        medium_w in 0u32..8,
        long_w in 0u32..3,
        seed in any::<u64>(),
    ) {
        let csr64 = random_matrix(rows, 700, short_w, medium_w, long_w, seed);
        let csr: Csr<F16> = csr64.cast();
        assert_batched_parity::<F16>(&csr, seed ^ 0x3C3C, &Executor::seq());
        assert_batched_parity::<F16>(&csr, seed ^ 0x3C3C, &forced_par());
    }
}

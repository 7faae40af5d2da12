//! The short-rows MMA kernel (paper Algorithm 4 and Fig. 8): one
//! pass-masked warp body for the 1&3, length-4 and 2&2 sections.
//!
//! Each warp issues four MMA passes. Pass `i` takes block `i / P` and
//! piece `i % P` of the section's [`Piecing`] (`P` pieces per packed
//! row): the block's A values load once, on piece 0, and the `x` gather
//! runs only on the piece's lanes, so each MMA's diagonal holds that
//! piece's dot products — the singletons, then the length-3 rows of a
//! 1&3 block; one length-4 row per packed row in the length-4 section.
//! The warp produces exactly 32 `y` values.

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_diag, DIAG_SLOTS};
use dasp_simt::warp::{per_lane, WARP_SIZE};
use dasp_simt::{Executor, Probe, ShardableProbe, SharedSlice};

use crate::consts::BLOCK_ELEMS;
use crate::format::{Piecing, ShortPart};
use crate::kernels::{extract_diagonals, gather_x, load_block, write_permuted};

/// Runs one short section's SpMV under the given executor, scattering
/// results into `y`.
pub fn spmv_pieced_with<S: Scalar, P: ShardableProbe>(
    part: &ShortPart<S>,
    piecing: Piecing,
    x: &[S],
    y: &mut [S],
    probe: &mut P,
    exec: &Executor,
) {
    let shared = SharedSlice::new(y);
    exec.run(piecing.warps(part), probe, |w, p| {
        pieced_warp(part, piecing, x, &shared, w, p)
    });
}

/// Warp body: warp `w` of the section computes its blocks in four
/// pass-masked MMA issues and writes its 32 permuted `y` slots.
pub fn pieced_warp<S: Scalar, P: Probe>(
    part: &ShortPart<S>,
    piecing: Piecing,
    x: &[S],
    y: &SharedSlice<S>,
    w: usize,
    probe: &mut P,
) {
    // The body is inlined once per piecing: with the piecing a constant,
    // the pass loops unroll into a fixed four-pass sequence.
    match piecing {
        Piecing::OneThree => pass_masked(part, Piecing::OneThree, x, y, w, probe),
        Piecing::Four => pass_masked(part, Piecing::Four, x, y, w, probe),
        Piecing::TwoTwo => pass_masked(part, Piecing::TwoTwo, x, y, w, probe),
    }
}

#[inline(always)]
fn pass_masked<S: Scalar, P: Probe>(
    part: &ShortPart<S>,
    piecing: Piecing,
    x: &[S],
    y: &SharedSlice<S>,
    w: usize,
    probe: &mut P,
) {
    probe.warp_begin(w);
    probe.san_region(piecing.spmv_region());
    let mut res: [S::Acc; WARP_SIZE] = [S::acc_zero(); WARP_SIZE];
    let mut frag_a: [S; WARP_SIZE] = [S::zero(); WARP_SIZE];

    for i in 0..4usize {
        // Pass `i` works on block `i / P` and piece `i % P`.
        let (block, piece) = (i / piecing.passes(), i % piecing.passes());
        let offset = piecing.block_offset(part, w, block);
        let mut acc = acc_zero::<S>();
        probe.san_frag_clear();
        let cids = load_block(&part.cids, offset);
        if piece == 0 {
            // A block's values load once, for all of its pieces.
            frag_a = load_block(&part.vals, offset);
            probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
            probe.load_idx(BLOCK_ELEMS as u64, 4);
        }
        let frag_x = gather_x_masked(x, &cids, piecing.lane_mask(piece), probe);
        mma_m8n8k4_diag::<S>(&mut acc, &frag_a, &frag_x);
        probe.mma();
        probe.san_frag_mma(DIAG_SLOTS);
        extract_diagonals::<S, P>(&acc, i, &mut res, probe);
    }

    // Padding slots have no output row: those lanes are predicated off
    // during write-back.
    write_permuted::<S, P>(
        &piecing.perm(part)[w * WARP_SIZE..(w + 1) * WARP_SIZE],
        &res,
        y,
        probe,
    );
    probe.warp_end(w);
}

/// Masked coalesced `x` gather: the lanes in `mask` read
/// `x[cids[lane]]` in one batched access, in lane order; the others hold
/// zero. A full mask is the full-block [`gather_x`].
#[inline(always)]
fn gather_x_masked<S: Scalar, P: Probe>(
    x: &[S],
    cids: &[u32; WARP_SIZE],
    mask: u32,
    probe: &mut P,
) -> [S; WARP_SIZE] {
    if mask == u32::MAX {
        return gather_x(x, cids, probe);
    }
    let mut xi = [0usize; WARP_SIZE];
    let mut nx = 0;
    for (l, &c) in cids.iter().enumerate() {
        if mask >> l & 1 != 0 {
            xi[nx] = c as usize;
            nx += 1;
        }
    }
    probe.load_x(&xi[..nx], S::BYTES);
    per_lane(|l| {
        if mask >> l & 1 != 0 {
            x[cids[l] as usize]
        } else {
            S::zero()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::{Coo, Csr};

    fn build_short(csr: &Csr<f64>) -> ShortPart<f64> {
        let rows: Vec<(u32, Vec<(u32, f64)>)> = (0..csr.rows)
            .filter(|&r| csr.row_len(r) > 0)
            .map(|r| (r as u32, csr.row(r).collect()))
            .collect();
        ShortPart::build(rows)
    }

    /// `units` packed rows of `piecing`: one row per piece, so every row
    /// lands in that section (1&3 pairs, 2&2 pairs, or length-4 rows).
    fn section_matrix(piecing: Piecing, units: usize, cols: usize) -> Csr<f64> {
        let pieces = piecing.pieces();
        let mut coo = Coo::<f64>::new(units * pieces.len(), cols);
        for u in 0..units {
            for (p, &(_, len)) in pieces.iter().enumerate() {
                let r = u * pieces.len() + p;
                for k in 0..len {
                    coo.push(r, (r * 7 + k * 2) % cols, ((r + 1) * (k + 1)) as f64 * 0.05);
                }
            }
        }
        coo.to_csr()
    }

    /// Builds `units` packed rows of every piecing and checks each
    /// section's SpMV against the reference.
    fn check(units: impl Fn(Piecing) -> usize, cols: usize) {
        for piecing in Piecing::ALL {
            let csr = section_matrix(piecing, units(piecing), cols);
            let part = build_short(&csr);
            assert_eq!(part.n1, 0);
            for other in Piecing::ALL {
                assert_eq!(other.warps(&part) > 0, other == piecing, "{piecing:?}");
            }
            let x: Vec<f64> = (0..cols).map(|i| 0.3 + (i % 5) as f64).collect();
            let mut y = vec![0.0f64; csr.rows];
            spmv_pieced_with(&part, piecing, &x, &mut y, &mut NoProbe, &Executor::seq());
            let want = csr.spmv_reference(&x);
            for r in 0..csr.rows {
                assert!(
                    (y[r] - want[r]).abs() <= 1e-9 * want[r].abs().max(1.0),
                    "{piecing:?} row {r}: got {} want {}",
                    y[r],
                    want[r]
                );
            }
        }
    }

    #[test]
    fn one_row_or_pair() {
        check(|_| 1, 16);
    }

    #[test]
    fn exactly_one_warp() {
        check(Piecing::rows_per_warp, 64);
    }

    #[test]
    fn padding_tail() {
        check(|p| p.rows_per_warp() + 7, 128);
    }

    #[test]
    fn many_warps() {
        check(|p| 10 * p.rows_per_warp() + 5, 512);
    }

    #[test]
    fn lane_masks_split_each_packed_row() {
        assert_eq!(Piecing::OneThree.lane_mask(0), 0x1111_1111);
        assert_eq!(Piecing::OneThree.lane_mask(1), 0xEEEE_EEEE);
        assert_eq!(Piecing::TwoTwo.lane_mask(0), 0x3333_3333);
        assert_eq!(Piecing::TwoTwo.lane_mask(1), 0xCCCC_CCCC);
        assert_eq!(Piecing::Four.lane_mask(0), 0xFFFF_FFFF);
        for p in Piecing::ALL {
            assert_eq!(p.passes(), p.pieces().len());
            for piece in 0..p.passes() {
                assert_eq!(p.lane_mask(piece), p.k_mask(piece) * 0x1111_1111, "{p:?}");
            }
            let union = (0..p.passes()).fold(0, |m, piece| m | p.lane_mask(piece));
            assert_eq!(union, u32::MAX, "{p:?} pieces cover the block");
        }
    }

    /// Records each `x` gather slice; every other event is ignored.
    #[derive(Default)]
    struct Gathers(Vec<Vec<usize>>);

    impl Probe for Gathers {
        fn kernel_launch(&mut self, _: u64, _: u64) {}
        fn load_val(&mut self, _: u64, _: u64) {}
        fn load_idx(&mut self, _: u64, _: u64) {}
        fn load_meta(&mut self, _: u64, _: u64) {}
        fn store_y(&mut self, _: u64, _: u64) {}
        fn load_x(&mut self, indices: &[usize], _: u64) {
            self.0.push(indices.to_vec());
        }
        fn load_x_rows(&mut self, _: &[usize], _: usize, _: u64) {}
        fn mma(&mut self) {}
        fn fma(&mut self, _: u64) {}
        fn shfl(&mut self, _: u64) {}
    }

    #[test]
    fn full_mask_gathers_like_the_full_block_gather() {
        let x: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let cids: [u32; WARP_SIZE] = per_lane(|l| ((l * 11) % 40) as u32);
        let (mut masked, mut full) = (Gathers::default(), Gathers::default());
        let a = gather_x_masked(&x, &cids, Piecing::Four.lane_mask(0), &mut masked);
        let b = gather_x(&x, &cids, &mut full);
        assert_eq!(a, b);
        assert_eq!(masked.0, full.0);
    }

    #[test]
    fn a_loaded_once_x_loaded_once_per_element() {
        for piecing in Piecing::ALL {
            let csr = section_matrix(piecing, piecing.rows_per_warp(), 64);
            let part = build_short(&csr);
            let x = vec![1.0f64; 64];
            let mut y = vec![0.0f64; csr.rows];
            let mut probe = CountingProbe::a100();
            spmv_pieced_with(&part, piecing, &x, &mut y, &mut probe, &Executor::seq());
            let s = probe.stats();
            // One warp: A loaded once per block, x requested once per
            // element slot (each slot in exactly one piece's pass).
            let slots = (piecing.blocks_per_warp() * BLOCK_ELEMS) as u64;
            assert_eq!(s.bytes_val, slots * 8, "{piecing:?}");
            assert_eq!(s.x_requests, slots, "{piecing:?}");
            assert_eq!(s.mma_ops, 4, "{piecing:?}");
            assert_eq!(s.bytes_y, 32 * 8, "{piecing:?}");
        }
    }

    #[test]
    fn empty_part_is_a_no_op() {
        let part = ShortPart::<f64>::build(Vec::new());
        for piecing in Piecing::ALL {
            let mut probe = CountingProbe::a100();
            let mut y = vec![0.0f64; 2];
            spmv_pieced_with(&part, piecing, &[1.0], &mut y, &mut probe, &Executor::seq());
            assert_eq!(probe.stats().launches, 0);
            assert_eq!(y, [0.0; 2]);
        }
    }

    #[test]
    fn warp_bodies_in_any_order_equal_the_full_run() {
        // Executing each warp body exactly once — here in reverse order —
        // must equal the in-order run: warps own disjoint y slots.
        for piecing in Piecing::ALL {
            let csr = section_matrix(piecing, 3 * piecing.rows_per_warp() + 4, 64);
            let part = build_short(&csr);
            assert!(piecing.warps(&part) >= 2);
            let x = vec![1.0f64; 64];
            let mut y_full = vec![0.0f64; csr.rows];
            spmv_pieced_with(
                &part,
                piecing,
                &x,
                &mut y_full,
                &mut NoProbe,
                &Executor::seq(),
            );
            let mut y_split = vec![0.0f64; csr.rows];
            {
                let shared = SharedSlice::new(&mut y_split);
                for w in (0..piecing.warps(&part)).rev() {
                    pieced_warp(&part, piecing, &x, &shared, w, &mut NoProbe);
                }
            }
            assert_eq!(y_full, y_split, "{piecing:?}");
        }
    }
}

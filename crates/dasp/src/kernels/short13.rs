//! The 1&3-pieced short-rows kernel (paper Algorithm 4 and Fig. 8).
//!
//! Each warp computes two 8x4 blocks with **four** MMA issues. A block's
//! matrix values are loaded once; the `x` values are loaded in two passes —
//! first only column 0 (the length-1 piece of every packed row), then only
//! columns 1..3 (the length-3 piece) — so each MMA's diagonal holds either
//! the singleton products or the 3-element dot products. The warp produces
//! exactly 32 `y` values.

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_diag, DIAG_SLOTS};
use dasp_simt::warp::{per_lane, WARP_SIZE};
use dasp_simt::{Executor, Probe, ShardableProbe, SharedSlice};

use crate::consts::BLOCK_ELEMS;
use crate::format::ShortPart;
use crate::kernels::{extract_diagonals, load_block, write_permuted};

/// Runs the 1&3 short-rows SpMV under the given executor, scattering
/// results into `y`.
pub fn spmv_short13_with<S: Scalar, P: ShardableProbe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &mut [S],
    probe: &mut P,
    exec: &Executor,
) {
    let shared = SharedSlice::new(y);
    exec.run(part.n13_warps, probe, |w, p| {
        short13_warp(part, x, &shared, w, p)
    });
}

/// Warp body: warp `w` computes two 8x4 blocks (four MMA passes) and
/// writes its 32 permuted `y` slots.
pub fn short13_warp<S: Scalar, P: Probe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &SharedSlice<S>,
    w: usize,
    probe: &mut P,
) {
    probe.warp_begin(w);
    probe.san_region("dasp.short13");
    let warp_base = w * 2 * BLOCK_ELEMS; // two blocks per warp
    let mut res: [S::Acc; WARP_SIZE] = [S::acc_zero(); WARP_SIZE];
    let mut frag_a: [S; WARP_SIZE] = [S::zero(); WARP_SIZE];
    let mut offset = warp_base;

    for i in 0..4usize {
        let mut acc = acc_zero::<S>();
        probe.san_frag_clear();
        let cids = load_block(&part.cids, offset);
        let even = i & 1 == 0;
        if even {
            // Even pass: load A; only column 0's x values participate
            // (the length-1 piece of every packed row).
            frag_a = load_block(&part.vals, offset);
            probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
            probe.load_idx(BLOCK_ELEMS as u64, 4);
        }
        // Masked coalesced x gather: the pass's active lanes in lane
        // order, one batched access for the whole block.
        let mut xi = [0usize; WARP_SIZE];
        let mut nx = 0;
        for (l, &c) in cids.iter().enumerate() {
            if (l & 3 == 0) == even {
                xi[nx] = c as usize;
                nx += 1;
            }
        }
        probe.load_x(&xi[..nx], S::BYTES);
        let frag_x: [S; WARP_SIZE] = per_lane(|l| {
            if (l & 3 == 0) == even {
                x[cids[l] as usize]
            } else {
                S::zero()
            }
        });
        if !even {
            offset += BLOCK_ELEMS; // advance to the next block
        }
        mma_m8n8k4_diag::<S>(&mut acc, &frag_a, &frag_x);
        probe.mma();
        probe.san_frag_mma(DIAG_SLOTS);
        extract_diagonals::<S, P>(&acc, i, &mut res, probe);
    }

    // Padding slots have no output row: those lanes are predicated off
    // during write-back.
    write_permuted::<S, P>(
        &part.perm13[w * WARP_SIZE..(w + 1) * WARP_SIZE],
        &res,
        y,
        probe,
    );
    probe.warp_end(w);
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

    /// Rows alternating length 1 and 3 so everything lands in the 1&3
    /// category.
    fn check(n_pairs: usize, cols: usize) {
        let mut coo = Coo::<f64>::new(2 * n_pairs, cols);
        for p in 0..n_pairs {
            coo.push(2 * p, (p * 3) % cols, (p + 1) as f64 * 0.5);
            for k in 0..3 {
                coo.push(
                    2 * p + 1,
                    (p * 5 + k * 2 + 1) % cols,
                    (p + k + 1) as f64 * 0.25,
                );
            }
        }
        let csr = coo.to_csr();
        let part = build_short(&csr);
        assert_eq!(part.n1, 0);
        assert_eq!(part.n4_warps, 0);
        let x: Vec<f64> = (0..cols).map(|i| 0.3 + (i % 5) as f64).collect();
        let mut y = vec![0.0f64; csr.rows];
        spmv_short13_with(&part, &x, &mut y, &mut NoProbe, &Executor::seq());
        let want = csr.spmv_reference(&x);
        for r in 0..csr.rows {
            assert!(
                (y[r] - want[r]).abs() <= 1e-9 * want[r].abs().max(1.0),
                "row {r}: got {} want {}",
                y[r],
                want[r]
            );
        }
    }

    #[test]
    fn one_pair() {
        check(1, 16);
    }

    #[test]
    fn exactly_one_warp_of_pairs() {
        check(16, 64);
    }

    #[test]
    fn multiple_warps_with_padding() {
        check(23, 128);
    }

    #[test]
    fn many_warps() {
        check(200, 512);
    }

    #[test]
    fn a_loaded_once_x_loaded_once_per_element() {
        let mut coo = Coo::<f64>::new(32, 64);
        for p in 0..16 {
            coo.push(2 * p, p, 1.0);
            for k in 0..3 {
                coo.push(2 * p + 1, p + k + 1, 1.0);
            }
        }
        let csr = coo.to_csr();
        let part = build_short(&csr);
        let x = vec![1.0f64; 64];
        let mut y = vec![0.0f64; 32];
        let mut probe = CountingProbe::a100();
        spmv_short13_with(&part, &x, &mut y, &mut probe, &Executor::seq());
        let s = probe.stats();
        // One warp, two blocks: A loaded once per block (64 elements), x
        // requested once per element slot (8 + 24 per block).
        assert_eq!(s.bytes_val, 64 * 8);
        assert_eq!(s.x_requests, 64);
        assert_eq!(s.mma_ops, 4);
        assert_eq!(s.bytes_y, 32 * 8);
    }

    #[test]
    fn empty_part_is_a_no_op() {
        let part = ShortPart::<f64>::build(Vec::new());
        let mut probe = CountingProbe::a100();
        let mut y = vec![0.0f64; 2];
        spmv_short13_with(&part, &[1.0], &mut y, &mut probe, &Executor::seq());
        assert_eq!(probe.stats().launches, 0);
    }
}

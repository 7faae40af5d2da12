//! The length-4 short-rows kernel (paper §3.3.3).
//!
//! Each warp computes four 8x4 blocks with four MMA issues. Every block is
//! a complete load (all 32 A elements and all 32 x values), and each MMA's
//! eight diagonal results are eight finished `y` values, extracted with the
//! same shuffle pair as the other short kernels.

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_diag, DIAG_SLOTS};
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{Executor, Probe, ShardableProbe, SharedSlice};

use crate::consts::BLOCK_ELEMS;
use crate::format::ShortPart;
use crate::kernels::{extract_diagonals, gather_x, load_block, write_permuted};

/// Runs the length-4 short-rows SpMV under the given executor, scattering
/// results into `y`.
pub fn spmv_short4_with<S: Scalar, P: ShardableProbe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &mut [S],
    probe: &mut P,
    exec: &Executor,
) {
    let shared = SharedSlice::new(y);
    exec.run(part.n4_warps, probe, |w, p| {
        short4_warp(part, x, &shared, w, p)
    });
}

/// Warp body: warp `w` computes four complete 8x4 blocks and writes its 32
/// permuted `y` slots.
pub fn short4_warp<S: Scalar, P: Probe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &SharedSlice<S>,
    w: usize,
    probe: &mut P,
) {
    probe.warp_begin(w);
    probe.san_region("dasp.short4");
    let mut res: [S::Acc; WARP_SIZE] = [S::acc_zero(); WARP_SIZE];
    for i in 0..4usize {
        let offset = part.off4 + (w * 4 + i) * BLOCK_ELEMS;
        let mut acc = acc_zero::<S>();
        probe.san_frag_clear();
        let frag_a: [S; WARP_SIZE] = load_block(&part.vals, offset);
        let cids = load_block(&part.cids, offset);
        probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
        probe.load_idx(BLOCK_ELEMS as u64, 4);
        let frag_x = gather_x(x, &cids, probe);
        mma_m8n8k4_diag::<S>(&mut acc, &frag_a, &frag_x);
        probe.mma();
        probe.san_frag_mma(DIAG_SLOTS);
        extract_diagonals::<S, P>(&acc, i, &mut res, probe);
    }
    // Padding slots have no output row: those lanes are predicated off
    // during write-back.
    write_permuted::<S, P>(
        &part.perm4[w * WARP_SIZE..(w + 1) * WARP_SIZE],
        &res,
        y,
        probe,
    );
    probe.warp_end(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::NoProbe;
    use dasp_sparse::{Coo, Csr};

    fn build_short(csr: &Csr<f64>) -> ShortPart<f64> {
        let rows: Vec<(u32, Vec<(u32, f64)>)> = (0..csr.rows)
            .filter(|&r| csr.row_len(r) > 0)
            .map(|r| (r as u32, csr.row(r).collect()))
            .collect();
        ShortPart::build(rows)
    }

    fn check(n_rows: usize, cols: usize) {
        let mut coo = Coo::<f64>::new(n_rows, cols);
        for r in 0..n_rows {
            for k in 0..4 {
                coo.push(r, (r * 7 + k * 2) % cols, ((r + 1) * (k + 1)) as f64 * 0.05);
            }
        }
        let csr = coo.to_csr();
        let part = build_short(&csr);
        assert!(part.n4_warps > 0);
        assert_eq!(part.n13_warps + part.n22_warps, 0);
        let x: Vec<f64> = (0..cols).map(|i| 0.5 + (i % 4) as f64 * 0.25).collect();
        let mut y = vec![0.0f64; csr.rows];
        spmv_short4_with(&part, &x, &mut y, &mut NoProbe, &Executor::seq());
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
    fn one_row() {
        check(1, 16);
    }

    #[test]
    fn exactly_one_warp() {
        check(32, 64);
    }

    #[test]
    fn padding_tail() {
        check(45, 128);
    }

    #[test]
    fn many_warps() {
        check(400, 256);
    }

    #[test]
    fn warp_bodies_in_any_order_equal_the_full_run() {
        // Executing each warp body exactly once — here in reverse order —
        // must equal the in-order run: warps own disjoint y slots.
        let mut coo = Coo::<f64>::new(100, 64);
        for r in 0..100 {
            for k in 0..4 {
                coo.push(r, (r + k * 9) % 64, (r + k + 1) as f64 * 0.1);
            }
        }
        let csr = coo.to_csr();
        let part = build_short(&csr);
        assert!(part.n4_warps >= 2);
        let x = vec![1.0f64; 64];
        let mut y_full = vec![0.0f64; 100];
        spmv_short4_with(&part, &x, &mut y_full, &mut NoProbe, &Executor::seq());
        let mut y_split = vec![0.0f64; 100];
        {
            let shared = SharedSlice::new(&mut y_split);
            for w in (0..part.n4_warps).rev() {
                short4_warp(&part, &x, &shared, w, &mut NoProbe);
            }
        }
        assert_eq!(y_full, y_split);
    }
}

//! The 2&2-pieced short-rows kernel (paper §3.3.3).
//!
//! Identical structure to the 1&3 kernel, but each packed row holds two
//! length-2 rows: the even MMA pass loads `x` for columns 0..1 (the first
//! row of the pair) and the odd pass for columns 2..3 (the second row).

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_diag, DIAG_SLOTS};
use dasp_simt::warp::{per_lane, WARP_SIZE};
use dasp_simt::{Executor, Probe, ShardableProbe, SharedSlice};

use crate::consts::BLOCK_ELEMS;
use crate::format::ShortPart;
use crate::kernels::{extract_diagonals, load_block, write_permuted};

/// Runs the 2&2 short-rows SpMV under the given executor, scattering
/// results into `y`.
pub fn spmv_short22_with<S: Scalar, P: ShardableProbe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &mut [S],
    probe: &mut P,
    exec: &Executor,
) {
    let shared = SharedSlice::new(y);
    exec.run(part.n22_warps, probe, |w, p| {
        short22_warp(part, x, &shared, w, p)
    });
}

/// Warp body: warp `w` computes two 8x4 blocks of 2&2-pieced rows and
/// writes its 32 permuted `y` slots.
pub fn short22_warp<S: Scalar, P: Probe>(
    part: &ShortPart<S>,
    x: &[S],
    y: &SharedSlice<S>,
    w: usize,
    probe: &mut P,
) {
    probe.warp_begin(w);
    probe.san_region("dasp.short22");
    let warp_base = part.off22 + w * 2 * BLOCK_ELEMS;
    let mut res: [S::Acc; WARP_SIZE] = [S::acc_zero(); WARP_SIZE];
    let mut frag_a: [S; WARP_SIZE] = [S::zero(); WARP_SIZE];
    let mut offset = warp_base;

    for i in 0..4usize {
        let mut acc = acc_zero::<S>();
        probe.san_frag_clear();
        let cids = load_block(&part.cids, offset);
        let even = i & 1 == 0;
        if even {
            frag_a = load_block(&part.vals, offset);
            probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
            probe.load_idx(BLOCK_ELEMS as u64, 4);
        }
        // Even pass: columns 0..1 (first length-2 row of each pair);
        // odd pass: columns 2..3. One batched x access per block, active
        // lanes in lane order.
        let mut xi = [0usize; WARP_SIZE];
        let mut nx = 0;
        for (l, &c) in cids.iter().enumerate() {
            if (l & 3 < 2) == even {
                xi[nx] = c as usize;
                nx += 1;
            }
        }
        probe.load_x(&xi[..nx], S::BYTES);
        let frag_x: [S; WARP_SIZE] = per_lane(|l| {
            if (l & 3 < 2) == even {
                x[cids[l] as usize]
            } else {
                S::zero()
            }
        });
        if !even {
            offset += BLOCK_ELEMS;
        }
        mma_m8n8k4_diag::<S>(&mut acc, &frag_a, &frag_x);
        probe.mma();
        probe.san_frag_mma(DIAG_SLOTS);
        extract_diagonals::<S, P>(&acc, i, &mut res, probe);
    }

    // Padding slots have no output row: those lanes are predicated off
    // during write-back.
    write_permuted::<S, P>(
        &part.perm22[w * WARP_SIZE..(w + 1) * WARP_SIZE],
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

    /// All rows length 2 (an even count keeps everything in 2&2).
    fn check(n_rows: usize, cols: usize) {
        assert_eq!(n_rows % 2, 0);
        let mut coo = Coo::<f64>::new(n_rows, cols);
        for r in 0..n_rows {
            coo.push(r, (r * 3) % cols, (r + 1) as f64 * 0.1);
            coo.push(r, (r * 3 + 1) % cols, (r + 2) as f64 * 0.2);
        }
        let csr = coo.to_csr();
        let part = build_short(&csr);
        assert!(part.n22_warps > 0);
        assert_eq!(part.n4_warps, 0);
        let x: Vec<f64> = (0..cols).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
        let mut y = vec![0.0f64; csr.rows];
        spmv_short22_with(&part, &x, &mut y, &mut NoProbe, &Executor::seq());
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
    fn one_pair_of_twos() {
        check(2, 8);
    }

    #[test]
    fn full_warp_of_pairs() {
        check(32, 64);
    }

    #[test]
    fn several_warps_with_padding() {
        check(70, 128);
    }

    #[test]
    fn large() {
        check(500, 300);
    }
}

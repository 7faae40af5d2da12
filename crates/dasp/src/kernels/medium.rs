//! The medium-rows kernel (paper Algorithm 3 and Fig. 7).
//!
//! Each warp computes `LOOP_NUM` row-blocks. Per row-block it streams the
//! regular 8x4 blocks through the MMA unit, accumulating in the fragment;
//! the eight row sums are then pulled off the accumulator diagonal with the
//! `target = ((laneid - i*8) >> 1) * 9` shuffle pair into per-lane `res`
//! registers. Finally each active lane walks its row's irregular elements
//! with scalar FMAs and writes `y`.

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, mma_m8n8k4_diag, DIAG_SLOTS};
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};

use crate::consts::{loop_num, BLOCK_ELEMS, MMA_M};
use crate::format::MediumPart;
use crate::kernels::{extract_diagonals, gather_x, load_block};

/// Runs the medium-rows SpMV under the given executor, scattering results
/// into `y`; `reg` and `irreg` are the part's regular and irregular slot
/// values.
pub fn spmv_medium_with<S: Scalar, P: ShardableProbe>(
    part: &MediumPart,
    reg: &[S],
    irreg: &[S],
    x: &[S],
    y: &mut [S],
    probe: &mut P,
    exec: &Executor,
) {
    let n_warps = medium_warps(part);
    let shared = SharedSlice::new(y);
    exec.run(n_warps, probe, |wid, p| {
        medium_warp(part, reg, irreg, x, &shared, wid, p)
    });
}

/// Number of warps the medium kernel launches for `part`.
pub fn medium_warps(part: &MediumPart) -> usize {
    if part.rows.is_empty() {
        return 0;
    }
    part.num_rowblocks().div_ceil(loop_num(part.rows.len()))
}

/// Warp body: warp `wid` computes `LOOP_NUM` row-blocks (regular MMA part
/// plus per-lane irregular tail) and writes its rows of `y`.
pub fn medium_warp<S: Scalar, P: Probe>(
    part: &MediumPart,
    reg: &[S],
    irreg: &[S],
    x: &[S],
    y: &SharedSlice<S>,
    wid: usize,
    probe: &mut P,
) {
    let n_rows = part.rows.len();
    let ln = loop_num(n_rows);
    let n_rowblocks = part.num_rowblocks();

    probe.warp_begin(wid);
    probe.san_region("dasp.medium");
    let mut res: [S::Acc; WARP_SIZE] = [S::acc_zero(); WARP_SIZE];

    // Regular part: LOOP_NUM row-blocks through the MMA unit.
    for i in 0..ln {
        let bid = wid * ln + i;
        if bid >= n_rowblocks {
            break;
        }
        probe.load_meta(2, 4); // rowblockPtr (int32 on device)
        let mut offset_a = part.rowblock_ptr[bid];
        let nblocks = part.reg_blocks(bid);
        let mut acc = acc_zero::<S>();
        probe.san_frag_clear();
        for _b in 0..nblocks {
            let frag_a: [S; WARP_SIZE] = load_block(reg, offset_a);
            let cids = load_block(&part.reg_cid, offset_a);
            probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
            probe.load_idx(BLOCK_ELEMS as u64, 4);
            let frag_x = gather_x(x, &cids, probe);
            mma_m8n8k4_diag::<S>(&mut acc, &frag_a, &frag_x);
            probe.mma();
            probe.san_frag_mma(DIAG_SLOTS);
            offset_a += BLOCK_ELEMS;
        }
        extract_diagonals::<S, P>(&acc, i, &mut res, probe);
    }

    // Irregular part + write-back: one lane per row (Algorithm 3,
    // lines 20-26). Lanes past the last row (or past LOOP_NUM*8 when
    // LOOP_NUM < 4) are predicated off for this whole region.
    let lane_cap = (ln * MMA_M).min(WARP_SIZE);
    let rows_here = n_rows.saturating_sub(wid * ln * MMA_M).min(lane_cap);
    if rows_here < WARP_SIZE {
        probe.divergence((WARP_SIZE - rows_here) as u64);
    }
    // Per-row counters are batched (one probe call per row, not per
    // element) and x accesses stream through an XBatch whose flush
    // boundaries change nothing the probe records.
    let mut xb = XBatch::new(S::BYTES);
    let mut writes = [0usize; WARP_SIZE];
    let mut n_writes = 0;
    for lane in 0..(ln * MMA_M).min(WARP_SIZE) {
        let cur_row = wid * ln * MMA_M + lane;
        if cur_row >= n_rows {
            continue;
        }
        probe.load_meta(2, 4); // irregPtr (int32 on device)
        let mut v = res[lane];
        let (jlo, jhi) = (part.irreg_ptr[cur_row], part.irreg_ptr[cur_row + 1]);
        for j in jlo..jhi {
            v = S::acc_mul_add(v, irreg[j], x[part.irreg_cid[j] as usize]);
            xb.push(probe, part.irreg_cid[j] as usize);
        }
        let elems = (jhi - jlo) as u64;
        probe.load_val(elems, S::BYTES);
        probe.load_idx(elems, 4);
        probe.fma(elems);
        y.write(part.rows[cur_row] as usize, S::from_acc(v));
        writes[n_writes] = part.rows[cur_row] as usize;
        n_writes += 1;
        probe.store_y(1, S::BYTES);
    }
    xb.flush(probe);
    probe.san_write(space::Y, &writes[..n_writes]);
    probe.warp_end(wid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::{Coo, Csr};

    fn build_medium(csr: &Csr<f64>) -> (MediumPart, Vec<f64>, Vec<f64>) {
        let mut rows: Vec<(u32, Vec<(u32, f64)>)> = (0..csr.rows)
            .filter(|&r| csr.row_len(r) > 0)
            .map(|r| (r as u32, csr.row(r).collect()))
            .collect();
        rows.sort_by_key(|(_, e)| std::cmp::Reverse(e.len()));
        MediumPart::build(&rows, 0.75)
    }

    fn check(lens: &[usize], cols: usize) {
        let mut coo = Coo::<f64>::new(lens.len(), cols);
        for (r, &len) in lens.iter().enumerate() {
            for k in 0..len {
                let c = (k * 5 + r * 11) % cols;
                coo.push(r, c, ((r + 2) * (k + 1)) as f64 * 0.01);
            }
        }
        let csr = coo.to_csr();
        let (part, reg, irreg) = build_medium(&csr);
        let x: Vec<f64> = (0..cols).map(|i| 1.0 - (i % 7) as f64 * 0.2).collect();
        let mut y = vec![0.0f64; csr.rows];
        spmv_medium_with(
            &part,
            &reg,
            &irreg,
            &x,
            &mut y,
            &mut NoProbe,
            &Executor::seq(),
        );
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
    fn one_full_rowblock() {
        check(&[8; 8], 64);
    }

    #[test]
    fn regular_and_irregular_mix() {
        check(&[8, 8, 8, 8, 5, 5, 5, 5], 64);
    }

    #[test]
    fn all_irregular_below_threshold() {
        // Rows of 5 nonzeros in a sparse-threshold configuration: window 1
        // has 8 of 32, irregular.
        check(&[5; 8], 64);
    }

    #[test]
    fn partial_last_rowblock() {
        check(&[10, 9, 8, 7, 6, 6, 6, 5, 5, 5], 64);
    }

    #[test]
    fn many_rowblocks_unequal_lengths() {
        let lens: Vec<usize> = (0..100).map(|i| 5 + (i * 13) % 250).collect();
        check(&lens, 500);
    }

    #[test]
    fn loop_num_paths_execute() {
        // Force LOOP_NUM > 1 by exceeding the row threshold is impractical
        // in a unit test (59990 rows); instead verify the helper wiring
        // against a matrix whose rowblocks exceed one warp.
        let lens: Vec<usize> = (0..64).map(|i| 5 + i % 30).collect();
        check(&lens, 128);
    }

    #[test]
    fn counters_track_regular_blocks() {
        // 8 rows of 8: two full regular blocks, no irregular.
        let mut coo = Coo::<f64>::new(8, 64);
        for r in 0..8 {
            for k in 0..8 {
                coo.push(r, k * 8 + r, 1.0);
            }
        }
        let csr = coo.to_csr();
        let (part, reg, irreg) = build_medium(&csr);
        let x = vec![1.0f64; 64];
        let mut y = vec![0.0f64; 8];
        let mut probe = CountingProbe::a100();
        spmv_medium_with(
            &part,
            &reg,
            &irreg,
            &x,
            &mut y,
            &mut probe,
            &Executor::seq(),
        );
        let s = probe.stats();
        assert_eq!(s.mma_ops, 2);
        assert_eq!(s.fma_ops, 0);
        assert_eq!(s.bytes_val, 64 * 8);
        assert_eq!(s.launches, 0); // launch accounting lives in spmv()
        assert!(y.iter().all(|&v| v == 8.0));
    }

    #[test]
    fn empty_part_is_a_no_op() {
        let part = MediumPart::empty();
        let mut probe = CountingProbe::a100();
        let mut y = vec![0.0f64; 2];
        spmv_medium_with(
            &part,
            &[],
            &[],
            &[1.0],
            &mut y,
            &mut probe,
            &Executor::seq(),
        );
        assert_eq!(probe.stats().launches, 0);
    }
}

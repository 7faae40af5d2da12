//! The long-rows kernel (paper Algorithm 2 and Fig. 6).
//!
//! Phase 1: one warp per 64-element group — two block loads, two MMA
//! issues, then the diagonal partial sums (lanes `{0,9,18,27}` register 0
//! and `{4,13,22,31}` register 1) are collapsed into lane 0 with the
//! paper's `shfl_down 9, 18` / `shfl(fragY[1], 4)` sequence and written to
//! the auxiliary `warpVal` array.
//!
//! Phase 2: one warp per long row sums its groups' `warpVal` entries with a
//! strided loop and a tree `warpReduceSum`, writing the final `y` value.

use dasp_fp16::Scalar;
use dasp_simt::mma::{acc_zero, diag_position, mma_m8n8k4_diag, DIAG_SLOTS, MMA_M};
use dasp_simt::warp::{full_mask, per_lane, WARP_SIZE};
use dasp_simt::{
    shfl_down_sync, shfl_sync, space, warp_reduce, Executor, Probe, ShardableProbe, SharedSlice,
};

use dasp_simt::WarpScratch;

use crate::consts::{BLOCK_ELEMS, GROUP_ELEMS};
use crate::format::LongPart;
use crate::kernels::{gather_x, load_block};

/// Runs the two-phase long-rows SpMV under the given executor, scattering
/// results into `y`. Phase 1's group warps all complete (and, under a
/// parallel executor, join) before phase 2 starts — the grid-wide barrier
/// between the two kernel launches on the device.
pub fn spmv_long_with<S: Scalar, P: ShardableProbe>(
    part: &LongPart,
    vals: &[S],
    x: &[S],
    y: &mut [S],
    probe: &mut P,
    exec: &Executor,
) {
    let n_groups = part.num_groups();
    if n_groups == 0 {
        return;
    }
    // Arena-leased per-launch scratch: capacity is recycled across
    // launches instead of allocated fresh (the lease drops at return).
    let mut warp_val = WarpScratch::lease(n_groups, S::acc_zero());
    {
        let wv = SharedSlice::new(&mut warp_val);
        exec.run(n_groups, probe, |g, p| {
            long_phase1_warp(part, vals, x, &wv, g, p)
        });
    }
    let shared = SharedSlice::new(y);
    exec.run(part.rows.len(), probe, |lr, p| {
        long_phase2_warp(part, &warp_val, &shared, lr, p)
    });
}

/// Phase-1 warp body: warp `g` computes one 64-element group's partial sum
/// into `warp_val[g]` (disjoint across warps); `vals` are the part's slot
/// values.
pub fn long_phase1_warp<S: Scalar, P: Probe>(
    part: &LongPart,
    vals: &[S],
    x: &[S],
    warp_val: &SharedSlice<S::Acc>,
    g: usize,
    probe: &mut P,
) {
    let mask = full_mask();
    probe.warp_begin(g);
    probe.san_region("dasp.long.phase1");
    let mut acc = acc_zero::<S>();
    probe.san_frag_clear();
    let mut offset_a = g * GROUP_ELEMS;
    for _i in 0..2 {
        let frag_a: [S; WARP_SIZE] = load_block(vals, offset_a);
        let cids = load_block(&part.cids, offset_a);
        probe.load_val(BLOCK_ELEMS as u64, S::BYTES);
        probe.load_idx(BLOCK_ELEMS as u64, 4);
        let frag_x = gather_x(x, &cids, probe);
        mma_m8n8k4_diag::<S>(&mut acc, &frag_a, &frag_x);
        probe.mma();
        probe.san_frag_mma(DIAG_SLOTS);
        offset_a += BLOCK_ELEMS;
    }
    // Lines 10-14: collapse the eight diagonal partials into lane 0.
    for r in 0..MMA_M {
        let (lane, reg) = diag_position(r);
        probe.san_frag_read(lane, reg);
    }
    let mut y0: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][0]);
    let mut y1: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][1]);
    for delta in [9usize, 18] {
        let d = shfl_down_sync(probe, mask, y0, delta);
        for l in 0..WARP_SIZE {
            y0[l] = S::acc_add(y0[l], d[l]);
        }
        let d = shfl_down_sync(probe, mask, y1, delta);
        for l in 0..WARP_SIZE {
            y1[l] = S::acc_add(y1[l], d[l]);
        }
    }
    let b = shfl_sync(probe, mask, y1, 4);
    for l in 0..WARP_SIZE {
        y0[l] = S::acc_add(y0[l], b[l]);
    }
    probe.shfl(5);
    warp_val.write(g, y0[0]);
    probe.san_write(space::AUX, &[g]);
    probe.store_y(1, S::ACC_BYTES);
    probe.warp_end(g);
}

/// Phase-2 warp body: warp `lr` reduces long row `lr`'s group partials
/// from `warp_val` into `y` (each warp owns one output row).
pub fn long_phase2_warp<S: Scalar, P: Probe>(
    part: &LongPart,
    warp_val: &[S::Acc],
    y: &SharedSlice<S>,
    lr: usize,
    probe: &mut P,
) {
    let mask = full_mask();
    probe.warp_begin(lr);
    probe.san_region("dasp.long.phase2");
    let orig_row = part.rows[lr];
    let lo = part.group_ptr[lr];
    let hi = part.group_ptr[lr + 1];
    probe.load_meta(2, 4); // groupPtr (int32 on device)
    let row_warp_len = hi - lo;
    // The strided read-back runs with a ragged tail: lanes past
    // `row_warp_len % 32` sit idle on the last stride.
    let tail = row_warp_len % WARP_SIZE;
    if tail != 0 {
        probe.divergence((WARP_SIZE - tail) as u64);
    }
    // Stride-major sweep (iteration `s`: lanes read `lo + s*32 + lane`,
    // the coalesced order the device issues): one batched shadow probe
    // and one meta-traffic bump per 32-element stride instead of 32.
    let mut thread_val: [S::Acc; WARP_SIZE] = [S::acc_zero(); WARP_SIZE];
    let mut base = 0;
    let mut stride_idx = [0usize; WARP_SIZE];
    while base < row_warp_len {
        let n = (row_warp_len - base).min(WARP_SIZE);
        for (lane, si) in stride_idx[..n].iter_mut().enumerate() {
            *si = lo + base + lane;
        }
        for lane in 0..n {
            thread_val[lane] = S::acc_add(thread_val[lane], warp_val[stride_idx[lane]]);
        }
        probe.san_read(space::AUX, &stride_idx[..n]);
        probe.load_meta(n as u64, S::ACC_BYTES); // warpVal read-back
        base += WARP_SIZE;
    }
    let reduced = warp_reduce(probe, mask, thread_val, |a, b| S::acc_add(a, b));
    probe.shfl(dasp_simt::shuffle::WARP_REDUCE_SHFLS);
    y.write(orig_row as usize, S::from_acc(reduced[0]));
    probe.san_write(space::Y, &[orig_row as usize]);
    probe.store_y(1, S::BYTES);
    probe.warp_end(lr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn check(lens: &[usize], cols: usize) {
        let mut coo = Coo::<f64>::new(lens.len(), cols);
        for (r, &len) in lens.iter().enumerate() {
            for k in 0..len {
                let c = (k * 7 + r * 3) % cols;
                coo.push(r, c, ((r + 1) * (k + 3)) as f64 * 0.01);
            }
        }
        let csr = coo.to_csr();
        let (mut part, mut vals) = (LongPart::empty(), Vec::new());
        for r in 0..csr.rows {
            let elems: Vec<(u32, f64)> = csr.row(r).collect();
            if !elems.is_empty() {
                part.push_row(&mut vals, r as u32, &elems);
            }
        }
        let x: Vec<f64> = (0..cols).map(|i| 0.5 + (i % 13) as f64 * 0.1).collect();
        let mut y = vec![0.0f64; csr.rows];
        spmv_long_with(&part, &vals, &x, &mut y, &mut NoProbe, &Executor::seq());
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
    fn single_row_one_group() {
        // Exactly 64 nonzeros: one group, no padding.
        check(&[64], 128);
    }

    #[test]
    fn single_row_with_padding() {
        check(&[300], 512);
    }

    #[test]
    fn row_of_256_uses_four_warps_like_figure6() {
        check(&[256], 300);
    }

    #[test]
    fn many_rows_mixed_group_counts() {
        check(&[65, 64, 257, 1000, 100, 63], 1024);
    }

    #[test]
    fn row_longer_than_warp_groups() {
        // > 32 groups so phase 2's strided loop iterates more than once.
        check(&[64 * 40 + 17], 4096);
    }

    #[test]
    fn stats_count_launches_and_mmas() {
        let mut coo = Coo::<f64>::new(1, 128);
        for k in 0..128 {
            coo.push(0, k, 1.0);
        }
        let csr = coo.to_csr();
        let (mut part, mut vals) = (LongPart::empty(), Vec::new());
        part.push_row(&mut vals, 0, &csr.row(0).collect::<Vec<_>>());
        let x = vec![1.0f64; 128];
        let mut y = vec![0.0f64; 1];
        let mut probe = CountingProbe::a100();
        spmv_long_with(&part, &vals, &x, &mut y, &mut probe, &Executor::seq());
        let s = probe.stats();
        assert_eq!(y[0], 128.0);
        assert_eq!(s.launches, 0); // launch accounting lives in spmv()
        assert_eq!(s.mma_ops, 4); // 128 elems = 2 groups x 2 mma
        assert_eq!(s.bytes_val, 128 * 8);
        assert_eq!(s.x_requests, 128);
    }

    #[test]
    fn empty_part_is_a_no_op() {
        let part = LongPart::empty();
        let mut y = vec![0.0f64; 3];
        let mut probe = CountingProbe::a100();
        spmv_long_with(&part, &[], &[1.0], &mut y, &mut probe, &Executor::seq());
        assert_eq!(probe.stats().launches, 0);
        assert_eq!(y, vec![0.0; 3]);
    }
}

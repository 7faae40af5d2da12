//! Shared pieces of the DASP kernels.

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::mma::{diag_position, AccFrag, MMA_M};
use dasp_simt::warp::{full_mask, per_lane, WARP_SIZE};
use dasp_simt::{shfl_sync_var, space, Probe, SharedSlice};

use crate::format::NO_ROW;

/// Contiguous whole-block load: the paper's per-lane block index
/// `idx = (3 & laneid) + (laneid >> 2) * MMA_K` is the identity permutation
/// (`(3 & t) + (t >> 2) * 4 == t`), so lane `t`'s block element is
/// `src[offset + t]` and a coalesced 8×4 block load is one 32-element
/// slice copy the compiler vectorizes.
#[inline]
pub(crate) fn load_block<T: Copy>(src: &[T], offset: usize) -> [T; WARP_SIZE] {
    src[offset..offset + WARP_SIZE]
        .try_into()
        .expect("block slice is WARP_SIZE long")
}

/// Gathers each lane's `x[cids[lane]]` for one block, issuing a single
/// probe access in lane order.
#[inline(always)]
pub(crate) fn gather_x<S: Scalar, P: Probe>(
    x: &[S],
    cids: &[u32; WARP_SIZE],
    probe: &mut P,
) -> [S; WARP_SIZE] {
    let xi: [usize; WARP_SIZE] = per_lane(|l| cids[l] as usize);
    probe.load_x(&xi, S::BYTES);
    per_lane(|l| x[xi[l]])
}

/// Permuted warp write-back shared by the short kernels: each lane whose
/// permutation slot names a real row (`!= NO_ROW`) writes its result to
/// `y[perm[lane]]`; padding lanes are predicated off and counted as one
/// divergent region. The shadow-write probe and the store-traffic bump
/// are issued once for the whole warp.
#[inline(always)]
pub(crate) fn write_permuted<S: Scalar, P: Probe>(
    perm: &[u32],
    res: &[S::Acc; WARP_SIZE],
    y: &SharedSlice<S>,
    probe: &mut P,
) {
    let mut writes = [0usize; WARP_SIZE];
    let mut nw = 0;
    for (lane, &row) in perm.iter().enumerate() {
        if row != NO_ROW {
            y.write(row as usize, S::from_acc(res[lane]));
            writes[nw] = row as usize;
            nw += 1;
        }
    }
    probe.san_write(space::Y, &writes[..nw]);
    probe.store_y(nw as u64, S::BYTES);
    let inactive = (perm.len() - nw) as u64;
    if inactive > 0 {
        probe.divergence(inactive);
    }
}

/// The diagonal extraction of Algorithms 3 and 4 (lines 13-18 / 15-20):
/// after iteration `i`'s MMA, the eight row results live on the diagonal of
/// the accumulator fragment; two variable-source shuffles with
/// `target = ((laneid - i*8) >> 1) * 9` move them to lanes `i*8..(i+1)*8`,
/// where even lanes take register 0 and odd lanes register 1.
#[inline(always)]
pub(crate) fn extract_diagonals<S: Scalar, P: Probe>(
    acc: &AccFrag<S>,
    i: usize,
    res: &mut [S::Acc; WARP_SIZE],
    probe: &mut P,
) {
    // Initcheck: extraction consumes the eight diagonal accumulator slots.
    for r in 0..MMA_M {
        let (lane, reg) = diag_position(r);
        probe.san_frag_read(lane, reg);
    }
    let y0: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][0]);
    let y1: [S::Acc; WARP_SIZE] = per_lane(|l| acc[l][1]);
    let target: [i32; WARP_SIZE] = per_lane(|l| ((l as i32 - (i as i32) * 8) >> 1) * 9);
    let target4: [i32; WARP_SIZE] = per_lane(|l| target[l] + 4);
    // Only lanes i*8..(i+1)*8 consume their shuffled value; the negative
    // targets on lower lanes are the paper's discarded-read pattern.
    let used: u32 = 0xffu32 << (i * 8);
    let t0 = shfl_sync_var(probe, full_mask(), y0, &target, used);
    let t1 = shfl_sync_var(probe, full_mask(), y1, &target4, used);
    probe.shfl(2);
    for lane in 0..WARP_SIZE {
        if lane >> 3 == i {
            res[lane] = if lane & 1 == 0 { t0[lane] } else { t1[lane] };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_simt::mma::{acc_zero, diag_position};
    use dasp_simt::NoProbe;

    #[test]
    fn mma_idx_covers_one_block_row_major() {
        // The paper's per-lane block index is the identity permutation —
        // the invariant that lets [`load_block`] be a contiguous copy.
        let idx: [usize; WARP_SIZE] = per_lane(|lane| (3 & lane) + (lane >> 2) * 4);
        let mut seen = [false; 32];
        for (lane, &i) in idx.iter().enumerate() {
            assert_eq!(i, lane);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn extraction_places_rows_for_every_iteration() {
        for i in 0..4usize {
            let mut acc = acc_zero::<f64>();
            for r in 0..8 {
                let (lane, reg) = diag_position(r);
                acc[lane][reg] = (100 * i + r) as f64;
            }
            let mut res = [0.0f64; WARP_SIZE];
            extract_diagonals::<f64, _>(&acc, i, &mut res, &mut NoProbe);
            for r in 0..8 {
                assert_eq!(res[i * 8 + r], (100 * i + r) as f64, "i={i} r={r}");
            }
            // Other lanes untouched.
            for lane in 0..WARP_SIZE {
                if lane >> 3 != i {
                    assert_eq!(res[lane], 0.0);
                }
            }
        }
    }
}

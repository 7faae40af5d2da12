//! Merge-based CSR SpMV (Merrill & Garland, SC '16) — an extension beyond
//! the paper's six methods (it is the paper's reference \[73\], and the
//! strategy behind modern cuSPARSE "merge path" algorithms).
//!
//! The computation is framed as merging two sorted lists — the row end
//! offsets `row_ptr[1..]` and the nonzero indices `0..nnz` — so the total
//! work `rows + nnz` splits into exactly equal segments regardless of row
//! skew. Each warp binary-searches the *merge diagonal* for its starting
//! `(row, nonzero)` coordinate, walks its segment consuming nonzeros and
//! closing rows, and carries partial sums of rows that span segments.

use dasp_fp16::Scalar;
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};
use dasp_sparse::Csr;

use crate::{acc_spill as spill, WARPS_PER_BLOCK};

/// Merge items (rows + nonzeros) per warp segment.
pub const ITEMS_PER_SEGMENT: usize = 288; // 256 nnz-ish + row closures

/// CSR with merge-path scheduling. No auxiliary format: the merge
/// coordinates are computed by binary search at kernel time, which is the
/// method's selling point (zero preprocessing, perfect balance).
#[derive(Debug, Clone)]
pub struct MergeCsr<S: Scalar> {
    csr: Csr<S>,
}

impl<S: Scalar> MergeCsr<S> {
    /// Wraps a CSR matrix (no conversion; merge path needs none).
    pub fn new(csr: &Csr<S>) -> Self {
        MergeCsr { csr: csr.clone() }
    }

    /// Number of equal merge segments (= warps launched).
    pub fn num_segments(&self) -> usize {
        (self.csr.rows + self.csr.nnz()).div_ceil(ITEMS_PER_SEGMENT)
    }

    /// Finds the merge-path coordinate `(row, nz)` of diagonal `d`: the
    /// split point where `row + nz = d` and all row end-offsets before
    /// `row` are `<= nz`. Standard 2-D binary search over the diagonal.
    fn diagonal_search(&self, d: usize) -> (usize, usize) {
        let csr = &self.csr;
        let mut lo = d.saturating_sub(csr.nnz());
        let mut hi = d.min(csr.rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            // Merge comparison: has row `mid`'s end offset been consumed
            // by diagonal d?
            if csr.row_ptr[mid + 1] < d - mid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, d - lo)
    }

    /// Computes `y = A x` under the given executor.
    ///
    /// Merge segments do not own disjoint rows — rows span segment
    /// boundaries — so the warp bodies use a first-spill carry like
    /// [`Csr5::spmv_with`](crate::Csr5::spmv_with). Unlike CSR5/LSRB the
    /// first spill's target row comes from the runtime diagonal search, so
    /// the carry slot stores the `(row, partial)` pair. Every later spill
    /// targets a row whose merge items all start inside this segment (its
    /// `y` still zero), and the sequential epilogue folds carries in
    /// ascending segment order, keeping `y` bit-identical to the
    /// sequential run.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("merge-csr", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        let csr = &self.csr;
        assert_eq!(x.len(), csr.cols);
        let mut y = vec![S::zero(); csr.rows];
        if csr.rows == 0 {
            return y;
        }
        let n_segs = self.num_segments();
        probe.kernel_launch(
            n_segs.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        // Sentinel row: a segment that never spills (impossible today, but
        // cheap to guard) contributes nothing in the fix-up pass.
        let mut carry: Vec<(u32, S::Acc)> = vec![(u32::MAX, S::acc_zero()); n_segs];
        {
            let y_s = SharedSlice::new(&mut y);
            let carry_s = SharedSlice::new(&mut carry);
            exec.run(n_segs, probe, |seg, p| {
                self.segment_warp(x, &y_s, &carry_s, seg, p)
            });
        }
        for (seg, &(row, c)) in carry.iter().enumerate() {
            if row != u32::MAX {
                probe.san_read(space::AUX, &[seg]);
                y[row as usize] = spill(y[row as usize], c);
            }
        }
        y
    }

    /// Warp body: segment `seg`'s merge walk. The first spill goes to
    /// `carry[seg]`; later spills write `y` directly.
    fn segment_warp<P: Probe>(
        &self,
        x: &[S],
        y: &SharedSlice<S>,
        carry: &SharedSlice<(u32, S::Acc)>,
        seg: usize,
        probe: &mut P,
    ) {
        let csr = &self.csr;
        let total = csr.rows + csr.nnz();
        probe.warp_begin(seg);
        probe.san_region("merge-csr");
        let d_lo = seg * ITEMS_PER_SEGMENT;
        let d_hi = ((seg + 1) * ITEMS_PER_SEGMENT).min(total);
        let (mut row, mut nz) = self.diagonal_search(d_lo);
        // Binary search cost: log2(rows) row_ptr probes.
        probe.load_meta((usize::BITS - csr.rows.leading_zeros()) as u64, 4);

        // Balanced issue: every segment occupies a full warp for its
        // item count (one slot per merge item).
        probe.fma(((d_hi - d_lo).div_ceil(WARP_SIZE) * WARP_SIZE) as u64);
        // Segment-wide carry reduction.
        probe.shfl(10);

        let mut acc = S::acc_zero();
        let mut first_spill = true;
        let mut xb = XBatch::new(S::BYTES);
        let mut item = d_lo;
        while item < d_hi {
            if row < csr.rows && nz == csr.row_ptr[row + 1] {
                // Close the row (merge consumes a row end-offset).
                probe.load_meta(1, 4);
                if first_spill {
                    carry.write(seg, (row as u32, acc));
                    probe.san_write(space::AUX, &[seg]);
                    first_spill = false;
                } else {
                    y.write(row, spill(S::zero(), acc));
                    probe.san_write(space::Y, &[row]);
                }
                probe.store_y(1, S::BYTES);
                acc = S::acc_zero();
                row += 1;
            } else {
                let c = csr.col_idx[nz] as usize;
                probe.load_val(1, S::BYTES);
                probe.load_idx(1, 4);
                xb.push(probe, c);
                acc = S::acc_mul_add(acc, csr.vals[nz], x[c]);
                nz += 1;
            }
            item += 1;
        }
        xb.flush(probe);
        // Carry the trailing partial row into y (the fix-up pass).
        if row < csr.rows {
            if first_spill {
                carry.write(seg, (row as u32, acc));
                probe.san_write(space::AUX, &[seg]);
            } else {
                y.write(row, spill(S::zero(), acc));
                probe.san_write(space::Y, &[row]);
            }
            probe.store_y(1, S::BYTES);
        }
        probe.warp_end(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn check(csr: &Csr<f64>) {
        let x: Vec<f64> = (0..csr.cols).map(|i| 0.3 + (i % 7) as f64 * 0.1).collect();
        let y = MergeCsr::new(csr).spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(csr, &x), 1e-9);
    }

    #[test]
    fn matches_reference_on_every_class() {
        check(&dasp_matgen::banded(500, 10, 8, 1));
        check(&dasp_matgen::rmat(9, 6, 2));
        check(&dasp_matgen::diagonal_bands(800, &[0, 1], 3));
        check(&dasp_matgen::circuit_like(600, 2, 250, 4));
        check(&dasp_matgen::rectangular_long(8, 2000, 700, 5));
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        check(&Csr::empty(10, 10));
        let mut coo = Coo::<f64>::new(8, 16);
        coo.push(0, 3, 1.0);
        coo.push(7, 9, 2.0);
        check(&coo.to_csr());
    }

    #[test]
    fn rows_spanning_segments_carry() {
        // One row much longer than a segment.
        let mut coo = Coo::<f64>::new(3, 2000);
        for k in 0..1200 {
            coo.push(1, k, 0.01 * (k % 17) as f64 + 0.1);
        }
        coo.push(0, 0, 1.0);
        coo.push(2, 5, 2.0);
        check(&coo.to_csr());
    }

    #[test]
    fn diagonal_search_finds_consistent_coordinates() {
        let csr = dasp_matgen::banded(100, 5, 4, 6);
        let m = MergeCsr::new(&csr);
        let total = csr.rows + csr.nnz();
        let mut prev = (0usize, 0usize);
        for d in (0..=total).step_by(37) {
            let (r, nz) = m.diagonal_search(d);
            assert_eq!(r + nz, d, "coordinates lie on the diagonal");
            assert!(r >= prev.0 && nz >= prev.1, "path is monotone");
            assert!(r <= csr.rows && nz <= csr.nnz());
            prev = (r, nz);
        }
    }

    #[test]
    fn issue_slots_are_balanced_across_segments() {
        // Extreme skew: one row holds nearly everything; merge path still
        // issues the same slots per full segment.
        let mut coo = Coo::<f64>::new(64, 4096);
        for k in 0..4000 {
            coo.push(0, k, 1.0);
        }
        for r in 1..64 {
            coo.push(r, r, 1.0);
        }
        let csr = coo.to_csr();
        let m = MergeCsr::new(&csr);
        let mut probe = CountingProbe::a100();
        let _ = m.spmv_with(&vec![1.0; 4096], &mut probe, &Executor::from_env());
        let s = probe.stats();
        let total_items = (csr.rows + csr.nnz()) as u64;
        // Issued slots are within one warp-round of the item count.
        assert!(s.fma_ops >= total_items);
        assert!(s.fma_ops <= total_items + (m.num_segments() * WARP_SIZE) as u64);
    }
}

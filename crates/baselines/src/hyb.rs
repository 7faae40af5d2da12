//! HYB — the classic ELL + COO hybrid of Bell & Garland (SC '09, the
//! paper's reference \[8\]), included as an extension comparison.
//!
//! The regular bulk of each row (up to a cutoff width `K`) goes into an
//! ELL slab: `rows x K`, column-major, zero-padded, one thread per row
//! with perfectly coalesced loads. Whatever exceeds `K` spills into a COO
//! tail processed element-wise with atomic accumulation. `K` is chosen by
//! the classic heuristic: the largest width such that at least 2/3 of the
//! rows are still "full" at that column — bounding ELL padding while
//! keeping the COO tail short.

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};
use dasp_sparse::Csr;

use crate::WARPS_PER_BLOCK;

/// A matrix in HYB (ELL + COO) form.
#[derive(Debug, Clone)]
pub struct Hyb<S: Scalar> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// ELL width (columns of the slab).
    k: usize,
    /// ELL values, column-major (`k * rows`, padded with zeros).
    ell_vals: Vec<S>,
    /// ELL column ids (0 for padding).
    ell_cids: Vec<u32>,
    /// COO tail, row-major sorted.
    coo: Vec<(u32, u32, S)>,
}

impl<S: Scalar> Hyb<S> {
    /// Converts CSR with the 2/3-occupancy width heuristic.
    pub fn new(csr: &Csr<S>) -> Self {
        // Histogram of row lengths -> the largest k where at least 2/3 of
        // all rows are still occupied at that column (Bell & Garland count
        // over all rows, so empty rows push k down and work to the tail).
        let lens: Vec<usize> = (0..csr.rows).map(|r| csr.row_len(r)).collect();
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let threshold = (csr.rows * 2).div_ceil(3);
        let mut k = 0;
        for width in 1..=max_len {
            let covered = lens.iter().filter(|&&l| l >= width).count();
            if covered >= threshold {
                k = width;
            } else {
                break;
            }
        }
        Self::with_width(csr, k)
    }

    /// Converts CSR with an explicit ELL width.
    pub fn with_width(csr: &Csr<S>, k: usize) -> Self {
        let mut ell_vals = vec![S::zero(); k * csr.rows];
        let mut ell_cids = vec![0u32; k * csr.rows];
        let mut coo = Vec::new();
        for r in 0..csr.rows {
            for (j, (c, v)) in csr.row(r).enumerate() {
                if j < k {
                    // column-major slab: column j, row r
                    ell_vals[j * csr.rows + r] = v;
                    ell_cids[j * csr.rows + r] = c;
                } else {
                    coo.push((r as u32, c, v));
                }
            }
        }
        Hyb {
            rows: csr.rows,
            cols: csr.cols,
            nnz: csr.nnz(),
            k,
            ell_vals,
            ell_cids,
            coo,
        }
    }

    /// The selected ELL width.
    pub fn ell_width(&self) -> usize {
        self.k
    }

    /// Elements in the COO tail.
    pub fn coo_len(&self) -> usize {
        self.coo.len()
    }

    /// Stored elements (ELL slab + tail) over original nonzeros.
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        (self.ell_vals.len() + self.coo.len()) as f64 / self.nnz as f64
    }

    /// Computes `y = A x` under the given executor: thread-per-row over the
    /// ELL slab (warps own disjoint 32-row bands), element-wise atomics
    /// over the COO tail.
    ///
    /// The COO tail accumulates onto `y` at *storage* precision per
    /// element, so its result depends on accumulation order; it therefore
    /// always runs sequentially on the calling thread, under both
    /// executors, keeping the output bit-identical across them.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("hyb", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![S::zero(); self.rows];
        if self.rows == 0 || self.nnz == 0 {
            return y;
        }
        // ELL kernel. The slab-wide streams (values, ids, issued slots) are
        // accounted in bulk at dispatch; per-element x gathers inside the
        // warp bodies.
        let n_warps = self.rows.div_ceil(WARP_SIZE);
        probe.kernel_launch(
            n_warps.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );
        probe.load_val(self.ell_vals.len() as u64, S::BYTES);
        probe.load_idx(self.ell_cids.len() as u64, 4);
        probe.fma(self.ell_vals.len() as u64); // padded slots issue too
        {
            let shared = SharedSlice::new(&mut y);
            exec.run(n_warps, probe, |w, p| self.ell_warp(x, &shared, w, p));
        }
        probe.store_y(self.rows as u64, S::BYTES);

        // COO tail kernel: element-per-thread with atomic adds.
        if !self.coo.is_empty() {
            let warps = self.coo.len().div_ceil(WARP_SIZE);
            probe.kernel_launch(
                warps.div_ceil(WARPS_PER_BLOCK) as u64,
                WARPS_PER_BLOCK as u64,
            );
            let mut xb = XBatch::new(S::BYTES);
            for &(r, c, v) in &self.coo {
                probe.load_val(1, S::BYTES);
                probe.load_idx(2, 4); // row AND column index per element
                xb.push(probe, c as usize);
                probe.fma(1);
                // atomic add: modeled as a y read-modify-write
                probe.store_y(2, S::BYTES);
                let r = r as usize;
                let cur = S::acc_from_f64(y[r].to_f64());
                y[r] = S::from_acc(S::acc_mul_add(cur, v, x[c as usize]));
            }
            xb.flush(probe);
        }
        y
    }

    /// Warp body: warp `w`'s 32 threads sweep the ELL slab column-major
    /// over their 32-row band.
    fn ell_warp<P: Probe>(&self, x: &[S], y: &SharedSlice<S>, w: usize, probe: &mut P) {
        probe.warp_begin(w);
        probe.san_region("hyb");
        let lo = w * WARP_SIZE;
        let hi = ((w + 1) * WARP_SIZE).min(self.rows);
        let mut acc = [S::acc_zero(); WARP_SIZE];
        for j in 0..self.k {
            // One batched x access per slab column (active lanes in lane
            // order).
            let mut xi = [0usize; WARP_SIZE];
            let mut nx = 0;
            for r in lo..hi {
                let e = j * self.rows + r;
                let v = self.ell_vals[e];
                if v != S::zero() || self.ell_cids[e] != 0 {
                    let c = self.ell_cids[e] as usize;
                    xi[nx] = c;
                    nx += 1;
                    acc[r - lo] = S::acc_mul_add(acc[r - lo], v, x[c]);
                }
            }
            probe.load_x(&xi[..nx], S::BYTES);
        }
        for r in lo..hi {
            y.write(r, S::from_acc(acc[r - lo]));
            probe.san_write(space::Y, &[r]);
        }
        probe.warp_end(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::NoProbe;
    use dasp_sparse::Coo;

    fn check(csr: &Csr<f64>) {
        let x: Vec<f64> = (0..csr.cols).map(|i| 0.2 + (i % 6) as f64 * 0.15).collect();
        let y = Hyb::new(csr).spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(csr, &x), 1e-9);
    }

    #[test]
    fn matches_reference_across_classes() {
        check(&dasp_matgen::banded(300, 12, 9, 1));
        check(&dasp_matgen::rmat(9, 6, 2));
        check(&dasp_matgen::circuit_like(500, 2, 200, 3));
        check(&dasp_matgen::stencil2d(18, 18, 5, 4));
    }

    #[test]
    fn uniform_rows_are_pure_ell() {
        let csr = dasp_matgen::uniform_random(200, 200, 7, 5);
        let h = Hyb::new(&csr);
        assert_eq!(h.ell_width(), 7);
        assert_eq!(h.coo_len(), 0);
        assert_eq!(h.fill_ratio(), 1.0);
        check(&csr);
    }

    #[test]
    fn skewed_rows_spill_to_coo() {
        // One row of 500 among rows of 2: k stays small, the long row
        // spills almost entirely.
        let mut coo = Coo::<f64>::new(100, 600);
        for k in 0..500 {
            coo.push(0, k, 1.0);
        }
        for r in 1..100 {
            coo.push(r, r, 1.0);
            coo.push(r, r + 100, 2.0);
        }
        let csr = coo.to_csr();
        let h = Hyb::new(&csr);
        assert!(h.ell_width() <= 2);
        assert!(h.coo_len() >= 498);
        check(&csr);
    }

    #[test]
    fn explicit_width_zero_is_all_coo() {
        let csr = dasp_matgen::banded(50, 5, 4, 6);
        let h = Hyb::with_width(&csr, 0);
        assert_eq!(h.coo_len(), csr.nnz());
        let x = vec![1.0; 50];
        assert_matches(
            &h.spmv_with(&x, &mut NoProbe, &Executor::from_env()),
            &spmv_exact(&csr, &x),
            1e-9,
        );
    }

    #[test]
    fn empty_matrix() {
        check(&Csr::empty(8, 8));
    }

    #[test]
    fn explicit_nonzero_at_column_zero_is_kept() {
        // ELL padding uses (0, cid 0); a real element at column 0 must not
        // be confused with padding.
        let mut coo = Coo::<f64>::new(2, 4);
        coo.push(0, 0, 5.0);
        coo.push(1, 2, 3.0);
        check(&coo.to_csr());
    }
}

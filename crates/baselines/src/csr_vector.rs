//! Warp-per-row ("CSR-vector") SpMV — the vendor-CSR stand-in.
//!
//! cuSPARSE's CSR path is closed source; its documented strategy is a
//! vectorized CSR kernel that assigns a power-of-two group of threads to
//! each row, sized to the average row length, and reduces partials with
//! shuffles. That is what this module implements. Rows much longer than the
//! sub-warp simply loop; rows shorter leave lanes idle (counted as issued
//! FMA slots, like real SIMT hardware).

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};
use dasp_sparse::Csr;

use crate::WARPS_PER_BLOCK;

/// Vectorized CSR SpMV with mean-length-adapted sub-warps.
#[derive(Debug, Clone)]
pub struct CsrVector<S: Scalar> {
    csr: Csr<S>,
    threads_per_row: usize,
}

impl<S: Scalar> CsrVector<S> {
    /// Wraps a CSR matrix, choosing the sub-warp width from the mean row
    /// length (next power of two, clamped to `[2, 32]`).
    pub fn new(csr: &Csr<S>) -> Self {
        let mean = if csr.rows == 0 {
            1
        } else {
            csr.nnz().div_ceil(csr.rows)
        };
        let threads_per_row = mean.next_power_of_two().clamp(2, WARP_SIZE);
        CsrVector {
            csr: csr.clone(),
            threads_per_row,
        }
    }

    /// The sub-warp width selected at construction.
    pub fn threads_per_row(&self) -> usize {
        self.threads_per_row
    }

    /// Computes `y = A x` under the given executor. Each warp owns a
    /// disjoint group of `32 / threads_per_row` consecutive rows.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("csr-vector", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        let csr = &self.csr;
        assert_eq!(x.len(), csr.cols);
        let mut y = vec![S::zero(); csr.rows];
        if csr.rows == 0 {
            return y;
        }
        let rows_per_warp = WARP_SIZE / self.threads_per_row;
        let n_warps = csr.rows.div_ceil(rows_per_warp);
        // A vendor-library call is not a bare kernel launch: cusparseSpMV
        // validates parameters, selects an algorithm and stages descriptors
        // before the kernel runs. Model that dispatch as two extra
        // launch-equivalents on top of the kernel itself.
        probe.kernel_launch(0, 0);
        probe.kernel_launch(0, 0);
        probe.kernel_launch(
            n_warps.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        let shared = SharedSlice::new(&mut y);
        exec.run(n_warps, probe, |w, p| {
            csr_vector_warp(csr, x, &shared, self.threads_per_row, w, p)
        });
        y
    }
}

/// Warp body: warp `w` reduces its `32 / tpr` rows, one sub-warp each.
pub fn csr_vector_warp<S: Scalar, P: Probe>(
    csr: &Csr<S>,
    x: &[S],
    y: &SharedSlice<S>,
    tpr: usize,
    w: usize,
    probe: &mut P,
) {
    let rows_per_warp = WARP_SIZE / tpr;
    probe.warp_begin(w);
    probe.san_region("csr-vector");
    // Warp-scoped batch: x indices stream across all of the warp's rows in
    // issue order; grouping never reorders, so cache classification is
    // identical to per-row flushes while call counts drop ~tpr-fold.
    let mut xb = XBatch::new(S::BYTES);
    for i in w * rows_per_warp..((w + 1) * rows_per_warp).min(csr.rows) {
        probe.load_meta(2, 4);
        let lo = csr.row_ptr[i];
        let hi = csr.row_ptr[i + 1];
        let len = hi - lo;
        let mut sum = S::acc_zero();
        for j in lo..hi {
            let c = csr.col_idx[j] as usize;
            xb.push(probe, c);
            sum = S::acc_mul_add(sum, csr.vals[j], x[c]);
        }
        probe.load_val(len as u64, S::BYTES);
        probe.load_idx(len as u64, 4);
        // Issued slots: the sub-warp rounds the row up to a multiple of
        // its width (idle lanes on the last pass).
        probe.fma((len.div_ceil(tpr) * tpr) as u64);
        // Those same idle slots are predicated-off lanes — the
        // row-length-skew divergence DASP's packing removes.
        let pad = len.div_ceil(tpr) * tpr - len;
        if pad > 0 {
            probe.divergence(pad as u64);
        }
        // Sub-warp tree reduction.
        probe.shfl(tpr.trailing_zeros() as u64);
        y.write(i, S::from_acc(sum));
        probe.san_write(space::Y, &[i]);
        probe.store_y(1, S::BYTES);
    }
    xb.flush(probe);
    probe.warp_end(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    #[test]
    fn matches_reference() {
        let mut m = Coo::<f64>::new(30, 50);
        for r in 0..30usize {
            for k in 0..(3 + (r * 11) % 20) {
                m.push(r, (r * 3 + k * 2) % 50, (k + 1) as f64 * 0.1);
            }
        }
        let csr = m.to_csr();
        let x: Vec<f64> = (0..50).map(|i| 1.0 / (i + 1) as f64).collect();
        let y = CsrVector::new(&csr).spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(&csr, &x), 1e-12);
    }

    #[test]
    fn subwarp_width_follows_mean_length() {
        let mut m = Coo::<f64>::new(4, 64);
        for r in 0..4 {
            for k in 0..9 {
                m.push(r, r * 10 + k, 1.0);
            }
        }
        let v = CsrVector::new(&m.to_csr());
        assert_eq!(v.threads_per_row(), 16); // mean 9 -> next pow2 16
        let empty = CsrVector::new(&Csr::<f64>::empty(5, 5));
        assert_eq!(empty.threads_per_row(), 2); // clamped low
    }

    #[test]
    fn issued_slots_round_up_to_subwarp() {
        let mut m = Coo::<f64>::new(1, 64);
        for k in 0..9 {
            m.push(0, k, 1.0);
        }
        let csr = m.to_csr();
        let v = CsrVector::new(&csr);
        // 1 row, mean 9 -> tpr 16 -> issued = 16.
        let mut probe = CountingProbe::a100();
        let _ = v.spmv_with(&vec![1.0; 64], &mut probe, &Executor::from_env());
        assert_eq!(probe.stats().fma_ops, 16);
        assert_eq!(probe.stats().shfl_ops, 4);
    }
}

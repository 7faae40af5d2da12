//! The standard one-thread-per-row CSR SpMV (paper Algorithm 1).
//!
//! This is the kernel whose execution the paper breaks down in Fig. 2 into
//! RANDOM ACCESS (gathering `x`), COMPUTE (the inner products) and
//! MISCELLANEOUS (row pointers, `y`, launch). The probe records each class
//! separately — `load_x` for the gathers, `fma` for compute, `load_meta` /
//! `store_y` / `kernel_launch` for the rest — so `dasp-perf` can attribute
//! time per class.
//!
//! SIMT divergence is modelled faithfully: threads are grouped 32 rows to a
//! warp, and the warp issues FMA slots for `32 * max(len)` cycles while
//! shorter rows idle. Memory traffic is counted at the actual element
//! counts (idle lanes do not load).

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};
use dasp_sparse::{Csr, DenseMat, PANEL_WIDTH};

use crate::WARPS_PER_BLOCK;

/// One-thread-per-row CSR SpMV. No preprocessing: the handle borrows
/// nothing and converts nothing.
#[derive(Debug, Clone)]
pub struct CsrScalar<S: Scalar> {
    csr: Csr<S>,
}

impl<S: Scalar> CsrScalar<S> {
    /// Wraps a CSR matrix (no format conversion happens).
    pub fn new(csr: &Csr<S>) -> Self {
        CsrScalar { csr: csr.clone() }
    }

    /// Computes `y = A x` under the given executor. Each warp owns a
    /// disjoint 32-row band, so the warp bodies parallelize directly.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("csr-scalar", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        let csr = &self.csr;
        assert_eq!(x.len(), csr.cols);
        let mut y = vec![S::zero(); csr.rows];
        if csr.rows == 0 {
            return y;
        }
        let n_warps = csr.rows.div_ceil(WARP_SIZE);
        probe.kernel_launch(
            n_warps.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        let shared = SharedSlice::new(&mut y);
        exec.run(n_warps, probe, |w, p| {
            csr_scalar_warp(csr, x, &shared, w, p)
        });
        y
    }

    /// Computes `Y = A B` under the given executor. Traffic model mirrors
    /// the SpMV kernel with the natural multi-RHS amortization: each A
    /// value and column index loads once per panel sweep, then one FMA
    /// and one B gather per live column, so per-RHS A traffic shrinks
    /// with the width here too (the comparison isolates the MMA packing,
    /// not the amortization itself). This is the scalar reference SpMM
    /// the DASP SpMM kernels are compared against; like
    /// [`CsrScalar::spmv_with`] it is sanitized in fleet mode.
    pub fn spmm_with<P: ShardableProbe>(
        &self,
        b: &DenseMat<S>,
        probe: &mut P,
        exec: &Executor,
    ) -> DenseMat<S> {
        dasp_sanitize::fleet!("csr-scalar.spmm", probe => self.spmm_kernel(b, probe, exec))
    }

    fn spmm_kernel<P: ShardableProbe>(
        &self,
        b: &DenseMat<S>,
        probe: &mut P,
        exec: &Executor,
    ) -> DenseMat<S> {
        let csr = &self.csr;
        assert_eq!(b.rows(), csr.cols, "B rows != matrix cols");
        let mut y = DenseMat::zeros(csr.rows, b.cols());
        if csr.rows == 0 || b.cols() == 0 {
            return y;
        }
        let n_warps = csr.rows.div_ceil(WARP_SIZE);
        let panels = b.num_panels();
        probe.kernel_launch(
            (n_warps.div_ceil(WARPS_PER_BLOCK) * panels) as u64,
            WARPS_PER_BLOCK as u64,
        );
        let y_rows = csr.rows;
        let shared = SharedSlice::new(y.data_mut());
        exec.run(n_warps * panels, probe, |wid, p| {
            csr_scalar_spmm_warp(csr, b, &shared, y_rows, n_warps, wid, p)
        });
        y
    }
}

/// SpMM warp body: warp `wid = panel * n_warps + w` reduces the band's
/// rows against every live column of its panel.
pub fn csr_scalar_spmm_warp<S: Scalar, P: Probe>(
    csr: &Csr<S>,
    b: &DenseMat<S>,
    y: &SharedSlice<S>,
    y_rows: usize,
    n_warps: usize,
    wid: usize,
    probe: &mut P,
) {
    let (panel, w) = (wid / n_warps, wid % n_warps);
    let w_p = b.panel_width(panel);
    let bp = b.panel(panel);
    probe.warp_begin(wid);
    probe.san_region("csr-scalar.spmm");
    let lo_row = w * WARP_SIZE;
    let hi_row = ((w + 1) * WARP_SIZE).min(csr.rows);
    let mut max_len = 0usize;
    let mut xb = XBatch::new(S::BYTES);
    for i in lo_row..hi_row {
        let len = csr.row_len(i);
        max_len = max_len.max(len);
        probe.load_meta(2, 4); // RowPtr[i], RowPtr[i+1]
        let mut sum = [S::acc_zero(); PANEL_WIDTH];
        for j in csr.row_ptr[i]..csr.row_ptr[i + 1] {
            let c = csr.col_idx[j] as usize;
            for jj in 0..w_p {
                // B accesses stream through the warp-scoped batch in the
                // same element-then-jj order as before.
                xb.push(probe, b.lin_index(panel, c, jj));
                sum[jj] = S::acc_mul_add(sum[jj], csr.vals[j], bp[c * w_p + jj]);
            }
        }
        probe.load_val(len as u64, S::BYTES);
        probe.load_idx(len as u64, 4);
        probe.fma((len * w_p) as u64);
        for jj in 0..w_p {
            let idx = panel * y_rows * PANEL_WIDTH + i * w_p + jj;
            y.write(idx, S::from_acc(sum[jj]));
            probe.san_write(space::Y, &[idx]);
        }
        probe.store_y(w_p as u64, S::BYTES);
    }
    xb.flush(probe);
    // Issued FMA slots for the divergence model: the per-element FMAs are
    // counted above, so only the idle slots of shorter rows remain.
    let issued = (WARP_SIZE * max_len * w_p) as u64;
    let counted: u64 = (lo_row..hi_row)
        .map(|i| (csr.row_len(i) * w_p) as u64)
        .sum();
    probe.fma(issued.saturating_sub(counted));
    probe.warp_end(wid);
}

/// Warp body: warp `w`'s 32 threads each reduce one row of the band
/// `w*32..(w+1)*32`.
pub fn csr_scalar_warp<S: Scalar, P: Probe>(
    csr: &Csr<S>,
    x: &[S],
    y: &SharedSlice<S>,
    w: usize,
    probe: &mut P,
) {
    probe.warp_begin(w);
    probe.san_region("csr-scalar");
    let lo_row = w * WARP_SIZE;
    let hi_row = ((w + 1) * WARP_SIZE).min(csr.rows);
    let mut max_len = 0usize;
    // Warp-scoped batch: x accesses stream across the whole 32-row band
    // in issue order, flushing once per full warp of indices. Grouping
    // never reorders, so classification is identical to per-row flushes.
    let mut xb = XBatch::new(S::BYTES);
    for i in lo_row..hi_row {
        let len = csr.row_len(i);
        max_len = max_len.max(len);
        probe.load_meta(2, 4); // RowPtr[i], RowPtr[i+1]
        let mut sum = S::acc_zero();
        for j in csr.row_ptr[i]..csr.row_ptr[i + 1] {
            let c = csr.col_idx[j] as usize;
            xb.push(probe, c);
            sum = S::acc_mul_add(sum, csr.vals[j], x[c]);
        }
        probe.load_val(len as u64, S::BYTES);
        probe.load_idx(len as u64, 4);
        y.write(i, S::from_acc(sum));
        probe.san_write(space::Y, &[i]);
        probe.store_y(1, S::BYTES);
    }
    xb.flush(probe);
    // Issued FMA slots: every lane occupies the warp for the
    // longest row's duration (divergence).
    probe.fma((WARP_SIZE * max_len) as u64);
    probe.warp_end(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn sample() -> Csr<f64> {
        let mut m = Coo::new(40, 40);
        for r in 0..40usize {
            for k in 0..(r % 7) {
                m.push(r, (r + k * 5) % 40, (r + k) as f64 * 0.3 + 1.0);
            }
        }
        m.to_csr()
    }

    #[test]
    fn matches_reference() {
        let csr = sample();
        let x: Vec<f64> = (0..40).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let m = CsrScalar::new(&csr);
        let y = m.spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(&csr, &x), 1e-12);
    }

    #[test]
    fn divergence_counts_issued_slots() {
        // 32 rows: one of length 10, the rest length 1 -> issued = 32*10.
        let mut m = Coo::<f64>::new(32, 32);
        for c in 0..10 {
            m.push(0, c, 1.0);
        }
        for r in 1..32 {
            m.push(r, r, 1.0);
        }
        let csr = m.to_csr();
        let x = vec![1.0f64; 32];
        let mut probe = CountingProbe::a100();
        let y = CsrScalar::new(&csr).spmv_with(&x, &mut probe, &Executor::from_env());
        let s = probe.stats();
        assert_eq!(s.fma_ops, 320);
        // Traffic is the actual element count, not the issued slots.
        assert_eq!(s.bytes_val, (10 + 31) * 8);
        assert_eq!(y[0], 10.0);
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::<f64>::empty(3, 3);
        let y = CsrScalar::new(&csr).spmv_with(&[0.0; 3], &mut NoProbe, &Executor::from_env());
        assert_eq!(y, vec![0.0; 3]);
    }

    #[test]
    fn spmm_matches_columnwise_spmv_bitwise() {
        let csr = sample();
        let m = CsrScalar::new(&csr);
        for width in [1usize, 3, 8, 11] {
            let columns: Vec<Vec<f64>> = (0..width)
                .map(|j| {
                    (0..40)
                        .map(|i| (i * (j + 1)) as f64 * 0.125 - 2.0)
                        .collect()
                })
                .collect();
            let b = DenseMat::from_columns(&columns);
            let y = m.spmm_with(&b, &mut NoProbe, &Executor::from_env());
            assert_eq!((y.rows(), y.cols()), (40, width));
            for (j, col) in columns.iter().enumerate() {
                let want = m.spmv_with(col, &mut NoProbe, &Executor::from_env());
                let got = y.column(j);
                for r in 0..40 {
                    assert_eq!(
                        got[r].to_bits(),
                        want[r].to_bits(),
                        "width {width} col {j} row {r}"
                    );
                }
            }
            let exact = crate::reference::spmm_exact(&csr, &b);
            for (j, want) in exact.iter().enumerate() {
                assert_matches(&y.column(j), want, 1e-12);
            }
        }
    }

    #[test]
    fn spmm_amortizes_a_traffic_and_scales_fma_slots() {
        let csr = sample();
        let m = CsrScalar::new(&csr);
        let x = vec![1.0f64; 40];
        let mut p1 = CountingProbe::a100();
        m.spmv_with(&x, &mut p1, &Executor::from_env());
        let s1 = p1.stats();

        let b = DenseMat::from_columns(&vec![x.clone(); 8]);
        let mut p8 = CountingProbe::a100();
        m.spmm_with(&b, &mut p8, &Executor::from_env());
        let s8 = p8.stats();
        // A streams once per 8-wide panel; FMA slots and B gathers scale
        // with the width.
        assert_eq!(s8.bytes_val, s1.bytes_val);
        assert_eq!(s8.bytes_idx, s1.bytes_idx);
        assert_eq!(s8.fma_ops, s1.fma_ops * 8);
        assert_eq!(s8.x_requests, s1.x_requests * 8);
    }
}

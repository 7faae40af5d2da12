//! Block-SpMV over the BSR format — the `cusparse?bsrmv()` stand-in.
//!
//! Every stored block is dense, so the kernel issues `bs * bs` FMA slots
//! and streams `bs * bs` values per block *including the zero fill-in*.
//! That fill-in is what collapses BSR on unstructured matrices (the paper
//! measures up to 283.92x against it); on genuinely blocked matrices the
//! fill is ~1 and BSR is competitive. [`BsrSpmv::best_of`] reproduces the
//! paper's methodology of taking the best of block sizes 2, 4 and 8.

use dasp_fp16::Scalar;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};
use dasp_sparse::{Bsr, Csr};

use crate::WARPS_PER_BLOCK;

/// BSR SpMV at a fixed block size.
#[derive(Debug, Clone)]
pub struct BsrSpmv<S: Scalar> {
    bsr: Bsr<S>,
}

impl<S: Scalar> BsrSpmv<S> {
    /// Converts CSR to BSR with block size `bs` (the preprocessing step
    /// timed in Fig. 13).
    pub fn new(csr: &Csr<S>, bs: usize) -> Self {
        BsrSpmv {
            bsr: Bsr::from_csr(csr, bs),
        }
    }

    /// Builds handles for block sizes 2, 4 and 8 and returns them; the
    /// experiment driver picks whichever the cost model ranks fastest, as
    /// the paper does.
    pub fn best_of(csr: &Csr<S>) -> Vec<BsrSpmv<S>> {
        [2usize, 4, 8]
            .iter()
            .map(|&bs| BsrSpmv::new(csr, bs))
            .collect()
    }

    /// The wrapped BSR matrix.
    pub fn bsr(&self) -> &Bsr<S> {
        &self.bsr
    }

    /// Fill-in factor (stored values / original nonzeros).
    pub fn fill_ratio(&self) -> f64 {
        self.bsr.fill_ratio()
    }

    /// Computes `y = A x` under the given executor: one warp per block row,
    /// dense blocks, each warp owning a disjoint `bs`-row band of `y`.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("bsr", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        let b = &self.bsr;
        assert_eq!(x.len(), b.cols);
        let mut y = vec![S::zero(); b.rows];
        if b.mb == 0 || b.num_blocks() == 0 {
            return y;
        }
        // One warp per block row (the bsrmv launch shape), plus the vendor
        // library's dispatch overhead (see csr_vector.rs).
        probe.kernel_launch(0, 0);
        probe.kernel_launch(0, 0);
        probe.kernel_launch(
            b.mb.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        let shared = SharedSlice::new(&mut y);
        exec.run(b.mb, probe, |bi, p| self.block_row_warp(x, &shared, bi, p));
        y
    }

    /// Warp body: block row `bi`'s sub-warp sweeps its dense blocks.
    fn block_row_warp<P: Probe>(&self, x: &[S], y: &SharedSlice<S>, bi: usize, probe: &mut P) {
        let b = &self.bsr;
        let bs = b.block_size;
        probe.warp_begin(bi);
        probe.san_region("bsr");
        probe.load_meta(2, 4); // block row_ptr
        let mut acc = vec![S::acc_zero(); bs];
        let mut xb = XBatch::new(S::BYTES);
        for k in b.row_ptr[bi]..b.row_ptr[bi + 1] {
            let bc = b.col_idx[k] as usize;
            probe.load_idx(1, 4);
            probe.load_val((bs * bs) as u64, S::BYTES); // dense incl. fill
            probe.fma((bs * bs) as u64);
            for cc in 0..bs {
                let c = bc * bs + cc;
                if c >= b.cols {
                    continue;
                }
                xb.push(probe, c);
                for (rr, a) in acc.iter_mut().enumerate() {
                    let v = b.blocks[k * bs * bs + rr * bs + cc];
                    *a = S::acc_mul_add(*a, v, x[c]);
                }
            }
        }
        xb.flush(probe);
        for (rr, a) in acc.iter().enumerate() {
            let r = bi * bs + rr;
            if r < b.rows {
                y.write(r, S::from_acc(*a));
                probe.san_write(space::Y, &[r]);
                probe.store_y(1, S::BYTES);
            }
        }
        probe.warp_end(bi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn sample() -> Csr<f64> {
        let mut m = Coo::new(13, 17);
        for r in 0..13usize {
            for k in 0..(1 + r % 5) {
                m.push(r, (r * 2 + k * 3) % 17, (r * k + 2) as f64 * 0.2);
            }
        }
        m.to_csr()
    }

    #[test]
    fn matches_reference_all_block_sizes() {
        let csr = sample();
        let x: Vec<f64> = (0..17).map(|i| (i % 5) as f64 - 2.0).collect();
        let want = spmv_exact(&csr, &x);
        for bs in [2, 4, 8] {
            let y = BsrSpmv::new(&csr, bs).spmv_with(&x, &mut NoProbe, &Executor::from_env());
            assert_matches(&y, &want, 1e-12);
        }
    }

    #[test]
    fn traffic_includes_fill_in() {
        // Diagonal matrix, bs=4: every block stores 16 values for 4 real
        // nonzeros (fill 4x per block row of 4 diagonal elements... exactly
        // one block per block row with 4 nonzeros -> fill ratio 4).
        let mut m = Coo::<f64>::new(16, 16);
        for i in 0..16 {
            m.push(i, i, 1.0);
        }
        let csr = m.to_csr();
        let h = BsrSpmv::new(&csr, 4);
        assert_eq!(h.fill_ratio(), 4.0);
        let mut probe = CountingProbe::a100();
        let _ = h.spmv_with(&[1.0; 16], &mut probe, &Executor::from_env());
        // 4 blocks x 16 dense values x 8 bytes.
        assert_eq!(probe.stats().bytes_val, 4 * 16 * 8);
        assert_eq!(probe.stats().fma_ops, 4 * 16);
    }

    #[test]
    fn best_of_returns_three_handles() {
        let hs = BsrSpmv::best_of(&sample());
        assert_eq!(hs.len(), 3);
        assert_eq!(hs[0].bsr().block_size, 2);
        assert_eq!(hs[2].bsr().block_size, 8);
    }
}

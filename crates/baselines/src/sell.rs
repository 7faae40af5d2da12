//! SELL-C-sigma (Kreutzer et al., SIAM SISC 2014 — the paper's reference
//! \[51\]): the portable wide-SIMD sparse format, included as an extension
//! comparison.
//!
//! Rows are sorted by descending length inside windows of `sigma` rows,
//! then grouped into chunks of `C` (= 32, one warp) consecutive rows. Each
//! chunk is padded to its longest row and stored column-major, so lane `l`
//! of a warp streams row `l` of the chunk with perfectly coalesced loads
//! and needs no reduction at all. The price is padding: skew inside a
//! sorting window becomes zero fill (the same trade DASP's medium category
//! makes, but without the MMA units or the irregular escape hatch).

use dasp_fp16::Scalar;
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice};
use dasp_sparse::Csr;

use crate::WARPS_PER_BLOCK;

/// Chunk height (rows per warp). Fixed at the warp width.
pub const CHUNK: usize = WARP_SIZE;

/// Default sorting-window size (rows). The original recommends a small
/// multiple of the chunk height.
pub const DEFAULT_SIGMA: usize = 256;

/// A matrix in SELL-C-sigma form.
#[derive(Debug, Clone)]
pub struct SellCSigma<S: Scalar> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Chunk-major, column-major-within-chunk element values (padded).
    vals: Vec<S>,
    /// Matching column ids (0 for padding).
    cids: Vec<u32>,
    /// Element offset of each chunk; length `num_chunks + 1`.
    chunk_ptr: Vec<usize>,
    /// Width (padded row length) of each chunk.
    chunk_width: Vec<usize>,
    /// Sorted position -> original row id.
    perm: Vec<u32>,
}

impl<S: Scalar> SellCSigma<S> {
    /// Converts CSR with the default sorting window.
    pub fn new(csr: &Csr<S>) -> Self {
        Self::with_sigma(csr, DEFAULT_SIGMA)
    }

    /// Converts CSR with an explicit sorting window `sigma` (rounded up to
    /// a whole number of chunks).
    pub fn with_sigma(csr: &Csr<S>, sigma: usize) -> Self {
        let sigma = sigma.max(CHUNK);
        // Sort rows by descending length inside each sigma window.
        let mut order: Vec<u32> = (0..csr.rows as u32).collect();
        for win in order.chunks_mut(sigma) {
            win.sort_by_key(|&r| std::cmp::Reverse(csr.row_len(r as usize)));
        }
        let n_chunks = csr.rows.div_ceil(CHUNK);
        let mut vals = Vec::new();
        let mut cids = Vec::new();
        let mut chunk_ptr = vec![0usize];
        let mut chunk_width = Vec::with_capacity(n_chunks);
        for ch in 0..n_chunks {
            let rows = &order[ch * CHUNK..((ch + 1) * CHUNK).min(csr.rows)];
            let width = rows
                .iter()
                .map(|&r| csr.row_len(r as usize))
                .max()
                .unwrap_or(0);
            chunk_width.push(width);
            // Column-major: position j of every lane, then j+1, ...
            for j in 0..width {
                for lane in 0..CHUNK {
                    match rows.get(lane) {
                        Some(&r) => {
                            let lo = csr.row_ptr[r as usize];
                            let hi = csr.row_ptr[r as usize + 1];
                            if lo + j < hi {
                                vals.push(csr.vals[lo + j]);
                                cids.push(csr.col_idx[lo + j]);
                            } else {
                                vals.push(S::zero());
                                cids.push(0);
                            }
                        }
                        None => {
                            vals.push(S::zero());
                            cids.push(0);
                        }
                    }
                }
            }
            chunk_ptr.push(vals.len());
        }
        SellCSigma {
            rows: csr.rows,
            cols: csr.cols,
            nnz: csr.nnz(),
            vals,
            cids,
            chunk_ptr,
            chunk_width,
            perm: order,
        }
    }

    /// Stored elements (incl. padding) over original nonzeros.
    pub fn fill_ratio(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        self.vals.len() as f64 / self.nnz as f64
    }

    /// Number of 32-row chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunk_width.len()
    }

    /// Computes `y = A x` under the given executor: one warp per chunk, one
    /// lane per row, no reductions. Chunks own disjoint rows (the sorting
    /// permutation is a bijection), so the warp bodies parallelize
    /// directly.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("sell", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![S::zero(); self.rows];
        if self.rows == 0 || self.nnz == 0 {
            return y;
        }
        let n_chunks = self.num_chunks();
        probe.kernel_launch(
            n_chunks.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        let shared = SharedSlice::new(&mut y);
        exec.run(n_chunks, probe, |ch, p| self.chunk_warp(x, &shared, ch, p));
        y
    }

    /// Warp body: chunk `ch`'s 32 lanes stream their rows column-major.
    fn chunk_warp<P: Probe>(&self, x: &[S], y: &SharedSlice<S>, ch: usize, probe: &mut P) {
        probe.warp_begin(ch);
        probe.san_region("sell");
        probe.load_meta(2, 4); // chunk_ptr + width
        let base = self.chunk_ptr[ch];
        let width = self.chunk_width[ch];
        let lanes = (self.rows - ch * CHUNK).min(CHUNK);
        // Every lane runs the full chunk width (padding included) —
        // SELL's issued-slot cost.
        probe.fma((width * CHUNK) as u64);
        probe.load_val((width * CHUNK) as u64, S::BYTES);
        probe.load_idx((width * CHUNK) as u64, 4);
        let mut acc = [S::acc_zero(); CHUNK];
        for j in 0..width {
            // One batched x access per chunk column (lane order).
            let mut xi = [0usize; CHUNK];
            for (lane, a) in acc.iter_mut().enumerate().take(lanes) {
                let e = base + j * CHUNK + lane;
                let c = self.cids[e] as usize;
                xi[lane] = c;
                *a = S::acc_mul_add(*a, self.vals[e], x[c]);
            }
            probe.load_x(&xi[..lanes], S::BYTES);
        }
        for (lane, a) in acc.iter().enumerate().take(lanes) {
            let row = self.perm[ch * CHUNK + lane] as usize;
            y.write(row, S::from_acc(*a));
            probe.san_write(space::Y, &[row]);
            probe.store_y(1, S::BYTES);
        }
        probe.warp_end(ch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn check(csr: &Csr<f64>, sigma: usize) {
        let x: Vec<f64> = (0..csr.cols).map(|i| 0.4 + (i % 9) as f64 * 0.1).collect();
        let m = SellCSigma::with_sigma(csr, sigma);
        let y = m.spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(csr, &x), 1e-9);
    }

    #[test]
    fn matches_reference_across_classes_and_sigmas() {
        for sigma in [32, 128, 1024] {
            check(&dasp_matgen::banded(300, 12, 9, 1), sigma);
            check(&dasp_matgen::rmat(9, 6, 2), sigma);
            check(&dasp_matgen::circuit_like(500, 2, 200, 3), sigma);
            check(&dasp_matgen::diagonal_bands(333, &[0, 1], 4), sigma);
        }
    }

    #[test]
    fn empty_rows_and_matrices() {
        check(&Csr::empty(40, 40), 256);
        let mut coo = Coo::<f64>::new(70, 70);
        coo.push(0, 5, 1.0);
        coo.push(69, 69, 2.0);
        check(&coo.to_csr(), 64);
    }

    #[test]
    fn uniform_rows_have_no_fill() {
        let csr = dasp_matgen::uniform_random(256, 256, 6, 5);
        let m = SellCSigma::new(&csr);
        assert_eq!(m.fill_ratio(), 1.0);
    }

    #[test]
    fn larger_sigma_reduces_fill_on_skewed_rows() {
        // Skewed lengths: sorting over a wider window groups like with like.
        let csr = dasp_matgen::uniform_random_var(2048, 2048, 1, 40, 6);
        let narrow = SellCSigma::with_sigma(&csr, 32);
        let wide = SellCSigma::with_sigma(&csr, 2048);
        assert!(
            wide.fill_ratio() < narrow.fill_ratio(),
            "wide {} vs narrow {}",
            wide.fill_ratio(),
            narrow.fill_ratio()
        );
    }

    #[test]
    fn issued_slots_count_padding() {
        // One long row in a 32-row chunk: every lane pays the full width.
        let mut coo = Coo::<f64>::new(32, 64);
        for k in 0..20 {
            coo.push(0, k, 1.0);
        }
        for r in 1..32 {
            coo.push(r, r, 1.0);
        }
        let csr = coo.to_csr();
        let m = SellCSigma::with_sigma(&csr, 32);
        let mut probe = CountingProbe::a100();
        let _ = m.spmv_with(&vec![1.0; 64], &mut probe, &Executor::from_env());
        assert_eq!(probe.stats().fma_ops, 20 * 32);
    }
}

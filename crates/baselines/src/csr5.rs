//! CSR5 (Liu & Vinter, ICS '15) — the paper's strongest open-source
//! baseline.
//!
//! CSR5 partitions the *nonzeros* (not the rows) into equal tiles of
//! `omega x sigma` elements (`omega` = 32 lanes), stores each tile
//! transposed for coalesced loads, and marks row boundaries with per-tile
//! bit flags. Each warp computes one tile: every lane multiplies its
//! `sigma` elements and a segmented sum over the bit flags produces the
//! per-row partials, which are merged across lanes (and across tiles, for
//! rows that span them) — giving perfect nonzero load balance regardless of
//! row-length skew.
//!
//! This implementation keeps CSR5's observable structure faithfully:
//!
//! * equal-nnz tiles with a transposed physical layout,
//! * `tile_ptr` (first row of each tile) and per-tile bit flags,
//! * an expanded `seg_rows` descriptor (the role of CSR5's
//!   `y_offset`/`empty_offset`: the target row of every segment, skipping
//!   empty rows),
//! * balanced issued-FMA accounting (`tile elements`, no divergence),
//!   cross-lane merge shuffles, and boundary-row accumulation.

use dasp_fp16::Scalar;
use dasp_simt::warp::WARP_SIZE;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice, XBatch};
use dasp_sparse::Csr;

use crate::{acc_spill, WARPS_PER_BLOCK};

/// Default `sigma` (elements per lane per tile). The original autotunes per
/// architecture; 16 is representative for modern NVIDIA parts.
pub const DEFAULT_SIGMA: usize = 16;

/// A matrix converted to the CSR5 tiled format.
#[derive(Debug, Clone)]
pub struct Csr5<S: Scalar> {
    rows: usize,
    cols: usize,
    nnz: usize,
    sigma: usize,
    /// Transposed element values: logical tile position `(lane, step)` is
    /// stored at `tile_base + step * 32 + lane`.
    vals_t: Vec<S>,
    /// Transposed column ids.
    cids_t: Vec<u32>,
    /// First row of each tile; length `n_tiles`.
    tile_first_row: Vec<u32>,
    /// Row-start bit flags, one bit per element, packed per tile.
    bit_flags: Vec<u64>,
    /// Target row of each segment, per tile (expanded y_offset).
    seg_rows: Vec<u32>,
    /// Start of each tile's segment list; length `n_tiles + 1`.
    seg_ptr: Vec<usize>,
}

impl<S: Scalar> Csr5<S> {
    /// Converts CSR to CSR5 with the default sigma.
    pub fn new(csr: &Csr<S>) -> Self {
        Self::with_sigma(csr, DEFAULT_SIGMA)
    }

    /// Converts with sigma chosen from the mean row length, in the spirit
    /// of the original's per-architecture autotuner: short-row matrices
    /// get shallow tiles (fewer wasted lane steps per segment), long-row
    /// matrices get deep ones (fewer tile descriptors).
    pub fn auto(csr: &Csr<S>) -> Self {
        let mean = if csr.rows == 0 {
            DEFAULT_SIGMA
        } else {
            csr.nnz().div_ceil(csr.rows)
        };
        Self::with_sigma(csr, mean.clamp(4, 32))
    }

    /// Converts CSR to CSR5 with an explicit sigma.
    pub fn with_sigma(csr: &Csr<S>, sigma: usize) -> Self {
        assert!(sigma > 0);
        let nnz = csr.nnz();
        let tile_nnz = WARP_SIZE * sigma;
        let n_tiles = nnz.div_ceil(tile_nnz);

        // Row of each element (for tile_first_row and seg_rows): walk rows.
        let mut vals_t = vec![S::zero(); nnz];
        let mut cids_t = vec![0u32; nnz];
        let mut flags = vec![false; nnz];
        for r in 0..csr.rows {
            if csr.row_len(r) > 0 {
                flags[csr.row_ptr[r]] = true;
            }
        }
        // Transpose the full tiles; the trailing partial tile (if any)
        // stays in logical order (the kernel reads it untransposed).
        let full_tiles = nnz / tile_nnz;
        for t in 0..full_tiles {
            let base = t * tile_nnz;
            for p in 0..tile_nnz {
                let (lane, step) = (p / sigma, p % sigma);
                vals_t[base + step * WARP_SIZE + lane] = csr.vals[base + p];
                cids_t[base + step * WARP_SIZE + lane] = csr.col_idx[base + p];
            }
        }
        let tail = full_tiles * tile_nnz;
        vals_t[tail..nnz].copy_from_slice(&csr.vals[tail..nnz]);
        cids_t[tail..nnz].copy_from_slice(&csr.col_idx[tail..nnz]);

        // Tile descriptors.
        let mut tile_first_row = Vec::with_capacity(n_tiles);
        let mut seg_rows = Vec::new();
        let mut seg_ptr = vec![0usize];
        let mut bit_flags = vec![0u64; n_tiles * tile_nnz.div_ceil(64)];
        let words_per_tile = tile_nnz.div_ceil(64);
        let mut row_cursor = 0usize; // row containing the current element
        for t in 0..n_tiles {
            let base = t * tile_nnz;
            let end = (base + tile_nnz).min(nnz);
            // Advance to the row containing element `base`.
            while row_cursor + 1 < csr.rows && csr.row_ptr[row_cursor + 1] <= base {
                row_cursor += 1;
            }
            while csr.row_ptr[row_cursor + 1] == csr.row_ptr[row_cursor] {
                row_cursor += 1; // skip empty rows
            }
            tile_first_row.push(row_cursor as u32);
            seg_rows.push(row_cursor as u32);
            let mut cur = row_cursor;
            for g in base..end {
                if flags[g] {
                    bit_flags[t * words_per_tile + (g - base) / 64] |= 1u64 << ((g - base) % 64);
                    // Which (non-empty) row starts here?
                    while csr.row_ptr[cur] != g || csr.row_ptr[cur + 1] == csr.row_ptr[cur] {
                        cur += 1;
                    }
                    if g != base {
                        seg_rows.push(cur as u32);
                    }
                }
            }
            seg_ptr.push(seg_rows.len());
        }

        Csr5 {
            rows: csr.rows,
            cols: csr.cols,
            nnz,
            sigma,
            vals_t,
            cids_t,
            tile_first_row,
            bit_flags,
            seg_rows,
            seg_ptr,
        }
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tile_first_row.len()
    }

    /// The sigma this matrix was built with.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Computes `y = A x` under the given executor: one warp per tile,
    /// segmented sums over the bit flags, boundary rows accumulated across
    /// tiles.
    ///
    /// Tiles do not own disjoint rows — a row can span tiles — so the warp
    /// bodies use a first-spill carry: each tile's *first* segment close
    /// (which always targets `tile_first_row[t]`, the only row a
    /// predecessor tile can share) lands in a per-tile carry slot, while
    /// every later close targets a row that *starts* inside the tile (its
    /// `y` slot is untouched by any other warp and still zero). A
    /// sequential epilogue folds the carries into `y` in ascending tile
    /// order, reproducing the sequential per-row contribution order
    /// bit-for-bit.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("csr5", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![S::zero(); self.rows];
        if self.nnz == 0 {
            return y;
        }
        let n_tiles = self.num_tiles();
        probe.kernel_launch(
            n_tiles.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        let mut carry = vec![S::acc_zero(); n_tiles];
        {
            let y_s = SharedSlice::new(&mut y);
            let carry_s = SharedSlice::new(&mut carry);
            exec.run(n_tiles, probe, |t, p| {
                self.tile_warp(x, &y_s, &carry_s, t, p)
            });
        }
        // The cross-tile accumulation the hardware kernel does with
        // atomics; unprobed (every spill was already counted as a store).
        for (t, &c) in carry.iter().enumerate() {
            probe.san_read(space::AUX, &[t]);
            let row = self.tile_first_row[t] as usize;
            y[row] = acc_spill(y[row], c);
        }
        y
    }

    /// Warp body: tile `t`'s segmented sum. The first segment close goes to
    /// `carry[t]`; later closes write `y` directly (see [`Csr5::spmv_with`]).
    fn tile_warp<P: Probe>(
        &self,
        x: &[S],
        y: &SharedSlice<S>,
        carry: &SharedSlice<S::Acc>,
        t: usize,
        probe: &mut P,
    ) {
        let tile_nnz = WARP_SIZE * self.sigma;
        let words_per_tile = tile_nnz.div_ceil(64);
        let full_tiles = self.nnz / tile_nnz;
        probe.warp_begin(t);
        probe.san_region("csr5");
        let base = t * tile_nnz;
        let end = (base + tile_nnz).min(self.nnz);
        let count = end - base;
        // The trailing partial tile leaves whole lanes without
        // elements.
        if count < tile_nnz {
            let live = count.div_ceil(self.sigma);
            probe.divergence((WARP_SIZE - live) as u64);
        }
        probe.load_meta(1, 4); // tile_first_row
        probe.load_meta(words_per_tile as u64, 8); // bit flags
        probe.load_val(count as u64, S::BYTES);
        probe.load_idx(count as u64, 4);
        // Balanced issue: every lane runs sigma steps regardless of
        // segment structure (CSR5's core property). Each step is one
        // FMA plus one segmented-sum bookkeeping op (bit-flag test and
        // predicated partial-sum handling), so two ALU slots/element.
        probe.fma(2 * tile_nnz as u64);
        // Cross-lane segmented merge: two log2(32) shuffle passes.
        probe.shfl(10);

        let segs = &self.seg_rows[self.seg_ptr[t]..self.seg_ptr[t + 1]];
        probe.load_meta(segs.len() as u64, 4);
        let mut seg_idx = 0usize;
        let mut acc = S::acc_zero();
        let mut first_spill = true;
        let mut xb = XBatch::new(S::BYTES);
        for p in 0..count {
            let g = base + p;
            if p > 0 && self.flag(t, p, words_per_tile) {
                // Close the previous segment.
                if first_spill {
                    carry.write(t, acc);
                    probe.san_write(space::AUX, &[t]);
                    first_spill = false;
                } else {
                    y.write(segs[seg_idx] as usize, acc_spill(S::zero(), acc));
                    probe.san_write(space::Y, &[segs[seg_idx] as usize]);
                }
                probe.store_y(1, S::BYTES);
                seg_idx += 1;
                acc = S::acc_zero();
            }
            let phys = if t < full_tiles {
                let (lane, step) = (p / self.sigma, p % self.sigma);
                base + step * WARP_SIZE + lane
            } else {
                g
            };
            let c = self.cids_t[phys] as usize;
            xb.push(probe, c);
            acc = S::acc_mul_add(acc, self.vals_t[phys], x[c]);
        }
        if first_spill {
            carry.write(t, acc);
            probe.san_write(space::AUX, &[t]);
        } else {
            y.write(segs[seg_idx] as usize, acc_spill(S::zero(), acc));
            probe.san_write(space::Y, &[segs[seg_idx] as usize]);
        }
        xb.flush(probe);
        probe.store_y(1, S::BYTES);
        probe.warp_end(t);
    }

    #[inline]
    fn flag(&self, tile: usize, p: usize, words_per_tile: usize) -> bool {
        (self.bit_flags[tile * words_per_tile + p / 64] >> (p % 64)) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn check(lens: &[usize], cols: usize, sigma: usize) {
        let mut coo = Coo::<f64>::new(lens.len(), cols);
        for (r, &len) in lens.iter().enumerate() {
            for k in 0..len {
                coo.push(r, (r * 7 + k * 3) % cols, ((r + 1) * (k + 2)) as f64 * 0.01);
            }
        }
        let csr = coo.to_csr();
        let x: Vec<f64> = (0..cols).map(|i| 0.2 + (i % 9) as f64 * 0.1).collect();
        let m = Csr5::with_sigma(&csr, sigma);
        let y = m.spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(&csr, &x), 1e-9);
    }

    #[test]
    fn single_tile() {
        check(&[100, 50, 80, 26], 300, 8); // 256 nnz = 1 tile of 32*8
    }

    #[test]
    fn rows_spanning_tiles() {
        // One huge row crossing several tiles plus small rows at both ends.
        check(&[3, 2000, 5, 1, 700, 2], 4096, 16);
    }

    #[test]
    fn partial_last_tile() {
        check(&[37, 41, 23], 128, 16); // 101 nnz, far below one tile
    }

    #[test]
    fn empty_rows_are_skipped() {
        check(&[0, 10, 0, 0, 25, 0, 7, 0], 64, 4);
    }

    #[test]
    fn many_single_element_rows() {
        check(&[1; 300], 64, 16);
    }

    #[test]
    fn mixed_scale() {
        let lens: Vec<usize> = (0..200).map(|i| (i * 17) % 93).collect();
        check(&lens, 512, 16);
    }

    #[test]
    fn balanced_fma_issue_per_tile() {
        // 2 full tiles: issued FMA must be exactly 2 * 32 * sigma even
        // though rows are skewed.
        let mut coo = Coo::<f64>::new(3, 1024);
        for k in 0..1000 {
            coo.push(0, k, 1.0);
        }
        for k in 0..24 {
            coo.push(1, k, 1.0);
            coo.push(2, k + 30, 1.0);
        }
        let csr = coo.to_csr();
        let m = Csr5::with_sigma(&csr, 16);
        assert_eq!(m.num_tiles(), 3); // 1048 nnz / 512 = 2.05
        let mut probe = CountingProbe::a100();
        let _ = m.spmv_with(&vec![1.0f64; 1024], &mut probe, &Executor::from_env());
        assert_eq!(probe.stats().fma_ops, 2 * 3 * 512);
        assert_eq!(probe.stats().bytes_val, 1048 * 8);
    }

    #[test]
    fn auto_sigma_tracks_mean_row_length() {
        let short = dasp_matgen::diagonal_bands(200, &[0, 1], 1);
        assert_eq!(Csr5::auto(&short).sigma(), 4); // mean 2, clamped up
        let medium = dasp_matgen::banded(200, 20, 16, 2);
        assert_eq!(Csr5::auto(&medium).sigma(), 16);
        let long = dasp_matgen::rectangular_long(8, 2000, 700, 3);
        assert_eq!(Csr5::auto(&long).sigma(), 32); // clamped down
                                                   // And all of them still compute correctly.
        for csr in [short, medium, long] {
            let x: Vec<f64> = (0..csr.cols).map(|i| (i % 5) as f64 * 0.2).collect();
            let y = Csr5::auto(&csr).spmv_with(&x, &mut NoProbe, &Executor::from_env());
            crate::reference::assert_matches(&y, &csr.spmv_reference(&x), 1e-9);
        }
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::<f64>::empty(4, 4);
        let m = Csr5::new(&csr);
        assert_eq!(m.num_tiles(), 0);
        assert_eq!(
            m.spmv_with(&[0.0; 4], &mut NoProbe, &Executor::from_env()),
            vec![0.0; 4]
        );
    }
}

//! TileSpMV-like 2-D tiled SpMV (Niu et al., IPDPS '21).
//!
//! The matrix is cut into 16x16 tiles; a tile-level CSR indexes the
//! occupied tiles, and each tile stores its elements in whichever intra-
//! tile format is cheapest (the original picks among seven; the two that
//! dominate its decisions are kept here):
//!
//! * **dense bitmap** when the tile is at least quarter full — a 32-byte
//!   occupancy bitmap plus the packed values, no per-element column ids;
//! * **tile-CSR** otherwise — packed values, 1-byte local column ids and a
//!   17-entry local row pointer.
//!
//! A warp processes one tile row of tiles, reusing the 16 `x` values per
//! tile column. The per-tile metadata is exactly what hurts TileSpMV on
//! matrices without block structure (the paper's `kron_g500-logn20`
//! observation): scattered nonzeros mean one element per tile and ~24 bytes
//! of metadata around it.

#![allow(clippy::needless_range_loop)]

use dasp_fp16::Scalar;
use dasp_simt::{space, Executor, Probe, ShardableProbe, SharedSlice};
use dasp_sparse::Csr;

use crate::WARPS_PER_BLOCK;

/// Tile edge length.
pub const TILE_DIM: usize = 16;

/// Intra-tile storage chosen per tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileFormat {
    /// Occupancy bitmap + packed values (quarter-full or denser tiles).
    DenseBitmap,
    /// Local row pointer + 1-byte column ids + values.
    TileCsr,
}

/// A packed tile element: `(local_row, local_col, value)`.
type TileElem<S> = (u8, u8, S);

#[derive(Debug, Clone)]
struct Tile<S> {
    col_tile: u32,
    format: TileFormat,
    /// Packed elements in row-major order.
    elems: Vec<TileElem<S>>,
}

/// A matrix converted to 16x16 tiles with per-tile format selection.
#[derive(Debug, Clone)]
pub struct TileSpmv<S: Scalar> {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// `tile_row_ptr[i]..tile_row_ptr[i+1]` indexes `tiles` for tile row `i`.
    tile_row_ptr: Vec<usize>,
    tiles: Vec<Tile<S>>,
}

impl<S: Scalar> TileSpmv<S> {
    /// Converts CSR to the tiled format (the preprocessing of Fig. 13).
    pub fn new(csr: &Csr<S>) -> Self {
        let n_tile_rows = csr.rows.div_ceil(TILE_DIM);
        let n_tile_cols = csr.cols.div_ceil(TILE_DIM);
        let mut tile_row_ptr = vec![0usize; n_tile_rows + 1];
        let mut tiles: Vec<Tile<S>> = Vec::new();

        // Reusable per-tile-row scratch: a count-then-scatter over the
        // touched tile columns (counts reset only where touched), so one
        // tile row costs two streaming passes and no per-group allocation
        // churn.
        let mut count = vec![0usize; n_tile_cols];
        let mut offs = vec![0usize; n_tile_cols];
        let mut touched: Vec<u32> = Vec::new();
        let mut elems_buf: Vec<TileElem<S>> = Vec::new();

        for ti in 0..n_tile_rows {
            let (rlo, rhi) = (ti * TILE_DIM, ((ti + 1) * TILE_DIM).min(csr.rows));
            touched.clear();
            for r in rlo..rhi {
                for (c, _) in csr.row(r) {
                    let tc = c as usize / TILE_DIM;
                    if count[tc] == 0 {
                        touched.push(tc as u32);
                    }
                    count[tc] += 1;
                }
            }
            touched.sort_unstable();
            let mut total = 0;
            for &tc in &touched {
                offs[tc as usize] = total;
                total += count[tc as usize];
            }
            elems_buf.clear();
            elems_buf.resize(total, (0u8, 0u8, S::zero()));
            for r in rlo..rhi {
                let lr = (r - rlo) as u8;
                for (c, v) in csr.row(r) {
                    let tc = c as usize / TILE_DIM;
                    let lc = (c as usize % TILE_DIM) as u8;
                    elems_buf[offs[tc]] = (lr, lc, v);
                    offs[tc] += 1;
                }
            }
            let mut base = 0;
            for &tc in &touched {
                let n = count[tc as usize];
                count[tc as usize] = 0;
                let group = &mut elems_buf[base..base + n];
                base += n;
                // Rows stream in ascending order so the scatter is already
                // lr-major; the sort only fixes lc order within a row when
                // the source CSR has unsorted columns (near-free otherwise).
                group.sort_by_key(|&(lr, lc, _)| (lr, lc));
                let format = if n * 4 >= TILE_DIM * TILE_DIM {
                    TileFormat::DenseBitmap
                } else {
                    TileFormat::TileCsr
                };
                tiles.push(Tile {
                    col_tile: tc,
                    format,
                    elems: group.to_vec(),
                });
            }
            tile_row_ptr[ti + 1] = tiles.len();
        }

        TileSpmv {
            rows: csr.rows,
            cols: csr.cols,
            nnz: csr.nnz(),
            tile_row_ptr,
            tiles,
        }
    }

    /// Number of occupied tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Mean nonzeros per occupied tile — the density statistic that decides
    /// whether this format pays off.
    pub fn nnz_per_tile(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.nnz as f64 / self.tiles.len() as f64
    }

    /// Computes `y = A x` under the given executor: one warp per tile row
    /// of tiles, each owning a disjoint 16-row band of `y`.
    ///
    /// Sanitized in fleet mode (`DASP_SANITIZE`, see
    /// [`dasp_sanitize::fleet!`]); `y` is bit-identical either way.
    pub fn spmv_with<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        dasp_sanitize::fleet!("tilespmv", probe => self.spmv_kernel(x, probe, exec))
    }

    fn spmv_kernel<P: ShardableProbe>(&self, x: &[S], probe: &mut P, exec: &Executor) -> Vec<S> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![S::zero(); self.rows];
        let n_tile_rows = self.tile_row_ptr.len() - 1;
        if n_tile_rows == 0 || self.nnz == 0 {
            return y;
        }
        probe.kernel_launch(
            n_tile_rows.div_ceil(WARPS_PER_BLOCK) as u64,
            WARPS_PER_BLOCK as u64,
        );

        let shared = SharedSlice::new(&mut y);
        exec.run(n_tile_rows, probe, |ti, p| {
            self.tile_row_warp(x, &shared, ti, p)
        });
        y
    }

    /// Warp body: sweep tile row `ti`'s tiles, accumulating the 16-row band
    /// in registers.
    fn tile_row_warp<P: Probe>(&self, x: &[S], y: &SharedSlice<S>, ti: usize, probe: &mut P) {
        probe.warp_begin(ti);
        probe.san_region("tilespmv");
        probe.load_meta(2, 4); // tile_row_ptr
        let mut acc = [S::acc_zero(); TILE_DIM];
        for t in &self.tiles[self.tile_row_ptr[ti]..self.tile_row_ptr[ti + 1]] {
            probe.load_meta(1, 4); // tile column id + format tag
            match t.format {
                TileFormat::DenseBitmap => {
                    probe.load_meta(1, 32); // 256-bit occupancy bitmap
                    probe.load_val(t.elems.len() as u64, S::BYTES);
                }
                TileFormat::TileCsr => {
                    probe.load_meta(TILE_DIM as u64 + 1, 1); // local row ptr (u8)
                    probe.load_val(t.elems.len() as u64, S::BYTES);
                    probe.load_idx(t.elems.len() as u64, 1); // 1-byte local cols
                }
            }
            // The x segment of the tile column is loaded wholesale and
            // reused by the warp.
            let xbase = t.col_tile as usize * TILE_DIM;
            let mut xi = [0usize; TILE_DIM];
            let nx = TILE_DIM.min(self.cols - xbase);
            for (lc, xi_e) in xi[..nx].iter_mut().enumerate() {
                *xi_e = xbase + lc;
            }
            probe.load_x(&xi[..nx], S::BYTES);
            // Tiles are 16 wide but warps are 32 wide: half the lanes
            // idle through each sweep, and every tile pays a format-
            // dispatch branch before its compute. Both show up as
            // issued ALU slots.
            probe.fma((2 * t.elems.len().div_ceil(32) * 32 + 32) as u64);
            probe.shfl(4); // intra-tile row reduction
            for &(lr, lc, v) in &t.elems {
                let c = xbase + lc as usize;
                acc[lr as usize] = S::acc_mul_add(acc[lr as usize], v, x[c]);
            }
        }
        for (lr, a) in acc.iter().enumerate() {
            let r = ti * TILE_DIM + lr;
            if r < self.rows {
                y.write(r, S::from_acc(*a));
                probe.san_write(space::Y, &[r]);
                probe.store_y(1, S::BYTES);
            }
        }
        probe.warp_end(ti);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_matches, spmv_exact};
    use dasp_simt::{CountingProbe, NoProbe};
    use dasp_sparse::Coo;

    fn check(csr: &Csr<f64>) {
        let x: Vec<f64> = (0..csr.cols).map(|i| 0.5 + (i % 11) as f64 * 0.2).collect();
        let m = TileSpmv::new(csr);
        let y = m.spmv_with(&x, &mut NoProbe, &Executor::from_env());
        assert_matches(&y, &spmv_exact(csr, &x), 1e-9);
    }

    #[test]
    fn dense_blocks_choose_bitmap() {
        let csr = dasp_matgen::block_dense(64, 16, 1, 3);
        let m = TileSpmv::new(&csr);
        assert!(m.tiles.iter().all(|t| t.format == TileFormat::DenseBitmap));
        check(&csr);
    }

    #[test]
    fn scattered_matrix_chooses_tile_csr() {
        let csr = dasp_matgen::uniform_random(100, 400, 3, 4);
        let m = TileSpmv::new(&csr);
        assert!(m.tiles.iter().all(|t| t.format == TileFormat::TileCsr));
        assert!(m.nnz_per_tile() < 4.0);
        check(&csr);
    }

    #[test]
    fn banded_and_graph_matrices_compute_correctly() {
        check(&dasp_matgen::banded(200, 12, 9, 5));
        check(&dasp_matgen::rmat(8, 6, 6));
        check(&dasp_matgen::stencil2d(12, 12, 5, 7));
    }

    #[test]
    fn rows_not_multiple_of_tile_dim() {
        let mut coo = Coo::<f64>::new(19, 19);
        for i in 0..19 {
            coo.push(i, i, (i + 1) as f64);
            coo.push(i, (i + 7) % 19, 0.5);
        }
        check(&coo.to_csr());
    }

    #[test]
    fn metadata_overhead_scales_with_tiles() {
        // One element per tile: metadata dominates.
        let mut coo = Coo::<f64>::new(160, 160);
        for i in 0..10 {
            coo.push(i * 16, i * 16, 1.0);
        }
        let csr = coo.to_csr();
        let m = TileSpmv::new(&csr);
        assert_eq!(m.num_tiles(), 10);
        let mut probe = CountingProbe::a100();
        let _ = m.spmv_with(&vec![1.0; 160], &mut probe, &Executor::from_env());
        let s = probe.stats();
        // 10 elements of value traffic vs much larger metadata traffic.
        assert!(
            s.bytes_meta > s.bytes_val,
            "meta {} val {}",
            s.bytes_meta,
            s.bytes_val
        );
    }
}

//! Reconstruction of the original CSR matrix from the DASP format.
//!
//! The blocked format must preserve the matrix exactly — every nonzero in
//! exactly one category slot, zero padding inert. `DaspMatrix::to_csr`
//! makes that invariant testable (and gives downstream users a way back
//! out of the format).
//!
//! One caveat is inherited from the format itself: padding slots carry
//! column id 0 and value 0, so a *stored explicit zero* at column 0 is
//! indistinguishable from padding and is dropped on reconstruction. The
//! paper's format has the same property; SuiteSparse matrices do not store
//! explicit zeros.

use dasp_fp16::Scalar;
use dasp_sparse::{Coo, Csr};

use crate::consts::{BLOCK_ELEMS, GROUP_ELEMS, MMA_K, MMA_M};
use crate::format::{DaspMatrix, Piecing, NO_ROW};

impl<S: Scalar> DaspMatrix<S> {
    /// Rebuilds the CSR matrix from the blocked format (see module docs
    /// for the explicit-zero caveat).
    pub fn to_csr(&self) -> Csr<S> {
        let mut coo = Coo::new(self.rows, self.cols);
        let mut push = |row: u32, c: u32, v: S| {
            if v != S::zero() {
                coo.push(row as usize, c as usize, v);
            }
        };

        // Long rows: contiguous groups per row.
        for (lr, &row) in self.long.rows.iter().enumerate() {
            let lo = self.long.group_ptr[lr] * GROUP_ELEMS;
            let hi = self.long.group_ptr[lr + 1] * GROUP_ELEMS;
            for e in lo..hi {
                push(row, self.long.cids[e], self.long.vals[e]);
            }
        }

        // Medium regular blocks: intra-block row-major; block element
        // (r, k) of window w belongs to sorted row `rowblock*8 + r`.
        for b in 0..self.medium.num_rowblocks() {
            let base = self.medium.rowblock_ptr[b];
            for w in 0..self.medium.reg_blocks(b) {
                for r in 0..MMA_M {
                    let sorted = b * MMA_M + r;
                    if sorted >= self.medium.rows.len() {
                        continue;
                    }
                    let row = self.medium.rows[sorted];
                    for k in 0..MMA_K {
                        let e = base + w * BLOCK_ELEMS + r * MMA_K + k;
                        push(row, self.medium.reg_cid[e], self.medium.reg_val[e]);
                    }
                }
            }
        }
        // Medium irregular remainders, per sorted row.
        for (sorted, &row) in self.medium.rows.iter().enumerate() {
            for e in self.medium.irreg_ptr[sorted]..self.medium.irreg_ptr[sorted + 1] {
                push(row, self.medium.irreg_cid[e], self.medium.irreg_val[e]);
            }
        }

        // Short rows: walk each MMA section's packed rows through the
        // piecing table, each piece's `k` range to its perm entry.
        let s = &self.short;
        for piecing in Piecing::ALL {
            let (off, perm) = (piecing.off(s), piecing.perm(s));
            for slot in 0..piecing.warps(s) * piecing.rows_per_warp() {
                let base = off + slot * MMA_K;
                for (piece, &(k_start, k_len)) in piecing.pieces().iter().enumerate() {
                    let row = perm[piecing.perm_slot(slot, piece)];
                    if row != NO_ROW {
                        for k in base + k_start..base + k_start + k_len {
                            push(row, s.cids[k], s.vals[k]);
                        }
                    }
                }
            }
        }
        // Singletons.
        for t in 0..s.n1 {
            push(s.perm1[t], s.cids[s.off1() + t], s.vals[s.off1() + t]);
        }

        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_csr(seed: u64, rows: usize, cols: usize) -> Csr<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            let len = match rng.gen_range(0..12) {
                0 => 0,
                1..=6 => rng.gen_range(1..=4usize),
                7..=10 => rng.gen_range(5..=256),
                _ => rng.gen_range(257..=600),
            }
            .min(cols);
            let mut cs: Vec<usize> = Vec::new();
            while cs.len() < len {
                // Avoid column 0: an explicit nonzero there is fine, but
                // keep the test focused on structural round-tripping.
                let c = rng.gen_range(1..cols);
                if !cs.contains(&c) {
                    cs.push(c);
                }
            }
            for c in cs {
                coo.push(r, c, rng.gen_range(0.1..1.0));
            }
        }
        coo.to_csr()
    }

    #[test]
    fn round_trips_random_mixed_matrices() {
        for seed in 0..8 {
            let csr = random_csr(seed, 300, 700);
            let d = DaspMatrix::from_csr(&csr);
            let back = d.to_csr();
            assert_eq!(csr, back, "seed {seed}");
        }
    }

    #[test]
    fn round_trips_every_generator_class() {
        let mats = [
            dasp_matgen::banded(400, 12, 9, 1),
            dasp_matgen::stencil2d(25, 25, 4, 2),
            dasp_matgen::rmat(9, 6, 3),
            dasp_matgen::circuit_like(1000, 3, 400, 4),
            dasp_matgen::rectangular_long(10, 900, 300, 5),
            dasp_matgen::block_dense(128, 4, 2, 6),
        ];
        for (i, csr) in mats.iter().enumerate() {
            let back = DaspMatrix::from_csr(csr).to_csr();
            assert_eq!(csr, &back, "generator {i}");
        }
    }

    #[test]
    fn column_zero_nonzeros_survive() {
        // Real nonzeros at column 0 must round-trip (only value-zero
        // padding is dropped).
        let mut coo = Coo::<f64>::new(3, 8);
        coo.push(0, 0, 5.0);
        coo.push(1, 0, -2.0);
        coo.push(1, 3, 1.0);
        coo.push(2, 0, 7.0);
        coo.push(2, 1, 8.0);
        coo.push(2, 5, 9.0);
        let csr = coo.to_csr();
        let back = DaspMatrix::from_csr(&csr).to_csr();
        assert_eq!(csr, back);
    }
}

//! Storage of the medium-rows category (paper §3.2, red part of Fig. 5).

use dasp_fp16::Scalar;
use dasp_simt::{Executor, SharedSlice};
use dasp_sparse::Csr;

use crate::consts::{BLOCK_ELEMS, MMA_K, MMA_M};
use crate::format::build::run_chunks;

/// Medium rows (`4 < len <= MAX_LEN`), stable-sorted by descending length
/// and grouped [`MMA_M`] (= 8) rows to a *row-block*.
///
/// Within a row-block, consecutive 8x4 position windows are stored as
/// zero-padded *regular* blocks while the window holds more than
/// `threshold * 32` nonzeros; every element beyond the regular span is the
/// row's *irregular* remainder, stored per row.
///
/// * `reg_cid` — the paper's `regCid`: regular blocks back to back,
///   intra-block **row-major** (element `(r, k)` of a block at offset
///   `r * MMA_K + k`).
/// * `rowblock_ptr` — the paper's `rowblockPtr`: element offset of each
///   row-block's regular part.
/// * `irreg_cid` / `irreg_ptr` — the paper's irregular arrays, indexed
///   by *sorted* medium-row position.
/// * `rows` — sorted position to original row id.
///
/// The values (`regVal`, `irregVal`) live in [`Slots`]' `reg` and `irreg`,
/// slot for slot. Like [`LongPart`](crate::format::LongPart), the builder
/// is generic over the per-slot value it emits.
///
/// [`Slots`]: crate::format::Slots
#[derive(Debug, Clone, PartialEq)]
pub struct MediumPart {
    /// Regular-block column ids (`nnz_reg_new` entries, multiple of 32).
    pub reg_cid: Vec<u32>,
    /// Element offset of each row-block's regular part; length
    /// `num_rowblocks + 1`.
    pub rowblock_ptr: Vec<usize>,
    /// Irregular column ids (`nnz_irreg` entries, no padding).
    pub irreg_cid: Vec<u32>,
    /// First irregular element of each sorted medium row; length
    /// `rows.len() + 1`.
    pub irreg_ptr: Vec<usize>,
    /// Sorted medium-row position to original row id.
    pub rows: Vec<u32>,
    /// Original (unpadded) nonzero count of this category.
    pub nnz_orig: usize,
}

/// Row-blocks per chunk when the emit phase runs on the parallel executor
/// (a row-block holds 8 rows of at least 5 elements).
const MIN_CHUNK_BLOCKS: usize = 16;

impl MediumPart {
    /// An empty part.
    pub fn empty() -> Self {
        MediumPart {
            reg_cid: Vec::new(),
            rowblock_ptr: vec![0],
            irreg_cid: Vec::new(),
            irreg_ptr: vec![0],
            rows: Vec::new(),
            nnz_orig: 0,
        }
    }

    /// Number of 8-row row-blocks.
    pub fn num_rowblocks(&self) -> usize {
        self.rowblock_ptr.len() - 1
    }

    /// Number of regular 8x4 blocks in row-block `b`.
    pub fn reg_blocks(&self, b: usize) -> usize {
        (self.rowblock_ptr[b + 1] - self.rowblock_ptr[b]) / BLOCK_ELEMS
    }

    /// Builds the part from the sorted medium rows' ids.
    ///
    /// `sorted` holds original row ids sorted by descending row length
    /// (stable); `threshold` is the regular-block fill threshold. A
    /// sequential counting pass over the row lengths fixes each
    /// row-block's regular window count (and with it every element's
    /// destination), then row-block chunks fan out over `exec` and copy
    /// column ids and `val(j)` of each CSR element `j` straight into place
    /// (padding slots hold `pad`) — no per-row staging, and bit-identical
    /// output for any executor. Returns the part and the values of its
    /// regular and irregular slots.
    pub(crate) fn build_csr<T: Scalar, V: Copy + Send>(
        csr: &Csr<T>,
        sorted: &[u32],
        threshold: f64,
        val: impl Fn(usize) -> V + Sync,
        pad: V,
        exec: &Executor,
    ) -> (Self, Vec<V>, Vec<V>) {
        if sorted.is_empty() {
            return (MediumPart::empty(), Vec::new(), Vec::new());
        }
        let accept = (BLOCK_ELEMS as f64) * threshold;
        let n_blocks = sorted.len().div_ceil(MMA_M);

        // Geometry pass: regular window counts per row-block, then the two
        // prefix-sum pointer arrays. Reads only row lengths.
        let mut rowblock_ptr = Vec::with_capacity(n_blocks + 1);
        rowblock_ptr.push(0usize);
        let mut irreg_ptr = Vec::with_capacity(sorted.len() + 1);
        irreg_ptr.push(0usize);
        let mut nnz_orig = 0usize;
        for b in 0..n_blocks {
            let ids = &sorted[b * MMA_M..((b + 1) * MMA_M).min(sorted.len())];
            // Count nonzeros in each 8x4 position window; rows are sorted by
            // descending length so the counts are non-increasing in k.
            let max_len = ids
                .iter()
                .map(|&id| csr.row_len(id as usize))
                .max()
                .unwrap_or(0);
            let mut reg_windows = 0usize;
            for k in 0..max_len.div_ceil(MMA_K) {
                let count: usize = ids
                    .iter()
                    .map(|&id| {
                        csr.row_len(id as usize)
                            .saturating_sub(k * MMA_K)
                            .min(MMA_K)
                    })
                    .sum();
                if (count as f64) > accept {
                    reg_windows = k + 1;
                } else {
                    break;
                }
            }
            let start = *rowblock_ptr.last().unwrap();
            rowblock_ptr.push(start + reg_windows * BLOCK_ELEMS);
            for &id in ids {
                let len = csr.row_len(id as usize);
                nnz_orig += len;
                let s = *irreg_ptr.last().unwrap();
                irreg_ptr.push(s + len.saturating_sub(reg_windows * MMA_K));
            }
        }

        // Emit pass: copy each row's regular span and irregular remainder
        // into the precomputed (disjoint per row-block) destinations.
        // Regular padding slots keep their prefilled (0, pad).
        let mut reg_val = vec![pad; *rowblock_ptr.last().unwrap()];
        let mut reg_cid = vec![0u32; reg_val.len()];
        let mut irreg_val = vec![pad; *irreg_ptr.last().unwrap()];
        let mut irreg_cid = vec![0u32; irreg_val.len()];
        {
            let srv = SharedSlice::new(&mut reg_val);
            let src = SharedSlice::new(&mut reg_cid);
            let siv = SharedSlice::new(&mut irreg_val);
            let sic = SharedSlice::new(&mut irreg_cid);
            run_chunks(exec, n_blocks, MIN_CHUNK_BLOCKS, |lo, hi| {
                for b in lo..hi {
                    let base = rowblock_ptr[b];
                    let reg_span = (rowblock_ptr[b + 1] - base) / BLOCK_ELEMS * MMA_K;
                    let ids = &sorted[b * MMA_M..((b + 1) * MMA_M).min(sorted.len())];
                    for (r, &id) in ids.iter().enumerate() {
                        let id = id as usize;
                        let start = csr.row_ptr[id];
                        let len = csr.row_ptr[id + 1] - start;
                        let reg_take = reg_span.min(len);
                        for pos in 0..reg_take {
                            let slot = base + (pos / MMA_K) * BLOCK_ELEMS + r * MMA_K + pos % MMA_K;
                            src.write(slot, csr.col_idx[start + pos]);
                            srv.write(slot, val(start + pos));
                        }
                        let ibase = irreg_ptr[b * MMA_M + r];
                        for (t, pos) in (reg_take..len).enumerate() {
                            sic.write(ibase + t, csr.col_idx[start + pos]);
                            siv.write(ibase + t, val(start + pos));
                        }
                    }
                }
            });
        }
        let part = MediumPart {
            reg_cid,
            rowblock_ptr,
            irreg_cid,
            irreg_ptr,
            rows: sorted.to_vec(),
            nnz_orig,
        };
        (part, reg_val, irreg_val)
    }

    /// The append-based reference builder the original build path used;
    /// kept for parity tests against [`MediumPart::build_csr`].
    ///
    /// `sorted_rows` holds `(original_row_id, elements)` sorted by
    /// descending element count (stable).
    #[cfg(test)]
    pub(crate) fn build<S: Scalar>(
        sorted_rows: &[(u32, Vec<(u32, S)>)],
        threshold: f64,
    ) -> (Self, Vec<S>, Vec<S>) {
        let mut part = MediumPart::empty();
        let (mut reg_val, mut irreg_val) = (Vec::new(), Vec::new());
        if sorted_rows.is_empty() {
            return (part, reg_val, irreg_val);
        }
        part.rows = sorted_rows.iter().map(|(r, _)| *r).collect();
        part.nnz_orig = sorted_rows.iter().map(|(_, e)| e.len()).sum();

        let accept = (BLOCK_ELEMS as f64) * threshold;
        let n_blocks = sorted_rows.len().div_ceil(MMA_M);
        for b in 0..n_blocks {
            let rows = &sorted_rows[b * MMA_M..((b + 1) * MMA_M).min(sorted_rows.len())];
            let max_len = rows.iter().map(|(_, e)| e.len()).max().unwrap_or(0);
            let mut reg_windows = 0usize;
            for k in 0..max_len.div_ceil(MMA_K) {
                let count: usize = rows
                    .iter()
                    .map(|(_, e)| e.len().saturating_sub(k * MMA_K).min(MMA_K))
                    .sum();
                if (count as f64) > accept {
                    reg_windows = k + 1;
                } else {
                    break;
                }
            }
            for k in 0..reg_windows {
                for r in 0..MMA_M {
                    for kk in 0..MMA_K {
                        let pos = k * MMA_K + kk;
                        match rows.get(r).and_then(|(_, e)| e.get(pos)) {
                            Some(&(c, v)) => {
                                part.reg_cid.push(c);
                                reg_val.push(v);
                            }
                            None => {
                                part.reg_cid.push(0);
                                reg_val.push(S::zero());
                            }
                        }
                    }
                }
            }
            let start = *part.rowblock_ptr.last().unwrap();
            part.rowblock_ptr.push(start + reg_windows * BLOCK_ELEMS);

            for (_, elems) in rows {
                let from = (reg_windows * MMA_K).min(elems.len());
                for &(c, v) in &elems[from..] {
                    part.irreg_cid.push(c);
                    irreg_val.push(v);
                }
                let s = *part.irreg_ptr.last().unwrap();
                part.irreg_ptr.push(s + elems.len() - from);
            }
        }
        (part, reg_val, irreg_val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_sparse::Coo;

    /// A matrix whose row `i` holds `lens[i]` elements `(c, c + 1)`; built
    /// so that passing ids in index order preserves each test's intended
    /// (already descending) sorted order.
    fn csr_of(lens: &[usize]) -> Csr<f64> {
        let cols = lens.iter().copied().max().unwrap_or(1).max(1);
        let mut coo = Coo::new(lens.len().max(1), cols);
        for (i, &len) in lens.iter().enumerate() {
            for c in 0..len {
                coo.push(i, c, (c + 1) as f64);
            }
        }
        coo.to_csr()
    }

    /// The part and its regular and irregular slots' values.
    type Built = (MediumPart, Vec<f64>, Vec<f64>);

    fn build_with(csr: &Csr<f64>, ids: &[u32], threshold: f64, exec: &Executor) -> Built {
        MediumPart::build_csr(csr, ids, threshold, |j| csr.vals[j], 0.0, exec)
    }

    fn build(lens: &[usize], threshold: f64) -> Built {
        let ids: Vec<u32> = (0..lens.len() as u32).collect();
        build_with(&csr_of(lens), &ids, threshold, &Executor::seq())
    }

    #[test]
    fn full_rowblock_is_all_regular() {
        // 8 rows of length 8: both windows 100% full.
        let (p, reg_val, irreg_val) = build(&[8; 8], 0.75);
        assert_eq!(p.num_rowblocks(), 1);
        assert_eq!(p.reg_blocks(0), 2);
        assert_eq!(reg_val.len(), 64);
        assert!(irreg_val.is_empty());
        assert_eq!(p.irreg_ptr, vec![0; 9]);
        assert_eq!(p.nnz_orig, 64);
    }

    #[test]
    fn tail_window_below_threshold_goes_irregular() {
        // 8 rows: lengths 8,8,8,8,5,5,5,5. Window 0 (positions 0..4): 32/32
        // full -> regular. Window 1 (positions 4..8): 4*4 + 4*1 = 20 < 24
        // -> irregular remainder.
        let (p, reg_val, irreg_val) = build(&[8, 8, 8, 8, 5, 5, 5, 5], 0.75);
        assert_eq!(p.reg_blocks(0), 1);
        assert_eq!(reg_val.len(), 32);
        // irregular: rows 0-3 keep 4 elements each, rows 4-7 keep 1 each
        assert_eq!(irreg_val.len(), 4 * 4 + 4);
        assert_eq!(p.irreg_ptr, vec![0, 4, 8, 12, 16, 17, 18, 19, 20]);
    }

    #[test]
    fn exactly_at_threshold_is_not_regular() {
        // Window with exactly 24 of 32 filled: the paper says "exceeds", so
        // 24 == 0.75 * 32 must NOT become a regular block.
        let (p, _, irreg_val) = build(&[3; 8], 0.75);
        assert_eq!(p.reg_blocks(0), 0);
        assert_eq!(irreg_val.len(), 24);
    }

    #[test]
    fn above_threshold_is_regular() {
        // 25 of 32 filled: one row of 4, seven of 3.
        let (p, reg_val, irreg_val) = build(&[4, 3, 3, 3, 3, 3, 3, 3], 0.75);
        assert_eq!(p.reg_blocks(0), 1);
        assert_eq!(irreg_val.len(), 0);
        // Padding slots carry zero value and cid 0.
        assert_eq!(reg_val.len(), 32);
        let zeros = reg_val.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 7);
    }

    #[test]
    fn partial_last_rowblock_pads_missing_rows() {
        // 10 rows of length 5: two row-blocks, the second with 2 real rows.
        let (p, ..) = build(&[5; 10], 0.75);
        assert_eq!(p.num_rowblocks(), 2);
        // First row-block: window 0 full (32) regular; window 1: 8 < 24.
        assert_eq!(p.reg_blocks(0), 1);
        // Second row-block: window 0 has 2*4=8 of 32 -> irregular entirely.
        assert_eq!(p.reg_blocks(1), 0);
        assert_eq!(p.irreg_ptr.len(), 11);
        // Sorted-position row 8 and 9 have all 5 elements irregular.
        assert_eq!(p.irreg_ptr[9] - p.irreg_ptr[8], 5);
    }

    #[test]
    fn intra_block_layout_is_row_major() {
        let (p, reg_val, _) = build(&[4; 8], 0.75);
        // Element (r=2, k=3) of block 0 must be row 2's element at position 3.
        assert_eq!(reg_val[2 * MMA_K + 3], 4.0);
        assert_eq!(p.reg_cid[2 * MMA_K + 3], 3);
    }

    #[test]
    fn empty_input_gives_empty_part() {
        let (p, ..) = build_with(&csr_of(&[]), &[], 0.75, &Executor::seq());
        assert_eq!(p.num_rowblocks(), 0);
        assert_eq!(p.rows.len(), 0);
    }

    #[test]
    fn matches_append_based_reference_and_parallel_run() {
        // Mixed lengths in descending order, enough rows for several
        // row-blocks with distinct regular spans.
        let lens: Vec<usize> = (0..100).map(|i| 256 - (i * 5) % 200).collect();
        let mut sorted_lens = lens.clone();
        sorted_lens.sort_by_key(|&l| std::cmp::Reverse(l));
        let csr = csr_of(&lens);
        let mut ids: Vec<u32> = (0..lens.len() as u32).collect();
        ids.sort_by_key(|&id| std::cmp::Reverse(lens[id as usize]));

        let new = build_with(&csr, &ids, 0.75, &Executor::seq());
        let par = build_with(&csr, &ids, 0.75, &Executor::par_with_threads(Some(4)));
        let staged: Vec<(u32, Vec<(u32, f64)>)> = ids
            .iter()
            .map(|&id| (id, csr.row(id as usize).collect()))
            .collect();
        let reference = MediumPart::build(&staged, 0.75);
        assert_eq!(new, reference);
        assert_eq!(new, par);
    }
}

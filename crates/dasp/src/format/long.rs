//! Storage of the long-rows category (paper §3.2, yellow part of Fig. 5).

use dasp_fp16::Scalar;
use dasp_simt::{Executor, SharedSlice};
use dasp_sparse::Csr;

use crate::consts::GROUP_ELEMS;
use crate::format::build::run_chunks;

/// Long rows (`len > MAX_LEN`), each cut into zero-padded groups of
/// [`GROUP_ELEMS`] (= 64) elements.
///
/// * `vals` / `cids` — the paper's `longVal` / `longCid`: the elements of
///   all groups back to back, `GROUP_ELEMS` per group, padding carries
///   value 0 and column id 0.
/// * `group_ptr` — the paper's `groupPtr`: group index of each row's first
///   group; length `rows.len() + 1`.
/// * `rows` — original row id of each long row (implicit in the paper's
///   artifact; needed to scatter `y`).
///
/// The builder is generic over the per-slot value `S`: a [`DaspMatrix`]
/// stores scalars, while [`DaspPlan::analyze`] builds the same layout over
/// CSR element indices to get its gather map.
///
/// [`DaspMatrix`]: crate::format::DaspMatrix
/// [`DaspPlan::analyze`]: crate::format::DaspPlan::analyze
#[derive(Debug, Clone, PartialEq)]
pub struct LongPart<S> {
    /// Padded element values (`nnz_long_new` entries).
    pub vals: Vec<S>,
    /// Padded element column ids.
    pub cids: Vec<u32>,
    /// First group of each row; `group_ptr[i+1] - group_ptr[i]` is row `i`'s
    /// group count.
    pub group_ptr: Vec<usize>,
    /// Original row ids.
    pub rows: Vec<u32>,
    /// Original (unpadded) nonzero count of this category.
    pub nnz_orig: usize,
}

/// Rows per chunk when the emit phase runs on the parallel executor; each
/// long row carries at least `MAX_LEN + 1` elements, so chunks stay heavy.
const MIN_CHUNK_ROWS: usize = 4;

impl<S> LongPart<S> {
    /// An empty part.
    pub fn empty() -> Self {
        LongPart {
            vals: Vec::new(),
            cids: Vec::new(),
            group_ptr: vec![0],
            rows: Vec::new(),
            nnz_orig: 0,
        }
    }

    /// Total number of 64-element groups.
    pub fn num_groups(&self) -> usize {
        *self.group_ptr.last().expect("group_ptr never empty")
    }

    /// The same pattern around new value arrays: `f` maps the value array
    /// to its replacement. [`DaspPlan::fill`] maps a plan's gather map to
    /// the scattered values.
    ///
    /// [`DaspPlan::fill`]: crate::format::DaspPlan::fill
    pub(crate) fn map_vals<T>(&self, f: impl FnOnce(&[S]) -> Vec<T>) -> LongPart<T> {
        LongPart {
            vals: f(&self.vals),
            cids: self.cids.clone(),
            group_ptr: self.group_ptr.clone(),
            rows: self.rows.clone(),
            nnz_orig: self.nnz_orig,
        }
    }

    /// Builds the part from the long rows' ids: a sequential counting pass
    /// over the row lengths fixes every row's group range, then row chunks
    /// fan out over `exec` and copy column ids and `val(j)` of each CSR
    /// element `j` straight into their precomputed (disjoint) destinations;
    /// padding slots hold `pad`. No per-row staging buffers; output is
    /// bit-identical for any executor.
    pub(crate) fn build_csr<T: Scalar>(
        csr: &Csr<T>,
        ids: &[u32],
        val: impl Fn(usize) -> S + Sync,
        pad: S,
        exec: &Executor,
    ) -> Self
    where
        S: Copy + Send,
    {
        let mut group_ptr = Vec::with_capacity(ids.len() + 1);
        group_ptr.push(0usize);
        let mut nnz_orig = 0usize;
        for &id in ids {
            let len = csr.row_len(id as usize);
            debug_assert!(len > 0, "long rows are never empty");
            nnz_orig += len;
            let prev = *group_ptr.last().unwrap();
            group_ptr.push(prev + len.div_ceil(GROUP_ELEMS));
        }
        let total = *group_ptr.last().unwrap() * GROUP_ELEMS;
        let mut vals = vec![pad; total];
        let mut cids = vec![0u32; total];
        {
            let sv = SharedSlice::new(&mut vals);
            let sc = SharedSlice::new(&mut cids);
            run_chunks(exec, ids.len(), MIN_CHUNK_ROWS, |lo, hi| {
                for (i, &id) in ids[lo..hi].iter().enumerate().map(|(k, id)| (lo + k, id)) {
                    let id = id as usize;
                    let start = csr.row_ptr[id];
                    let base = group_ptr[i] * GROUP_ELEMS;
                    for k in 0..csr.row_ptr[id + 1] - start {
                        sc.write(base + k, csr.col_idx[start + k]);
                        sv.write(base + k, val(start + k));
                    }
                }
            });
        }
        LongPart {
            vals,
            cids,
            group_ptr,
            rows: ids.to_vec(),
            nnz_orig,
        }
    }
}

impl<S: Scalar> LongPart<S> {
    /// Appends one long row given its staged elements. Superseded by
    /// [`LongPart::build_csr`] on the build path; kept as the append-based
    /// reference for parity tests (and as a convenient fixture builder).
    #[cfg(test)]
    pub(crate) fn push_row(&mut self, row: u32, elems: &[(u32, S)]) {
        debug_assert!(!elems.is_empty());
        self.rows.push(row);
        self.nnz_orig += elems.len();
        let groups = elems.len().div_ceil(GROUP_ELEMS);
        for (c, v) in elems {
            self.cids.push(*c);
            self.vals.push(*v);
        }
        let pad = groups * GROUP_ELEMS - elems.len();
        self.cids.extend(std::iter::repeat_n(0, pad));
        self.vals.extend(std::iter::repeat_n(S::zero(), pad));
        let start = *self.group_ptr.last().unwrap();
        self.group_ptr.push(start + groups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_sparse::Coo;

    /// A matrix whose row `id` holds `len` elements `(c, c as f64)`.
    fn csr_with(rows: usize, cols: usize, lens: &[(u32, usize)]) -> Csr<f64> {
        let mut coo = Coo::new(rows, cols);
        for &(id, len) in lens {
            for c in 0..len {
                coo.push(id as usize, c, c as f64);
            }
        }
        coo.to_csr()
    }

    fn seq() -> Executor {
        Executor::seq()
    }

    fn build(csr: &Csr<f64>, ids: &[u32], exec: &Executor) -> LongPart<f64> {
        LongPart::build_csr(csr, ids, |j| csr.vals[j], 0.0, exec)
    }

    #[test]
    fn pads_to_group_multiples() {
        let csr = csr_with(6, 300, &[(5, 300)]);
        let p = build(&csr, &[5], &seq());
        // 300 elements -> 5 groups of 64 = 320 stored.
        assert_eq!(p.num_groups(), 5);
        assert_eq!(p.vals.len(), 320);
        assert_eq!(p.nnz_orig, 300);
        assert_eq!(p.vals[299], 299.0);
        assert_eq!(p.vals[300], 0.0);
        assert_eq!(p.cids[300], 0);
        assert_eq!(p.group_ptr, vec![0, 5]);
        assert_eq!(p.rows, vec![5]);
    }

    #[test]
    fn exact_multiple_needs_no_padding() {
        let csr = csr_with(1, 320, &[(0, 320)]);
        let p = build(&csr, &[0], &seq());
        assert_eq!(p.vals.len(), 320);
        assert_eq!(p.num_groups(), 5);
    }

    #[test]
    fn multiple_rows_accumulate_groups() {
        let csr = csr_with(10, 300, &[(1, 257), (9, 64)]);
        let p = build(&csr, &[1, 9], &seq());
        assert_eq!(p.group_ptr, vec![0, 5, 6]);
        assert_eq!(p.rows, vec![1, 9]);
        assert_eq!(p.vals.len(), 6 * 64);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let lens: Vec<(u32, usize)> = (0..40)
            .map(|i| (i, 257 + (i as usize * 37) % 300))
            .collect();
        let csr = csr_with(40, 600, &lens);
        let ids: Vec<u32> = (0..40).collect();
        let s = build(&csr, &ids, &Executor::seq());
        let p = build(&csr, &ids, &Executor::par_with_threads(Some(4)));
        assert_eq!(s, p);
    }

    #[test]
    fn matches_append_based_reference() {
        let lens: Vec<(u32, usize)> = vec![(2, 300), (3, 257), (7, 411)];
        let csr = csr_with(8, 500, &lens);
        let new = build(&csr, &[2, 3, 7], &seq());
        let mut reference = LongPart::<f64>::empty();
        for &(id, _) in &lens {
            let elems: Vec<(u32, f64)> = csr.row(id as usize).collect();
            reference.push_row(id, &elems);
        }
        assert_eq!(new, reference);
    }
}

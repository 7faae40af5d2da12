//! The DASP data structure (paper §3.2).
//!
//! [`DaspMatrix::from_csr`] performs the preprocessing the paper's Fig. 13
//! measures: classify rows by length, then lay each category out in
//! MMA-shaped blocks:
//!
//! * [`LongPart`] — rows longer than `MAX_LEN`, cut into 64-element groups;
//! * [`MediumPart`] — rows of length 5..=`MAX_LEN`, sorted descending,
//!   grouped 8 to a row-block and split into regular blocks / irregular
//!   remainder by the 75% fill threshold;
//! * [`ShortPart`] — rows of length <= 4, pieced into full 8x4 blocks.
//!
//! Empty rows belong to no category; their `y` entries stay zero.
//!
//! The format is a [`Pattern`] — the header and the three parts' column
//! ids, pointers, row ids and permutations — plus one entry per value
//! slot, held in a [`Slots`]. A [`DaspMatrix`] is a pattern plus values;
//! a [`DaspPlan`] is a pattern plus a gather map. The pattern sits behind
//! an [`Arc`], so a matrix filled from a plan shares the plan's pattern
//! instead of copying it.

mod build;
mod check;
mod long;
mod medium;
mod plan;
mod reconstruct;
mod reorder;
mod serialize;
mod short;

pub use check::{verify_matrix, verify_plan};
pub use dasp_sanitize::{Invariant, Report, Violation, MAX_SITES};
pub use long::LongPart;
pub use medium::MediumPart;
pub use plan::{DaspPlan, PlanCache, RefreshError, DEFAULT_PLAN_CACHE_CAP, GATHER_PADDING};
pub use serialize::SerError;
pub use short::{Piecing, ShortPart, NO_ROW};

use std::ops::Deref;
use std::sync::Arc;

use dasp_fp16::Scalar;
use dasp_sparse::Csr;

use crate::consts::DaspParams;

/// Everything the format derives from the sparsity pattern: the header
/// and the three category parts without their values. A matrix and the
/// plan it was filled from share one behind an [`Arc`].
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Number of rows of the original matrix.
    pub rows: usize,
    /// Number of columns of the original matrix.
    pub cols: usize,
    /// Number of stored nonzeros of the original matrix.
    pub nnz: usize,
    /// Parameters the pattern was laid out with.
    pub params: DaspParams,
    /// The long-rows category.
    pub long: LongPart,
    /// The medium-rows category.
    pub medium: MediumPart,
    /// The short-rows category.
    pub short: ShortPart,
}

impl Pattern {
    /// Column ids of the four slot arrays, in [`Slots`] order.
    pub(crate) fn cids(&self) -> [&[u32]; 4] {
        let (l, m, s) = (&self.long, &self.medium, &self.short);
        [&l.cids, &m.reg_cid, &m.irreg_cid, &s.cids]
    }

    /// Total value slots (including padding) the pattern lays out.
    pub fn total_slots(&self) -> usize {
        self.cids().iter().map(|c| c.len()).sum()
    }

    /// Entries of the pattern's `u32` arrays (column ids, row ids and
    /// permutations), and of its pointer arrays.
    fn array_lens(&self) -> (usize, usize) {
        let (l, m, s) = (&self.long, &self.medium, &self.short);
        let perms: usize = s.perms.iter().chain([&s.perm1]).map(Vec::len).sum();
        let ids = self.total_slots() + l.rows.len() + m.rows.len() + perms;
        (
            ids,
            l.group_ptr.len() + m.rowblock_ptr.len() + m.irreg_ptr.len(),
        )
    }
}

/// Whether two shared patterns are the same: one allocation, or equal
/// content. `Pattern` holds an `f64` and is not `Eq`, so `Arc`'s own `==`
/// would compare the whole pattern even for one allocation.
pub(crate) fn same_pattern(a: &Arc<Pattern>, b: &Arc<Pattern>) -> bool {
    Arc::ptr_eq(a, b) || **a == **b
}

/// One entry per value slot of a [`Pattern`], in gather order: the long
/// part, the medium part's regular blocks and irregular remainder, and
/// the short part. A matrix's slots hold values; a plan's hold the CSR
/// element that fills each slot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Slots<T> {
    /// The long part's slots (the paper's `longVal`).
    pub long: Vec<T>,
    /// The medium regular blocks' slots (`regVal`).
    pub reg: Vec<T>,
    /// The medium irregular remainder's slots (`irregVal`).
    pub irreg: Vec<T>,
    /// The short part's slots (`shortVal`).
    pub short: Vec<T>,
}

impl<T> Slots<T> {
    /// The four arrays in gather order.
    pub fn arrays(&self) -> [&[T]; 4] {
        [&self.long, &self.reg, &self.irreg, &self.short]
    }

    /// The four arrays in gather order, mutably.
    pub(crate) fn arrays_mut(&mut self) -> [&mut Vec<T>; 4] {
        [
            &mut self.long,
            &mut self.reg,
            &mut self.irreg,
            &mut self.short,
        ]
    }

    /// Maps each array, in gather order, to its replacement.
    pub(crate) fn map<U>(&self, mut f: impl FnMut(&[T]) -> Vec<U>) -> Slots<U> {
        Slots {
            long: f(&self.long),
            reg: f(&self.reg),
            irreg: f(&self.irreg),
            short: f(&self.short),
        }
    }
}

/// A sparse matrix converted to the DASP blocked format: a shared
/// [`Pattern`] plus its values. Reads of the pattern (`m.rows`,
/// `m.long.group_ptr`) go through `Deref`.
///
/// Equality compares the format content (the pattern and the values);
/// whether a reusable [`DaspPlan`] happens to be attached does not change
/// what the matrix *is*.
#[derive(Debug, Clone)]
pub struct DaspMatrix<S: Scalar> {
    /// The pattern; shared with the plan the matrix was filled from. A
    /// change goes through [`Arc::make_mut`], which copies a shared
    /// pattern first.
    pub pattern: Arc<Pattern>,
    /// The values, one per slot of the pattern.
    pub vals: Slots<S>,
    /// The analysis plan the matrix was filled from, when it was built via
    /// [`DaspPlan::fill`] (or had one attached); powers
    /// [`DaspMatrix::update_values`].
    pub(crate) plan: Option<Arc<DaspPlan>>,
}

impl<S: Scalar> Deref for DaspMatrix<S> {
    type Target = Pattern;

    fn deref(&self) -> &Pattern {
        &self.pattern
    }
}

impl<S: Scalar> PartialEq for DaspMatrix<S> {
    fn eq(&self, other: &Self) -> bool {
        same_pattern(&self.pattern, &other.pattern) && self.vals == other.vals
    }
}

impl<S: Scalar> DaspMatrix<S> {
    /// Converts a CSR matrix with the paper's default parameters
    /// (`MAX_LEN = 256`, `threshold = 0.75`).
    pub fn from_csr(csr: &Csr<S>) -> Self {
        Self::with_params(csr, DaspParams::default())
    }

    /// Converts a CSR matrix with explicit parameters.
    pub fn with_params(csr: &Csr<S>, params: DaspParams) -> Self {
        build::build(csr, params)
    }

    /// [`DaspMatrix::from_csr`] with each preprocessing phase recorded as
    /// a span (`preprocess.categorize`, `preprocess.sort`,
    /// `preprocess.build.{long,medium,short}`) under a `preprocess` root.
    /// A disabled tracer makes this identical to `from_csr`.
    pub fn from_csr_traced(csr: &Csr<S>, tracer: &dasp_trace::Tracer) -> Self {
        build::build_traced(csr, DaspParams::default(), tracer)
    }

    /// [`DaspMatrix::with_params`] with preprocessing spans.
    pub fn with_params_traced(
        csr: &Csr<S>,
        params: DaspParams,
        tracer: &dasp_trace::Tracer,
    ) -> Self {
        build::build_traced(csr, params, tracer)
    }

    /// Category occupancy statistics (the data behind paper Fig. 12).
    pub fn category_stats(&self) -> CategoryStats {
        let rows_long = self.long.rows.len();
        let rows_medium = self.medium.rows.len();
        let rows_short = self.short.num_rows();
        CategoryStats {
            rows: self.rows,
            nnz: self.nnz,
            rows_long,
            rows_medium,
            rows_short,
            rows_empty: self.rows - rows_long - rows_medium - rows_short,
            nnz_long: self.long.nnz_orig,
            nnz_medium: self.medium.nnz_orig,
            nnz_short: self.short.nnz_orig,
            stored_long: self.vals.long.len(),
            stored_medium: self.vals.reg.len() + self.vals.irreg.len(),
            stored_short: self.vals.short.len(),
        }
    }
}

/// Row and nonzero occupancy per category, plus padded storage sizes.
///
/// `stored_*` counts include the zero fill, so
/// `stored / nnz - 1` is the category's fill rate (the paper quotes 0.85%
/// for `rel19`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryStats {
    /// Total rows.
    pub rows: usize,
    /// Total nonzeros.
    pub nnz: usize,
    /// Rows in the long category.
    pub rows_long: usize,
    /// Rows in the medium category.
    pub rows_medium: usize,
    /// Rows in the short category (length 1..=4).
    pub rows_short: usize,
    /// Rows with no nonzeros.
    pub rows_empty: usize,
    /// Original nonzeros in long rows.
    pub nnz_long: usize,
    /// Original nonzeros in medium rows.
    pub nnz_medium: usize,
    /// Original nonzeros in short rows.
    pub nnz_short: usize,
    /// Stored elements (incl. padding) in the long part.
    pub stored_long: usize,
    /// Stored elements (incl. padding) in the medium part.
    pub stored_medium: usize,
    /// Stored elements (incl. padding) in the short part.
    pub stored_short: usize,
}

impl CategoryStats {
    /// Overall zero-fill rate: padded elements / original nonzeros.
    pub fn fill_rate(&self) -> f64 {
        let stored = self.stored_long + self.stored_medium + self.stored_short;
        if self.nnz == 0 {
            return 0.0;
        }
        stored as f64 / self.nnz as f64 - 1.0
    }
}

impl<S: Scalar> DaspMatrix<S> {
    /// Total bytes of the converted format's arrays (values, column ids,
    /// pointers, permutations) — what the paper's format occupies in GPU
    /// memory, for comparison against CSR's `12*nnz + 4*(rows+1)` (FP64).
    pub fn memory_bytes(&self) -> usize {
        let vals: usize = self.vals.arrays().iter().map(|v| v.len()).sum();
        let (ids, ptrs) = self.pattern.array_lens();
        // Pointers count 4 bytes each: the device stores them as int32.
        vals * std::mem::size_of::<S>() + (ids + ptrs) * 4
    }
}

#[cfg(test)]
mod footprint_tests {
    use super::*;
    use dasp_sparse::Coo;

    #[test]
    fn footprint_is_close_to_csr_for_friendly_structure() {
        // 4-nonzero rows, no padding: format memory ~= CSR memory + perms.
        let mut coo = Coo::<f64>::new(512, 512);
        for r in 0..512 {
            for k in 0..4 {
                coo.push(r, (r + k * 31) % 512, 1.0);
            }
        }
        let csr = coo.to_csr();
        let d = DaspMatrix::from_csr(&csr);
        let csr_bytes = csr.nnz() * 12 + (csr.rows + 1) * 4;
        let dasp_bytes = d.memory_bytes();
        assert!(
            dasp_bytes < csr_bytes * 2,
            "dasp {dasp_bytes} vs csr {csr_bytes}"
        );
        assert!(dasp_bytes >= csr.nnz() * 12, "must hold at least the data");
    }

    #[test]
    fn memory_bytes_counts_values_and_four_bytes_per_index() {
        // A long row, medium rows, and short rows of every length with a
        // leftover singleton.
        let lens = [300, 6, 6, 6, 6, 6, 6, 6, 6, 6, 1, 1, 1, 3, 2, 2, 4];
        let mut coo = Coo::<f64>::new(lens.len(), 400);
        for (r, &len) in lens.iter().enumerate() {
            for c in 0..len {
                coo.push(r, (c * 7 + r) % 400, 1.0 + c as f64);
            }
        }
        let d = DaspMatrix::from_csr(&coo.to_csr());
        let (l, m, s) = (&d.long, &d.medium, &d.short);
        assert!(!l.rows.is_empty() && !m.rows.is_empty() && s.n1 > 0);
        let vals = d.vals.long.len() + d.vals.reg.len() + d.vals.irreg.len() + d.vals.short.len();
        let perms: usize = s.perms.iter().map(Vec::len).sum::<usize>() + s.perm1.len();
        let ids = l.cids.len()
            + l.group_ptr.len()
            + l.rows.len()
            + m.reg_cid.len()
            + m.rowblock_ptr.len()
            + m.irreg_cid.len()
            + m.irreg_ptr.len()
            + m.rows.len()
            + s.cids.len()
            + perms;
        assert_eq!(d.memory_bytes(), vals * 8 + ids * 4);
    }
}

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

use std::sync::Arc;

use dasp_fp16::Scalar;
use dasp_sparse::Csr;

use crate::consts::DaspParams;

/// A sparse matrix converted to the DASP blocked format.
///
/// Equality compares the format content (dimensions, parameters, and the
/// three category parts); whether a reusable [`DaspPlan`] happens to be
/// attached does not change what the matrix *is*.
#[derive(Debug, Clone)]
pub struct DaspMatrix<S: Scalar> {
    /// Number of rows of the original matrix.
    pub rows: usize,
    /// Number of columns of the original matrix.
    pub cols: usize,
    /// Number of stored nonzeros of the original matrix.
    pub nnz: usize,
    /// The long-rows category.
    pub long: LongPart<S>,
    /// The medium-rows category.
    pub medium: MediumPart<S>,
    /// The short-rows category.
    pub short: ShortPart<S>,
    /// Parameters the matrix was built with.
    pub params: DaspParams,
    /// The analysis plan the matrix was filled from, when it was built via
    /// [`DaspPlan::fill`] (or had one attached); powers
    /// [`DaspMatrix::update_values`].
    pub(crate) plan: Option<Arc<DaspPlan>>,
}

impl<S: Scalar> PartialEq for DaspMatrix<S> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.nnz == other.nnz
            && self.long == other.long
            && self.medium == other.medium
            && self.short == other.short
            && self.params == other.params
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
            stored_long: self.long.vals.len(),
            stored_medium: self.medium.reg_val.len() + self.medium.irreg_val.len(),
            stored_short: self.short.vals.len(),
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
        let s = std::mem::size_of::<S>();
        let long = self.long.vals.len() * s
            + self.long.cids.len() * 4
            + self.long.group_ptr.len() * 4
            + self.long.rows.len() * 4;
        let medium = self.medium.reg_val.len() * s
            + self.medium.reg_cid.len() * 4
            + self.medium.rowblock_ptr.len() * 4
            + self.medium.irreg_val.len() * s
            + self.medium.irreg_cid.len() * 4
            + self.medium.irreg_ptr.len() * 4
            + self.medium.rows.len() * 4;
        let short = self.short.vals.len() * s
            + self.short.cids.len() * 4
            + (self.short.perms.iter().map(Vec::len).sum::<usize>() + self.short.perm1.len()) * 4;
        long + medium + short
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
}

//! Static analysis for the DASP format: prove a matrix safe to execute
//! *before* it becomes resident.
//!
//! Two layers, both recording into the workspace's one [`Report`]:
//!
//! 1. **Structural validation** ([`verify_matrix`], [`verify_plan`]) —
//!    an exhaustive "fsck for plans": a pure function over
//!    [`DaspMatrix`] + [`DaspPlan`](dasp_core::DaspPlan) re-deriving
//!    every invariant the kernels assume (pointer monotonicity, index
//!    ranges, category partition, gather bijection, payload pairing,
//!    reorder-flag consistency) and reporting **all** breaches, not just
//!    the first. It is dasp-core's one structural checker, re-exported
//!    here; the format readers and `DaspMatrix::validate` run the same
//!    walk.
//! 2. **Kernel interpretation** ([`verify_kernels`]) — runs each kernel
//!    body once per shape-equivalence class on a tiny synthetic
//!    representative under the sequential executor and the compute
//!    sanitizer's [`SanitizeProbe`](dasp_core::sanitize::SanitizeProbe)
//!    with the representative's bounds, turning the sanitizer's
//!    per-input checks into input-independent guarantees: no races or
//!    double writes, well-formed shuffle masks, written-before-read MMA
//!    fragments and staging, in-bounds x/y/staging accesses.
//!
//! [`verify_full`] composes both. The serving layer runs it at
//! admission; `dasp-spmv --verify-plan` and the CI `verify` job run it
//! over the bench corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interp;

pub use dasp_core::format::{verify_matrix, verify_plan};
pub use dasp_core::sanitize::{Invariant, Report, Violation, MAX_SITES};
pub use interp::{verify_kernels, InterpOutcome, ShapeClasses, ShortClass};

use dasp_core::format::DaspMatrix;
use dasp_fp16::Scalar;

/// Both layers over one matrix: the exhaustive structural validation
/// (plus plan validation and plan-matrix agreement when a plan rides on
/// the matrix) and — only when the structure is sound — the abstract
/// kernel interpretation for the matrix's shape classes.
///
/// The interpretation is skipped on structurally broken inputs: its
/// class extraction walks the same arrays the validator just rejected,
/// and a second report on a synthetic stand-in would only obscure the
/// real findings.
pub fn verify_full<S: Scalar>(m: &DaspMatrix<S>) -> Report {
    let mut report = verify_matrix(m);
    if report.is_clean() {
        report.merge(&verify_kernels(m).report);
    }
    report
}

//! DASP: dense MMA-unit accelerated general SpMV (Lu & Liu, SC '23).
//!
//! This crate is the paper's primary contribution, reproduced on the
//! [`dasp_simt`] software tensor-core substrate:
//!
//! * **The DASP data structure** ([`mod@format`]) — rows are grouped by length
//!   into *long* (`> MAX_LEN = 256`), *medium* (`5..=256`) and *short*
//!   (`<= 4`) categories and re-blocked into MMA-shaped 8x4 tiles:
//!   - long rows are cut into 64-element groups (`longVal`/`longCid`/
//!     `groupPtr`),
//!   - medium rows are stable-sorted by descending length, grouped 8 rows to
//!     a row-block, and split into a zero-filled *regular* part (windows
//!     over 75% full, `regVal`/`regCid`/`rowblockPtr`) and a per-row
//!     *irregular* remainder (`irregVal`/`irregCid`/`irregPtr`),
//!   - short rows are pieced together (1&3, 2&2, pure 4s, leftover 1s) into
//!     full 8x4 blocks (`shortVal`/`shortCid`).
//! * **The SpMV kernels** ([`kernels`]) — line-by-line translations of the
//!   paper's Algorithms 2-5, computing inner products with warp-wide
//!   `mma.m8n8k4` issues and extracting the meaningful diagonal results
//!   with the exact shuffle sequences of the paper.
//!
//! # Quickstart
//!
//! ```
//! use dasp_core::DaspMatrix;
//! use dasp_simt::NoProbe;
//! use dasp_sparse::Coo;
//!
//! // A tiny matrix: y = A x
//! let mut a = Coo::<f64>::new(3, 3);
//! a.push(0, 0, 2.0);
//! a.push(1, 1, 3.0);
//! a.push(2, 0, 1.0);
//! a.push(2, 2, 4.0);
//! let csr = a.to_csr();
//!
//! let dasp = DaspMatrix::from_csr(&csr);
//! let x = vec![1.0, 2.0, 3.0];
//! let y = dasp.spmv(&x, &mut NoProbe);
//! assert_eq!(y, vec![2.0, 6.0, 13.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consts;
pub mod format;
pub mod kernels;
pub mod spmm;
mod spmv;

pub use consts::DaspParams;
/// The check core: the compute sanitizer and the one [`Report`](sanitize::Report)
/// every checker fills (re-exported so dependents reach it through this
/// crate).
pub use dasp_sanitize as sanitize;
pub use format::{
    CategoryStats, DaspMatrix, DaspPlan, PlanCache, RefreshError, DEFAULT_PLAN_CACHE_CAP,
};

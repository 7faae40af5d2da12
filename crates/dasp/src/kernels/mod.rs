//! The DASP SpMV kernels (paper §3.3, Algorithms 2-5).
//!
//! Each kernel is a line-by-line translation of its pseudocode onto the
//! [`dasp_simt`] warp substrate: per-warp functions over 32-lane arrays,
//! issuing `mma.m8n8k4` and the paper's exact shuffle sequences. All kernels
//! are generic over [`dasp_fp16::Scalar`] (FP64 and FP16) and over
//! [`dasp_simt::Probe`] for traffic accounting.
//!
//! Each kernel exists exactly once, as a *warp body* (`*_warp`) plus a
//! `spmv_*_with` driver that runs the body under any
//! [`dasp_simt::Executor`] — sequential for the deterministic measurement
//! path, parallel for instrumented multi-threaded runs. The three MMA
//! short-row sections share one pass-masked body, [`pieced_warp`], driven
//! by the section's [`Piecing`](crate::format::Piecing).
//!
//! Lane loops intentionally index multiple warp registers by `lane`; the
//! range-loop lint is disabled to keep the lockstep reading.
#![allow(clippy::needless_range_loop)]

mod helpers;
mod long;
mod medium;
mod pieced;
mod short1;

pub use long::{long_phase1_warp, long_phase2_warp, spmv_long_with};
pub use medium::{medium_warp, medium_warps, spmv_medium_with};
pub use pieced::{pieced_warp, spmv_pieced_with};
pub use short1::{short1_warp, short1_warps, spmv_short1_with};

pub(crate) use helpers::{extract_diagonals, gather_x, load_block, write_permuted};

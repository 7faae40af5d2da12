//! Roofline device models and time attribution for the DASP reproduction.
//!
//! The simulator in [`dasp_simt`] yields exact per-kernel traffic and
//! instruction counts ([`dasp_simt::KernelStats`]); this crate converts
//! them into estimated GPU execution times with a roofline model of the
//! paper's two machines ([`device::a100`], [`device::h800`]) and derives
//! the metrics the paper plots:
//!
//! * GFlops (`2 * nnz / t`) — Figs. 9, 10, 11;
//! * effective bandwidth — Fig. 1;
//! * the RANDOM ACCESS / COMPUTE / MISCELLANEOUS attribution — Fig. 2;
//! * geometric-mean and maximum speedups — the headline numbers.
//!
//! The absolute times are estimates (this is a simulator, not an A100);
//! what the model preserves is the *relative* standing of methods that
//! move different byte/flop volumes through different functional units.
//! EXPERIMENTS.md records paper-vs-measured for every figure.
//!
//! [`runner`] bridges everything: it runs any method (DASP or a baseline)
//! on a matrix under a counting probe and returns a [`runner::Measurement`].

//! # Example
//!
//! ```
//! use dasp_perf::{a100, measure, MethodKind};
//!
//! let csr = dasp_matgen::banded(2000, 20, 12, 1);
//! let x = dasp_matgen::dense_vector(csr.cols, 2);
//! let m = measure(MethodKind::Dasp, &csr, &x, &a100());
//! assert!(m.gflops > 0.0);
//! let (random, compute, misc) = m.estimate.shares();
//! assert!((random + compute + misc - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod estimate;
pub mod metrics;
pub mod report;
pub mod runner;

pub use device::{a100, h800, DeviceModel, Precision};
pub use estimate::{estimate, Estimate};
pub use metrics::{effective_bandwidth_gbs, gflops};
pub use report::{geomean, speedup_summary, SpeedupSummary};
pub use runner::{
    measure, measure_looped_spmv_with, measure_spmm_traced_with, measure_traced_with, precision_of,
    record_measurement, record_spmm_measurement, Measurement, MethodKind, SpmmMeasurement,
};

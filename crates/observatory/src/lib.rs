//! `dasp-observatory` — the repo's modeled-time golden file.
//!
//! Every PR should be able to answer "did the modeled GPU time, traffic
//! or instruction mix of any kernel move?" without anyone eyeballing
//! bench logs. Those numbers are deterministic, so the answer is an
//! exact comparison. Host wall time is perfbench's job, not this
//! crate's. This crate supplies the pieces the `dasp-bench` CLI wires
//! together:
//!
//! * [`suite`] — a deterministic suite runner sweeping the four
//!   structural matrix classes × all ten SpMV methods (plus the SpMM
//!   widths) once, traced, pinned to the A100 model and the sequential
//!   executor, recording the roofline model's GPU-time estimate and the
//!   traffic/op counters.
//! * [`calltree`] — aggregation of `dasp-trace` spans into a hierarchical
//!   inclusive/exclusive profile, with a top-N hot-region table and
//!   collapsed-stack (flamegraph) export.
//! * [`snapshot`] / [`diff`] — a versioned `BENCH_<seq>.json` snapshot
//!   schema committed at the repo root as the golden file, and an exact
//!   comparator over two snapshots with a human table and a
//!   machine-readable verdict.
//!
//! Like the rest of the workspace this crate has no external
//! dependencies; snapshots are read back with `dasp-trace`'s strict
//! [`Json`] parser.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calltree;
pub mod diff;
pub mod snapshot;
pub mod suite;

pub use calltree::CallTree;
pub use dasp_trace::Json;
pub use diff::{diff_snapshots, DiffReport, DiffRow, Verdict};
pub use snapshot::{
    next_seq, snapshot_path, BenchSnapshot, Modeled, OpsCounters, TrafficCounters, Workload,
};
pub use suite::{run_suite, SuiteOutcome};

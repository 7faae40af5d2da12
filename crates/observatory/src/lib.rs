//! `dasp-observatory` — the repo's performance observatory.
//!
//! The simulator work in this workspace only pays off if its performance
//! story is *trackable*: every PR should be able to answer "did the
//! simulated kernels get slower to run, and did the modeled GPU time
//! move?" without anyone eyeballing bench logs. This crate supplies the
//! three pieces the `dasp-bench` CLI wires together:
//!
//! * [`suite`] — a deterministic benchmark suite runner sweeping the four
//!   structural matrix classes × all ten SpMV methods (plus the SpMM
//!   widths), recording wall-clock series (median + MAD), the roofline
//!   model's GPU-time estimate, and traffic/attribution counters.
//! * [`calltree`] — aggregation of `dasp-trace` spans into a hierarchical
//!   inclusive/exclusive profile, with a top-N hot-region table and
//!   collapsed-stack (flamegraph) export.
//! * [`snapshot`] / [`diff`] — a versioned `BENCH_<seq>.json` snapshot
//!   schema committed at the repo root to form a perf trajectory, and a
//!   noise-aware regression comparator over two snapshots (median ± MAD
//!   bands) with a human table and a machine-readable verdict.
//! * [`interp`] — an interpreter-throughput microbench (warp-ops/sec per
//!   DASP kernel, probe hooks vs. lane math) feeding the "interpreter
//!   overhead" row under the `dasp-bench` hot table.
//!
//! Like the rest of the workspace this crate has no external
//! dependencies; snapshots are read back with `dasp-trace`'s strict
//! [`Json`] parser.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calltree;
pub mod diff;
pub mod interp;
pub mod snapshot;
pub mod suite;

pub use calltree::CallTree;
pub use dasp_trace::Json;
pub use diff::{diff_snapshots, DiffConfig, DiffReport, DiffRow, Verdict};
pub use interp::{probe_overhead_share, render_interp_table, run_interp_bench, InterpRecord};
pub use snapshot::{
    next_seq, snapshot_path, BenchSnapshot, Modeled, OpsCounters, TrafficCounters, WallStats,
    Workload,
};
pub use suite::{run_suite, SuiteConfig, SuiteOutcome};

//! `dasp-trace` — structured observability for the whole SpMV stack.
//!
//! The paper's headline argument is an *attribution* claim: where SpMV
//! time goes (RANDOM ACCESS / COMPUTE / MISC, Fig. 2) and how DASP's
//! long/medium/short reorganization shifts it. A flat [`KernelStats`]
//! blob per run cannot answer "which phase, which category kernel, which
//! warp" — this crate can. It has **no external dependencies** (only
//! `std` and the workspace's own `dasp-simt` for the counter types) and
//! consists of four pieces:
//!
//! * [`Tracer`] / [`Span`] — hierarchical RAII spans. A span records wall
//!   time, an optional [`KernelStats`] delta (diffed from
//!   [`Probe::stats_snapshot`] around the region), and free-form string
//!   args. `Tracer::disabled()` makes every span a no-op with no
//!   allocation, so the uninstrumented hot path keeps its cost — the
//!   span-level analog of [`dasp_simt::NoProbe`].
//! * [`Registry`] — a thread-safe metrics registry of counters, gauges,
//!   and fixed-bucket histograms (x-cache hit rate, zero-padding
//!   overhead, category occupancy, per-warp load imbalance).
//! * [`WarpProfiler`] — a [`Probe`] adapter using the simulator's
//!   `warp_begin`/`warp_end` hooks to build per-warp nnz / instruction
//!   load-imbalance histograms and divergence counts.
//! * Exporters — [`chrome_trace_json`] (opens directly in Perfetto /
//!   `chrome://tracing`), plus JSON and CSV for the registry, over the
//!   workspace's one JSON module ([`escape_json`], [`fmt_f64`], and the
//!   strict [`Json`] parser behind [`validate_json`]) and its one CSV
//!   field escaper ([`escape_csv`]).
//!
//! # Span naming scheme
//!
//! Dotted hierarchies mirror the stack: `preprocess.categorize`,
//! `preprocess.sort`, `preprocess.build.long|medium|short`, `spmv`,
//! `spmv.kernel.long`, `spmv.kernel.medium`, `spmv.kernel.short13`,
//! `spmv.kernel.short4`, `spmv.kernel.short22`, `spmv.kernel.short1`,
//! and for baselines `spmv.kernel.<method>`. Metric names follow the same
//! convention (`spmv.x_hit_rate`, `format.fill_rate`,
//! `warp.nnz_histogram`, `solver.cg.spmv_seconds`).
//!
//! [`Probe::stats_snapshot`]: dasp_simt::Probe::stats_snapshot
//! [`Probe`]: dasp_simt::Probe
//! [`KernelStats`]: dasp_simt::KernelStats

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod json;
mod registry;
mod span;
mod warp_profile;

pub use export::{chrome_trace_json, escape_csv, registry_to_csv, registry_to_json};
pub use json::{escape_json, fmt_f64, validate_json, Json};
pub use registry::{log_bounds, Histogram, MetricValue, Registry};
pub use span::{Span, SpanRecord, Trace, Tracer};
pub use warp_profile::{WarpProfile, WarpProfiler, WarpTally};

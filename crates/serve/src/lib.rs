//! `dasp-serve` — a multi-tenant SpMV/SpMM serving layer with request
//! coalescing.
//!
//! The SpMM kernels only pay off when the 8 `mma.m8n8k4` B-columns are
//! actually full: the measured A+index amortization is exactly 8x at
//! width 8 (~2x end-to-end, `ext2` in EXPERIMENTS.md) and
//! width-independent under panel tiling (`ext3`). This crate converts
//! that batch trick into multi-user throughput: a [`Server`] keeps hot
//! matrices resident ([`dasp_core::DaspMatrix`] built through a shared
//! [`dasp_core::PlanCache`]), accepts concurrent requests from many
//! tenants, and **coalesces concurrent single-vector SpMV requests
//! against the same matrix into panel-width batches** routed through the
//! tiled SpMM path. Batching is work-conserving: a request for an idle
//! matrix dispatches at once, and only what queues behind a running
//! kernel is coalesced, so batch width grows with load and a lone request
//! never waits for a batch that will not fill.
//!
//! Everything is `std`-only (thread pool + channels, no async runtime —
//! the build environment is offline), matching the rest of the
//! workspace.
//!
//! # Architecture
//!
//! ```text
//! clients ──spmv/spmm/refresh/pagerank──▶ [dispatcher thread]
//!                                          per-matrix FIFO queues
//!                                          work-conserving coalescing
//!                                               │ batches (≤ max_batch)
//!                                               ▼
//!                                         [worker pool]
//!                                          scratch-reusing SpMM / SpMV
//!                                          per-request replies
//! ```
//!
//! * **Per-matrix FIFO.** The dispatcher keeps one queue per resident
//!   matrix and dispatches at most one job per matrix at a time. A value
//!   refresh therefore acts as an ordering barrier: every SpMV submitted
//!   before it computes against the old values, everything after against
//!   the new — while different matrices proceed in parallel across the
//!   worker pool.
//! * **Coalescing.** Consecutive single-vector SpMV requests at the head
//!   of a queue (any tenant) merge into one batch of up to
//!   `max_batch` columns and run through
//!   [`dasp_core::DaspMatrix::spmv_batch_into`], the batched SpMV verb —
//!   the SpMM panel sweep, which streams A's values and indices **once
//!   for the whole batch**; SpMM requests run
//!   [`dasp_core::DaspMatrix::spmm_into`]. Every response is bit-identical to a direct
//!   single-vector `spmv` of the same request (the SpMM kernels'
//!   column-equivalence guarantee).
//! * **Work-conserving.** The dispatcher never holds a request while its
//!   matrix is idle. A lone SpMV goes out at width 1; the SpMVs that
//!   queue while a job runs go out together when it finishes, up to
//!   `max_batch` and up to the first non-coalescible request (SpMM /
//!   refresh / PageRank) behind them. The running job is the batching
//!   window, so no timer adds latency at low load, and under load the
//!   panels fill by themselves.
//! * **Observability.** A [`dasp_trace::Registry`] carries request
//!   counters, per-tenant latency histograms
//!   ([`dasp_trace::Histogram::quantile`] gives p50/p99), queue-depth
//!   and admission stats, batch-width and flush-cause breakdowns, plan
//!   cache hits/misses/evictions, and (when a device model is
//!   configured) modeled GPU busy time per batch. `DASP_SANITIZE=1` or
//!   `=report` works unchanged as a canary: every kernel the server runs
//!   re-dispatches through the compute sanitizer exactly as direct calls
//!   do.
//!
//! # Quick example
//!
//! ```
//! use dasp_serve::{Server, ServeConfig};
//! use dasp_sparse::Coo;
//!
//! let mut coo = Coo::<f64>::new(4, 4);
//! for i in 0..4 { coo.push(i, i, 2.0); }
//! let server = Server::start(ServeConfig::default());
//! server.register("diag", &coo.to_csr()).unwrap();
//! let h = server.handle();
//! let t = h.spmv("tenant-a", "diag", vec![1.0; 4]).unwrap();
//! assert_eq!(t.wait_vector().unwrap(), vec![2.0; 4]);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod loadgen;
pub mod metrics;
mod request;
mod server;

pub use config::ServeConfig;
pub use loadgen::{run_closed_loop, ClientSpec, LoadReport, LoadSpec};
pub use request::{RejectReason, Reply, ServeError, Ticket, Work};
pub use server::{RegisterInfo, Server, ServerHandle, ShutdownReport};

//! Metric names and histogram bounds the server publishes.
//!
//! All metrics live in the server's [`dasp_trace::Registry`] under the
//! `serve.` prefix (tenant-scoped series under `serve.tenant.<name>.`),
//! following the workspace's dotted naming scheme. Tenant names become
//! metric-name components: keep their cardinality bounded.

use dasp_trace::log_bounds;

/// End-to-end request latency (submit to reply), microseconds.
pub const LATENCY_US: &str = "serve.latency_us";
/// Time a request spent queued before its batch dispatched, microseconds.
/// At low load only dispatcher scheduling: a request for an idle matrix
/// dispatches at once; under load, the rest of the job running ahead of it.
pub const QUEUE_WAIT_US: &str = "serve.queue_wait_us";
/// Coalesced batch width at flush (1 for solo dispatches).
pub const BATCH_WIDTH: &str = "serve.batch.width";
/// Modeled GPU time per dispatched batch on the configured device,
/// microseconds; the histogram `sum` is total modeled busy time.
pub const MODELED_BATCH_US: &str = "serve.modeled.batch_us";

/// Requests admitted to a queue.
pub const ACCEPTED: &str = "serve.requests.accepted";
/// Requests refused (queue full / unknown matrix / bad shape / non-finite
/// payload / drain).
pub const REJECTED: &str = "serve.requests.rejected";
/// Requests answered successfully.
pub const COMPLETED: &str = "serve.requests.completed";
/// Requests that executed and failed.
pub const FAILED: &str = "serve.requests.failed";
/// Value refreshes applied.
pub const REFRESHES: &str = "serve.refreshes";
/// Matrices registered over the server's lifetime.
pub const MATRICES_REGISTERED: &str = "serve.matrices.registered";
/// Registrations refused at admission by static plan verification.
pub const MATRICES_REJECTED: &str = "serve.matrices.rejected";

/// Flushes that dispatched a full `max_batch`-wide batch.
pub const FLUSH_FULL: &str = "serve.flush.full";
/// Partial batches dispatched because their matrix went idle: a lone
/// SpMV on an idle matrix, or the SpMVs that queued behind a finished job
/// (fewer than `max_batch`, nothing else queued behind them). The running
/// job is the batching window; no timer is involved.
pub const FLUSH_WINDOW: &str = "serve.flush.window";
/// Partial batches ended by a non-coalescible request queued behind them.
pub const FLUSH_BARRIER: &str = "serve.flush.barrier";
/// Partial batches dispatched while the server drains at shutdown.
pub const FLUSH_DRAIN: &str = "serve.flush.drain";
/// Solo dispatches (non-SpMV work, or coalescing disabled).
pub const FLUSH_SOLO: &str = "serve.flush.solo";

/// Live queued requests across all matrices (gauge, dispatcher-updated).
pub const QUEUE_DEPTH: &str = "serve.queue.depth";
/// High-water mark of [`QUEUE_DEPTH`] (gauge).
pub const QUEUE_DEPTH_PEAK: &str = "serve.queue.depth_peak";

/// Per-tenant request counter: `serve.tenant.<tenant>.requests`.
pub fn tenant_requests(tenant: &str) -> String {
    format!("serve.tenant.{tenant}.requests")
}

/// Per-tenant latency histogram: `serve.tenant.<tenant>.latency_us`.
pub fn tenant_latency_us(tenant: &str) -> String {
    format!("serve.tenant.{tenant}.latency_us")
}

/// Bounds for the latency/wait histograms: log-spaced, 1 µs to ≥10 s.
pub fn latency_bounds() -> Vec<f64> {
    log_bounds(1.0, 1e7, 6)
}

/// Bounds for modeled batch times: log-spaced, 10 ns to ≥1 s (in µs).
pub fn modeled_bounds() -> Vec<f64> {
    log_bounds(0.01, 1e6, 6)
}

/// Bounds for the batch-width histogram: one bucket per width up to 64.
pub fn width_bounds() -> Vec<f64> {
    (1..=64).map(|w| w as f64).collect()
}

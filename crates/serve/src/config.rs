//! Server configuration.

use std::time::Duration;

use dasp_core::PlanCache;
use dasp_perf::DeviceModel;
use dasp_simt::Executor;

/// Configuration for a [`crate::Server`].
///
/// The defaults are a reasonable interactive profile: coalescing on, an
/// 8-wide batch cap (one full `mma.m8n8k4` B panel), two workers, and the
/// environment-selected executor.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing batches. At most one job per matrix is in
    /// flight at a time (the per-matrix FIFO guarantee), so extra workers
    /// buy parallelism *across* resident matrices, not within one.
    pub workers: usize,
    /// Unread. The dispatcher is work-conserving: it never holds a request
    /// while its matrix is idle, and the running job is the only batching
    /// window. The field is kept until the benchmark, which sets every
    /// field of this struct, drops it.
    pub batch_window: Duration,
    /// Maximum coalesced batch width. 8 fills one MMA B panel; larger
    /// values run the large-N panel-tiled sweep (A traffic is
    /// width-independent, so wider is strictly better when load allows).
    pub max_batch: usize,
    /// When `false`, every SpMV dispatches solo — the control arm of the
    /// `ext4` experiment, and an escape hatch for latency-critical
    /// single-tenant deployments.
    pub coalesce: bool,
    /// Admission cap per matrix queue; requests beyond it are rejected
    /// with [`crate::RejectReason::QueueFull`] rather than queued without
    /// bound.
    pub queue_cap: usize,
    /// Executor the kernels run under (`seq` for deterministic
    /// measurement, `par` to fan warps over threads *within* a batch).
    pub executor: Executor,
    /// Plan cache capacity. `None` reads `DASP_PLAN_CACHE_CAP` (default
    /// [`dasp_core::DEFAULT_PLAN_CACHE_CAP`]); a multi-tenant server
    /// wants this at least as large as its resident-matrix working set —
    /// watch `format.plan_cache.evictions`.
    pub plan_cache_cap: Option<usize>,
    /// When set, every batch runs under a counting probe and its modeled
    /// GPU time on this device is recorded (`serve.modeled.batch_us`) —
    /// the accounting behind the `ext4` throughput numbers. `None` runs
    /// uninstrumented ([`dasp_simt::NoProbe`]).
    pub model: Option<DeviceModel>,
    /// Record `serve.batch` spans (plus the kernels' own spans) in
    /// per-worker tracers, returned by [`crate::Server::shutdown`].
    pub traced: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            batch_window: Duration::ZERO,
            max_batch: 8,
            coalesce: true,
            queue_cap: 1024,
            executor: Executor::from_env(),
            plan_cache_cap: None,
            model: None,
            traced: false,
        }
    }
}

impl ServeConfig {
    /// Builds the plan cache this configuration asks for.
    pub(crate) fn build_plan_cache(&self) -> PlanCache {
        match self.plan_cache_cap {
            Some(cap) => PlanCache::with_capacity(cap),
            None => PlanCache::from_env(),
        }
    }

    /// Validates and normalizes the configuration.
    pub(crate) fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.max_batch = self.max_batch.max(1);
        self.queue_cap = self.queue_cap.max(1);
        self
    }
}
